"""Choice functions that dodge a family of forbidden partial choices.

An instance fixes pairwise disjoint universes and a list of forbidden
partial choice functions, each given as an element set touching every
universe at most once.  The expectation-side condition on inclusion
marginals is checked in both of its algebraic forms, and a resampling
search turns feasible marginals into an explicit choice when luck allows.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import (CHOICE_CAP, STRING_ROWS, TOL, UsageError, json_list,
                   json_numbers)
from .rng import Generator, pairwise_sum


class _ChoiceInstanceFields(NamedTuple):
    universes: tuple[tuple[str, ...], ...]
    forbidden: tuple[frozenset[str], ...]


class ChoiceInstance(_ChoiceInstanceFields):
    @staticmethod
    def build(universes: Iterable[Iterable[str]],
              forbidden: Iterable[Iterable[str]]) -> "ChoiceInstance":
        unis = tuple(tuple(str(x) for x in u) for u in universes)
        if not unis:
            raise UsageError("need at least one universe")
        owner: dict[str, int] = {}
        for i, u in enumerate(unis):
            if not u:
                raise UsageError(f"universe {i} is empty")
            for x in u:
                if x in owner:
                    raise UsageError(f"element {x!r} appears twice")
                owner[x] = i
        cleaned = []
        for j, raw in enumerate(forbidden):
            p = frozenset(str(x) for x in raw)
            if not p:
                raise UsageError(f"forbidden set {j} is empty")
            unknown = sorted(x for x in p if x not in owner)
            if unknown:
                raise UsageError(
                    f"forbidden set {j} uses unknown element {unknown[0]!r}")
            hits = Counter(owner[x] for x in p)
            doubled = [i for i, n in hits.items() if n > 1]
            if doubled:
                raise UsageError(
                    f"forbidden set {j} picks {hits[doubled[0]]} elements "
                    f"from universe {doubled[0]}")
            cleaned.append(p)
        return ChoiceInstance(unis, tuple(cleaned))

    @cached_property
    def universe_of(self) -> dict[str, int]:
        return {x: i for i, u in enumerate(self.universes) for x in u}

    @cached_property
    def domains(self) -> tuple[frozenset[int], ...]:
        """dom(P_j): universe indices each forbidden set touches."""
        return tuple(frozenset(self.universe_of[x] for x in p)
                     for p in self.forbidden)

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Per universe, the sorted indices of forbidden sets touching it."""
        at: list[list[int]] = [[] for _ in self.universes]
        for j, dom in enumerate(self.domains):
            for i in dom:
                at[i].append(j)
        return tuple(tuple(js) for js in at)


def avoids_all(inst: ChoiceInstance, choice: Sequence[str]) -> bool:
    """A full choice avoids a forbidden set when it disagrees with it on
    at least one universe of its domain."""
    if len(choice) != len(inst.universes):
        raise UsageError("choice must pick one element per universe")
    for i, x in enumerate(choice):
        if inst.universe_of.get(x) != i:
            raise UsageError(f"choice entry {x!r} is not in universe {i}")
    picked = frozenset(choice)
    return all(not p <= picked for p in inst.forbidden)


# ------------------------------------------------------ marginal weights

class MarginalWeights(NamedTuple):
    """Inclusion marginals p(x) = Pr(x in M) with per-universe totals."""

    p: dict[str, float]
    tau: tuple[float, ...]

    @staticmethod
    def build(inst: ChoiceInstance,
              p: Mapping[str, float]) -> "MarginalWeights":
        table: dict[str, float] = {}
        for u in inst.universes:
            for x in u:
                if x not in p:
                    raise UsageError(f"no weight for element {x!r}")
                value = float(p[x])
                if not -TOL <= value <= 1.0 + TOL:
                    raise UsageError(f"weight {value} for {x!r} outside "
                                     "[0, 1]")
                table[x] = min(max(value, 0.0), 1.0)
        extra = sorted(set(p) - set(table))
        if extra:
            raise UsageError(f"weight given for unknown element "
                             f"{extra[0]!r}")
        totals = tuple(math.fsum(table[x] for x in u)
                       for u in inst.universes)
        return MarginalWeights(table, totals)


class ExpectationReport(NamedTuple):
    feasible: bool
    sum_margins: tuple[float, ...]       # direct per-universe form
    tau_margins: tuple[float, ...]       # normalized form, same numbers
    equivalence_gap: float


def check_expectation_condition(inst: ChoiceInstance,
                                weights: MarginalWeights,
                                tol: float = TOL) -> ExpectationReport:
    """Per universe i the condition reads

        sum_{x in U_i} p(x) >= 1 + sum_{j through i} prod_{x in P_j} p(x).

    Dividing by totals gives the equivalent normalized form
    tau(i) >= 1 + sum q-products times tau(dom P_j); both margin vectors
    are computed independently and must agree, which is asserted here.
    """
    for i, total in enumerate(weights.tau):
        if total <= 0.0:
            raise UsageError(f"universe {i} has zero total weight")
    q = {x: weights.p[x] / weights.tau[inst.universe_of[x]]
         for u in inst.universes for x in u}
    sum_margins = []
    tau_margins = []
    for i in range(len(inst.universes)):
        direct = math.fsum(
            math.prod(weights.p[x] for x in inst.forbidden[j])
            for j in inst.incident[i])
        normalized = math.fsum(
            math.prod(q[x] for x in inst.forbidden[j])
            * math.prod(weights.tau[k] for k in inst.domains[j])
            for j in inst.incident[i])
        sum_margins.append(weights.tau[i] - 1.0 - direct)
        tau_margins.append(weights.tau[i] - 1.0 - normalized)
    gap = max((abs(a - b) for a, b in zip(sum_margins, tau_margins)),
              default=0.0)
    scale = max([1.0] + [abs(m) for m in sum_margins])
    if gap > TOL * scale:
        raise RuntimeError(f"the two condition forms disagree by {gap}")
    feasible = all(m >= -tol for m in sum_margins)
    return ExpectationReport(feasible, tuple(sum_margins),
                             tuple(tau_margins), gap)


# ------------------------------------------------------ randomized search

class ChoiceSearchResult(NamedTuple):
    status: str                          # "found" or "cap-exhausted"
    choice: tuple[str, ...] | None
    resamples: int


def randomized_choice_search(inst: ChoiceInstance, weights: MarginalWeights,
                             seed: int, cap: int = CHOICE_CAP,
                             report: ExpectationReport | None = None
                             ) -> ChoiceSearchResult:
    """Sample each universe by its normalized marginals, then repeatedly
    resample every universe of the first violated forbidden set.  Stops at
    the cap; a returned choice is always re-verified.  The marginals must
    pass the expectation condition: `report` is its check of these
    weights, made here at the default tolerance when not given."""
    if report is None:
        report = check_expectation_condition(inst, weights)
    if not report.feasible:
        raise UsageError("expectation condition is infeasible")
    if cap < 0:
        raise UsageError("resample cap must be nonnegative")
    rng = Generator(seed)
    dists = []
    for u in inst.universes:
        probs = [weights.p[x] for x in u]
        total = pairwise_sum(probs)
        dists.append([x / total for x in probs])

    def draw(i: int) -> str:
        return inst.universes[i][rng.choice(dists[i])]

    current = [draw(i) for i in range(len(inst.universes))]
    resamples = 0
    while True:
        picked = frozenset(current)
        violated = next((j for j, p in enumerate(inst.forbidden)
                         if p <= picked), None)
        if violated is None:
            choice = tuple(current)
            if not avoids_all(inst, choice):
                raise RuntimeError("search produced a non-avoiding choice")
            return ChoiceSearchResult("found", choice, resamples)
        if resamples >= cap:
            return ChoiceSearchResult("cap-exhausted", None, resamples)
        for i in sorted(inst.domains[violated]):
            current[i] = draw(i)
        resamples += 1


# ----------------------------------------------------------------- JSON

def choice_from_json(obj: Mapping) -> ChoiceInstance:
    """Universes and forbidden sets must be JSON lists of strings: str()
    in ChoiceInstance.build would read 2 as "2"."""
    try:
        universes = json_list(obj["universes"], STRING_ROWS, "universes")
        forbidden = json_list(obj.get("forbidden", []), STRING_ROWS,
                              "forbidden")
    except (TypeError, KeyError) as exc:
        raise UsageError(f"malformed choice instance: {exc}") from exc
    return ChoiceInstance.build(universes, forbidden)


def marginals_from_json(inst: ChoiceInstance,
                        obj: Mapping[str, float]) -> MarginalWeights:
    if not isinstance(obj, Mapping):
        raise UsageError("weights must be an element-to-number map")
    weights = json_numbers(list(obj.values()), "the weights")
    return MarginalWeights.build(inst, dict(zip(obj, weights)))
