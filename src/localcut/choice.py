"""Choice functions that dodge a family of forbidden partial choices.

An instance fixes pairwise disjoint universes and a list of forbidden
partial choice functions, each given as an element set touching every
universe at most once.  A multichoice is any element subset; it certifies
success when every universe keeps more elements than the count of
forbidden functions fully contained in the multichoice (its defect).
From a certified multichoice a concrete avoiding choice falls out
greedily.  The expectation-side condition on inclusion marginals is
checked in both of its algebraic forms, and a resampling search turns
feasible marginals into an explicit choice when luck allows.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import TOL
from .instances import Graph

RESAMPLE_CAP = 10 ** 4


class ChoiceError(ValueError):
    pass


class _ChoiceInstanceFields(NamedTuple):
    universes: tuple[tuple[str, ...], ...]
    forbidden: tuple[frozenset[str], ...]


class ChoiceInstance(_ChoiceInstanceFields):
    @staticmethod
    def build(universes: Iterable[Iterable[str]],
              forbidden: Iterable[Iterable[str]]) -> "ChoiceInstance":
        unis = tuple(tuple(str(x) for x in u) for u in universes)
        if not unis:
            raise ChoiceError("need at least one universe")
        owner: dict[str, int] = {}
        for i, u in enumerate(unis):
            if not u:
                raise ChoiceError(f"universe {i} is empty")
            for x in u:
                if x in owner:
                    raise ChoiceError(f"element {x!r} appears twice")
                owner[x] = i
        cleaned = []
        for j, raw in enumerate(forbidden):
            p = frozenset(str(x) for x in raw)
            if not p:
                raise ChoiceError(f"forbidden set {j} is empty")
            unknown = sorted(x for x in p if x not in owner)
            if unknown:
                raise ChoiceError(
                    f"forbidden set {j} uses unknown element {unknown[0]!r}")
            hits = Counter(owner[x] for x in p)
            doubled = [i for i, n in hits.items() if n > 1]
            if doubled:
                raise ChoiceError(
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


def _as_element_set(inst: ChoiceInstance, elements: Iterable[str],
                    what: str) -> frozenset[str]:
    chosen = frozenset(elements)
    unknown = sorted(x for x in chosen if x not in inst.universe_of)
    if unknown:
        raise ChoiceError(f"{what} contains unknown element {unknown[0]!r}")
    return chosen


def defect(inst: ChoiceInstance, multichoice: Iterable[str], i: int) -> int:
    """Number of forbidden sets through universe i fully inside the
    multichoice."""
    if not 0 <= i < len(inst.universes):
        raise ChoiceError(f"universe index {i} out of range")
    chosen = _as_element_set(inst, multichoice, "multichoice")
    return sum(1 for j in inst.incident[i] if inst.forbidden[j] <= chosen)


def multichoice_certificate(inst: ChoiceInstance,
                            multichoice: Iterable[str]) -> bool:
    """True when every universe keeps strictly more elements than its
    defect, which guarantees an avoiding choice can be extracted."""
    chosen = _as_element_set(inst, multichoice, "multichoice")
    for i, universe in enumerate(inst.universes):
        kept = sum(1 for x in universe if x in chosen)
        if kept < 1 + defect(inst, chosen, i):
            return False
    return True


def avoids_all(inst: ChoiceInstance, choice: Sequence[str]) -> bool:
    """A full choice avoids a forbidden set when it disagrees with it on
    at least one universe of its domain."""
    if len(choice) != len(inst.universes):
        raise ChoiceError("choice must pick one element per universe")
    for i, x in enumerate(choice):
        if inst.universe_of.get(x) != i:
            raise ChoiceError(f"choice entry {x!r} is not in universe {i}")
    picked = frozenset(choice)
    return all(not p <= picked for p in inst.forbidden)


def extract_choice(inst: ChoiceInstance,
                   multichoice: Iterable[str]) -> tuple[str, ...]:
    """Greedy extraction from a certified multichoice.

    In universe i, every contained forbidden set bans its one element
    there; the defect bound leaves at least one element free, and the
    smallest id among the free ones is taken.
    """
    chosen = _as_element_set(inst, multichoice, "multichoice")
    if not multichoice_certificate(inst, chosen):
        raise ChoiceError("multichoice is not certified")
    picks: list[str] = []
    for i, universe in enumerate(inst.universes):
        banned = set()
        for j in inst.incident[i]:
            p = inst.forbidden[j]
            if p <= chosen:
                banned.update(x for x in p if inst.universe_of[x] == i)
        free = sorted(x for x in universe if x in chosen and x not in banned)
        if not free:
            raise RuntimeError(f"certified multichoice left universe {i} "
                               "with no free element")
        picks.append(free[0])
    choice = tuple(picks)
    if not avoids_all(inst, choice):
        raise RuntimeError("extracted choice fails the avoidance check")
    return choice


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
                    raise ChoiceError(f"no weight for element {x!r}")
                value = float(p[x])
                if not -TOL <= value <= 1.0 + TOL:
                    raise ChoiceError(f"weight {value} for {x!r} outside "
                                      "[0, 1]")
                table[x] = min(max(value, 0.0), 1.0)
        extra = sorted(set(p) - set(table))
        if extra:
            raise ChoiceError(f"weight given for unknown element "
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
            raise ChoiceError(f"universe {i} has zero total weight")
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
    if gap > 1e-12 * scale:
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
                             seed: int, cap: int = RESAMPLE_CAP,
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
        raise ChoiceError("expectation condition is infeasible")
    if cap < 0:
        raise ChoiceError("resample cap must be nonnegative")
    rng = np.random.default_rng(seed)
    dists = []
    for i, u in enumerate(inst.universes):
        probs = np.array([weights.p[x] for x in u], dtype=float)
        dists.append(probs / probs.sum())

    def draw(i: int) -> str:
        u = inst.universes[i]
        return u[int(rng.choice(len(u), p=dists[i]))]

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


# ------------------------------------------------------- example builder

def list_coloring_choice(graph: Graph,
                         lists: Mapping[str, Sequence[str]]
                         ) -> ChoiceInstance:
    """Proper list coloring as a choice instance: one universe of
    vertex:color elements per vertex, one forbidden pair per edge and
    shared color."""
    missing = sorted(v for v in graph.vertices if v not in lists)
    if missing:
        raise ChoiceError(f"no color list for vertex {missing[0]!r}")
    universes = [tuple(f"{v}:{c}" for c in lists[v])
                 for v in graph.vertices]
    forbidden = []
    for edge in graph.edges:
        u, v = sorted(edge)
        for c in lists[u]:
            if c in lists[v]:
                forbidden.append((f"{u}:{c}", f"{v}:{c}"))
    return ChoiceInstance.build(universes, forbidden)


# ----------------------------------------------------------------- JSON

def choice_from_json(obj: Mapping) -> ChoiceInstance:
    try:
        universes = obj["universes"]
        forbidden = obj.get("forbidden", [])
    except (TypeError, KeyError) as exc:
        raise ChoiceError(f"malformed choice instance: {exc}") from exc
    return ChoiceInstance.build(universes, forbidden)


def marginals_from_json(inst: ChoiceInstance,
                        obj: Mapping[str, float]) -> MarginalWeights:
    if not isinstance(obj, Mapping):
        raise ChoiceError("weights must be an element-to-number map")
    return MarginalWeights.build(inst, {str(k): float(v)
                                        for k, v in obj.items()})
