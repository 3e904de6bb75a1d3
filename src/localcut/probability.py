"""Finite product probability spaces: exact enumeration, conditioning,
Monte-Carlo estimation, and exact risk tables for cut models.

Conditional probabilities follow the convention Pr(P | Q) = 0 whenever
Pr(Q) = 0, so Pr(P | Q) * Pr(Q) = Pr(P and Q) holds without case splits.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Mapping, NamedTuple

from .core import ENUM_CAP, EnumerationCapError
from .digraph import MultiDigraph, head_reach, underlying_simple

SamplePoint = dict
Event = Callable[[SamplePoint], bool]

WEIGHT_SUM_TOL = 1e-12


class SpaceError(ValueError):
    """Malformed product-space data."""


class Variable(NamedTuple):
    name: str
    values: tuple
    weights: tuple[float, ...]


class ProductSpace(NamedTuple):
    """Independent named variables, each with a finite weighted value set."""

    variables: tuple[Variable, ...]

    @staticmethod
    def build(variables: list[tuple[str, list, list[float]]]) -> "ProductSpace":
        out = []
        seen: set[str] = set()
        for name, values, weights in variables:
            if name in seen:
                raise SpaceError(f"duplicate variable {name!r}")
            seen.add(name)
            if not values:
                raise SpaceError(f"variable {name!r} has no values")
            if len(values) != len(weights):
                raise SpaceError(f"variable {name!r}: {len(values)} values "
                                 f"but {len(weights)} weights")
            if any(w < 0 for w in weights):
                raise SpaceError(f"variable {name!r} has a negative weight")
            if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
                raise SpaceError(f"variable {name!r}: weights sum to "
                                 f"{sum(weights)}, not 1")
            out.append(Variable(name, tuple(values), tuple(weights)))
        return ProductSpace(tuple(out))

    @staticmethod
    def uniform(variables: list[tuple[str, list]]) -> "ProductSpace":
        return ProductSpace.build(
            [(name, values, [1.0 / len(values)] * len(values))
             for name, values in variables])

    @property
    def n_outcomes(self) -> int:
        return math.prod(len(v.values) for v in self.variables)

    def check_cap(self, cap: int = ENUM_CAP) -> None:
        if self.n_outcomes > cap:
            raise EnumerationCapError(
                f"{self.n_outcomes} outcomes exceed cap {cap}")

    def outcomes(self, cap: int = ENUM_CAP) -> Iterator[tuple[SamplePoint, float]]:
        """Yield (sample point, probability) for every outcome."""
        self.check_cap(cap)
        names = [v.name for v in self.variables]
        values = itertools.product(*(v.values for v in self.variables))
        weights = itertools.product(*(v.weights for v in self.variables))
        for combo, ws in zip(values, weights):
            # left to right from 1.0, the same floats as a plain loop
            yield dict(zip(names, combo)), math.prod(ws, start=1.0)

    def outcomes_exact(self, cap: int = ENUM_CAP) -> Iterator[tuple[SamplePoint, Fraction]]:
        """Outcome enumeration with exact rational probabilities.

        Weights are taken at their binary-float values, so the rationals
        reproduce the float inputs exactly rather than any decimal intent.
        """
        from fractions import Fraction      # only exact sums use rationals

        self.check_cap(min(cap, 1 << 16))
        names = [v.name for v in self.variables]
        pairs = [[(val, Fraction(w)) for val, w in zip(v.values, v.weights)]
                 for v in self.variables]
        for combo in itertools.product(*pairs):
            prob = Fraction(1)
            for _, w in combo:
                prob *= w
            yield dict(zip(names, (val for val, _ in combo))), prob

    def sample_batch(self, trials: int, seed: int) -> list[SamplePoint]:
        """Deterministic batch of independent samples for the given seed."""
        import numpy as np          # only Monte Carlo estimation draws

        rng = np.random.default_rng(seed)
        columns = []
        for var in self.variables:
            idx = rng.choice(len(var.values), size=trials, p=np.array(var.weights))
            columns.append([var.values[i] for i in idx])
        names = [v.name for v in self.variables]
        return [dict(zip(names, row)) for row in zip(*columns)] if columns else \
               [{} for _ in range(trials)]


class _Kahan:
    """Compensated accumulator; the corpus sums thousands of tiny terms."""

    __slots__ = ("total", "carry")

    def __init__(self) -> None:
        self.total = 0.0
        self.carry = 0.0

    def add(self, x: float) -> None:
        y = x - self.carry
        t = self.total + y
        self.carry = (t - self.total) - y
        self.total = t


def exact_prob(space: ProductSpace, event: Event, *,
               cap: int = ENUM_CAP, exact: bool = False):
    """Probability of the event by full enumeration.

    With exact=True the sum is done in rationals (small spaces only) and a
    Fraction is returned.
    """
    if exact:
        from fractions import Fraction

        total = Fraction(0)
        for point, prob in space.outcomes_exact(cap):
            if event(point):
                total += prob
        return total
    acc = _Kahan()
    for point, prob in space.outcomes(cap):
        if event(point):
            acc.add(prob)
    return acc.total


def cond_prob(space: ProductSpace, event: Event, given: Event, *,
              cap: int = ENUM_CAP, exact: bool = False):
    """Pr(event | given); 0 when the condition has probability 0."""
    if exact:
        from fractions import Fraction

        joint = Fraction(0)
        base = Fraction(0)
        for point, prob in space.outcomes_exact(cap):
            if given(point):
                base += prob
                if event(point):
                    joint += prob
        return joint / base if base else Fraction(0)
    joint = _Kahan()
    base = _Kahan()
    for point, prob in space.outcomes(cap):
        if given(point):
            base.add(prob)
            if event(point):
                joint.add(prob)
    return joint.total / base.total if base.total > 0.0 else 0.0


class McEstimate(NamedTuple):
    estimate: float
    half_width: float      # 95% normal-approximation interval half-width
    conditioned: bool      # False when no trial satisfied the condition
    hits: int              # trials satisfying the condition
    trials: int


def estimate_cond_prob(space: ProductSpace, event: Event, given: Event,
                       trials: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of Pr(event | given), deterministic per seed."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    hits = 0
    joint = 0
    for point in space.sample_batch(trials, seed):
        if given(point):
            hits += 1
            if event(point):
                joint += 1
    if hits == 0:
        return McEstimate(0.0, math.inf, False, 0, trials)
    p = joint / hits
    half = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / hits)
    return McEstimate(p, half, True, hits, trials)


# ------------------------------------------------------------- cut models

class CutModel(NamedTuple):
    """Measurable assignment of an out-closed vertex set and a cut.

    a_of maps a sample point to the random vertex set; f_of maps it to the
    random edge set.  Validity (out-closure, cut coverage) is checked by
    validate_cut_model, not assumed.
    """

    digraph: MultiDigraph
    a_of: Callable[[SamplePoint], frozenset[str]]
    f_of: Callable[[SamplePoint], frozenset[str]]


class ModelCheck(NamedTuple):
    ok: bool
    counterexample: SamplePoint | None
    reason: str


def _cut_checker(graph: MultiDigraph
                 ) -> Callable[[frozenset[str], frozenset[str]], str | None]:
    """The per-outcome test of a cut model on this digraph.

    The returned function maps (A, F) of one outcome to None when A is
    out-closed and F is a set of known edges hitting every arc that enters
    A, and otherwise to the reason, naming the first failure found.
    """
    arcs = tuple(underlying_simple(graph).arcs)
    known = graph.edge_by_id
    arcs_by_head: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for (tail, head), eids in graph.edges_by_arc.items():
        arcs_by_head.setdefault(head, []).append((tail, eids))

    def check(inside: frozenset[str], chosen: frozenset[str]) -> str | None:
        for tail, head in arcs:
            if tail in inside and head not in inside:
                return f"A not out-closed: arc ({tail},{head})"
        for eid in chosen:
            if eid not in known:
                return f"F names unknown edge {eid!r}"
        for head in inside:
            for tail, eids in arcs_by_head.get(head, ()):
                if tail not in inside and chosen.isdisjoint(eids):
                    return f"F misses boundary arc ({tail},{head})"
        return None

    return check


def validate_cut_model(space: ProductSpace, model: CutModel, *,
                       cap: int = ENUM_CAP) -> ModelCheck:
    """Check out-closure of A and cut coverage of F on every outcome of
    positive probability."""
    check = _cut_checker(model.digraph)
    for point, prob in space.outcomes(cap):
        if prob <= 0.0:
            continue
        reason = check(model.a_of(point), model.f_of(point))
        if reason is not None:
            return ModelCheck(False, point, reason)
    return ModelCheck(True, None, "ok")


class RiskTable:
    """Conditional edge probabilities Pr(e in F | z in A), keyed by
    (edge id, vertex id) with z reachable from the head of e.

    The table stores only the pairs its source gives.  An unlisted
    reachable pair reads as 1.0, the trivially sound value."""

    __slots__ = ("entries",)

    # a plain class, not a NamedTuple: its own __init__ stays in its
    # __dict__, where a wrapper can replace it
    def __init__(self, entries: dict[tuple[str, str], float]) -> None:
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set {name!r}: a RiskTable is read-only")

    def __eq__(self, other):
        if not isinstance(other, RiskTable):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"RiskTable(entries={self.entries!r})"

    def validate(self, graph: MultiDigraph,
                 reach: Mapping[str, frozenset[str]] | None = None) -> None:
        """Each stored pair names a known edge and a vertex reachable from
        its head, with a value in [0, 1] up to 1e-12 of slack.  `reach`,
        if given, maps every edge head to the vertices it reaches."""
        if reach is None:
            reach = head_reach(graph)
        for key, p in self.entries.items():
            edge = graph.edge_by_id.get(key[0])
            if edge is None or key[1] not in reach[edge.head]:
                raise SpaceError(f"risk entry {key} is not a reachable pair")
            if not (-1e-12 <= p <= 1.0 + 1e-12):
                raise SpaceError(f"risk {p} at {key} outside [0,1]")


def risk_table_exact(space: ProductSpace, model: CutModel, *,
                     cap: int = ENUM_CAP) -> tuple[RiskTable, ModelCheck]:
    """Exact risk table by one sweep over the outcome space, with the
    model's check.

    The same sweep runs validate_cut_model's test on each outcome until
    the first failure, so the ModelCheck returned with the table is the
    one validate_cut_model gives.  Edges that F names but the digraph
    lacks add no mass; the check reports them.
    """
    graph = model.digraph
    reach = head_reach(graph)
    check = _cut_checker(graph)
    checked = ModelCheck(True, None, "ok")
    vertex_mass = {v: _Kahan() for v in graph.vertices}
    joint = {(e.id, z): _Kahan() for e in graph.edges for z in reach[e.head]}
    rows = {e.id: tuple((z, joint[(e.id, z)]) for z in reach[e.head])
            for e in graph.edges}
    for point, prob in space.outcomes(cap):
        if prob <= 0.0:
            continue
        inside = model.a_of(point)
        chosen = model.f_of(point)
        if checked.ok:
            reason = check(inside, chosen)
            if reason is not None:
                checked = ModelCheck(False, point, reason)
        for v in inside:
            vertex_mass[v].add(prob)
        for eid in chosen:
            for z, acc in rows.get(eid, ()):
                if z in inside:
                    acc.add(prob)
    entries = {}
    for key, acc in joint.items():
        base = vertex_mass[key[1]].total
        entries[key] = min(acc.total / base, 1.0) if base > 0.0 else 0.0
    table = RiskTable(entries)
    table.validate(graph, reach)
    return table, checked


def vertex_probabilities(space: ProductSpace, model: CutModel, *,
                         cap: int = ENUM_CAP) -> dict[str, float]:
    """Pr(v in A) for every vertex, by enumeration."""
    acc = {v: _Kahan() for v in model.digraph.vertices}
    for point, prob in space.outcomes(cap):
        if prob <= 0.0:
            continue
        for v in model.a_of(point):
            acc[v].add(prob)
    return {v: k.total for v, k in acc.items()}


# ---------------------------------------------------------------- JSON I/O

def space_from_json(obj: dict) -> ProductSpace:
    """Parse {"variables": [{"name","values","weights"}, ...]}."""
    try:
        rows = obj["variables"]
        triples = [(r["name"], r["values"], [float(w) for w in r["weights"]])
                   for r in rows]
    except (KeyError, TypeError) as exc:
        raise SpaceError(f"bad product-space object: {exc}") from exc
    return ProductSpace.build(triples)


def risk_table_from_json(obj: dict,
                         graph: MultiDigraph | None = None) -> RiskTable:
    """Parse {"risks": [{"edge","z","p"}, ...]} into a table of the listed
    rows, validated when a graph is given (CutInstance.build validates)."""
    try:
        rows = obj["risks"]
    except (KeyError, TypeError) as exc:
        raise SpaceError(f"bad risk object: {exc}") from exc
    entries = {}
    for r in rows:
        try:
            entries[(r["edge"], r["z"])] = float(r["p"])
        except (KeyError, TypeError) as exc:
            raise SpaceError(f"bad risk row {r!r}: {exc}") from exc
    table = RiskTable(entries)
    if graph is not None:
        table.validate(graph)
    return table
