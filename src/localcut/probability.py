"""Finite product probability spaces: exact enumeration, conditioning,
and exact risk tables for cut models.

Enumerated probabilities are exact: every outcome carries an integer mass,
sums are sums of Python ints, and each result is one division, correctly
rounded; risk entries and worst conditionals are rounded up instead.
Conditional probabilities follow the convention Pr(P | Q) = 0 whenever
Pr(Q) = 0, so Pr(P | Q) * Pr(Q) = Pr(P and Q) holds without case splits.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Callable, Iterator, Mapping, NamedTuple

from .core import (ENUM_CAP, LIST, STRING, TOL, EnumerationCapError,
                   UsageError, json_list, json_numbers, json_value)
from .digraph import MultiDigraph, head_reach, underlying_simple

SamplePoint = dict
Event = Callable[[SamplePoint], bool]


class Variable(NamedTuple):
    name: str
    values: tuple
    weights: tuple[float, ...]
    masses: tuple[int, ...]     # the weights as coprime integers, in ratio


class ProductSpace(NamedTuple):
    """Independent named variables, each with a finite weighted value set.

    An outcome's mass is the product of its values' masses, and
    mass / unit is its probability: unit, the product of each variable's
    mass sum, is the mass of the whole space, so Pr(space) = 1 exactly
    even when a variable's float weights sum to 1 only up to TOL."""

    variables: tuple[Variable, ...]
    unit: int

    @staticmethod
    def build(variables: list[tuple[str, list, list[float]]]) -> "ProductSpace":
        out = []
        seen: set[str] = set()
        unit = 1
        for name, values, weights in variables:
            if name in seen:
                raise UsageError(f"duplicate variable {name!r}")
            seen.add(name)
            if not values:
                raise UsageError(f"variable {name!r} has no values")
            if len(values) != len(weights):
                raise UsageError(f"variable {name!r}: {len(values)} values "
                                 f"but {len(weights)} weights")
            if not all(map(math.isfinite, weights)):
                raise UsageError(f"variable {name!r} has a non-finite weight")
            if any(w < 0 for w in weights):
                raise UsageError(f"variable {name!r} has a negative weight")
            if abs(sum(weights) - 1.0) > TOL:
                raise UsageError(f"variable {name!r}: weights sum to "
                                 f"{sum(weights)}, not 1")
            # floats are integers over powers of two: scale the weights to
            # coprime integers, so a uniform variable's masses are all 1
            ratios = [w.as_integer_ratio() for w in weights]
            scale = math.lcm(*(d for _, d in ratios))
            masses = [n * (scale // d) for n, d in ratios]
            common = math.gcd(*masses)
            masses = [m // common for m in masses]
            unit *= sum(masses)
            out.append(Variable(name, tuple(values), tuple(weights),
                                tuple(masses)))
        return ProductSpace(tuple(out), unit)

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

    def outcomes(self, cap: int = ENUM_CAP) -> Iterator[tuple[SamplePoint, int]]:
        """Yield (sample point, integer mass) for every outcome; see
        `unit` for the probability a mass stands for."""
        self.check_cap(cap)
        names = [v.name for v in self.variables]
        values = itertools.product(*(v.values for v in self.variables))
        masses = itertools.product(*(v.masses for v in self.variables))
        for combo, ms in zip(values, masses):
            yield dict(zip(names, combo)), math.prod(ms)


def _ratio_up(joint: int, base: int) -> float:
    """The least float >= joint / base, for ints 0 <= joint <= base; 0.0
    when base is 0, as for a condition of probability 0.

    Int division rounds correctly to nearest, so the quotient steps up one
    ulp only when it falls below the exact ratio; it never passes 1."""
    if not base:
        return 0.0
    q = joint / base
    num, den = q.as_integer_ratio()
    return math.nextafter(q, math.inf) if num * base < joint * den else q


def exact_prob(space: ProductSpace, event: Event, *,
               cap: int = ENUM_CAP) -> float:
    """Probability of the event by full enumeration, correctly rounded."""
    total = sum(mass for point, mass in space.outcomes(cap) if event(point))
    return total / space.unit


def cond_prob(space: ProductSpace, event: Event, given: Event, *,
              cap: int = ENUM_CAP) -> float:
    """Pr(event | given) by full enumeration, correctly rounded; 0 when the
    condition has probability 0."""
    joint = base = 0
    for point, mass in space.outcomes(cap):
        if given(point):
            base += mass
            if event(point):
                joint += mass
    return joint / base if base else 0.0


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


def _sweep(space: ProductSpace, model: CutModel,
           cap: int) -> tuple[dict[tuple, int], ModelCheck]:
    """The integer mass of each distinct (A, F) pair of positive mass,
    summed by value, and the model's check, by one pass.  A pair is
    checked when first seen, until the first failure, so the
    counterexample is the first bad outcome; memory is O(distinct pairs)."""
    check = _cut_checker(model.digraph)
    checked = ModelCheck(True, None, "ok")
    masses: dict[tuple, int] = {}
    for point, mass in space.outcomes(cap):
        if not mass:
            continue
        pair = model.a_of(point), model.f_of(point)
        if checked.ok and pair not in masses:
            reason = check(*pair)
            if reason is not None:
                checked = ModelCheck(False, point, reason)
        masses[pair] = masses.get(pair, 0) + mass
    return masses, checked


def validate_cut_model(space: ProductSpace, model: CutModel, *,
                       cap: int = ENUM_CAP) -> ModelCheck:
    """Check out-closure of A and cut coverage of F on every outcome of
    positive probability, once per distinct (A, F) pair, by a sweep that
    runs to the end; the counterexample is the first failing outcome."""
    return _sweep(space, model, cap)[1]


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
        its head, with a value in [0, 1] up to TOL of slack.  `reach`,
        if given, maps every edge head to the vertices it reaches."""
        if reach is None:
            reach = head_reach(graph)
        for key, p in self.entries.items():
            edge = graph.edge_by_id.get(key[0])
            if edge is None or key[1] not in reach[edge.head]:
                raise UsageError(f"risk entry {key} is not a reachable pair")
            if not (-TOL <= p <= 1.0 + TOL):
                raise UsageError(f"risk {p} at {key} outside [0,1]")


def risk_table_exact(space: ProductSpace, model: CutModel, *,
                     cap: int = ENUM_CAP) -> tuple[RiskTable, ModelCheck]:
    """Exact risk table by one sweep over the outcome space, with the
    model's check.

    Each entry is the least float >= Pr(e in F | z in A), from exact
    integer mass sums, so the table never understates a risk.  Masses are
    added once per distinct (A, F) pair, in memory O(distinct pairs), and
    the ModelCheck returned with the table is the one validate_cut_model
    gives.  Edges that F names but the digraph lacks add no mass; the
    check reports them.
    """
    graph = model.digraph
    reach = head_reach(graph)
    vertex_mass = dict.fromkeys(graph.vertices, 0)
    keys = [(e.id, z) for e in graph.edges for z in reach[e.head]]
    joint = [0] * len(keys)
    rows: dict[str, list[tuple[str, int]]] = {}   # edge -> (z, key index)
    for i, (eid, z) in enumerate(keys):
        rows.setdefault(eid, []).append((z, i))
    masses, checked = _sweep(space, model, cap)
    for (inside, chosen), mass in masses.items():
        for v in inside:
            vertex_mass[v] += mass
        for eid in chosen:
            for z, i in rows.get(eid, ()):
                if z in inside:
                    joint[i] += mass
    table = RiskTable({key: _ratio_up(j, vertex_mass[key[1]])
                       for key, j in zip(keys, joint)})
    table.validate(graph, reach)
    return table, checked


def vertex_probabilities(space: ProductSpace, model: CutModel, *,
                         cap: int = ENUM_CAP) -> dict[str, float]:
    """Pr(v in A) for every vertex, by enumeration, correctly rounded;
    masses are added once per distinct (A, F) pair."""
    total = dict.fromkeys(model.digraph.vertices, 0)
    for (inside, _), mass in _sweep(space, model, cap)[0].items():
        for v in inside:
            total[v] += mass
    return {v: m / space.unit for v, m in total.items()}


# ---------------------------------------------------------------- JSON I/O

def risk_table_from_json(obj: dict,
                         graph: MultiDigraph | None = None) -> RiskTable:
    """Parse {"risks": [{"edge","z","p"}, ...]} into a table of the listed
    rows, at most one per (edge, z) pair, validated when a graph is given
    (CutInstance.build validates)."""
    try:
        rows = json_value(obj["risks"], LIST, "risks")
        keys = [(r["edge"], r["z"]) for r in rows]
        ps = json_numbers([r["p"] for r in rows], 'risk "p" values')
    except (KeyError, TypeError) as exc:
        raise UsageError(f"bad risk object: {exc}") from exc
    json_list([v for key in keys for v in key], STRING, "risk edges and zs")
    entries = dict(zip(keys, ps))
    if len(entries) < len(keys):
        counts = Counter(keys)
        raise UsageError(f"two risk rows for {max(counts, key=counts.get)}")
    table = RiskTable(entries)
    if graph is not None:
        table.validate(graph)
    return table
