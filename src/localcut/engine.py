"""Per-arc weight conditions on random cuts, and their least solutions.

The central objects: a directed multigraph, a table of conditional edge
probabilities ("risks"), and an arc weight function with values >= 1.  An
edge's effective risk discounts its table entries by the cheapest path
product from the edge's tail, minimized over the vertices reachable from
its head.  The per-arc condition asks each arc weight to cover 1 plus the
effective risks of its parallel edges; when it holds, membership
probabilities of adjacent vertices differ by at most the arc weight factor,
and reachable vertices bound each other through path products.

The condition's right-hand side is monotone in the weight function, so the
least solution is the limit of the usual increasing iteration started at
the zero function (whose image is defined to be the all-ones function).
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

# the shared names stay importable from here, where callers found them
from .core import (ENUM_CAP, ITER_CAP, TOL, VALUE_CAP,  # noqa: F401
                   FixedPointResult, IndeterminateError, WeightReport,
                   check_margins, kleene)
from .digraph import (Arc, MultiDigraph, SimpleDigraph, check_weights,
                      min_product_weights, reachable, underlying_simple)
from .probability import (CutModel, ModelCheck, ProductSpace,
                          RiskTable, risk_table_exact, vertex_probabilities)

# One parallel edge's risk entries: the (z, r) pairs to scan, and whether
# the arc's floor min over reach(head) of P(z) caps them.
EdgeRow = tuple[tuple[tuple[str, float], ...], bool]


class _CutInstanceFields(NamedTuple):
    graph: MultiDigraph
    risks: RiskTable
    space: ProductSpace | None = None
    model: CutModel | None = None
    model_check: ModelCheck | None = None


class CutInstance(_CutInstanceFields):
    """A digraph with its risk table.  The weight-independent parts of
    the operator (projection, reachability, risk rows) are built on first
    use and kept.  model_check is the model's validation when the sweep
    that computed the risks made it."""

    @staticmethod
    def build(graph: MultiDigraph, risks: RiskTable,
              space: ProductSpace | None = None,
              model: CutModel | None = None) -> "CutInstance":
        inst = CutInstance(graph, risks, space, model)
        risks.validate(graph, inst.reach)
        return inst

    @cached_property
    def simple(self) -> SimpleDigraph:
        return underlying_simple(self.graph)

    @cached_property
    def reach(self) -> dict[str, frozenset[str]]:
        """Vertices reachable from each vertex, itself included."""
        simple = self.simple
        return {v: reachable(simple, v) for v in simple.vertices}

    @cached_property
    def risk_rows(self) -> dict[Arc, tuple[EdgeRow, ...]]:
        """Per arc, one row per parallel edge in `edges_by_arc` order.

        A row keeps only the edge's stored entries r != 1 and is capped by
        the floor: a pair read as 1 gives exactly 1 * P(z) = P(z), and a
        stored r <= 1 gives fl(r * P(z)) <= P(z), so the capped minimum is
        the dense one, bit for bit.  An edge with a stored entry above 1
        scans every z reachable from its head uncapped.  Entries in the
        table's negative slack read as 0.
        """
        entries = {key: max(r, 0.0) for key, r in self.risks.entries.items()}
        stored: dict[str, list[tuple[str, float]]] = {}
        for (eid, z), r in entries.items():
            stored.setdefault(eid, []).append((z, r))
        rows = {}
        for arc, eids in self.graph.edges_by_arc.items():
            row = []
            for eid in eids:
                pairs = stored.get(eid, ())
                if all(r <= 1.0 for _, r in pairs):
                    row.append((tuple(p for p in pairs if p[1] != 1.0), True))
                else:
                    row.append((tuple((z, entries.get((eid, z), 1.0))
                                      for z in self.reach[arc[1]]), False))
            rows[arc] = tuple(row)
        return rows


def _tail_products(inst: CutInstance,
                   weights: Mapping[Arc, float]) -> dict[str, dict[str, float]]:
    """Cheapest path products from every arc tail; checks the weights
    once for all the searches."""
    simple = inst.simple
    check_weights(simple, weights)
    tails = {tail for tail, _ in simple.arcs}
    return {t: min_product_weights(simple, weights, t, check=False)
            for t in tails}


def _floor(inst: CutInstance, head: str,
           products: Mapping[str, float]) -> float:
    return min(products[z] for z in inst.reach[head])


def _edge_risk(row: EdgeRow, floor: float,
               products: Mapping[str, float]) -> float:
    """min over z reachable from the edge's head of r(e, z) * P(z), where
    P holds the cheapest path products from the edge's tail."""
    pairs, capped = row
    risk = floor if capped else math.inf
    for z, r in pairs:
        scaled = r * products[z]
        if scaled < risk:
            risk = scaled
    return risk


def risk_of_edge(inst: CutInstance, weights: Mapping[Arc, float],
                 edge_id: str) -> float:
    """Effective risk of one edge under the given weights."""
    edge = inst.graph.edge_by_id[edge_id]
    products = min_product_weights(inst.simple, weights, edge.tail)
    arc = (edge.tail, edge.head)
    row = inst.risk_rows[arc][inst.graph.edges_by_arc[arc].index(edge_id)]
    return _edge_risk(row, _floor(inst, edge.head, products), products)


def apply_risk_operator(inst: CutInstance,
                        weights: Mapping[Arc, float]) -> dict[Arc, float]:
    """One step of the monotone update: arc -> 1 + sum of edge risks.

    The all-zero input is the conventional starting point and maps to the
    all-ones function; otherwise every entry must be >= 1 (path products
    below 1 would break the cheapest-first search).
    """
    if all(w == 0.0 for w in weights.values()):
        return {arc: 1.0 for arc in inst.simple.arcs}
    return _risk_update(inst, weights)


def _risk_update(inst: CutInstance,
                 weights: Mapping[Arc, float]) -> dict[Arc, float]:
    """The operator without the zero-start convention: every weight is
    checked, once."""
    products = _tail_products(inst, weights)
    out: dict[Arc, float] = {}
    for arc in inst.simple.arcs:
        tail, head = arc
        from_tail = products[tail]
        floor = _floor(inst, head, from_tail)
        total = 0.0
        for row in inst.risk_rows[arc]:
            total += _edge_risk(row, floor, from_tail)
        out[arc] = 1.0 + total
    return out


def check_weight_condition(inst: CutInstance, weights: Mapping[Arc, float],
                           tol: float = TOL) -> WeightReport:
    """Check the per-arc condition; feasible iff every margin >= -tol.

    Supplied weights are validated even when all are zero, which the
    operator would read as the Kleene start."""
    return check_margins(weights, _risk_update(inst, weights), tol)


def least_weight_solution(inst: CutInstance, tol: float = TOL,
                          iter_cap: int = ITER_CAP,
                          value_cap: float = VALUE_CAP) -> FixedPointResult:
    """Iterate the risk operator from the zero function.

    The chain increases pointwise and sits below every feasible weight
    function, so it either converges to the least solution, blows past
    value_cap when none exists, or runs out of iterations (indeterminate,
    raised as IndeterminateError).  Converged weights are the last
    iterate; check_weight_condition judges them.
    """
    return kleene(lambda w: apply_risk_operator(inst, w),
                  dict.fromkeys(inst.simple.arcs, 0.0), tol, iter_cap,
                  value_cap)


class ArcBound(NamedTuple):
    tail: str
    head: str
    head_prob: float
    tail_prob_times_weight: float
    ok: bool


class PairBound(NamedTuple):
    source: str
    target: str
    lower_bound: float            # Pr(target in A) / path product
    source_prob: float
    ok: bool


class BoundReport(NamedTuple):
    arc_rows: tuple[ArcBound, ...]
    pair_rows: tuple[PairBound, ...]
    all_ok: bool


def probability_bounds(inst: CutInstance, weights: Mapping[Arc, float],
                       tol: float = 1e-9, *,
                       cap: int = ENUM_CAP) -> BoundReport:
    """Compare exact membership probabilities against the guaranteed bounds.

    Needs the instance's exact space and model.  The weights must pass
    check_weight_condition first; the bounds are only promised then.
    """
    if inst.space is None or inst.model is None:
        raise ValueError("probability_bounds needs an exact space and model")
    if not check_weight_condition(inst, weights).feasible:
        raise ValueError("weights do not satisfy the per-arc condition")
    probs = vertex_probabilities(inst.space, inst.model, cap=cap)
    simple = inst.simple
    arc_rows = []
    for arc in sorted(simple.arcs):
        tail, head = arc
        rhs = probs[tail] * weights[arc]
        arc_rows.append(ArcBound(tail, head, probs[head], rhs,
                                 probs[head] <= rhs + tol))
    pair_rows = []
    for source in sorted(simple.vertices):
        products = min_product_weights(simple, weights, source)
        for target in sorted(inst.reach[source]):
            lower = probs[target] / products[target]
            pair_rows.append(PairBound(source, target, lower, probs[source],
                                       probs[source] >= lower - tol))
    all_ok = all(r.ok for r in arc_rows) and all(r.ok for r in pair_rows)
    return BoundReport(tuple(arc_rows), tuple(pair_rows), all_ok)


class TelescopingResult(NamedTuple):
    ok: bool
    lhs: float
    rhs: float


def telescoping_check(a: Sequence[float], b: Sequence[float],
                      tol: float = TOL) -> TelescopingResult:
    """Check sum_i (prod_{j<i} a_j)(b_i - a_i) <= prod b - prod a.

    Requires a_i >= 0 and b_i >= max(a_i, 1); with one term the two sides
    agree exactly.
    """
    if len(a) != len(b) or not a:
        raise ValueError("need two equal-length nonempty sequences")
    for x, y in zip(a, b):
        if x < 0.0:
            raise ValueError(f"a entry {x} is negative")
        if y < max(x, 1.0) - 1e-12:
            raise ValueError(f"b entry {y} is below max(a, 1) = {max(x, 1.0)}")
    lhs = 0.0
    prefix = 1.0
    for x, y in zip(a, b):
        lhs += prefix * (y - x)
        prefix *= x
    rhs = math.prod(b) - math.prod(a)
    return TelescopingResult(lhs <= rhs + tol, lhs, rhs)


# ------------------------------------------- nonrepetitive-sequence builder

def build_nonrep_instance(lists: Sequence[Sequence], *,
                          risk_mode: str = "exact",
                          cap: int = ENUM_CAP) -> CutInstance:
    """Instance for building a sequence, position i drawn from lists[i].

    Digraph: a path v1 <- v2 <- ... <- vn; the arc into v_i carries one
    edge e_{s}_{t} for every block pair (start s, length t) whose copy ends
    at position i+1.  The random vertex set collects the prefixes that are
    free of adjacent equal blocks; the random edge set collects the block
    pairs that actually repeated.

    risk_mode "exact" enumerates the product space for the risk table;
    "bound" stores only the per-position product bound at the witness
    vertex v_{s+t-1}, and needs no enumeration.
    """
    n = len(lists)
    if n == 0:
        raise ValueError("need at least one position")
    if any(len(values) == 0 for values in lists):
        raise ValueError("every position needs a nonempty symbol list")
    if risk_mode not in ("exact", "bound"):
        raise ValueError(f"unknown risk_mode {risk_mode!r}")

    vertices = [f"v{i}" for i in range(1, n + 1)]
    # per copy end e, its block pairs by length as (edge id, start, middle):
    # seq[start:middle] repeats as seq[middle:e], an edge of arc v_e -> v_{e-1}
    at_end = [[(f"e_{e - 2 * t + 1}_{t}", e - 2 * t, e - t)
               for t in range(1, e // 2 + 1)] for e in range(n + 1)]
    graph = MultiDigraph.build(vertices, [
        (eid, f"v{e}", f"v{e - 1}")
        for e in range(n + 1) for eid, _, _ in at_end[e]])

    space = ProductSpace.uniform(
        [(f"a{i}", list(values)) for i, values in enumerate(lists, start=1)])

    names = [f"a{i}" for i in range(1, n + 1)]
    # itemgetter with one key returns the value, not a 1-tuple
    key = itemgetter(*names) if n > 1 else lambda point: (point[names[0]],)
    prefixes = [frozenset(vertices[:good]) for good in range(n + 1)]
    # One scan serves a_of and f_of, kept for the last sequence seen: per
    # copy end e, the repeats ending at or before e and the clean prefix
    # length given the first e positions.  Both depend on those positions
    # alone, so a new sequence rescans only the ends past the prefix it
    # shares with the last one.
    last = None
    repeats = [frozenset()] * (n + 1)
    clean = list(range(n + 1))

    def scan(point) -> None:
        nonlocal last
        seq = key(point)
        if seq == last:
            return
        shared = 0
        if last is not None:
            while shared < n and seq[shared] == last[shared]:
                shared += 1
        for e in range(shared + 1, n + 1):
            hit = [eid for eid, s, m in at_end[e] if seq[s:m] == seq[m:e]]
            repeats[e] = repeats[e - 1].union(hit) if hit else repeats[e - 1]
            # the first repeat ends the clean prefix
            clean[e] = (clean[e - 1] if clean[e - 1] < e - 1
                        else e - 1 if hit else e)
        last = seq

    def a_of(point) -> frozenset[str]:
        scan(point)
        return prefixes[clean[n]]

    def f_of(point) -> frozenset[str]:
        scan(point)
        return repeats[n]

    model = CutModel(graph, a_of, f_of)

    checked = None
    if risk_mode == "exact":
        risks, checked = risk_table_exact(space, model, cap=cap)
    else:
        entries = {}
        for e in range(n + 1):
            for eid, start, middle in at_end[e]:
                bound = 1.0
                for values in lists[middle:e]:    # the copy's positions
                    bound /= len(values)
                entries[(eid, f"v{middle}")] = bound
        risks = RiskTable(entries)
        risks.validate(graph)
    return CutInstance(graph, risks, space, model, checked)
