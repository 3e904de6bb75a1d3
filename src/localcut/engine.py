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
from functools import cached_property, reduce
from itertools import accumulate, repeat
from operator import add, mul
from typing import Callable, Mapping, NamedTuple, Sequence

# the shared names stay importable from here, where callers found them
from .core import (ENUM_CAP, ITER_CAP, TOL, VALUE_CAP,  # noqa: F401
                   FixedPointResult, IndeterminateError, UsageError,
                   WeightReport, check_margins, kleene, pick, row_folds)
from .digraph import (Arc, MultiDigraph, SimpleDigraph, check_weights,
                      head_reach, min_product_weights, reachable,
                      underlying_simple)
from .probability import (CutModel, ModelCheck, ProductSpace, RiskTable,
                          _cut_checker, _ratio_up, vertex_probabilities)

# One parallel edge's risk entries: the (z, r) pairs that the arc's floor,
# min over reach(head) of P(z), does not already cover.
EdgeRow = tuple[tuple[str, float], ...]


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

        Each stored entry reads as its nearest value in [0, 1], so the
        table's accepted slack (TOL either side) reads as 0 or 1.  A row
        keeps only the entries r != 1, and the floor caps it: a pair read
        as 1 gives exactly 1 * P(z) = P(z), and r <= 1 gives
        fl(r * P(z)) <= P(z), so the capped minimum is the dense one, bit
        for bit.
        """
        stored: dict[str, list[tuple[str, float]]] = {}
        for (eid, z), r in self.risks.entries.items():
            r = min(max(r, 0.0), 1.0)
            if r != 1.0:
                stored.setdefault(eid, []).append((z, r))
        return {arc: tuple(tuple(stored.get(eid, ())) for eid in eids)
                for arc, eids in self.graph.edges_by_arc.items()}

    @cached_property
    def walk_step(self) -> Callable[[Mapping[Arc, float]], dict] | None:
        """`_risk_update` compiled once, when every vertex of the simple
        projection has out-degree <= 1; None otherwise.

        The vertices reachable from a tail are then the walk that follows
        each vertex's one out-arc, and its cheapest path products are the
        running products along that walk: the same factors, in the same
        order, as the cheapest-first search, so the same floats.  A walk
        is cut after the farthest position that its arc's rows read.
        Each edge's risk folds builtin min, which replaces only by a
        smaller value, over the floor and r * P(z) in row order, so a NaN
        from 0 * inf is skipped as in `_edge_risk`; each arc's risks
        are summed left to right from 0.0, in `edges_by_arc` order.
        """
        succ: dict[str, str] = {}
        for tail, head in self.simple.arcs:
            if tail in succ:
                return None
            succ[tail] = head
        arcs = tuple(self.simple.arcs)
        out_arc = {tail: k for k, (tail, _) in enumerate(arcs)}
        walks, positions, factors, candidates, edges = [], [], [], [], []
        offset = 0          # where the arc's products start among all arcs'
        for tail, head in arcs:
            walk, at = [tail], {tail: 0}
            nxt = succ[tail]
            while nxt not in at:
                at[nxt] = len(walk)
                walk.append(nxt)
                nxt = succ.get(nxt, tail)       # a sink ends the walk
            floor = _floor_at(walk, self.reach[head])
            places = []
            first = len(candidates)
            for pairs in self.risk_rows[(tail, head)]:
                row = [(floor, 1.0)] + [(at[z], r) for z, r in pairs]
                candidates.append(range(len(factors), len(factors) + len(row)))
                for place, factor in row:
                    places.append(place)
                    factors.append(factor)
            far = max(places)
            positions += [offset + place for place in places]
            walks.append(pick([out_arc[v] for v in walk[:far]]))
            edges.append(slice(first, len(candidates)))
            offset += far + 1
        simple, ordered, scaled = self.simple, pick(arcs), pick(positions)
        edge_risks = row_folds(candidates, min)

        def step(weights: Mapping[Arc, float]) -> dict[Arc, float]:
            check_weights(simple, weights)
            weight = ordered(weights)
            products: list[float] = []
            for walk in walks:
                products += accumulate(walk(weight), mul, initial=1.0)
            risks = edge_risks(list(map(mul, factors, scaled(products))))
            totals = map(reduce, repeat(add), map(risks.__getitem__, edges),
                         repeat(0.0))
            return dict(zip(arcs, map(add, repeat(1.0), totals)))

        return step


def _floor_at(walk: list[str], reach_head: frozenset[str]) -> int:
    """The position along a tail's walk of its arc's floor, the least
    product over reach(head).  Products never decrease along a walk, as
    fl(x * w) >= x for w >= 1 (inf included), so it is the earliest
    position in reach(head): the head's, 1, or the tail's, 0, whose
    product is 1.0, when the walk returns to the tail (a self-loop
    included)."""
    return 0 if walk[0] in reach_head else 1


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
    risk = floor
    for z, r in row:
        scaled = r * products[z]
        if scaled < risk:
            risk = scaled
    return risk


def apply_risk_operator(inst: CutInstance,
                        weights: Mapping[Arc, float]) -> dict[Arc, float]:
    """One step of the monotone update: arc -> 1 + sum of edge risks.

    The all-zero input is the conventional starting point and maps to the
    all-ones function; otherwise every entry must be >= 1 (path products
    below 1 would break the cheapest-first search).  The solver's step:
    on a digraph of out-degree <= 1 it runs the instance's `walk_step`,
    which gives `_risk_update`'s floats; check_weight_condition judges by
    `_risk_update` itself.
    """
    if all(w == 0.0 for w in weights.values()):
        return {arc: 1.0 for arc in inst.simple.arcs}
    step = inst.walk_step
    return _risk_update(inst, weights) if step is None else step(weights)


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
                          iter_cap: int = ITER_CAP) -> FixedPointResult:
    """Iterate the risk operator from the zero function.

    The chain increases pointwise and sits below every feasible weight
    function, so it either converges to the least solution, blows past
    VALUE_CAP when none exists, or runs out of iterations (indeterminate,
    raised as IndeterminateError).  Converged weights are the last
    iterate; check_weight_condition judges them.
    """
    return kleene(lambda w: apply_risk_operator(inst, w),
                  dict.fromkeys(inst.simple.arcs, 0.0), tol, iter_cap)


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
        if y < max(x, 1.0) - TOL:
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

    risk_mode "exact" gets the exact risk table and the model's check from
    one walk over the square-free prefixes (`_nonrep_walk`), as
    risk_table_exact would from all outcomes, which `cap` still bounds;
    "bound" stores only the per-position product bound at the witness
    vertex v_{s+t-1}, rounded up, and walks nothing.
    """
    n = len(lists)
    if n == 0:
        raise UsageError("need at least one position")
    if any(len(values) == 0 for values in lists):
        raise UsageError("every position needs a nonempty symbol list")
    if risk_mode not in ("exact", "bound"):
        raise UsageError(f"unknown risk_mode {risk_mode!r}")

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

    def repeats_at(seq, e: int) -> list[str]:
        """The block pairs whose copy ends at e and repeats in seq."""
        return [eid for eid, s, m in at_end[e] if seq[s:m] == seq[m:e]]

    names = [f"a{i}" for i in range(1, n + 1)]
    key = pick(names)
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
            hit = repeats_at(seq, e)
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

    if risk_mode == "exact":
        space.check_cap(cap)
        risks, checked = _nonrep_walk(lists, graph, at_end, repeats_at,
                                      names, prefixes)
        return CutInstance(graph, risks, space, model, checked)
    risks = RiskTable({
        (eid, f"v{middle}"):     # 1 / the sizes of the copy's positions
        _ratio_up(1, math.prod(len(values) for values in lists[middle:e]))
        for e in range(n + 1) for eid, _, middle in at_end[e]})
    risks.validate(graph)
    return CutInstance(graph, risks, space, model)


def _nonrep_walk(lists, graph, at_end, repeats_at, names,
                 prefixes) -> tuple[RiskTable, ModelCheck]:
    """The nonrep model's exact risk table and check, equal to
    risk_table_exact's, from one depth-first walk over the square-free
    prefixes in list order.

    Every outcome has mass 1, and v_j is in A iff the prefix of length j
    is square-free.  So v_j's mass is the number N_j of square-free
    prefixes w of length j times the sizes of the lists past j.  The
    joint mass of v_j and the edge whose copy seq[m:e] repeats seq[s:m]
    (t = m - s) sums, over those w, a product over the copy's disjoint
    position pairs (p - t, p): [w[p] == w[p - t]] when p < j; the count
    of w[p - t] in list p when p - t < j <= p; the number of equal value
    pairs of lists p - t and p when j <= p - t; times the sizes of the
    free positions outside [s, e).  The factors that do not depend on w
    are taken once per (edge, j), and an edge with s >= j adds
    N_j times them.

    Outcomes whose first square ends at m share A = {v_1..v_{m-1}}, and
    the one arc into A carries exactly the repeats ending at m.  So one
    check per distinct (m, repeats ending at m), and one for a full
    square-free word (A = V, F empty), decides every outcome; the walk
    meets the classes in outcome order, and a failing class names its
    first outcome, as the sweep would.
    """
    n = len(lists)
    tail = [1] * (n + 1)        # tail[p]: the outcomes of positions p..n-1
    for p in range(n - 1, -1, -1):
        tail[p] = tail[p + 1] * len(lists[p])
    blocks = {eid: (s, m, e) for e in range(n + 1) for eid, s, m in at_end[e]}
    reach = head_reach(graph)
    keys = [(edge.id, z) for edge in graph.edges for z in reach[edge.head]]
    joint = [0] * len(keys)
    static = []     # (key index, j, factor) of copies starting at or past j
    live = [[] for _ in range(n + 1)]   # per j, the copies starting before j
    levels = [int(z[1:]) for _, z in keys]     # z = v_j
    for i, ((eid, _), j) in enumerate(zip(keys, levels)):
        s, m, e = blocks[eid]
        t = m - s
        factor = tail[e] * (tail[j] // tail[s] if j < s else 1)
        for p in range(max(m, j + t), e):
            factor *= sum(map(lists[p].count, lists[p - t]))
        if j <= s:
            static.append((i, j, factor))
        elif factor:
            live[j].append((i, factor, s, m, j - t, tuple(
                (p - t, lists[p]) for p in range(max(m, j), min(e, j + t)))))

    check = _cut_checker(graph)
    checked = ModelCheck(True, None, "ok")
    judged = set()
    count = [0] * (n + 1)       # count[j]: square-free prefixes of length j
    w = []

    def judge(good: int, hit: list[str]) -> None:
        nonlocal checked
        cls = (good, *hit)      # |A|, and F on the arc into A
        if checked.ok and cls not in judged:
            judged.add(cls)
            reason = check(prefixes[good], frozenset(hit))
            if reason is not None:
                first = w + [values[0] for values in lists[len(w):]]
                checked = ModelCheck(False, dict(zip(names, first)), reason)

    def visit(j: int) -> None:  # w is a square-free prefix of length j
        count[j] += 1
        for i, factor, s, m, stop, cross in live[j]:
            if m < j and w[s:stop] != w[m:j]:
                continue
            for a, values in cross:
                factor *= values.count(w[a])
            joint[i] += factor
        if j == n:
            judge(n, [])
            return
        for x in lists[j]:
            w.append(x)
            hit = repeats_at(w, j + 1)
            if hit:
                judge(j, hit)
            else:
                visit(j + 1)
            w.pop()

    visit(0)
    for i, j, factor in static:
        joint[i] += count[j] * factor
    table = RiskTable({key: _ratio_up(joint[i], count[j] * tail[j])
                       for i, (key, j) in enumerate(zip(keys, levels))})
    table.validate(graph, reach)
    return table, checked
