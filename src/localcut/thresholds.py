"""Scalar weight conditions and closed-form application thresholds.

Each application reduces its per-arc condition to a single inequality
tau >= 1 + g(tau) on [1, radius).  The generic solver reports the least
satisfying weight; the closed forms (hypergraph 2-coloring degrees,
sequence list sizes, nonrepetitive palette sizes, acyclic-coloring palette
ratios, critical-hypergraph slack) are evaluated directly and are meant to
agree with the solver.

Two kinds of boundary deserve care.  Strict feasibility has an interval of
satisfying weights and the least one is a simple sign crossing.  At a
threshold parameter the graph of 1 + g only touches the diagonal, so the
sole witness is the tangency point; the solver chases it with a grid scan,
golden-section ascent, and a final bisection on the derivative sign, which
in double precision lands within about 1e-10 of the true point.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Mapping, NamedTuple

from .core import TOL, UsageError
from .instances import Hypergraph

GRID_POINTS = 10 ** 4


class SeriesCondition(NamedTuple):
    """Inequality tau >= 1 + g(tau) on the domain [1, radius)."""

    g: Callable[[float], float]
    radius: float


class FeasibilityResult(NamedTuple):
    feasible: bool
    tau_star: float | None        # least satisfying weight; best point if none
    margin: float                 # tau_star - 1 - g(tau_star)
    iterations: int               # evaluations of the condition


def _safe_h(g: Callable[[float], float]) -> Callable[[float], float]:
    def h(t: float) -> float:
        try:
            value = t - 1.0 - g(t)
        except (OverflowError, ZeroDivisionError, ValueError):
            return -math.inf
        if math.isnan(value):
            return -math.inf
        return value
    return h


def _golden_max(h: Callable[[float], float], lo: float, hi: float,
                count: list[int]) -> float:
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = h(c), h(d)
    count[0] += 2
    while b - a > 1e-13 * max(1.0, abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = h(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = h(d)
        count[0] += 1
    return 0.5 * (a + b)


def _derivative_refine(h: Callable[[float], float], t0: float, lo: float,
                       hi: float, count: list[int]) -> float:
    """Bisection on the sign of a central difference around a smooth
    interior maximum; beats plain golden section on noise-limited
    tangencies."""
    delta = 1e-5 * max(1.0, abs(t0))
    a = max(lo + delta, t0 - 64.0 * delta)
    b = min(hi - delta, t0 + 64.0 * delta)
    if not a < b:
        return t0

    def slope(t: float) -> float:
        count[0] += 2
        return h(t + delta) - h(t - delta)

    sa, sb = slope(a), slope(b)
    if not (sa >= 0.0 >= sb):
        return t0
    for _ in range(80):
        mid = 0.5 * (a + b)
        if slope(mid) >= 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _least_crossing(h: Callable[[float], float], lo: float,
                    hi: float) -> float:
    """Bisect h(lo) < 0 <= h(hi) down to adjacent floats and return the
    upper one: a point satisfying the condition whose float neighbour
    below does not."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if h(mid) >= 0.0:
            hi = mid
        else:
            lo = mid


def scalar_feasible(cond: SeriesCondition, tol: float = TOL,
                    grid_points: int = GRID_POINTS) -> FeasibilityResult:
    """Decide the scalar condition and report the least satisfying weight.

    Strategy: locate the global maximum of h(t) = t - 1 - g(t) (uniform
    grid, golden section inside the best cell, derivative-sign polish).
    A maximum below -tol is infeasible.  One within tol of zero is a
    tangency and is itself the witness.  Otherwise the least witness is
    the sign crossing left of the maximum, or 1 when h(1) >= 0.
    """
    if grid_points < 2:
        raise ValueError("need at least two grid points")
    h = _safe_h(cond.g)
    count = [0]

    def heval(t: float) -> float:
        count[0] += 1
        return h(t)

    if not cond.radius > 1.0:
        return FeasibilityResult(False, None, -math.inf, 0)

    if math.isfinite(cond.radius):
        highs = [1.0 + (cond.radius - 1.0) * (1.0 - 1e-12)]
    else:
        highs = [2.0 ** exp for exp in range(1, 41)]

    best_t, best_h = 1.0, heval(1.0)
    spacing = 0.0
    for hi in highs:
        spacing = (hi - 1.0) / (grid_points - 1)
        for i in range(grid_points):
            t = 1.0 + i * spacing
            value = heval(t)
            if value > best_h:
                best_t, best_h = t, value
        if best_h > tol:
            break                          # strictly feasible already
        if best_t < hi - 2.0 * spacing:
            break                          # interior maximum bracketed
    lo_edge = 1.0
    hi_edge = highs[-1] if not math.isfinite(cond.radius) else highs[0]
    if best_t > lo_edge + spacing and best_t < hi_edge - spacing:
        refined = _golden_max(h, best_t - spacing, best_t + spacing, count)
        refined = _derivative_refine(h, refined, lo_edge, hi_edge, count)
        value = heval(refined)
        if value > best_h:
            best_t, best_h = refined, value

    if best_h < -tol:
        return FeasibilityResult(False, best_t, best_h, count[0])
    if best_h <= tol:
        return FeasibilityResult(True, best_t, best_h, count[0])
    h_at_one = heval(1.0)
    if h_at_one >= -tol:
        return FeasibilityResult(True, 1.0, h_at_one, count[0])
    root = _least_crossing(h, 1.0, best_t)
    count[0] += 1
    return FeasibilityResult(True, root, heval(root), count[0])


# ------------------------------------------------- hypergraph 2-coloring

_HYPCOL_VARIANTS = ("lll", "exact", "crude", "improved")


def two_coloring_condition(k: int, d: float, variant: str) -> SeriesCondition:
    """Scalar condition for 2-coloring d-regular k-uniform hypergraphs."""
    power = k - 1 if variant == "improved" else k
    scale = d / 2.0 ** (k - 1)

    def g(t: float) -> float:
        return scale * t ** power

    return SeriesCondition(g, math.inf)


class HypergraphColoringBound(NamedTuple):
    k: int
    variant: str
    bound: float
    max_d: int
    condition_feasible: bool | None   # scalar cross-check at max_d


def hypergraph_two_coloring_max_degree(k: int, variant: str = "exact",
                                       tol: float = TOL
                                       ) -> HypergraphColoringBound:
    """Largest degree certified for 2-colorability at uniformity k.

    Variants: "lll" (product-form local lemma), "exact" (optimal weight
    for the whole-edge witness), "crude" (its e-weakening), "improved"
    (drop-one-vertex witness).
    """
    if k < 2:
        raise UsageError("need uniformity k >= 2")
    if variant not in _HYPCOL_VARIANTS:
        raise UsageError(f"unknown variant {variant!r}")
    half = 2.0 ** (k - 1)
    if variant == "lll":
        bound = half / (math.e * k) + 1.0 - 1.0 / k
    elif variant == "exact":
        bound = (half / k) * (1.0 - 1.0 / k) ** (k - 1)
    elif variant == "crude":
        bound = half / (math.e * k)
    else:
        bound = half / (math.e * (k - 1))
    max_d = math.floor(bound)
    feasible = None
    if variant != "lll" and max_d >= 1:
        feasible = scalar_feasible(
            two_coloring_condition(k, max_d, variant), tol).feasible
    return HypergraphColoringBound(k, variant, bound, max_d, feasible)


# ------------------------------------------------- sequences over lists

def sequence_condition(list_size: float) -> SeriesCondition:
    """Constant-weight condition for block-repetition-free sequences with
    per-position lists of the given size."""

    def g(t: float) -> float:
        x = t / list_size
        return x / (1.0 - x)

    return SeriesCondition(g, float(list_size))


def nonrepetitive_sequence_feasible(list_size: float,
                                    tol: float = TOL) -> FeasibilityResult:
    if not list_size > 1:
        raise UsageError("need list size above 1")
    return scalar_feasible(sequence_condition(list_size), tol)


# ------------------------------------------- nonrepetitive graph coloring

def chromatic_condition(delta: float, palette: float) -> SeriesCondition:
    """Summed condition over repetitively-colored path extensions: at most
    t * delta^(2t-1) candidate paths per half length t, each surviving with
    probability (1/palette)^t."""

    def g(t: float) -> float:
        x = delta * delta * t / palette
        return (delta * t / palette) / (1.0 - x) ** 2

    return SeriesCondition(g, palette / (delta * delta))


class NonrepChromaticBound(NamedTuple):
    delta: int
    closed_form: float
    palette: int                  # ceil of the closed form
    y: float
    ratio_condition_ok: bool      # palette/delta^2 covers 1/y + 1/(delta(1-y)^2)
    condition_feasible: bool      # scalar cross-check at the palette size


def nonrepetitive_chromatic_bound(delta: int,
                                  tol: float = TOL) -> NonrepChromaticBound:
    """Palette size guaranteeing a nonrepetitive proper coloring for max
    degree delta.  Needs delta >= 3: the closed form divides by
    delta^(1/3) - 2^(1/3)."""
    if delta < 3:
        raise UsageError("need max degree delta >= 3")
    d = float(delta)
    closed = (d ** 2
              + 3.0 * 2.0 ** (-2.0 / 3.0) * d ** (5.0 / 3.0)
              + 2.0 ** (2.0 / 3.0) * d ** (5.0 / 3.0)
              / (d ** (1.0 / 3.0) - 2.0 ** (1.0 / 3.0)))
    palette = math.ceil(closed)
    y = 1.0 - (2.0 / d) ** (1.0 / 3.0)
    lhs = palette / d ** 2
    rhs = 1.0 / y + 1.0 / (d * (1.0 - y) ** 2)
    ratio_ok = lhs >= rhs - 1e-9 * rhs
    result = scalar_feasible(chromatic_condition(d, float(palette)), tol)
    return NonrepChromaticBound(delta, closed, palette, y, ratio_ok,
                                result.feasible)


# ------------------------------------------------- acyclic edge coloring

def acyclic_condition(delta: int, palette: int) -> SeriesCondition:
    """Condition for greedy acyclic edge coloring with the given palette:
    even-cycle terms sum to (r t)^4 / (1 - (r t)^2) with r = (delta-1)/k,
    plus 2(delta-1)/k * t for the blocked-color mass."""
    r = (delta - 1.0) / palette

    def g(t: float) -> float:
        x = r * t
        return x ** 4 / (1.0 - x * x) + 2.0 * x

    return SeriesCondition(g, palette / (delta - 1.0))


class AcyclicFeasibility(NamedTuple):
    delta: int
    palette: int
    extrapolated: bool            # palette differs from 4 * (delta - 1)
    result: FeasibilityResult


def acyclic_feasible(delta: int, palette: int,
                     tol: float = TOL) -> AcyclicFeasibility:
    if delta < 2:
        raise UsageError("need max degree delta >= 2")
    if palette < 1:
        raise UsageError("need a nonempty palette")
    result = scalar_feasible(acyclic_condition(delta, palette), tol)
    return AcyclicFeasibility(delta, palette, palette != 4 * (delta - 1),
                              result)


# ------------------------------------------- color-critical hypergraphs

def g_weight(t: int, z: float) -> float:
    """Per-intersection-size charge used by the peeling argument."""
    if t < 1:
        raise ValueError("intersection size must be >= 1")
    if not z > 1.0:
        raise UsageError("need z > 1")
    if t == 1:
        return 1.0 - 1.0 / z
    return 2.0 ** (1 - t) / z


class CriticalSlack(NamedTuple):
    k: int
    c_min: float                  # least slack with a solvable quadratic
    default_c: float              # 4 * sqrt(k)
    default_c_ok: bool            # default_c^2 >= 16 (k - default_c)
    identity_residual: float      # default_c^2 - 16(k - default_c) - 64 sqrt(k)


def critical_min_slack(k: int) -> CriticalSlack:
    """Slack values c for which the reduced quadratic admits a weight.

    Solvability needs c^2 >= 16(k - c); the least such c is
    sqrt(64 + 16k) - 8, and the default c = 4 sqrt(k) always qualifies
    because the defect equals 64 sqrt(k) >= 0 identically.
    """
    if k < 1:
        raise UsageError("need k >= 1")
    root_k = math.sqrt(k)
    c_min = math.sqrt(64.0 + 16.0 * k) - 8.0
    default_c = 4.0 * root_k
    defect = default_c * default_c - 16.0 * (k - default_c)
    return CriticalSlack(k, c_min, default_c, defect >= 0.0,
                         defect - 64.0 * root_k)


class CriticalConditionReport(NamedTuple):
    ratio_ok: bool                # 4 tau / k >= 1 / (z - 1)
    weight_ok: bool               # tau >= 1 + 4 z tau^2 (k - c) / k^2
    canonical_z: float            # k / (4 tau) + 1
    quadratic_value: float        # (4(k-c)/k^2) tau^2 - (c/k) tau + 1
    quadratic_ok: bool
    all_ok: bool


def critical_condition_check(k: int, c: float, tau: float, z: float,
                             tol: float = TOL) -> CriticalConditionReport:
    """Check the two scalar requirements at (tau, z), plus the quadratic
    that results from the canonical choice z = k/(4 tau) + 1."""
    if k < 1:
        raise UsageError("need k >= 1")
    if not z > 1.0:
        raise UsageError("need z > 1")
    if not tau >= 1.0:
        raise UsageError("need tau >= 1")
    ratio_ok = 4.0 * tau / k >= 1.0 / (z - 1.0) - tol
    weight_ok = tau >= 1.0 + 4.0 * z * tau * tau * (k - c) / (k * k) - tol
    quad = (4.0 * (k - c) / (k * k)) * tau * tau - (c / k) * tau + 1.0
    return CriticalConditionReport(ratio_ok, weight_ok,
                                   k / (4.0 * tau) + 1.0,
                                   quad, quad <= tol,
                                   ratio_ok and weight_ok)


class DegreeProfile(NamedTuple):
    """Edge counts at a vertex of a partially peeled hypergraph, split by
    surviving-intersection size: `a` counts edges that lost vertices,
    keyed by surviving size; `b` counts fully surviving edges, keyed by
    edge size (>= 3 for true hypergraphs)."""

    a: dict[int, int]
    b: dict[int, int]

    @staticmethod
    def build(a: Mapping[int, int], b: Mapping[int, int]) -> "DegreeProfile":
        for t, count in a.items():
            if t < 1 or count < 0:
                raise ValueError(f"bad partial-edge count {count} at size {t}")
        for t, count in b.items():
            if t < 1 or count < 0:
                raise ValueError(f"bad full-edge count {count} at size {t}")
        return DegreeProfile({t: int(v) for t, v in a.items() if v},
                             {t: int(v) for t, v in b.items() if v})


class PeelResult(NamedTuple):
    status: str                   # "all-peeled" or "stopped"
    order: tuple[str, ...]
    step_sums: tuple[float, ...]
    chain_total: float
    remaining: tuple[str, ...]
    profiles: dict[str, DegreeProfile]
    true_hypergraph: bool
    edge_count: int
    vertex_count: int


def greedy_peel(hypergraph: Hypergraph, k: int, c: float,
                z: float) -> PeelResult:
    """Repeatedly delete a vertex whose charge reaches k - c.

    The charge of a vertex sums g over the surviving intersection sizes of
    its edges.  Ties break to the earliest vertex in the input order.  A
    full peel certifies |E| > (k - c) |V| through the recorded chain; an
    early stop leaves per-vertex degree profiles, each with charge below
    k - c by construction.
    """
    if not k - c > 0:
        raise UsageError("need k - c > 0")
    if not z > 1.0:
        raise UsageError("need z > 1")
    vertices, edges = hypergraph.vertices, hypergraph.edges
    edges_at = hypergraph.edges_at
    position = {v: i for i, v in enumerate(vertices)}
    alive = set(vertices)
    surviving = [len(edge) for edge in edges]
    threshold = k - c
    order: list[str] = []
    sums: list[float] = []

    def charge(v: str) -> float:
        return sum(g_weight(surviving[idx], z) for idx in edges_at[v])

    # Peeling v changes only the charges of live vertices sharing an edge
    # with v, so only those are recomputed.  A charge can fall (g(1) <
    # g(2) when z < 3/2), so a heap entry (input position) is re-checked
    # when popped, and pushed again whenever a recomputed charge is ready.
    charges = {v: charge(v) for v in vertices}
    ready = [i for i, v in enumerate(vertices) if charges[v] >= threshold]
    while ready:
        v = vertices[heapq.heappop(ready)]
        if v not in alive or charges[v] < threshold:
            continue
        order.append(v)
        sums.append(charges[v])
        alive.remove(v)
        for idx in edges_at[v]:
            surviving[idx] -= 1
        for u in {u for idx in edges_at[v] for u in edges[idx]} & alive:
            charges[u] = charge(u)
            if charges[u] >= threshold:
                heapq.heappush(ready, position[u])

    profiles: dict[str, DegreeProfile] = {}
    if alive:
        for v in sorted(alive, key=position.__getitem__):
            partial: dict[int, int] = {}
            full: dict[int, int] = {}
            for idx in edges_at[v]:
                edge = edges[idx]
                if edge <= alive:
                    full[len(edge)] = full.get(len(edge), 0) + 1
                else:
                    t = surviving[idx]
                    partial[t] = partial.get(t, 0) + 1
            profiles[v] = DegreeProfile.build(partial, full)
    return PeelResult(
        "stopped" if alive else "all-peeled",
        tuple(order), tuple(sums), math.fsum(sums),
        tuple(sorted(alive, key=position.__getitem__)), profiles,
        hypergraph.is_true_hypergraph(), len(edges), len(vertices))
