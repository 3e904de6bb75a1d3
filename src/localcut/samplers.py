"""Randomized constructions with independent verifiers.

Three samplers (hypergraph 2-coloring by resampling, repetition-free
sequence building with erase-on-repeat repair, greedy acyclic edge
coloring) plus the checkers that gate their success reports.  The
checkers never share state with the samplers, so a passing report really
is evidence.  All procedures are deterministic in (instance, seed, cap)
and stop with an honest cap-exhausted report rather than looping.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from .instances import Graph, Hypergraph, ListAssignment

__all__ = [
    "SamplerError", "PaletteTooSmallError", "BudgetExceededError",
    "SamplerReport", "moser_tardos_two_coloring", "verify_proper_2coloring",
    "nonrep_sequence_build", "is_nonrepetitive",
    "greedy_acyclic_edge_coloring", "is_acyclic_edge_coloring",
    "is_nonrepetitive_coloring",
]

RESAMPLE_CAP = 10 ** 5
DRAW_CAP = 10 ** 6
PATH_BUDGET = 10 ** 6


class SamplerError(ValueError):
    pass


class PaletteTooSmallError(SamplerError):
    """Raised when a greedy step finds every color forbidden."""


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive check would overrun its step budget."""


class SamplerReport(NamedTuple):
    success: bool
    steps: int
    seed: int
    note: str = ""


# -------------------------------------------------- hypergraph 2-coloring

def verify_proper_2coloring(hypergraph: Hypergraph,
                            coloring: Mapping[str, int]
                            ) -> tuple[bool, frozenset | None]:
    """True when no edge is monochromatic; otherwise the first bad edge."""
    missing = [v for v in hypergraph.vertices if v not in coloring]
    if missing:
        raise SamplerError(f"coloring misses vertex {missing[0]!r}")
    for edge in hypergraph.edges:
        shades = {coloring[v] for v in edge}
        if len(shades) == 1:
            return False, edge
    return True, None


def moser_tardos_two_coloring(hypergraph: Hypergraph, seed: int,
                              cap: int = RESAMPLE_CAP
                              ) -> tuple[dict[str, int] | None, SamplerReport]:
    """Random 2-coloring, then resample the vertices of the first
    monochromatic edge until none remains or the cap is hit.

    A resample changes the status of only the edges at the resampled
    vertices, so only those are re-tested.  Monochromatic edge indices
    wait in a min-heap, stale entries are dropped when they surface, and
    the least index is the first monochromatic edge in edge order."""
    if cap < 0:
        raise SamplerError("cap must be nonnegative")
    rng = np.random.default_rng(seed)
    order = hypergraph.vertices
    colors = {v: int(b) for v, b in zip(order, rng.integers(0, 2, len(order)))}
    edges = hypergraph.edges

    def monochromatic(idx: int) -> bool:
        return len({colors[v] for v in edges[idx]}) == 1

    mono = [monochromatic(idx) for idx in range(len(edges))]
    heap = [idx for idx, m in enumerate(mono) if m]   # sorted, so a heap
    resamples = 0
    while True:
        while heap and not mono[heap[0]]:
            heapq.heappop(heap)
        if not heap:
            ok, _ = verify_proper_2coloring(hypergraph, colors)
            if not ok:
                raise RuntimeError("verifier rejected a finished coloring")
            return colors, SamplerReport(True, resamples, seed)
        if resamples >= cap:
            return None, SamplerReport(False, resamples, seed,
                                       "resample cap exhausted")
        bad = edges[heap[0]]
        for v in sorted(bad):
            colors[v] = int(rng.integers(0, 2))
        resamples += 1
        for idx in {idx for v in bad for idx in hypergraph.edges_at[v]}:
            now = monochromatic(idx)
            if now and not mono[idx]:
                heapq.heappush(heap, idx)
            mono[idx] = now


# -------------------------------------------- repetition-free sequences

def _symbol_codes(symbols: Sequence[Hashable],
                  table: dict[Hashable, int]) -> None:
    for s in symbols:
        if s not in table:
            table[s] = len(table)


_GRAM = 12   # symbols per index key; shorter squares are tested directly


class _SquareIndex:
    """The code buffer of the sequence builder, with the end positions of
    each gram: the last `_GRAM` codes ending at a position, or the whole
    prefix while the buffer is shorter.  A gram's key is its exact value
    in base `symbols + 1` with digits code + 1, so grams of different
    lengths never share a key.

    `push` appends a code and returns the half length of the shortest
    doubled block ending at it, or 0.  A doubled block of half length
    t >= `_GRAM` ending at m repeats the gram ending at m exactly t
    positions earlier, so only those earlier ends need testing, nearest
    first.  Shorter halves are tested at the buffer end directly."""

    def __init__(self, symbols: int) -> None:
        self.gram = _GRAM
        self.base = symbols + 1
        self.span = self.base ** self.gram
        self.codes: list[int] = []
        self.keys: list[int] = []   # the gram key of each position
        self.ends: dict[int, list[int]] = {}

    def push(self, code: int) -> int:
        codes, keys, gram = self.codes, self.keys, self.gram
        m = len(codes)
        key = ((keys[-1] if m else 0) * self.base + code + 1) % self.span
        codes.append(code)
        keys.append(key)
        half = (m + 1) // 2
        ends = self.ends.setdefault(key, [])
        found = 0
        for t in range(1, min(gram - 1, half) + 1):
            if (codes[m - t] == code
                    and codes[m - 2 * t + 1:m - t + 1] == codes[m - t + 1:]):
                found = t
                break
        else:
            # with no shorter square, every earlier end is >= gram back
            for p in reversed(ends):
                t = m - p
                if t > half:
                    break
                if _halves_agree(codes, p, m, t, gram):
                    found = t
                    break
        ends.append(m)
        return found

    def pop(self, t: int) -> None:
        """Erase the last t codes: each is the last end of its gram."""
        for key in self.keys[-t:]:
            ends = self.ends[key]
            ends.pop()
            if not ends:
                del self.ends[key]
        del self.keys[-t:]
        del self.codes[-t:]


def _halves_agree(codes: list[int], p: int, m: int, t: int,
                  known: int) -> bool:
    """True when the t codes ending at p equal those ending at m, given
    that the last `known` of them already agree.  Slices double in
    length from there, so a mismatch costs at most twice the agreeing
    run before it."""
    j, step = known, known
    while j < t:
        e = min(j + step, t)
        if codes[p - e + 1:p - j + 1] != codes[m - e + 1:m - j + 1]:
            return False
        j, step = e, 2 * step
    return True


def nonrep_sequence_build(lists: ListAssignment, seed: int,
                          cap: int = DRAW_CAP
                          ) -> tuple[tuple[Hashable, ...] | None,
                                     SamplerReport]:
    """Append uniform draws from each position's list; whenever the new
    symbol completes a doubled block, erase the block's second half
    (shortest block first) and keep drawing.

    The buffer is square-free before every draw, so any doubled block
    the new symbol creates ends at it.  Erasing that block's second half
    leaves a prefix of the previous buffer, so the invariant holds again.
    A `_SquareIndex` kept across draws finds that block; erasing pops the
    erased positions from it.
    """
    if cap < 0:
        raise SamplerError("cap must be nonnegative")
    n = len(lists)
    rng = np.random.default_rng(seed)
    table: dict[Hashable, int] = {}
    for symbols in lists.lists:
        _symbol_codes(symbols, table)
    index = _SquareIndex(len(table))
    buf: list[Hashable] = []
    draws = 0
    while len(buf) < n:
        if draws >= cap:
            return None, SamplerReport(False, draws, seed,
                                       "draw cap exhausted")
        position = len(buf)
        symbols = lists.lists[position]
        symbol = symbols[int(rng.integers(0, len(symbols)))]
        draws += 1
        buf.append(symbol)
        t = index.push(table[symbol])
        if t:
            index.pop(t)
            del buf[-t:]
    sequence = tuple(buf)
    check = is_nonrepetitive(sequence)
    if not check.ok:
        raise RuntimeError("verifier rejected a finished sequence")
    for symbol, symbols in zip(sequence, lists.lists):
        if symbol not in symbols:
            raise RuntimeError("sequence strayed outside its lists")
    return sequence, SamplerReport(True, draws, seed)


class NonrepCheck(NamedTuple):
    ok: bool
    witness: tuple[int, int] | None   # 1-based (s, t): halves at s and s+t


def is_nonrepetitive(sequence: Sequence[Hashable]) -> NonrepCheck:
    """Looks for indices s, t with the t-blocks at s and s+t equal; the
    witness has the least t, then the least s.

    A doubled block of half length t covers t consecutive positions i
    with w[i] == w[i+t], and those contain exactly one multiple j of t
    (Main & Lorentz 1984; Crochemore 1981).  So only the anchors (t, j)
    with j + t < n are tried: the run of agreeing positions is extended
    forward from j, up to t, and backward from j - 1, up to t - 1, and
    the anchor holds a block iff the two runs sum to t or more.  Its
    least start is then j minus the backward run, and since anchors of
    one t lie t apart, the first hit in (t, j) order has the least start.

    Half lengths go in bands [2^i, 2^(i+1)), shortest first, and the
    first band with a hit gives the witness.  That is O(n log n) anchors
    in all, and each band costs O(log n) numpy calls: the runs grow in
    gathers whose width doubles each round."""
    n = len(sequence)
    table: dict[Hashable, int] = {}
    _symbol_codes(sequence, table)
    # int32 holds every code, index and count for n < 2**31
    codes = np.array([table[s] for s in sequence], dtype=np.int32)
    half, lo = n // 2, 1
    while lo <= half:
        t = np.arange(lo, min(2 * lo, half + 1), dtype=np.int32)
        counts = (n - 1) // t   # the multiples j of t with j + t < n
        ts = np.repeat(t, counts)
        js = np.arange(ts.size, dtype=np.int32)
        js -= np.repeat(np.cumsum(counts, dtype=np.int32) - counts, counts)
        js *= ts
        # an anchor that disagrees itself has no forward run, and the
        # backward run alone stops short of t
        keep = np.flatnonzero(codes[js] == codes[js + ts])
        ts, js = ts[keep], js[keep]
        forward = _agreeing_run(codes, js, ts, np.minimum(ts, n - ts - js), 1)
        back = _agreeing_run(codes, js - 1, ts, np.minimum(ts - 1, js), -1)
        hit = np.flatnonzero(forward + back >= ts)
        if hit.size:
            a = hit[0]
            return NonrepCheck(False, (int(js[a] - back[a]) + 1, int(ts[a])))
        lo *= 2
    return NonrepCheck(True, None)


def _agreeing_run(codes: np.ndarray, first: np.ndarray, shift: np.ndarray,
                  cap: np.ndarray, step: int) -> np.ndarray:
    """For each row, how many of the positions first, first + step, ...
    (at most cap of them) agree with the code `shift` further on, up to
    the first that does not.  Each round gathers the next `width`
    positions of every unfinished row, and the width doubles."""
    run = np.zeros(first.size, dtype=np.int32)
    live = np.flatnonzero(cap)
    width = 1
    while live.size:
        left = cap[live] - run[live]
        # offsets past a row's cap repeat its last position, so they
        # agree exactly when that position does
        offsets = np.minimum(np.arange(width, dtype=np.int32),
                             (left - 1)[:, None])
        pos = (first[live] + step * run[live])[:, None] + step * offsets
        differ = codes[pos] != codes[pos + shift[live][:, None]]
        lead = differ.argmax(axis=1)
        full = (lead == 0) & ~differ[:, 0]
        lead[full] = width
        run[live] += np.minimum(lead, left)
        live = live[full & (left > width)]
        width *= 2
    return run


# ------------------------------------------------ acyclic edge coloring

EdgeColoring = dict[frozenset, int]


def _forbidden_colors(graph: Graph, edge: frozenset,
                      coloring: EdgeColoring) -> set[int]:
    """Colors excluded for `edge`: those on adjacent edges, plus the color
    of any edge that would close a 2-colored 4-cycle.  Counting each
    adjacent edge once (a matched pair contributes its shared color and
    one closure) gives at most deg(x)-1 + deg(y)-1 distinct entries."""
    x, y = sorted(edge)
    banned: set[int] = set()
    shades_x: dict[int, str] = {}
    shades_y: dict[int, str] = {}
    for v, shades in ((x, shades_x), (y, shades_y)):
        for u in graph.neighbors[v]:
            c = coloring.get(frozenset((v, u)))
            if c is not None:
                banned.add(c)
                shades[c] = u
    for d, v in shades_x.items():
        u = shades_y.get(d)
        if u is None:
            continue
        c = coloring.get(frozenset((u, v)))
        if c is not None:
            banned.add(c)
    return banned


def _bichromatic_cycle(graph: Graph, edge: frozenset, color: int,
                       coloring: EdgeColoring,
                       at: dict[tuple[str, int], frozenset]
                       ) -> list[frozenset] | None:
    """A cycle through `edge` alternating `color` with some other shade,
    or None.  Properness makes the alternating walk deterministic."""
    x, y = sorted(edge)
    # the walk leaves x on the other shade, so only x's colors can start one
    others = {coloring.get(frozenset((x, u)))
              for u in graph.neighbors[x]} - {None, color}
    for d in sorted(others):
        path = []
        cur, want = x, d
        for _ in range(len(graph.edges) + 1):
            nxt = at.get((cur, want))
            if nxt is None or nxt == edge:
                break
            path.append(nxt)
            (a, b) = sorted(nxt)
            cur = b if cur == a else a
            want = color if want == d else d
            if cur == y:
                if want == color:
                    return path + [edge]
                break
    return None


def greedy_acyclic_edge_coloring(graph: Graph, palette: int, seed: int,
                                 cap: int = RESAMPLE_CAP
                                 ) -> tuple[EdgeColoring | None,
                                            SamplerReport]:
    """Color edges in input order, drawing uniformly outside the forbidden
    set (adjacent colors and 4-cycle closures).  2-colored cycles of
    length six or more can still appear; the freshly colored edge is then
    uncolored and redrawn.  Raises when some step has no color at all,
    which a palette of size 2(max degree - 1) + 1 rules out."""
    if palette < 1:
        raise SamplerError("palette must be nonempty")
    if cap < 0:
        raise SamplerError("cap must be nonnegative")
    rng = np.random.default_rng(seed)
    coloring: EdgeColoring = {}
    at: dict[tuple[str, int], frozenset] = {}
    draws = 0
    for edge in graph.edges:
        banned = _forbidden_colors(graph, edge, coloring)
        allowed = [c for c in range(palette) if c not in banned]
        if not allowed:
            raise PaletteTooSmallError(
                f"no color left for edge {sorted(edge)} with palette "
                f"{palette}")
        while True:
            if draws >= cap:
                return None, SamplerReport(False, draws, seed,
                                           "draw cap exhausted")
            c = allowed[int(rng.integers(0, len(allowed)))]
            draws += 1
            coloring[edge] = c
            for v in edge:
                at[(v, c)] = edge
            cycle = _bichromatic_cycle(graph, edge, c, coloring, at)
            if cycle is None:
                break
            if len(cycle) < 6:
                raise RuntimeError("closure bookkeeping missed a 4-cycle")
            del coloring[edge]
            for v in edge:
                del at[(v, c)]
    check = is_acyclic_edge_coloring(graph, coloring)
    if not check.ok:
        raise RuntimeError("verifier rejected a finished edge coloring")
    return coloring, SamplerReport(True, draws, seed)


class AcyclicCheck(NamedTuple):
    ok: bool
    kind: str                     # "", "adjacent", or "cycle"
    witness: tuple


def is_acyclic_edge_coloring(graph: Graph,
                             coloring: Mapping[frozenset, int]
                             ) -> AcyclicCheck:
    """Proper on adjacent edges and, for every pair of colors, the edges
    in those two colors form a forest.  Witnesses: a same-colored adjacent
    pair, or the vertex sequence of a 2-colored cycle."""
    missing = [edge for edge in graph.edges if edge not in coloring]
    if missing:
        raise SamplerError(f"coloring misses edge {sorted(missing[0])}")
    for v in graph.vertices:
        seen: dict[int, frozenset] = {}
        for u in graph.neighbors[v]:
            edge = frozenset((v, u))
            c = coloring[edge]
            if c in seen:
                return AcyclicCheck(False, "adjacent",
                                    (tuple(sorted(seen[c])),
                                     tuple(sorted(edge))))
            seen[c] = edge
    ends = [sorted(edge) for edge in graph.edges]
    classes: dict[int, list[int]] = {}
    for idx, edge in enumerate(graph.edges):
        classes.setdefault(coloring[edge], []).append(idx)
    for c, d in itertools.combinations(sorted(classes), 2):
        # merged in edge order, which fixes adjacency order and witnesses
        adj: dict[str, list[str]] = {}
        for idx in heapq.merge(classes[c], classes[d]):
            a, b = ends[idx]
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        visited: set[str] = set()
        for root in sorted(adj):
            if root in visited:
                continue
            component = []
            stack = [root]
            visited.add(root)
            degree_sum = 0
            while stack:
                v = stack.pop()
                component.append(v)
                degree_sum += len(adj[v])
                for u in adj[v]:
                    if u not in visited:
                        visited.add(u)
                        stack.append(u)
            if degree_sum // 2 >= len(component):
                # properness bounds degrees by 2, so the component is a
                # single cycle; walk it for the witness
                start = component[0]
                cycle = [start]
                prev, cur = None, start
                while True:
                    nxt = next(u for u in adj[cur] if u != prev)
                    if nxt == start:
                        break
                    cycle.append(nxt)
                    prev, cur = cur, nxt
                return AcyclicCheck(False, "cycle", tuple(cycle))
    return AcyclicCheck(True, "", ())


# ------------------------------------- repetitively colored path checker

class NonrepColoringCheck(NamedTuple):
    ok: bool
    witness: tuple[str, ...] | None


def is_nonrepetitive_coloring(graph: Graph, coloring: Mapping[str, Hashable],
                              max_vertices: int,
                              budget: int = PATH_BUDGET
                              ) -> NonrepColoringCheck:
    """Exhaustively checks simple paths on up to `max_vertices` vertices
    for a color sequence whose first half repeats as its second half.
    Enumeration is exponential; `budget` caps extension steps and
    overruns raise rather than silently truncate."""
    missing = [v for v in graph.vertices if v not in coloring]
    if missing:
        raise SamplerError(f"coloring misses vertex {missing[0]!r}")
    if max_vertices < 2:
        return NonrepColoringCheck(True, None)
    steps = 0
    for start in graph.vertices:
        stack: list[tuple[list[str], set[str]]] = [([start], {start})]
        while stack:
            path, used = stack.pop()
            length = len(path)
            if length % 2 == 0:
                half = length // 2
                if all(coloring[path[i]] == coloring[path[i + half]]
                       for i in range(half)):
                    return NonrepColoringCheck(False, tuple(path))
            if length >= max_vertices:
                continue
            for u in graph.neighbors[path[-1]]:
                if u in used:
                    continue
                steps += 1
                if steps > budget:
                    raise BudgetExceededError(
                        f"path enumeration exceeded {budget} steps")
                stack.append((path + [u], used | {u}))
    return NonrepColoringCheck(True, None)
