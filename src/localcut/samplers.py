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
from itertools import compress, count, islice
from operator import eq
from typing import Hashable, Mapping, NamedTuple, Sequence

from .core import SAMPLE_CAP as RESAMPLE_CAP
from .instances import Graph, Hypergraph, ListAssignment
from .rng import Generator

__all__ = [
    "SamplerError", "PaletteTooSmallError",
    "SamplerReport", "moser_tardos_two_coloring", "verify_proper_2coloring",
    "nonrep_sequence_build", "is_nonrepetitive",
    "greedy_acyclic_edge_coloring", "is_acyclic_edge_coloring",
]

DRAW_CAP = 10 ** 6


class SamplerError(ValueError):
    pass


class PaletteTooSmallError(SamplerError):
    """Raised when a greedy step finds every color forbidden."""


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
    rng = Generator(seed)
    order = hypergraph.vertices
    colors = dict(zip(order, rng.integers(0, 2, len(order))))
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
            colors[v] = rng.integers(0, 2)
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
    first.  A shorter half t compares the last t digits of the keys at m
    and at m - t: both keys hold at least t digits, none of them 0."""

    def __init__(self, symbols: int) -> None:
        self.gram = _GRAM
        self.base = symbols + 1
        self.powers = [self.base ** t for t in range(self.gram)]
        self.span = self.base ** self.gram
        self.codes: list[int] = []
        self.keys: list[int] = []   # the gram key of each position
        self.ends: dict[int, list[int]] = {}

    def push(self, code: int) -> int:
        codes, keys, gram = self.codes, self.keys, self.gram
        powers = self.powers
        m = len(codes)
        key = ((keys[-1] if m else 0) * self.base + code + 1) % self.span
        codes.append(code)
        keys.append(key)
        half = (m + 1) // 2
        ends = self.ends.setdefault(key, [])
        found = 0
        for t in range(1, min(gram - 1, half) + 1):
            # both keys hold at least t nonzero digits: compare the last t
            if key % powers[t] == keys[m - t] % powers[t]:
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
    rng = Generator(seed)
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
        symbol = symbols[rng.integers(0, len(symbols))]
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

    That is O(n log n) anchors in all.  Each t compares its anchors in
    one pass over the codes at the multiples of t, and only the anchors
    that agree (about a quarter on four symbols) extend their runs."""
    n = len(sequence)
    table: dict[Hashable, int] = {}
    _symbol_codes(sequence, table)
    codes = [table[s] for s in sequence]
    for t in range(1, n // 2 + 1):
        # anchor j = i * t pairs entries i and i + 1 of this stride; one
        # that disagrees has no forward run, and the backward run alone
        # stops short of t
        stride = codes if t == 1 else codes[::t]
        for i in compress(count(), map(eq, stride, islice(stride, 1, None))):
            j = i * t
            k = j + t
            cap = min(t, n - k)
            forward = 1
            while forward < cap and codes[j + forward] == codes[k + forward]:
                forward += 1
            reach = min(t - 1, j)
            if forward + reach < t:
                continue
            back = 0
            while back < reach and codes[j - 1 - back] == codes[k - 1 - back]:
                back += 1
            if forward + back >= t:
                return NonrepCheck(False, (j - back + 1, t))
    return NonrepCheck(True, None)


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
    rng = Generator(seed)
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
            c = allowed[rng.integers(0, len(allowed))]
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
    pair, or the vertex sequence of a 2-colored cycle in the least pair
    of colors that has one.

    Properness puts each vertex on at most one edge of a color, so a
    2-colored cycle alternates its colors c and d, and every vertex on it
    carries both.  One pass over the edges therefore joins, for an edge
    {a, b} of color c, a and b in the (c, d) forest of each color d that
    a and b both carry, and no other edge.  In such a forest every part
    is a path and a and b are its ends (the edge is their only c-edge),
    so a union only links the far ends of two paths, and a pair is
    cyclic when a and b already end one path.  Only the least cyclic
    pair is then walked, in edge order, for its witness."""
    missing = [edge for edge in graph.edges if edge not in coloring]
    if missing:
        raise SamplerError(f"coloring misses edge {sorted(missing[0])}")
    shades: dict[str, dict[int, frozenset]] = {}
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
        shades[v] = seen
    far: dict[tuple, str] = {}    # (c, d, v) -> far end of v's path
    cyclic = set()
    for edge in graph.edges:
        c = coloring[edge]
        a, b = edge
        for d in shades[a].keys() & shades[b].keys():
            if d == c:
                continue
            pair = (c, d) if c < d else (d, c)
            end_a = far.pop(pair + (a,), a)
            end_b = far.pop(pair + (b,), b)
            if end_a == b:
                cyclic.add(pair)
            else:
                far[pair + (end_a,)] = end_b
                far[pair + (end_b,)] = end_a
    if not cyclic:
        return AcyclicCheck(True, "", ())
    pair = min(cyclic)
    adj: dict[str, list[str]] = {}
    for edge in graph.edges:
        if coloring[edge] in pair:
            a, b = sorted(edge)
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
            # degrees are at most 2, so the component is a single cycle;
            # walk it for the witness
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
    raise RuntimeError(f"colors {pair} closed no cycle")
