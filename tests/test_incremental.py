"""The incremental local-step loops against the full-rescan versions they
replaced.

The oracles below are the earlier implementations, kept verbatim: a
2-coloring that rescans every edge after each resample, a peel that
recomputes every live charge at every step, a cycle search that scans the
whole color index, a verifier that scans every edge for each color pair,
a graph generator that shuffles frozensets, and a square check that
compares the whole word with each shifted copy of itself.  The new code
must agree with them exactly: same RNG stream, same outputs, same floats.
"""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcut import samplers
from localcut.core import UsageError
from localcut.instances import (Graph, Hypergraph, ListAssignment,
                                random_graph_max_degree)
from localcut.samplers import (RESAMPLE_CAP, AcyclicCheck, NonrepCheck,
                               SamplerReport, _symbol_codes,
                               greedy_acyclic_edge_coloring,
                               is_acyclic_edge_coloring, is_nonrepetitive,
                               moser_tardos_two_coloring,
                               nonrep_sequence_build)
from localcut.thresholds import (DegreeProfile, PeelResult, g_weight,
                                 greedy_peel)


# ------------------------------------------------------------ oracles

def old_moser_tardos_two_coloring(hypergraph, seed, cap=RESAMPLE_CAP):
    rng = np.random.default_rng(seed)
    order = hypergraph.vertices
    colors = {v: int(b) for v, b in zip(order, rng.integers(0, 2, len(order)))}
    resamples = 0
    while True:
        bad = next((edge for edge in hypergraph.edges
                    if len({colors[v] for v in edge}) == 1), None)
        if bad is None:
            return colors, SamplerReport(True, resamples, seed)
        if resamples >= cap:
            return None, SamplerReport(False, resamples, seed,
                                       "resample cap exhausted")
        for v in sorted(bad):
            colors[v] = int(rng.integers(0, 2))
        resamples += 1


def old_greedy_peel(hypergraph, k, c, z):
    position = {v: i for i, v in enumerate(hypergraph.vertices)}
    alive = set(hypergraph.vertices)
    surviving = {idx: len(edge) for idx, edge in enumerate(hypergraph.edges)}
    order = []
    sums = []

    def charge(v):
        return sum(g_weight(surviving[idx], z)
                   for idx in hypergraph.edges_at[v])

    while alive:
        ready = [v for v in alive if charge(v) >= k - c]
        if not ready:
            break
        v = min(ready, key=position.__getitem__)
        order.append(v)
        sums.append(charge(v))
        alive.remove(v)
        for idx in hypergraph.edges_at[v]:
            surviving[idx] -= 1

    profiles = {}
    if alive:
        for v in sorted(alive, key=position.__getitem__):
            partial = {}
            full = {}
            for idx in hypergraph.edges_at[v]:
                edge = hypergraph.edges[idx]
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
        hypergraph.is_true_hypergraph(),
        len(hypergraph.edges), len(hypergraph.vertices))


def old_bichromatic_cycle(graph, edge, color, coloring, at):
    x, y = sorted(edge)
    others = {c for (v, c) in at if v in (x, y) and c != color}
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


def old_is_acyclic_edge_coloring(graph, coloring):
    for v in graph.vertices:
        seen = {}
        for u in graph.neighbors[v]:
            edge = frozenset((v, u))
            c = coloring[edge]
            if c in seen:
                return AcyclicCheck(False, "adjacent",
                                    (tuple(sorted(seen[c])),
                                     tuple(sorted(edge))))
            seen[c] = edge
    used = sorted({coloring[edge] for edge in graph.edges})
    for pair in itertools.combinations(used, 2):
        adj = {}
        for edge in graph.edges:
            if coloring[edge] in pair:
                a, b = sorted(edge)
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
        visited = set()
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


def old_random_graph_max_degree(n, max_degree, target_edges, seed):
    rng = random.Random(seed)
    vertices = [f"w{i}" for i in range(n)]
    degree = {v: 0 for v in vertices}
    chosen = set()
    pairs = [frozenset(p) for p in itertools.combinations(vertices, 2)]
    rng.shuffle(pairs)
    for pair in pairs:
        if len(chosen) >= target_edges:
            break
        a, b = tuple(pair)
        if degree[a] < max_degree and degree[b] < max_degree:
            chosen.add(pair)
            degree[a] += 1
            degree[b] += 1
    return Graph.build(vertices, sorted(sorted(p) for p in chosen))


def old_is_nonrepetitive(sequence):
    n = len(sequence)
    table = {}
    _symbol_codes(sequence, table)
    codes = np.array([table[s] for s in sequence], dtype=np.int32)
    sums = np.zeros(n + 1, dtype=np.int32)   # sums[i]: agreements before i
    for t in range(1, n // 2 + 1):
        np.cumsum(codes[t:] == codes[:-t], out=sums[1:n - t + 1])
        starts = np.flatnonzero(sums[t:n - t + 1] - sums[:n - 2 * t + 1] == t)
        if starts.size:
            return NonrepCheck(False, (int(starts[0]) + 1, t))
    return NonrepCheck(True, None)


# ---------------------------------------------------------- instances

def random_hypergraph(rng, sizes):
    """Vertices listed in shuffled order; edges of the given size range."""
    n = rng.randint(3, 40)
    vertices = [f"v{i}" for i in range(n)]
    rng.shuffle(vertices)
    edges = [rng.sample(vertices, rng.randint(sizes[0], min(sizes[1], n)))
             for _ in range(rng.randint(1, 3 * n))]
    return Hypergraph.build(vertices, edges)


# --------------------------------------------------------- 2-coloring

def test_two_coloring_matches_the_full_rescan():
    rng = random.Random(11)
    outcomes = set()
    for trial in range(150):
        hg = random_hypergraph(rng, (2, 6) if trial % 5 else (1, 4))
        cap = rng.choice([0, 1, 5, 40, 1000])
        seed = rng.randrange(10 ** 6)
        new = moser_tardos_two_coloring(hg, seed, cap)
        assert new == old_moser_tardos_two_coloring(hg, seed, cap)
        outcomes.add((new[1].success, new[1].steps > 0))
    # solved at once, solved after resampling, and cap hit
    assert outcomes >= {(True, False), (True, True), (False, True)}


def test_two_coloring_matches_at_benchmark_shape():
    from localcut.instances import random_regular_uniform_hypergraph
    for n, seed in [(240, 0), (480, 1), (960, 2)]:
        hg = random_regular_uniform_hypergraph(n, 8, 8, seed)
        for run in range(3):
            new = moser_tardos_two_coloring(hg, seed + run)
            assert new == old_moser_tardos_two_coloring(hg, seed + run)
            assert new[1].success


# --------------------------------------------------------------- peel

@pytest.mark.parametrize("z", [1.2, 1.5, 2.0, 3.0])
def test_peel_matches_the_full_recompute(z):
    rng = random.Random(f"peel-{z}")
    statuses = set()
    for _ in range(120):
        hg = random_hypergraph(rng, (1, 5))
        initial = [sum(g_weight(len(hg.edges[idx]), z)
                       for idx in hg.edges_at[v]) for v in hg.vertices]
        # thresholds between the smallest and largest start charge, so
        # some peels stop and some run to the end
        k = 4
        c = k - rng.uniform(max(min(initial), 1e-3), max(initial) + 1e-3)
        new = greedy_peel(hg, k, c, z)
        old = old_greedy_peel(hg, k, c, z)
        assert (new.status, new.order, new.step_sums, new.chain_total,
                new.remaining) == (old.status, old.order, old.step_sums,
                                   old.chain_total, old.remaining)
        assert new.profiles == old.profiles
        assert new == old
        statuses.add(new.status)
    assert statuses == {"stopped", "all-peeled"}


def test_peel_matches_on_regular_hypergraphs():
    from localcut.instances import random_regular_uniform_hypergraph
    for n, d, c in [(60, 12, 2.5), (120, 12, 2.5), (150, 6, 3.4)]:
        hg = random_regular_uniform_hypergraph(n, 3, d, n)
        for z in (1.5, 2.0, 3.0):
            assert greedy_peel(hg, 4, c, z) == old_greedy_peel(hg, 4, c, z)


# ------------------------------------------------------------ acyclic

def test_acyclic_sampler_matches_the_index_scan(monkeypatch):
    rng = random.Random(5)
    cases = []
    for _ in range(60):
        n = rng.randint(6, 60)
        delta = rng.randint(2, 6)
        graph = random_graph_max_degree(n, delta, n * delta // 2,
                                        rng.randrange(1000))
        span = 2 * (graph.max_degree - 1)
        palette = rng.choice([span + 1, span + 2, 2 * span])
        cases.append((graph, palette, rng.randrange(10 ** 6),
                      rng.choice([3, 30, RESAMPLE_CAP])))

    new_cycle = samplers._bichromatic_cycle

    def both(graph, edge, color, coloring, at):
        found = new_cycle(graph, edge, color, coloring, at)
        assert found == old_bichromatic_cycle(graph, edge, color, coloring,
                                              at)
        return found

    # every cycle search of every run is compared, so the RNG stream,
    # colorings and draws follow
    monkeypatch.setattr(samplers, "_bichromatic_cycle", both)
    reports = []
    for graph, palette, seed, cap in cases:
        try:
            _, rep = greedy_acyclic_edge_coloring(graph, palette, seed, cap)
        except UsageError as exc:
            assert "no color left" in str(exc)
            continue
        reports.append((graph, rep))
    assert any(not rep.success for _, rep in reports)
    # some runs redrew after finding a cycle
    assert any(rep.success and rep.steps > len(graph.edges)
               for graph, rep in reports)


def random_proper_coloring(rng, graph, palette):
    """Each edge, in shuffled order, takes a random color unused at its
    ends; bichromatic cycles are left in."""
    coloring = {}
    for edge in rng.sample(graph.edges, len(graph.edges)):
        used = {coloring.get(frozenset((v, u)))
                for v in edge for u in graph.neighbors[v]}
        coloring[edge] = rng.choice([c for c in range(palette)
                                     if c not in used])
    return coloring


def test_acyclic_verifier_matches_the_pair_scan():
    rng = random.Random(17)
    kinds = set()
    for _ in range(150):
        n = rng.randint(4, 40)
        delta = rng.randint(2, 5)
        graph = random_graph_max_degree(n, delta, n * delta // 2,
                                        rng.randrange(1000))
        coloring = random_proper_coloring(rng, graph,
                                          2 * graph.max_degree - 1)
        for edge in rng.sample(graph.edges, rng.choice([0, 0, 1, 2])):
            coloring[edge] = rng.randrange(2 * graph.max_degree)
        check = is_acyclic_edge_coloring(graph, coloring)
        assert check == old_is_acyclic_edge_coloring(graph, coloring)
        kinds.add(check.kind)
    assert kinds == {"", "adjacent", "cycle"}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(4, 30), st.integers(2, 6), st.integers(-1, 1),
       st.integers(0, 10 ** 6))
def test_acyclic_verifier_matches_the_pair_scan_on_tight_palettes(
        n, delta, spare, seed):
    # 2 max degree - 1 to + 1 colors: proper, and 2-colored cycles common
    rng = random.Random(seed)
    graph = random_graph_max_degree(n, delta, n * delta // 2, seed)
    coloring = random_proper_coloring(rng, graph,
                                      2 * graph.max_degree + spare)
    check = is_acyclic_edge_coloring(graph, coloring)
    assert check == old_is_acyclic_edge_coloring(graph, coloring)


def colored_graph(triples):
    """A graph with its edges, and their colors, in the order given."""
    graph = Graph.build(sorted({v for a, b, _ in triples for v in (a, b)}),
                        [(a, b) for a, b, _ in triples])
    return graph, {frozenset((a, b)): c for a, b, c in triples}


def ring(name, length, colors):
    return [(f"{name}{i}", f"{name}{(i + 1) % length}", colors[i % 2])
            for i in range(length)]


def decorated_ring(length, colors, spare):
    """A ring alternating `colors`, a pendant p_i at each ring vertex
    alternating `spare`, and the path p_0 ... p_(length-1) alternating
    `colors` again: proper, and the ring is its only 2-colored cycle."""
    pendants = [(f"r{i}", f"p{i}", spare[i % 2]) for i in range(length)]
    path = [(f"p{i}", f"p{i + 1}", colors[i % 2])
            for i in range(length - 1)]
    return ring("r", length, colors), pendants + path


@pytest.mark.parametrize("length, colors, spare",
                         [(6, (0, 1), (2, 3)), (8, (4, 2), (0, 1))])
def test_acyclic_verifier_finds_a_long_cycle_in_a_larger_coloring(
        length, colors, spare):
    cycle, rest = decorated_ring(length, colors, spare)
    want = AcyclicCheck(False, "cycle", tuple(f"r{i}" for i in range(length)))
    # ring first, and ring last so that the last edge closes the cycle
    for triples in (cycle + rest, rest + cycle):
        graph, coloring = colored_graph(triples)
        check = is_acyclic_edge_coloring(graph, coloring)
        assert check == want == old_is_acyclic_edge_coloring(graph, coloring)
        # one color changed on the path leaves the ring as the only cycle,
        # and one on the ring leaves none
        coloring[frozenset(("p0", "p1"))] = 9
        assert is_acyclic_edge_coloring(graph, coloring) == want
        coloring[frozenset(("r0", "r1"))] = 8
        assert is_acyclic_edge_coloring(graph, coloring).ok


def test_acyclic_verifier_witness_comes_from_the_least_cyclic_pair():
    # the 4-cycle in colors 2, 3 closes first, the 6-cycle in 0, 1 later
    for late in (ring("b", 6, (0, 1)), ring("b", 6, (1, 0))):
        graph, coloring = colored_graph(ring("a", 4, (3, 2)) + late)
        check = is_acyclic_edge_coloring(graph, coloring)
        assert check == AcyclicCheck(False, "cycle",
                                     ("b0", "b1", "b2", "b3", "b4", "b5"))
        assert check == old_is_acyclic_edge_coloring(graph, coloring)


def test_graph_generator_matches_the_frozenset_shuffle():
    for n, delta, target, seed in [(2, 1, 1, 0), (10, 3, 15, 1),
                                   (40, 6, 120, 2), (40, 6, 30, 3),
                                   (120, 4, 1000, 4)]:
        new = random_graph_max_degree(n, delta, target, seed)
        old = old_random_graph_max_degree(n, delta, target, seed)
        assert (new.vertices, new.edges) == (old.vertices, old.edges)


# ------------------------------------------------------ square check

def assert_same_square(word):
    check = is_nonrepetitive(word)
    assert check == old_is_nonrepetitive(word)
    return check


@functools.cache
def builder_word(size, n):
    word, report = nonrep_sequence_build(ListAssignment.uniform(n, size), n)
    assert report.success
    return word


def copied(word, start, t):
    """The word with its t symbols from `start` copied over the next t."""
    word = list(word)
    word[start + t:start + 2 * t] = word[start:start + t]
    return word


def inserted(word, start, t):
    """The word with a doubled block of t fresh, distinct symbols inserted
    at `start`.  Each fresh symbol occurs twice, t apart, so a square
    holding one is that block; in a square-free word it is the only one."""
    block = [("fresh", i) for i in range(t)]
    return [*word[:start], *block, *block, *word[start:]]


def zimin(k):
    word = [0]
    for letter in range(1, k):
        word = word + [letter] + word
    return word


@pytest.mark.parametrize("size", [3, 4])
def test_square_check_matches_on_builder_output(size):
    for n in (2, 3, 40, 700, 5000):
        assert assert_same_square(builder_word(size, n)).ok


# half lengths at the band edges 2^i - 1 and 2^i
HALVES = (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 255, 256, 1023,
          1024)


@pytest.mark.parametrize("size", [3, 4])
def test_square_check_finds_planted_squares(size):
    word = builder_word(size, 5000)
    n = len(word)
    for t in HALVES:
        # starts on and off the multiples of t, at both ends and mid-word
        for start in (0, 1, t - 1, t, t + 1, n // 2 - 1, n - 1, n):
            check = assert_same_square(inserted(word, start, t))
            assert check.witness == (start + 1, t)
    for t in (1, 2, 3, 2500):     # the whole word is the square
        assert assert_same_square(inserted([], 0, t)).witness == (1, t)


@pytest.mark.parametrize("size", [3, 4])
def test_square_check_matches_on_copied_blocks(size):
    # copies leave shorter squares at their seams, found as the oracle does
    word = builder_word(size, 5000)
    n = len(word)
    for t in (*HALVES, n // 2 - 1, n // 2):
        last = n - 2 * t
        for start in {0, min(1, last), last // 2, max(last - 1, 0), last}:
            assert not assert_same_square(copied(word, start, t)).ok


def test_square_check_matches_on_structured_words():
    words = [zimin(k) for k in range(1, 13)]
    words += [[0] * n for n in (1, 2, 3, 8, 1000)]
    for period in ([0, 1], [0, 1, 2], [2, 0, 1, 0, 2, 1], zimin(5)):
        words += [(period * (600 // len(period) + 2))[:cut]
                  for cut in (len(period) * 2 - 1, len(period) * 2, 599)]
    outcomes = {assert_same_square(word).ok for word in words}
    assert outcomes == {True, False}


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.integers(1, 3).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), max_size=40)))
def test_square_check_matches_on_short_words(word):
    assert_same_square(word)
