"""Randomized constructions and their independent verifiers."""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcut import samplers
from localcut.core import UsageError
from localcut.instances import Graph, Hypergraph, ListAssignment
from localcut.samplers import (DRAW_CAP, _SquareIndex,
                               greedy_acyclic_edge_coloring,
                               is_acyclic_edge_coloring, is_nonrepetitive,
                               moser_tardos_two_coloring,
                               nonrep_sequence_build,
                               verify_proper_2coloring)


def complete_graph(names):
    return Graph.build(names, itertools.combinations(names, 2))


# ------------------------------------------------------- 2-coloring

def test_verify_proper_2coloring():
    hg = Hypergraph.build(["a", "b", "c"], [{"a", "b", "c"}])
    ok, bad = verify_proper_2coloring(hg, {"a": 0, "b": 1, "c": 0})
    assert ok and bad is None
    ok, bad = verify_proper_2coloring(hg, {"a": 1, "b": 1, "c": 1})
    assert not ok and bad == frozenset({"a", "b", "c"})
    with pytest.raises(UsageError):
        verify_proper_2coloring(hg, {"a": 0})


def test_moser_tardos_small_instance():
    hg = Hypergraph.build(["a", "b", "c", "d"],
                          [{"a", "b", "c"}, {"b", "c", "d"}])
    coloring, report = moser_tardos_two_coloring(hg, seed=0)
    assert report.success
    assert verify_proper_2coloring(hg, coloring)[0]
    again, report2 = moser_tardos_two_coloring(hg, seed=0)
    assert again == coloring and report2 == report


def test_moser_tardos_edgeless_needs_no_resampling():
    hg = Hypergraph.build(["a", "b"], [])
    coloring, report = moser_tardos_two_coloring(hg, seed=5)
    assert report.success and report.steps == 0
    assert set(coloring) == {"a", "b"}


def test_moser_tardos_honest_cap_on_impossible_instance():
    hg = Hypergraph.build(["x"], [{"x"}])
    coloring, report = moser_tardos_two_coloring(hg, seed=3, cap=50)
    assert coloring is None
    assert not report.success and report.steps == 50
    assert "cap" in report.note
    with pytest.raises(UsageError):
        moser_tardos_two_coloring(hg, seed=3, cap=-1)


# ------------------------------------------------- sequence building

def test_nonrep_build_on_four_symbol_lists():
    lists = ListAssignment.uniform(30, 4)
    seq, report = nonrep_sequence_build(lists, seed=7)
    assert report.success and len(seq) == 30
    assert is_nonrepetitive(seq).ok
    assert all(s in lists.lists[i] for i, s in enumerate(seq))
    again, _ = nonrep_sequence_build(lists, seed=7)
    assert again == seq


def test_nonrep_build_respects_per_position_lists():
    lists = ListAssignment.build([("a", "b", "c", "d"),
                                  ("p", "q", "r", "s"),
                                  ("a", "q", "x", "y"),
                                  ("m", "n", "o", "z")])
    seq, report = nonrep_sequence_build(lists, seed=11)
    assert report.success
    assert all(s in lists.lists[i] for i, s in enumerate(seq))


def test_nonrep_build_single_position():
    seq, report = nonrep_sequence_build(ListAssignment.uniform(1, 1), seed=0)
    assert report.success and len(seq) == 1


def test_nonrep_build_binary_lists_exhaust_the_cap():
    # no binary word of length four avoids a doubled block
    seq, report = nonrep_sequence_build(ListAssignment.uniform(6, 2),
                                        seed=0, cap=500)
    assert seq is None
    assert not report.success and report.steps == 500


def test_is_nonrepetitive_witnesses():
    assert is_nonrepetitive("abc").ok
    assert is_nonrepetitive("").ok
    assert is_nonrepetitive("a").ok
    chk = is_nonrepetitive("abab")
    assert not chk.ok and chk.witness == (1, 2)
    chk = is_nonrepetitive("ababcca")
    assert not chk.ok and chk.witness == (5, 1)
    # the reported halves really are equal
    s, t = chk.witness
    word = "ababcca"
    assert word[s - 1:s - 1 + t] == word[s - 1 + t:s - 1 + 2 * t]


def brute_witness(word):
    """The least half length t, then the least 1-based start, of a square."""
    n = len(word)
    return next(((k + 1, t) for t in range(1, n // 2 + 1)
                 for k in range(n - 2 * t + 1)
                 if word[k:k + t] == word[k + t:k + 2 * t]), None)


def test_is_nonrepetitive_witnesses_against_brute_force():
    for length in range(9):
        for word in itertools.product("abc", repeat=length):
            want = brute_witness(word)
            chk = is_nonrepetitive(word)
            assert (chk.ok, chk.witness) == (want is None, want)


@functools.cache
def square_free_word(size, seed):
    return nonrep_sequence_build(ListAssignment.uniform(300, size), seed)[0]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(size=st.integers(3, 4), seed=st.integers(0, 40),
       half=st.integers(1, 60), start=st.integers(0, 10 ** 6),
       nudge=st.booleans())
def test_is_nonrepetitive_finds_planted_squares(size, seed, half, start,
                                                nudge):
    # a square-free word with a square of half length `half` copied in;
    # the agreeing run may reach back past the copy, and a nudged last
    # symbol leaves a near miss, so long forward and backward runs are
    # both exercised
    word = list(square_free_word(size, seed))
    s = start % (len(word) - 2 * half + 1)
    word[s + half:s + 2 * half] = word[s:s + half]
    if nudge:
        word[s + 2 * half - 1] = str((int(word[s + 2 * half - 1]) + 1) % size)
    chk = is_nonrepetitive(word)
    want = brute_witness(word)
    assert (chk.ok, chk.witness) == (want is None, want)


def test_is_nonrepetitive_on_builder_output_prefixes():
    lists = ListAssignment.uniform(40, 4)
    seq, report = nonrep_sequence_build(lists, seed=2)
    assert report.success
    for end in range(len(seq) + 1):
        assert is_nonrepetitive(seq[:end]).ok


def naive_nonrep_build(lists, seed, cap):
    """Erase-on-repeat by slice comparison at the end of the buffer,
    shortest doubled block first, on the sampler's draw stream."""
    rng = np.random.default_rng(seed)
    buf, draws = [], 0
    while len(buf) < len(lists.lists):
        if draws >= cap:
            return None, draws, "draw cap exhausted"
        symbols = lists.lists[len(buf)]
        buf.append(symbols[int(rng.integers(0, len(symbols)))])
        draws += 1
        m = len(buf)
        for t in range(1, m // 2 + 1):
            # the halves' last symbols first: most t fail there, unsliced
            if buf[m - 1 - t] == buf[-1] and buf[-2 * t:-t] == buf[-t:]:
                del buf[-t:]
                break
    return tuple(buf), draws, ""


def _nonrep_cases():
    rng = random.Random(3)
    for size in (2, 3, 4):
        for n in (1, 7, 60, 200):
            yield ListAssignment.uniform(n, size)
    alphabet = "abcdefg"
    for _ in range(8):
        n = rng.randint(1, 200)
        yield ListAssignment.build(
            [rng.sample(alphabet, rng.randint(1, 4)) for _ in range(n)])


def _assert_matches_naive(lists, seeds, cap):
    outcomes = set()
    for seed in seeds:
        seq, report = nonrep_sequence_build(lists, seed, cap)
        want, draws, note = naive_nonrep_build(lists, seed, cap)
        assert (seq, report.steps, report.note) == (want, draws, note)
        assert report.success == (want is not None)
        outcomes.add(report.success)
    return outcomes


@pytest.mark.parametrize("cap", [0, 40, 400, 2000])
def test_nonrep_build_matches_naive_builder(cap):
    outcomes = set()
    for lists in _nonrep_cases():
        outcomes |= _assert_matches_naive(lists, range(4), cap)
    if cap:
        assert outcomes == {True, False}     # caps both hit and not hit


@pytest.mark.parametrize("gram", [1, 2, 3])
def test_nonrep_build_matches_naive_builder_with_short_grams(monkeypatch,
                                                            gram):
    # nearly every square is found, and every erase popped, via the index
    monkeypatch.setattr(samplers, "_GRAM", gram)
    for lists in _nonrep_cases():
        _assert_matches_naive(lists, range(4), 2000)


@pytest.mark.parametrize("size, n, seeds", [(3, 1000, (0, 1)),
                                            (3, 2000, (0,)),
                                            (4, 2500, (0,))])
def test_nonrep_build_matches_naive_builder_past_the_gram(size, n, seeds):
    # size-3 lists erase dozens of squares of half length >= the gram
    # (one >= twice the gram at n = 1000, seed 1); size-4 lists at
    # n = 2500 erase none, so the index must propose no false square
    assert _assert_matches_naive(ListAssignment.uniform(n, size), seeds,
                                 DRAW_CAP) == {True}


def test_shortest_square_against_brute_force(monkeypatch):
    # the index's answer at every end position, for several gram lengths
    for gram in (1, 2, 3, samplers._GRAM):
        monkeypatch.setattr(samplers, "_GRAM", gram)
        for length in range(1, 9):
            for seq in itertools.product(range(3), repeat=length):
                index = _SquareIndex(3)
                for m, code in enumerate(seq):
                    want = next((t for t in range(1, (m + 1) // 2 + 1)
                                 if seq[m - 2 * t + 1:m - t + 1]
                                 == seq[m - t + 1:m + 1]), 0)
                    assert index.push(code) == want


# --------------------------------------------- acyclic edge coloring

def test_acyclic_star_fits_in_delta_colors():
    star = Graph.build(["c", "l1", "l2", "l3", "l4", "l5"],
                       [("c", f"l{i}") for i in range(1, 6)])
    coloring, report = greedy_acyclic_edge_coloring(star, 5, seed=0)
    assert report.success
    assert is_acyclic_edge_coloring(star, coloring).ok


def test_acyclic_k4_with_five_colors():
    k4 = complete_graph("abcd")
    coloring, report = greedy_acyclic_edge_coloring(k4, 5, seed=1)
    assert report.success
    assert is_acyclic_edge_coloring(k4, coloring).ok


def test_acyclic_k4_with_four_colors_always_jams():
    # four colors admit no acyclic coloring of K4, and the greedy bans
    # every 4-cycle up front, so the only exit is an empty allowed set
    k4 = complete_graph("abcd")
    for seed in range(5):
        with pytest.raises(UsageError, match="no color left"):
            greedy_acyclic_edge_coloring(k4, 4, seed)


def test_acyclic_six_cycle_redraw_path():
    c6 = Graph.build([f"v{i}" for i in range(6)],
                     [(f"v{i}", f"v{(i + 1) % 6}") for i in range(6)])
    coloring, report = greedy_acyclic_edge_coloring(c6, 3, seed=4)
    assert report.success
    assert report.steps > len(c6.edges)   # at least one redraw happened
    assert is_acyclic_edge_coloring(c6, coloring).ok


def test_acyclic_cap_and_palette_guards():
    k4 = complete_graph("abcd")
    coloring, report = greedy_acyclic_edge_coloring(k4, 5, seed=0, cap=0)
    assert coloring is None and not report.success
    with pytest.raises(UsageError):
        greedy_acyclic_edge_coloring(k4, 0, seed=0)


def brute_acyclic_check(graph, coloring):
    for v in graph.vertices:
        shades = [coloring[frozenset((v, u))] for u in graph.neighbors[v]]
        if len(set(shades)) != len(shades):
            return False
    names = list(graph.vertices)
    edge_set = set(graph.edges)
    for r in range(3, len(names) + 1):
        for cycle in itertools.permutations(names, r):
            if cycle[0] != min(cycle) or cycle[1] > cycle[-1]:
                continue              # one representative per cycle
            edges = [frozenset((cycle[i], cycle[(i + 1) % r]))
                     for i in range(r)]
            if any(e not in edge_set for e in edges):
                continue
            if len({coloring[e] for e in edges}) == 2:
                return False
    return True


def test_acyclic_checker_against_brute_force():
    k4 = complete_graph("abcd")
    edges = list(k4.edges)
    count = disagree = 0
    for assignment in itertools.product(range(3), repeat=len(edges)):
        coloring = dict(zip(edges, assignment))
        got = is_acyclic_edge_coloring(k4, coloring).ok
        want = brute_acyclic_check(k4, coloring)
        assert got == want
        count += 1
    assert count == 3 ** 6


def test_acyclic_checker_witnesses():
    c4 = Graph.build(["a", "b", "c", "d"],
                     [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    alternating = {frozenset(("a", "b")): 0, frozenset(("b", "c")): 1,
                   frozenset(("c", "d")): 0, frozenset(("d", "a")): 1}
    chk = is_acyclic_edge_coloring(c4, alternating)
    assert not chk.ok and chk.kind == "cycle" and len(chk.witness) == 4

    clash = dict(alternating)
    clash[frozenset(("b", "c"))] = 0
    chk = is_acyclic_edge_coloring(c4, clash)
    assert not chk.ok and chk.kind == "adjacent"

    with pytest.raises(UsageError):
        is_acyclic_edge_coloring(c4, {})


