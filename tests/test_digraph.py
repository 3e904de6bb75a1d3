"""Digraph layer: construction, reachability, min-product paths, and the
cut check that cut models are validated with."""

import itertools

import numpy as np
import pytest

from localcut.core import UsageError
from localcut.digraph import (MultiDigraph, digraph_from_json,
                              min_product_weights, reachable,
                              underlying_simple)
from localcut.probability import _cut_checker

from corpus import digraph_to_json, random_multidigraph


def diamond():
    return MultiDigraph.build(
        ["a", "b", "c", "d"],
        [("e1", "a", "b"), ("e2", "a", "c"), ("e3", "b", "d"),
         ("e4", "c", "d"), ("e5", "a", "b")])


def test_build_rejects_bad_input():
    with pytest.raises(UsageError):
        MultiDigraph.build([], [])
    with pytest.raises(UsageError):
        MultiDigraph.build(["a"], [("e1", "a", "zzz")])
    with pytest.raises(UsageError):
        MultiDigraph.build(["a", "b"], [("e1", "a", "b"), ("e1", "b", "a")])


def test_parallel_edges_and_arcs():
    g = diamond()
    assert g.edges_by_arc[("a", "b")] == ("e1", "e5")
    assert ("b", "a") not in g.edges_by_arc
    simple = underlying_simple(g)
    assert ("a", "b") in simple.arcs
    assert len(simple.arcs) == 4


def brute_reachable(simple, start):
    #|V| rounds of arc relaxation reach transitive closure
    seen = {start}
    for _ in simple.vertices:
        for tail, head in simple.arcs:
            if tail in seen:
                seen.add(head)
    return frozenset(seen)


def brute_min_product(simple, weights, start):
    """Enumerate every simple path from start by DFS."""
    best = {start: 1.0}

    def walk(v, cost, used):
        for w in simple.out_neighbors[v]:
            if w in used:
                continue
            c = cost * weights[(v, w)]
            if c < best.get(w, float("inf")):
                best[w] = c
            walk(w, c, used | {w})

    walk(start, 1.0, {start})
    return best


def test_reachable_and_min_product_match_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(60):
        g = random_multidigraph(rng)
        simple = underlying_simple(g)
        weights = {arc: 1.0 + float(rng.uniform(0.0, 3.0))
                   for arc in simple.arcs}
        for start in sorted(g.vertices):
            assert reachable(simple, start) == brute_reachable(simple, start)
            got = min_product_weights(simple, weights, start)
            want = brute_min_product(simple, weights, start)
            assert set(got) == set(want)
            for v in got:
                assert got[v] == pytest.approx(want[v], rel=1e-12)


def test_min_product_self_and_unreachable():
    g = diamond()
    simple = underlying_simple(g)
    weights = {arc: 2.0 for arc in simple.arcs}
    assert min_product_weights(simple, weights, "a")["a"] == 1.0
    assert "a" not in min_product_weights(simple, weights, "d")
    with pytest.raises(UsageError):
        min_product_weights(simple, weights, "zzz")


def test_weights_below_one_rejected():
    g = diamond()
    simple = underlying_simple(g)
    weights = {arc: 2.0 for arc in simple.arcs}
    weights[("a", "b")] = 0.5
    with pytest.raises(UsageError):
        min_product_weights(simple, weights, "a")
    with pytest.raises(UsageError):
        min_product_weights(simple, {}, "a")


def test_is_a_cut():
    check = _cut_checker(diamond())
    # arcs entering {d}: (b,d) and (c,d)
    assert check(frozenset({"d"}), frozenset({"e3", "e4"})) is None
    assert check(frozenset({"d"}), frozenset({"e3"})) == \
        "F misses boundary arc (c,d)"
    # one parallel edge of the (a,b) arc is enough for {b,c,d}
    assert check(frozenset({"b", "c", "d"}), frozenset({"e1", "e2"})) is None
    assert check(frozenset({"b", "c", "d"}), frozenset({"e5", "e2"})) is None
    assert check(frozenset({"b", "c", "d"}), frozenset({"e1"})) == \
        "F misses boundary arc (a,c)"
    assert check(frozenset({"a"}), frozenset()).startswith(
        "A not out-closed")


def test_every_arc_cut_is_always_valid():
    # F = every edge is a cut of exactly the out-closed vertex sets
    rng = np.random.default_rng(11)
    for _ in range(40):
        g = random_multidigraph(rng)
        simple = underlying_simple(g)
        check = _cut_checker(g)
        all_edges = frozenset(e.id for e in g.edges)
        for r in range(len(g.vertices) + 1):
            for combo in itertools.combinations(sorted(g.vertices), r):
                inside = frozenset(combo)
                closed = all(head in inside for tail, head in simple.arcs
                             if tail in inside)
                assert (check(inside, all_edges) is None) == closed


def test_json_round_trip():
    g = diamond()
    again = digraph_from_json(digraph_to_json(g))
    assert again.vertices == g.vertices
    assert again.edges == g.edges
    with pytest.raises(UsageError):
        digraph_from_json({"edges": []})
    with pytest.raises(UsageError):
        digraph_from_json({"vertices": "ab", "edges": []})
