"""Finite directed multigraphs and min-product path weights.

Vertices and edges carry string ids.  Parallel edges and loops are allowed;
the simple projection keeps one arc per ordered pair that has at least one
edge.  Path weights multiply arc weights (all >= 1), so a cheapest-first
search is exact.
"""

from __future__ import annotations

import heapq
import math
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .core import LIST, STRING, UsageError, json_list, json_value

Arc = tuple[str, str]


class Edge(NamedTuple):
    id: str
    tail: str
    head: str


class _MultiDigraphFields(NamedTuple):
    vertices: frozenset[str]
    edges: tuple[Edge, ...]


class MultiDigraph(_MultiDigraphFields):
    @staticmethod
    def build(vertices: Iterable[str],
              edges: Iterable[tuple[str, str, str]]) -> "MultiDigraph":
        """Build from vertex ids and (edge_id, tail, head) triples."""
        vs = frozenset(vertices)
        if not vs:
            raise UsageError("vertex set is empty")
        es = []
        seen: set[str] = set()
        for eid, tail, head in edges:
            if eid in seen:
                raise UsageError(f"duplicate edge id {eid!r}")
            seen.add(eid)
            if tail not in vs:
                raise UsageError(f"edge {eid!r}: unknown tail {tail!r}")
            if head not in vs:
                raise UsageError(f"edge {eid!r}: unknown head {head!r}")
            es.append(Edge(eid, tail, head))
        return MultiDigraph(vs, tuple(es))

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def edges_by_arc(self) -> dict[Arc, tuple[str, ...]]:
        acc: dict[Arc, list[str]] = {}
        for e in self.edges:
            acc.setdefault((e.tail, e.head), []).append(e.id)
        return {arc: tuple(ids) for arc, ids in acc.items()}


class _SimpleDigraphFields(NamedTuple):
    vertices: frozenset[str]
    arcs: frozenset[Arc]


class SimpleDigraph(_SimpleDigraphFields):
    @cached_property
    def out_neighbors(self) -> dict[str, tuple[str, ...]]:
        acc: dict[str, list[str]] = {v: [] for v in self.vertices}
        for tail, head in self.arcs:
            acc[tail].append(head)
        # sorted for deterministic traversal order
        return {v: tuple(sorted(ns)) for v, ns in acc.items()}


def underlying_simple(graph: MultiDigraph) -> SimpleDigraph:
    """Collapse parallel edges: one arc per ordered pair with an edge."""
    return SimpleDigraph(graph.vertices, frozenset(graph.edges_by_arc))


def reachable(simple: SimpleDigraph, start: str) -> frozenset[str]:
    """Vertices reachable from start by directed paths; start included."""
    if start not in simple.vertices:
        raise UsageError(f"unknown vertex {start!r}")
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in simple.out_neighbors[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def head_reach(graph: MultiDigraph) -> dict[str, frozenset[str]]:
    """Vertices reachable from each edge head, one search per distinct
    head."""
    simple = underlying_simple(graph)
    return {head: reachable(simple, head)
            for head in {e.head for e in graph.edges}}


def check_weights(simple: SimpleDigraph, weights: Mapping[Arc, float]) -> None:
    """Weights must cover every arc and be finite numbers >= 1."""
    for arc in simple.arcs:
        w = weights.get(arc)
        if w is None:
            raise UsageError(f"no weight for arc {arc}")
        if not 1.0 <= w < math.inf:
            problem = "below 1" if w < 1.0 else "not a finite number"
            raise UsageError(f"weight {w} on arc {arc} is {problem}")


def min_product_weights(simple: SimpleDigraph, weights: Mapping[Arc, float],
                        start: str, *, check: bool = True) -> dict[str, float]:
    """Cheapest path products from start to every reachable vertex.

    The empty path gives the start vertex weight 1.  With all arc weights
    >= 1 the product along a path never decreases, so the usual
    pop-cheapest-first argument applies unchanged.  check=False skips
    check_weights, for callers that ran it on these weights already.
    """
    if start not in simple.vertices:
        raise UsageError(f"unknown vertex {start!r}")
    if check:
        check_weights(simple, weights)
    best: dict[str, float] = {}
    heap: list[tuple[float, str]] = [(1.0, start)]
    while heap:
        cost, v = heapq.heappop(heap)
        if v in best:
            continue
        best[v] = cost
        for w in simple.out_neighbors[v]:
            if w not in best:
                heapq.heappush(heap, (cost * weights[(v, w)], w))
    return best


# ---------------------------------------------------------------- JSON I/O

def digraph_from_json(obj: dict) -> MultiDigraph:
    """Parse {"vertices": [...], "edges": [{"id","tail","head"}, ...]};
    vertices, edge ids and endpoints must be strings."""
    try:
        vertices = json_list(obj["vertices"], STRING, "vertices")
        edges = json_value(obj.get("edges", []), LIST, "edges")
        edges = [(e["id"], e["tail"], e["head"]) for e in edges]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"bad digraph object: {exc}") from exc
    json_list([v for edge in edges for v in edge], STRING,
              "edge ids, tails and heads")
    return MultiDigraph.build(vertices, edges)
