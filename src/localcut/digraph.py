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

Arc = tuple[str, str]


class DigraphError(ValueError):
    """Malformed graph data: unknown endpoints, duplicate ids, bad weights."""


class NotOutClosedError(DigraphError):
    """A cut query was made against a vertex set that is not out-closed."""


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
            raise DigraphError("vertex set is empty")
        es = []
        seen: set[str] = set()
        for eid, tail, head in edges:
            if eid in seen:
                raise DigraphError(f"duplicate edge id {eid!r}")
            seen.add(eid)
            if tail not in vs:
                raise DigraphError(f"edge {eid!r}: unknown tail {tail!r}")
            if head not in vs:
                raise DigraphError(f"edge {eid!r}: unknown head {head!r}")
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

    def parallel_edges(self, tail: str, head: str) -> tuple[str, ...]:
        """Ids of every edge on the arc (tail, head)."""
        return self.edges_by_arc.get((tail, head), ())


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
        raise DigraphError(f"unknown vertex {start!r}")
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
            raise DigraphError(f"no weight for arc {arc}")
        if not 1.0 <= w < math.inf:
            problem = "below 1" if w < 1.0 else "not a finite number"
            raise DigraphError(f"weight {w} on arc {arc} is {problem}")


def min_product_weights(simple: SimpleDigraph, weights: Mapping[Arc, float],
                        start: str, *, check: bool = True) -> dict[str, float]:
    """Cheapest path products from start to every reachable vertex.

    The empty path gives the start vertex weight 1.  With all arc weights
    >= 1 the product along a path never decreases, so the usual
    pop-cheapest-first argument applies unchanged.  check=False skips
    check_weights, for callers that ran it on these weights already.
    """
    if start not in simple.vertices:
        raise DigraphError(f"unknown vertex {start!r}")
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


def min_product_weight(simple: SimpleDigraph, weights: Mapping[Arc, float],
                       start: str, target: str) -> float | None:
    """Min product over directed start->target paths; None if unreachable."""
    if target not in simple.vertices:
        raise DigraphError(f"unknown vertex {target!r}")
    return min_product_weights(simple, weights, start).get(target)


def is_out_closed(simple: SimpleDigraph, vertex_set: Iterable[str]) -> bool:
    """True iff every arc leaving the set stays inside it."""
    inside = frozenset(vertex_set)
    return all(head in inside
               for tail, head in simple.arcs if tail in inside)


def is_a_cut(graph: MultiDigraph, vertex_set: Iterable[str],
             edge_set: Iterable[str]) -> bool:
    """True iff edge_set hits every arc entering vertex_set from outside.

    Raises NotOutClosedError when vertex_set is not out-closed in the
    simple projection: the cut notion is only defined there.
    """
    inside = frozenset(vertex_set)
    simple = underlying_simple(graph)
    if not is_out_closed(simple, inside):
        raise NotOutClosedError(f"{sorted(inside)} is not out-closed")
    chosen = frozenset(edge_set)
    for (tail, head), edge_ids in graph.edges_by_arc.items():
        if tail not in inside and head in inside:
            if not any(eid in chosen for eid in edge_ids):
                return False
    return True


# ---------------------------------------------------------------- JSON I/O

def digraph_from_json(obj: dict) -> MultiDigraph:
    """Parse {"vertices": [...], "edges": [{"id","tail","head"}, ...]}."""
    try:
        vertices = obj["vertices"]
        edges = [(e["id"], e["tail"], e["head"]) for e in obj.get("edges", [])]
    except (KeyError, TypeError) as exc:
        raise DigraphError(f"bad digraph object: {exc}") from exc
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise DigraphError("vertices must be a list of strings")
    return MultiDigraph.build(vertices, edges)


def digraph_to_json(graph: MultiDigraph) -> dict:
    return {
        "vertices": sorted(graph.vertices),
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head}
                  for e in graph.edges],
    }
