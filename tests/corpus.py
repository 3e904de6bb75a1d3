"""Seeded random instance generators shared across the test suite.

Four model templates on small random multidigraphs, all with exactly
enumerable product spaces (at most 4096 outcomes):

  core   vertex bits; A collects the vertices whose whole reachable set is
         switched on, F is the full boundary of A
  noise  same A, but F adds independently switched edges on top of the
         boundary
  empty  A is always empty and F is some arbitrary measurable edge set
  full   A is always the whole vertex set, F is the switched edge set

All four keep A out-closed and F an A-cut by construction, so every
instance is a valid exact cut model.

Three helpers serve several test modules: `digraph_to_json` writes a
digraph in the input format `digraph_from_json` reads, `risk_of_edge`
is one edge's effective risk under given weights, and `boundary` reads a
family's boundary through the bitset lattice the family check uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from localcut import engine
from localcut.digraph import (MultiDigraph, min_product_weights, reachable,
                              underlying_simple)
from localcut.families import _Lattice
from localcut.probability import CutModel, ProductSpace

CORPUS_SEED = 20230823
CORPUS_SIZE = 200


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    kind: str
    graph: MultiDigraph
    space: ProductSpace
    model: CutModel


def random_multidigraph(rng: np.random.Generator,
                        max_edges: int = 8) -> MultiDigraph:
    """2..5 vertices, 1..max_edges edges, no loops, parallels allowed."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, max_edges + 1))
    vertices = [f"v{i}" for i in range(1, n + 1)]
    triples = []
    for j in range(1, m + 1):
        tail, head = (int(i) for i in rng.choice(n, size=2, replace=False))
        triples.append((f"e{j}", vertices[tail], vertices[head]))
    return MultiDigraph.build(vertices, triples)


def _vertex_bit_space(rng: np.random.Generator, graph: MultiDigraph,
                      with_edge_bits: bool) -> ProductSpace:
    variables = []
    for v in sorted(graph.vertices):
        p_on = float(rng.uniform(0.2, 0.8))
        variables.append((f"s_{v}", [0, 1], [1.0 - p_on, p_on]))
    if with_edge_bits:
        for e in graph.edges:
            p_on = float(rng.uniform(0.1, 0.6))
            variables.append((f"g_{e.id}", [0, 1], [1.0 - p_on, p_on]))
    return ProductSpace.build(variables)


def make_instance(seed: int) -> CorpusInstance:
    rng = np.random.default_rng(seed)
    kind = str(rng.choice(["core", "noise", "empty", "full"],
                          p=[0.35, 0.40, 0.10, 0.15]))
    # noise and full carry one extra bit per edge; keep 2^(n+m) <= 4096
    max_edges = 7 if kind in ("noise", "full") else 8
    graph = random_multidigraph(rng, max_edges)
    space = _vertex_bit_space(rng, graph, kind in ("noise", "full"))
    simple = underlying_simple(graph)
    reach = {v: reachable(simple, v) for v in graph.vertices}
    edges = graph.edges

    def closure_a(point) -> frozenset[str]:
        on = {v for v in graph.vertices if point[f"s_{v}"] == 1}
        return frozenset(v for v in graph.vertices if reach[v] <= on)

    def boundary_f(inside: frozenset[str], point) -> set[str]:
        return {e.id for e in edges
                if e.head in inside and e.tail not in inside}

    if kind == "core":
        def a_of(point):
            return closure_a(point)

        def f_of(point):
            return frozenset(boundary_f(closure_a(point), point))
    elif kind == "noise":
        def a_of(point):
            return closure_a(point)

        def f_of(point):
            chosen = boundary_f(closure_a(point), point)
            chosen |= {e.id for e in edges if point[f"g_{e.id}"] == 1}
            return frozenset(chosen)
    elif kind == "empty":
        def a_of(point):
            return frozenset()

        def f_of(point):
            return frozenset(e.id for e in edges
                             if point[f"s_{e.tail}"] == 1)
    else:                         # full
        def a_of(point):
            return frozenset(graph.vertices)

        def f_of(point):
            return frozenset(e.id for e in edges
                             if point[f"g_{e.id}"] == 1)

    model = CutModel(graph, a_of, f_of)
    return CorpusInstance(f"corpus-{seed}", kind, graph, space, model)


def corpus(size: int = CORPUS_SIZE) -> list[CorpusInstance]:
    return [make_instance(CORPUS_SEED + i) for i in range(size)]


def digraph_to_json(graph: MultiDigraph) -> dict:
    return {
        "vertices": sorted(graph.vertices),
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head}
                  for e in graph.edges],
    }


def risk_of_edge(inst: engine.CutInstance, weights, edge_id: str) -> float:
    """Effective risk of one edge under the given weights."""
    edge = inst.graph.edge_by_id[edge_id]
    products = min_product_weights(inst.simple, weights, edge.tail)
    arc = (edge.tail, edge.head)
    row = inst.risk_rows[arc][inst.graph.edges_by_arc[arc].index(edge_id)]
    return engine._edge_risk(row, engine._floor(inst, edge.head, products),
                             products)


def boundary(family, ground) -> frozenset[str]:
    """Elements whose addition can eject a member of a downward-closed
    family of subsets of the ground set.

    Raises ValueError if the family is empty, not downward-closed or has
    a member outside the ground set.  The family is held as a bitset over
    all 2^len(ground) subsets, so a ground set whose subsets exceed
    ENUM_CAP (more than 22 elements) raises EnumerationCapError, however
    small the family.
    """
    lattice = _Lattice(ground)
    bits = 0
    for s in family:
        bits |= 1 << lattice.mask(s)
    return frozenset(lattice.names(lattice.boundary(bits)))
