"""Combinatorial instance types shared by the threshold tools, the
randomized constructions, and the CLI: hypergraphs, bounded-degree graphs,
and per-position symbol lists.  Includes JSON loaders and seeded random
generators for benchmark corpora.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property
from typing import Iterable, NamedTuple

from .core import STRING, STRING_ROWS, UsageError, json_list


class _HypergraphFields(NamedTuple):
    vertices: tuple[str, ...]
    edges: tuple[frozenset[str], ...]


class Hypergraph(_HypergraphFields):
    @staticmethod
    def build(vertices: Iterable[str],
              edges: Iterable[Iterable[str]]) -> "Hypergraph":
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise UsageError("duplicate vertex ids")
        vset = set(vs)
        out = []
        for edge in edges:
            members = frozenset(edge)
            if not members:
                raise UsageError("empty hyperedge")
            unknown = members - vset
            if unknown:
                raise UsageError(f"edge uses unknown vertices {sorted(unknown)}")
            out.append(members)
        return Hypergraph(vs, tuple(out))

    @cached_property
    def edges_at(self) -> dict[str, tuple[int, ...]]:
        at: dict[str, list[int]] = {v: [] for v in self.vertices}
        for idx, edge in enumerate(self.edges):
            for v in edge:
                at[v].append(idx)
        return {v: tuple(ids) for v, ids in at.items()}

    def is_true_hypergraph(self) -> bool:
        """Every edge has at least three vertices."""
        return all(len(e) >= 3 for e in self.edges)


class _GraphFields(NamedTuple):
    vertices: tuple[str, ...]
    edges: tuple[frozenset[str], ...]


class Graph(_GraphFields):
    """Simple undirected graph."""

    @staticmethod
    def build(vertices: Iterable[str],
              edges: Iterable[Iterable[str]]) -> "Graph":
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise UsageError("duplicate vertex ids")
        vset = set(vs)
        seen: set[frozenset[str]] = set()
        out = []
        for edge in edges:
            members = frozenset(edge)
            if len(members) != 2:
                raise UsageError(f"edge {sorted(members)} is not a vertex pair")
            if members - vset:
                raise UsageError(f"edge {sorted(members)} uses unknown vertices")
            if members in seen:
                raise UsageError(f"duplicate edge {sorted(members)}")
            seen.add(members)
            out.append(members)
        return Graph(vs, tuple(out))

    @cached_property
    def neighbors(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for edge in self.edges:
            a, b = sorted(edge)
            adj[a].append(b)
            adj[b].append(a)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @property
    def max_degree(self) -> int:
        if not self.vertices:
            return 0
        return max(len(ns) for ns in self.neighbors.values())


class ListAssignment(NamedTuple):
    """One finite symbol list per sequence position."""

    lists: tuple[tuple, ...]

    @staticmethod
    def build(lists: Iterable[Iterable]) -> "ListAssignment":
        out = tuple(tuple(symbols) for symbols in lists)
        if not out:
            raise UsageError("need at least one position")
        for i, symbols in enumerate(out):
            if not symbols:
                raise UsageError(f"position {i} has an empty list")
            if len(set(symbols)) != len(symbols):
                raise UsageError(f"position {i} repeats a symbol")
        return ListAssignment(out)

    def __len__(self) -> int:
        return len(self.lists)

    @staticmethod
    def uniform(n: int, size: int) -> "ListAssignment":
        symbols = [str(s) for s in range(size)]
        return ListAssignment.build([symbols] * n)


# ---------------------------------------------------------------- JSON I/O

def _read(obj: dict, what: str, key: str, kind: tuple) -> list:
    try:
        return json_list(obj[key], kind, key)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"bad {what} object: {exc}") from exc


def hypergraph_from_json(obj: dict) -> Hypergraph:
    return Hypergraph.build(_read(obj, "hypergraph", "vertices", STRING),
                            _read(obj, "hypergraph", "edges", STRING_ROWS))


def graph_from_json(obj: dict) -> Graph:
    return Graph.build(_read(obj, "graph", "vertices", STRING),
                       _read(obj, "graph", "edges", STRING_ROWS))


def lists_from_json(obj: dict) -> ListAssignment:
    return ListAssignment.build(_read(obj, "list", "lists", STRING_ROWS))


# --------------------------------------------------------------- generators

def random_regular_uniform_hypergraph(n: int, k: int, d: int,
                                      seed: int) -> Hypergraph:
    """d-regular k-uniform hypergraph: d independent random partitions of
    the vertex set into blocks of k.  Requires n, k >= 1, d >= 0, k | n and
    seed >= 0, since random.Random(-s) seeds like Random(s)."""
    if n < 1 or k < 1 or d < 0:
        raise UsageError(f"need n >= 1, k >= 1 and d >= 0, got {n, k, d}")
    if seed < 0:
        raise UsageError(f"need seed >= 0, got {seed}")
    if n % k != 0:
        raise UsageError(f"k={k} does not divide n={n}")
    rng = random.Random(seed)
    vertices = [f"u{i}" for i in range(n)]
    edges = []
    for _ in range(d):
        order = vertices[:]
        rng.shuffle(order)
        for start in range(0, n, k):
            edges.append(order[start:start + k])
    return Hypergraph.build(vertices, edges)


def random_graph_max_degree(n: int, max_degree: int, target_edges: int,
                            seed: int) -> Graph:
    """Random simple graph with every degree <= max_degree; stops at the
    edge target or when no candidate pair is left.  Requires seed >= 0."""
    if max_degree < 1 or n < 2:
        raise UsageError("need n >= 2 and max_degree >= 1")
    if seed < 0:
        raise UsageError(f"need seed >= 0, got {seed}")
    rng = random.Random(seed)
    vertices = [f"w{i}" for i in range(n)]
    degree = {v: 0 for v in vertices}
    chosen: list[tuple[str, str]] = []
    # The seeded stream fixes the graph only through a shuffle of all
    # n(n-1)/2 pairs, so this stays quadratic in n.
    pairs = list(itertools.combinations(vertices, 2))
    rng.shuffle(pairs)
    for a, b in pairs:
        if len(chosen) >= target_edges:
            break
        if degree[a] < max_degree and degree[b] < max_degree:
            chosen.append((a, b))
            degree[a] += 1
            degree[b] += 1
    return Graph.build(vertices, sorted(sorted(p) for p in chosen))
