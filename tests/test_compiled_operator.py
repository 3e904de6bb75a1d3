"""The compiled risk operator against a dense reference.

`CutInstance` keeps reachability and sparse per-arc risk rows across
operator applications.  The reference below is the plain definition: for
every edge, the minimum over all z reachable from its head of
r(e, z) * P(tail, z), with reachability searched afresh.  Results must
agree exactly, float for float.
"""

import numpy as np
import pytest

from localcut import engine
from localcut.digraph import (DigraphError, MultiDigraph,
                              min_product_weights, reachable,
                              underlying_simple)
from localcut.engine import (TOL, CutInstance, apply_risk_operator,
                             build_nonrep_instance, kleene,
                             least_weight_solution)
from localcut.probability import risk_table_exact, risk_table_from_json

from corpus import corpus, digraph_to_json, risk_of_edge


def dense_risk(inst, weights, edge_id):
    edge = inst.graph.edge_by_id[edge_id]
    simple = underlying_simple(inst.graph)
    products = min_product_weights(simple, weights, edge.tail)
    return min(inst.risks.entries.get((edge_id, z), 1.0) * products[z]
               for z in reachable(simple, edge.head))


def dense_operator(inst, weights):
    simple = underlying_simple(inst.graph)
    if all(w == 0.0 for w in weights.values()):
        return {arc: 1.0 for arc in simple.arcs}
    out = {}
    for arc in simple.arcs:
        total = 0.0
        for eid in inst.graph.edges_by_arc[arc]:
            total += dense_risk(inst, weights, eid)
        out[arc] = 1.0 + total
    return out


def dense_solution(inst, iter_cap=engine.ITER_CAP):
    return kleene(lambda w: dense_operator(inst, w),
                  dict.fromkeys(underlying_simple(inst.graph).arcs, 0.0),
                  TOL, iter_cap, engine.VALUE_CAP)


def assert_matches_dense(inst, rng, iter_cap=engine.ITER_CAP):
    """Operator, edge risks and least solution all equal the reference."""
    status, weights, iterations, peak, min_step = dense_solution(
        inst, iter_cap)
    res = least_weight_solution(inst, iter_cap=iter_cap)
    assert (res.status, res.iterations, res.max_entry, res.min_step) == \
        (status, iterations, peak, min_step)
    assert res.weights == weights
    arcs = sorted(underlying_simple(inst.graph).arcs)
    probes = [{arc: float(w) for arc, w in
               zip(arcs, rng.uniform(1.0, 3.0, size=len(arcs)))}]
    if weights is not None:
        probes.append(weights)
    for w in probes:
        assert apply_risk_operator(inst, w) == dense_operator(inst, w)
        for e in inst.graph.edges:
            assert risk_of_edge(inst, w, e.id) == dense_risk(inst, w, e.id)


def test_corpus_matches_dense_reference():
    rng = np.random.default_rng(3)
    for ci in corpus():
        risks, checked = risk_table_exact(ci.space, ci.model)
        assert checked.ok, checked.reason
        assert_matches_dense(CutInstance.build(ci.graph, risks), rng)


@pytest.mark.parametrize("list_size", [4, 5])
@pytest.mark.parametrize("n", [10, 20])
def test_nonrep_bound_matches_dense_reference(list_size, n):
    inst = build_nonrep_instance([list(range(list_size))] * n,
                                 risk_mode="bound")
    assert_matches_dense(inst, np.random.default_rng(n))


def test_unlisted_pairs_solve_like_listed_ones():
    """A JSON table listing only its r != 1 rows and the same table with
    every reachable pair written out give bit-identical solutions."""
    tables = [(ci.graph, risk_table_exact(ci.space, ci.model)[0])
              for ci in corpus(40)]
    bound = build_nonrep_instance([[0, 1, 2, 3]] * 12, risk_mode="bound")
    tables.append((bound.graph, bound.risks))
    for graph, risks in tables:
        simple = underlying_simple(graph)
        full = [{"edge": e.id, "z": z,
                 "p": risks.entries.get((e.id, z), 1.0)}
                for e in graph.edges for z in reachable(simple, e.head)]
        listed = [row for row in full if row["p"] != 1.0]
        solved = [least_weight_solution(CutInstance.build(
                      graph, risk_table_from_json({"risks": rows}, graph)))
                  for rows in (full, listed)]
        assert repr(solved[0]) == repr(solved[1])


def hand_made(above_one):
    # x -> y -> z -> w with two parallel edges on x -> y and a loop-free
    # back edge w -> y, so reach(y) = {y, z, w}
    g = MultiDigraph.build(["x", "y", "z", "w"],
                           [("a", "x", "y"), ("b", "x", "y"),
                            ("c", "y", "z"), ("d", "z", "w"),
                            ("f", "w", "y")])
    table = risk_table_from_json({"risks": [
        {"edge": "a", "z": "y", "p": 0.0},
        {"edge": "a", "z": "w", "p": 1.0},
        {"edge": "b", "z": "y", "p": above_one},
        {"edge": "b", "z": "z", "p": 0.3},
        {"edge": "c", "z": "z", "p": 1.0},
        {"edge": "c", "z": "w", "p": 0.25},
        {"edge": "d", "z": "y", "p": 0.5},
        {"edge": "f", "z": "w", "p": above_one},
    ]}, g)
    return CutInstance.build(g, table)


@pytest.mark.parametrize("above_one", [1.0, 1.0 + 1e-13, 1.0 + 1e-12])
def test_hand_made_tables_match_dense_reference(above_one):
    inst = hand_made(above_one)
    assert_matches_dense(inst, np.random.default_rng(7))
    capped = {eid: row[1] for arc, rows in inst.risk_rows.items()
              for eid, row in zip(inst.graph.edges_by_arc[arc], rows)}
    assert capped["a"] and capped["c"] and capped["d"]
    assert capped["b"] == capped["f"] == (above_one == 1.0)


def test_entry_above_one_is_not_capped_by_the_floor():
    # from w, the cheapest vertex of reach(y) is w itself (product 1),
    # where the table lists 1 + 1e-12: capping at the floor would say 1.0
    inst = hand_made(1.0 + 1e-12)
    twos = dict.fromkeys(inst.simple.arcs, 2.0)
    assert risk_of_edge(inst, twos, "f") == 1.0 + 1e-12
    assert risk_of_edge(inst, twos, "f") == dense_risk(inst, twos, "f")


def test_diverging_instance_matches_dense_reference():
    # w(x, y) >= 1 + 1.2 w(x, y) has no solution
    g = MultiDigraph.build(["x", "y", "z"], [("e1", "x", "y"),
                                             ("e2", "y", "z"),
                                             ("e3", "x", "y")])
    risks = risk_table_from_json({"risks": [
        {"edge": "e1", "z": "y", "p": 0.6},
        {"edge": "e2", "z": "z", "p": 0.0},
        {"edge": "e3", "z": "y", "p": 0.6},
        {"edge": "e3", "z": "z", "p": 1.0}]}, g)
    inst = CutInstance.build(g, risks)
    res = least_weight_solution(inst)
    assert res.status == "diverged"
    assert_matches_dense(inst, np.random.default_rng(11))


def test_capped_iterations_raise_alike():
    inst = build_nonrep_instance([[0, 1, 2, 3]] * 10, risk_mode="bound")
    with pytest.raises(engine.IndeterminateError) as compiled:
        least_weight_solution(inst, iter_cap=3)
    with pytest.raises(engine.IndeterminateError) as dense:
        dense_solution(inst, iter_cap=3)
    assert compiled.value.iterations == dense.value.iterations == 3


# ------------------------------------------------------------ hoisting

def test_solve_searches_reachability_once_per_vertex(monkeypatch):
    inst = build_nonrep_instance([[0, 1, 2, 3]] * 20, risk_mode="bound")
    calls = []

    def counted(simple, start):
        calls.append(start)
        return reachable(simple, start)

    monkeypatch.setattr(engine, "reachable", counted)
    res = least_weight_solution(inst)
    assert res.iterations > len(inst.graph.vertices)
    assert 0 < len(calls) <= len(inst.graph.vertices)
    least_weight_solution(inst)
    assert len(calls) <= len(inst.graph.vertices)


def test_check_lcl_searches_each_vertex_once_and_validates_once(
        monkeypatch, tmp_path, capsys):
    import json

    from localcut import digraph
    from localcut.cli import main
    from localcut.probability import RiskTable
    inst = build_nonrep_instance([[0, 1, 2, 3]] * 20, risk_mode="bound")
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "digraph": digraph_to_json(inst.graph),
        "risks": [{"edge": e, "z": z, "p": p}
                  for (e, z), p in inst.risks.entries.items()]}))
    searches = []
    validations = []

    def counted(simple, start):
        searches.append(start)
        return reachable(simple, start)

    validate = RiskTable.validate

    def counted_validate(table, *args):
        validations.append(table)
        return validate(table, *args)

    monkeypatch.setattr(engine, "reachable", counted)
    monkeypatch.setattr(digraph, "reachable", counted)
    monkeypatch.setattr(RiskTable, "validate", counted_validate)
    assert main(["check-lcl", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"]
    assert 0 < len(searches) <= len(inst.graph.vertices)
    assert len(validations) == 1


def test_bound_mode_searches_reachability_once_per_head(monkeypatch):
    from localcut import digraph
    calls = []

    def counted(simple, start):
        calls.append(start)
        return reachable(simple, start)

    monkeypatch.setattr(digraph, "reachable", counted)
    n = 12
    inst = build_nonrep_instance([[0, 1, 2]] * n, risk_mode="bound")
    # one map for the table's validation, n - 1 heads
    assert len(calls) == n - 1


def test_operator_checks_weights_once_per_application(monkeypatch):
    from localcut import digraph
    inst = build_nonrep_instance([[0, 1, 2, 3]] * 12, risk_mode="bound")
    check_weights = digraph.check_weights
    calls = []

    def counted(simple, weights):
        calls.append(len(weights))
        return check_weights(simple, weights)

    monkeypatch.setattr(engine, "check_weights", counted)
    monkeypatch.setattr(digraph, "check_weights", counted)
    res = least_weight_solution(inst)
    # every application but the zero-function one
    assert len(calls) == res.iterations - 1
    arcs = sorted(inst.simple.arcs)
    low = dict.fromkeys(arcs, 2.0)
    low[arcs[3]] = 0.5
    with pytest.raises(DigraphError, match=r"weight 0.5 on arc .* below 1"):
        apply_risk_operator(inst, low)
    del low[arcs[3]]
    with pytest.raises(DigraphError, match="no weight for arc"):
        apply_risk_operator(inst, low)
