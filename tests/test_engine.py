"""Weight-condition engine: risks, fixed points, bounds, sequence builder."""

import numpy as np
import pytest

from localcut.digraph import DigraphError, MultiDigraph
from localcut.engine import (CutInstance, IndeterminateError,
                             apply_risk_operator, build_nonrep_instance,
                             check_weight_condition, least_weight_solution,
                             probability_bounds, telescoping_check)
from localcut.probability import RiskTable, validate_cut_model

from corpus import corpus, risk_of_edge


def single_arc(p):
    g = MultiDigraph.build(["x", "y"], [("e1", "x", "y")])
    return CutInstance.build(g, RiskTable({("e1", "y"): p}))


def test_zero_function_maps_to_all_ones():
    ci = single_arc(0.5)
    zero = {arc: 0.0 for arc in ci.simple.arcs}
    assert apply_risk_operator(ci, zero) == {("x", "y"): 1.0}


def test_risk_discounting_minimizes_over_reachable():
    # x -> y -> z, edge into y risky only when conditioned far downstream
    g = MultiDigraph.build(["x", "y", "z"],
                           [("e1", "x", "y"), ("e2", "y", "z")])
    risks = RiskTable({("e1", "y"): 0.9, ("e1", "z"): 0.1,
                       ("e2", "z"): 0.0})
    ci = CutInstance.build(g, risks)
    w = {("x", "y"): 2.0, ("y", "z"): 3.0}
    # min(0.9 * 1 via path x..y? no: products start at tail x)
    # candidates: z=y gives 0.9 * wbar(x,y)=0.9*2; z=z gives 0.1 * wbar(x,z)=0.1*6
    assert risk_of_edge(ci, w, "e1") == pytest.approx(0.6, abs=1e-15)
    assert risk_of_edge(ci, w, "e2") == 0.0
    with pytest.raises(DigraphError):
        risk_of_edge(ci, {("x", "y"): 2.0}, "e1")


def test_check_weight_condition_margins():
    ci = single_arc(0.5)
    rep = check_weight_condition(ci, {("x", "y"): 2.0})
    # updated = 1 + 0.5 * 2 = 2, margin 0 (tangent)
    assert rep.feasible
    assert rep.margins[("x", "y")] == pytest.approx(0.0, abs=1e-12)
    rep = check_weight_condition(ci, {("x", "y"): 1.5})
    assert not rep.feasible


def test_least_solution_contraction():
    ci = single_arc(0.5)
    res = least_weight_solution(ci)
    assert res.status == "converged"
    assert res.weights[("x", "y")] == pytest.approx(2.0, abs=1e-9)
    assert check_weight_condition(ci, res.weights).feasible
    assert res.min_step >= 0.0


def test_least_solution_divergence():
    g = MultiDigraph.build(["x", "y"], [("e1", "x", "y"), ("e2", "x", "y")])
    ci = CutInstance.build(g, RiskTable({("e1", "y"): 0.6, ("e2", "y"): 0.6}))
    res = least_weight_solution(ci)
    assert res.status == "diverged"
    assert res.weights is None
    assert res.max_entry > 1e9


def test_indeterminate_when_cap_too_small():
    ci = single_arc(0.5)
    with pytest.raises(IndeterminateError):
        least_weight_solution(ci, iter_cap=5)


def test_least_solution_is_dominated_by_feasible_weights():
    rng = np.random.default_rng(3)
    checked = 0
    for inst in corpus(30):
        from localcut.probability import risk_table_exact
        risks, _ = risk_table_exact(inst.space, inst.model)
        ci = CutInstance.build(inst.graph, risks, inst.space, inst.model)
        try:
            res = least_weight_solution(ci)
        except IndeterminateError:
            continue
        if res.status != "converged" or \
                not check_weight_condition(ci, res.weights).feasible:
            continue
        bumped = {arc: w + float(rng.uniform(0.0, 0.5))
                  for arc, w in res.weights.items()}
        if not check_weight_condition(ci, bumped).feasible:
            continue
        for arc, w in res.weights.items():
            assert w <= bumped[arc] + 1e-12
        checked += 1
    assert checked >= 10


def test_probability_bounds_requires_space_and_feasibility():
    ci = single_arc(0.5)
    with pytest.raises(ValueError):
        probability_bounds(ci, {("x", "y"): 2.0})
    inst = corpus(1)[0]
    from localcut.probability import risk_table_exact
    risks, _ = risk_table_exact(inst.space, inst.model)
    ci = CutInstance.build(inst.graph, risks, inst.space, inst.model)
    with pytest.raises(ValueError):
        probability_bounds(ci, {arc: 1.0 for arc in ci.simple.arcs})


def test_telescoping_identity_and_property():
    one = telescoping_check([0.5], [2.0])
    assert one.ok and one.lhs == pytest.approx(one.rhs, abs=1e-15)
    rng = np.random.default_rng(17)
    for _ in range(300):
        k = int(rng.integers(1, 6))
        a = [float(rng.uniform(0.0, 2.0)) for _ in range(k)]
        b = [max(x, 1.0) + float(rng.uniform(0.0, 2.0)) for x in a]
        res = telescoping_check(a, b)
        assert res.ok
    with pytest.raises(ValueError):
        telescoping_check([1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        telescoping_check([-0.1], [2.0])
    with pytest.raises(ValueError):
        telescoping_check([0.5], [0.9])


# --------------------------------------------------- sequence instance

def test_sequence_instance_shape():
    inst = build_nonrep_instance([tuple("abc")] * 7, risk_mode="bound")
    # arc per adjacent pair, one edge per block pair ending at each position
    assert len(inst.simple.arcs) == 6
    assert len(inst.graph.edges) == sum((i + 1) // 2 for i in range(1, 7))
    assert ("e_1_2" in inst.graph.edge_by_id
            and inst.graph.edge_by_id["e_1_2"].tail == "v4")


def test_sequence_model_on_fixed_word():
    inst = build_nonrep_instance([tuple("abc")] * 7, risk_mode="exact")
    point = {f"a{i}": s for i, s in enumerate("ababcca", start=1)}
    assert inst.model.a_of(point) == frozenset({"v1", "v2", "v3"})
    assert inst.model.f_of(point) == frozenset({"e_1_2", "e_5_1"})
    clean = {f"a{i}": s for i, s in enumerate("abcbacb", start=1)}
    assert inst.model.a_of(clean) == frozenset(f"v{i}" for i in range(1, 8))
    assert inst.model.f_of(clean) == frozenset()
    assert validate_cut_model(inst.space, inst.model).ok


def test_sequence_exact_risk_hand_value():
    inst = build_nonrep_instance([tuple("abc")] * 7, risk_mode="exact")
    w2 = {arc: 2.0 for arc in inst.simple.arcs}
    # adjacent-equal block at the first arc: Pr = 1/3, witness weight 2
    assert risk_of_edge(inst, w2, "e_1_1") == pytest.approx(2.0 / 3.0,
                                                            abs=1e-12)


def test_sequence_bound_mode_feasibility_frontier():
    four = build_nonrep_instance([tuple("abcd")] * 7, risk_mode="bound")
    rep = check_weight_condition(four, {arc: 2.0 for arc in four.simple.arcs})
    assert rep.feasible
    assert min(rep.margins.values()) == pytest.approx(0.125, abs=1e-12)
    res = least_weight_solution(four)
    assert res.status == "converged"
    assert check_weight_condition(four, res.weights).feasible

    three = build_nonrep_instance([tuple("abc")] * 7, risk_mode="bound")
    rep = check_weight_condition(three, {arc: 2.0 for arc in three.simple.arcs})
    assert not rep.feasible
    assert min(rep.margins.values()) < -0.4
    assert least_weight_solution(three).status == "diverged"


def test_sequence_builder_rejects_bad_input():
    with pytest.raises(ValueError):
        build_nonrep_instance([])
    with pytest.raises(ValueError):
        build_nonrep_instance([()])
    with pytest.raises(ValueError):
        build_nonrep_instance([("a",)], risk_mode="nope")
