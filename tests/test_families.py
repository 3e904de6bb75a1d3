"""Downward-closed family conditions and the subset-lattice reduction."""

import pytest

from localcut.digraph import min_product_weights, underlying_simple
from localcut.engine import (CutInstance, IndeterminateError,
                             check_weight_condition)
from localcut.families import (FamilyInstance, boundary,
                               check_family_condition, hypercube_digraph,
                               hypergraph_coloring_family, least_tau_solution,
                               subset_id, tau_of_set, validate_family_instance)
from localcut.instances import Hypergraph
from localcut.probability import (ProductSpace, exact_prob, risk_table_exact,
                                  validate_cut_model)


def triangle_family():
    """All vertex subsets avoiding a monochromatic 3-edge, 2 colors."""
    hg = Hypergraph.build(["a", "b", "c"], [{"a", "b", "c"}])
    return hypergraph_coloring_family(hg, colors=2)


def up_family(bits_on_prob):
    """Members are the subsets of the currently switched-on elements."""
    names = sorted(bits_on_prob)
    space = ProductSpace.build(
        [(f"b_{i}", [0, 1], [1.0 - q, q])
         for i, q in sorted(bits_on_prob.items())])

    def member(point, subset):
        return all(point[f"b_{i}"] == 1 for i in subset)

    events = {i: [("off", lambda pt, i=i: pt[f"b_{i}"] == 0)] for i in names}
    inst = FamilyInstance.build(names, space, member, events)
    witnesses = {(i, "off"): frozenset({i}) for i in names}
    return inst, witnesses


def test_boundary_basic():
    fam = [frozenset(), frozenset({"1"}), frozenset({"2"})]
    assert boundary(fam, ("1", "2")) == frozenset({"1", "2"})
    assert boundary([frozenset(), frozenset({"1"}), frozenset({"2"}),
                     frozenset({"1", "2"})], ("1", "2")) == frozenset()
    with pytest.raises(ValueError):
        boundary([], ("1",))
    with pytest.raises(ValueError):
        boundary([frozenset({"1"})], ("1",))


def test_family_build_validation():
    space = ProductSpace.uniform([("b", [0, 1])])
    member = lambda pt, s: True
    with pytest.raises(ValueError):
        FamilyInstance.build([], space, member, {})
    with pytest.raises(ValueError):
        FamilyInstance.build(["a"], space, member,
                             {"a": [("x", member), ("x", member)]})
    with pytest.raises(ValueError):
        FamilyInstance.build(["a"], space, member, {"zzz": []})


def test_triangle_condition_tangent_at_two():
    inst, witnesses = triangle_family()
    tau = {i: 2.0 for i in inst.ground}
    rep = check_family_condition(inst, tau, witnesses)
    assert rep.feasible
    for m in rep.margins.values():
        assert m == pytest.approx(0.0, abs=1e-12)
    for s in rep.sigma.values():
        assert s == pytest.approx(1.0, abs=1e-12)
    assert rep.bound == pytest.approx(1.0 / 8.0, abs=1e-15)
    # the true success probability: any non-monochromatic coloring
    truth = exact_prob(inst.space,
                       lambda pt: inst.member(pt, frozenset(inst.ground)))
    assert truth == pytest.approx(0.75, abs=1e-15)
    assert truth >= rep.bound


def test_triangle_condition_below_two_fails():
    inst, witnesses = triangle_family()
    tau = {i: 1.5 for i in inst.ground}
    rep = check_family_condition(inst, tau, witnesses)
    assert not rep.feasible
    assert min(rep.margins.values()) == pytest.approx(-0.0625, abs=1e-12)


def test_condition_input_validation():
    inst, witnesses = triangle_family()
    with pytest.raises(ValueError):
        check_family_condition(inst, {i: 0.5 for i in inst.ground}, witnesses)
    missing = dict(witnesses)
    missing.pop(next(iter(missing)))
    with pytest.raises(ValueError):
        check_family_condition(inst, {i: 2.0 for i in inst.ground}, missing)
    off_elem = {k: frozenset({"a"}) if k[0] != "a" else v
                for k, v in witnesses.items()}
    with pytest.raises(ValueError):
        check_family_condition(inst, {i: 2.0 for i in inst.ground}, off_elem)


def test_validate_family_instance():
    inst, _ = triangle_family()
    assert validate_family_instance(inst).ok

    # an element with an empty bundle that does reach the boundary
    space = ProductSpace.uniform([("b_x", [0, 1]), ("b_y", [0, 1])])

    def member(point, subset):
        return all(point[f"b_{i}"] == 1 for i in subset)

    holes = FamilyInstance.build(
        ["x", "y"], space, member,
        {"x": [("off", lambda pt: pt["b_x"] == 0)]})
    chk = validate_family_instance(holes)
    assert not chk.ok and "no true event" in chk.reason

    # a family that collapses to nothing is rejected too
    dead = FamilyInstance.build(
        ["x"], space, lambda pt, s: len(s) == 1, {"x": []})
    chk = validate_family_instance(dead)
    assert not chk.ok


def test_up_family_margins_are_exact():
    inst, witnesses = up_family({"u": 0.5, "v": 0.8})
    tau = {"u": 2.0, "v": 1.25}
    rep = check_family_condition(inst, tau, witnesses)
    assert rep.feasible
    for m in rep.margins.values():
        assert m == pytest.approx(0.0, abs=1e-12)
    truth = exact_prob(inst.space,
                       lambda pt: inst.member(pt, frozenset(inst.ground)))
    assert truth == pytest.approx(rep.bound, abs=1e-12)


# ------------------------------------------------ subset-lattice reduction

def test_hypercube_path_products_are_tau_products():
    inst, witnesses = triangle_family()
    tau = {"a": 2.0, "b": 3.0, "c": 5.0}
    red = hypercube_digraph(inst, tau)
    simple = underlying_simple(red.graph)
    full = frozenset(inst.ground)
    for start in (full, frozenset({"a", "b"}), frozenset({"c"})):
        products = min_product_weights(simple, red.weights,
                                       red.vertex_of[start])
        for sub in (frozenset(), frozenset({"a"}), frozenset({"b", "c"})):
            if sub <= start:
                assert products[red.vertex_of[sub]] == pytest.approx(
                    tau_of_set(tau, start - sub), rel=1e-12)


def test_hypercube_model_and_weights_check_out():
    inst, witnesses = triangle_family()
    tau = {i: 2.0 for i in inst.ground}
    red = hypercube_digraph(inst, tau)
    assert validate_cut_model(inst.space, red.model).ok
    risks, checked = risk_table_exact(inst.space, red.model)
    assert checked.ok, checked.reason
    ci = CutInstance.build(red.graph, risks, inst.space, red.model)
    assert check_weight_condition(ci, red.weights).feasible


def test_hypercube_filler_edge_for_empty_bundles():
    inst, _ = up_family({"u": 0.5, "v": 0.5})
    hollow = FamilyInstance.build(inst.ground, inst.space, inst.member,
                                  {"u": inst.events["u"]})
    red = hypercube_digraph(hollow, {"u": 2.0, "v": 1.0})
    assert "v|{}|never" in red.graph.edge_by_id
    risks, _ = risk_table_exact(inst.space, red.model)
    for (eid, z), p in risks.entries.items():
        if "never" in eid:
            assert p == 0.0


def test_hypercube_ground_size_cap():
    inst, _ = up_family({c: 0.5 for c in "abcde"})
    with pytest.raises(ValueError):
        hypercube_digraph(inst, {c: 2.0 for c in "abcde"})


def test_subset_id_format():
    assert subset_id(frozenset()) == "{}"
    assert subset_id(frozenset({"b", "a"})) == "{a,b}"


# ------------------------------------------------------- least tau solver

def triangle_terms():
    return {
        "a": [(0.25, frozenset({"a", "b"}))],
        "b": [(0.25, frozenset({"a", "b"}))],
        "c": [(0.25, frozenset({"a", "c"}))],
    }


def test_least_tau_tangent_case_converges_loosely():
    res = least_tau_solution(("a", "b", "c"), triangle_terms(), tol=1e-6)
    assert res.status == "converged"
    for i in ("a", "b", "c"):
        assert res.weights[i] == pytest.approx(2.0, abs=0.01)
    assert res.min_step >= 0.0


def test_least_tau_contractive_case_is_tight():
    terms = {"a": [(0.125, frozenset({"a", "b"}))],
             "b": [(0.125, frozenset({"a", "b"}))]}
    res = least_tau_solution(("a", "b"), terms)
    want = 4.0 - 2.0 * 2.0 ** 0.5
    assert res.status == "converged"
    assert res.weights["a"] == pytest.approx(want, abs=1e-9)


def test_least_tau_divergence_and_caps():
    terms = {"a": [(1.0, frozenset({"a", "b"}))],
             "b": [(1.0, frozenset({"a", "b"}))]}
    res = least_tau_solution(("a", "b"), terms)
    assert res.status == "diverged" and res.weights is None
    with pytest.raises(IndeterminateError):
        least_tau_solution(("a", "b", "c"), triangle_terms(), tol=1e-6,
                           iter_cap=10)


def test_least_tau_input_validation():
    with pytest.raises(ValueError):
        least_tau_solution(("a",), {"a": [(0.5, frozenset({"b"}))]})
    with pytest.raises(ValueError):
        least_tau_solution(("a",), {"a": [(-0.5, frozenset({"a"}))]})
    for witness in (("a", "b"), frozenset({"a", "b"})):
        with pytest.raises(ValueError, match="'b'"):
            least_tau_solution(("a",), {"a": [(0.5, witness)]})


def test_coloring_family_needs_two_colors():
    hg = Hypergraph.build(["a", "b", "c"], [{"a", "b", "c"}])
    with pytest.raises(ValueError):
        hypergraph_coloring_family(hg, colors=1)
