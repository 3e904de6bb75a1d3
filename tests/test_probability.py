"""Product spaces, exact enumeration, conditioning, risk tables."""

import itertools
import math
from fractions import Fraction

import pytest

from localcut.digraph import MultiDigraph
from localcut.probability import (CutModel, EnumerationCapError, ProductSpace,
                                  SpaceError, cond_prob, exact_prob,
                                  risk_table_exact, risk_table_from_json,
                                  validate_cut_model, vertex_probabilities)

from corpus import corpus


def biased_pair():
    # dyadic weights, so every probability here is a float
    return ProductSpace.build([
        ("x", [0, 1], [0.25, 0.75]),
        ("y", ["a", "b", "c"], [0.5, 0.25, 0.25]),
    ])


def test_space_build_rejects_bad_input():
    with pytest.raises(SpaceError):
        ProductSpace.build([("x", [0], [1.0]), ("x", [0], [1.0])])
    with pytest.raises(SpaceError):
        ProductSpace.build([("x", [], [])])
    with pytest.raises(SpaceError):
        ProductSpace.build([("x", [0, 1], [1.0])])
    with pytest.raises(SpaceError):
        ProductSpace.build([("x", [0, 1], [-0.5, 1.5])])
    with pytest.raises(SpaceError):
        ProductSpace.build([("x", [0, 1], [0.3, 0.3])])
    with pytest.raises(SpaceError, match="'x' has a non-finite weight"):
        ProductSpace.build([("x", [0, 1], [math.nan, 0.5])])


def test_outcomes_sum_to_one():
    space = biased_pair()
    assert space.n_outcomes == 6
    assert sum(m for _, m in space.outcomes()) == space.unit
    assert exact_prob(space, lambda pt: True) == 1.0


def test_whole_space_has_probability_one():
    # each variable's float weights 1/3 sum to 1 - 2**-54, not 1; nine
    # such variables once gave Pr(space) = 0.9999999999999996
    space = ProductSpace.uniform([(f"t{i}", [0, 1, 2]) for i in range(9)])
    assert sum(map(Fraction, space.variables[0].weights)) == \
        1 - Fraction(1, 2 ** 54)
    assert exact_prob(space, lambda pt: True) == 1.0
    assert cond_prob(space, lambda pt: True, lambda pt: True) == 1.0
    assert exact_prob(space, lambda pt: pt["t0"] == 0) == 1 / 3


def test_enumeration_cap():
    space = ProductSpace.uniform([(f"b{i}", [0, 1]) for i in range(8)])
    with pytest.raises(EnumerationCapError):
        list(space.outcomes(cap=255))
    assert len(list(space.outcomes(cap=256))) == 256


def fraction_prob(space, event):
    """Pr(event) summed in Fractions of the float weights, each variable's
    divided by their sum."""
    columns = [[(value, Fraction(w) / sum(map(Fraction, v.weights)))
                for value, w in zip(v.values, v.weights)]
               for v in space.variables]
    total = Fraction(0)
    for combo in itertools.product(*columns):
        point = {v.name: value for v, (value, _) in zip(space.variables, combo)}
        if event(point):
            total += math.prod((q for _, q in combo), start=Fraction(1))
    return total


def test_exact_prob_matches_rational_enumeration():
    space = biased_pair()

    def event(pt):
        return pt["x"] == 1 and pt["y"] != "a"

    want = Fraction(3, 4) * Fraction(1, 2)
    assert fraction_prob(space, event) == want
    assert exact_prob(space, event) == float(want)


def test_cond_prob_and_zero_condition_convention():
    space = biased_pair()

    def event(pt):
        return pt["y"] == "b"

    def given(pt):
        return pt["x"] == 1

    assert cond_prob(space, event, given) == 0.25
    # impossible condition contributes probability 0, not an error
    assert cond_prob(space, event, lambda pt: False) == 0.0


def test_float_enumeration_tracks_exact_on_many_variables():
    space = ProductSpace.build(
        [(f"b{i}", [0, 1], [1.0 / 3.0, 2.0 / 3.0]) for i in range(10)])

    def event(pt):
        return sum(pt.values()) % 3 == 0

    def given(pt):
        return pt["b0"] == 1

    # float(Fraction) rounds correctly, as the enumeration must
    want = fraction_prob(space, event)
    assert exact_prob(space, event) == float(want)
    assert cond_prob(space, event, given) == float(
        fraction_prob(space, lambda pt: event(pt) and given(pt))
        / fraction_prob(space, given))


def path_graph():
    return MultiDigraph.build(["u", "v"], [("e1", "u", "v")])


def test_validate_cut_model_catches_bad_models():
    g = path_graph()
    space = ProductSpace.uniform([("b", [0, 1])])
    good = CutModel(g, lambda pt: frozenset({"u", "v"}) if pt["b"] else frozenset(),
                    lambda pt: frozenset())
    assert validate_cut_model(space, good).ok

    not_closed = CutModel(g, lambda pt: frozenset({"u"}), lambda pt: frozenset())
    chk = validate_cut_model(space, not_closed)
    assert not chk.ok and "out-closed" in chk.reason

    uncovered = CutModel(g, lambda pt: frozenset({"v"}), lambda pt: frozenset())
    chk = validate_cut_model(space, uncovered)
    assert not chk.ok and "misses boundary" in chk.reason

    ghost = CutModel(g, lambda pt: frozenset(), lambda pt: frozenset({"nope"}))
    chk = validate_cut_model(space, ghost)
    assert not chk.ok and "unknown edge" in chk.reason


def test_zero_probability_outcomes_are_ignored():
    g = path_graph()
    space = ProductSpace.build([("b", [0, 1], [1.0, 0.0])])
    # the b=1 branch would break out-closure, but it has probability zero
    model = CutModel(g, lambda pt: frozenset({"u"}) if pt["b"] else frozenset(),
                     lambda pt: frozenset())
    assert validate_cut_model(space, model).ok


def test_risk_table_exact_matches_direct_conditionals():
    for inst in corpus(12):
        table, checked = risk_table_exact(inst.space, inst.model)
        assert checked.ok, checked.reason
        for (eid, z), p in table.entries.items():
            want = cond_prob(inst.space,
                             lambda pt, eid=eid: eid in inst.model.f_of(pt),
                             lambda pt, z=z: z in inst.model.a_of(pt))
            assert p == pytest.approx(want, abs=1e-12)


def test_vertex_probabilities_match_exact_prob():
    inst = corpus(3)[0]
    probs = vertex_probabilities(inst.space, inst.model)
    for v in inst.graph.vertices:
        want = exact_prob(inst.space,
                          lambda pt, v=v: v in inst.model.a_of(pt))
        assert probs[v] == want


def test_risk_table_validation():
    g = path_graph()
    table = risk_table_from_json({"risks": []}, g)
    assert table.entries == {}
    table = risk_table_from_json({"risks": [{"edge": "e1", "z": "v", "p": 0.25}]}, g)
    assert table.entries[("e1", "v")] == 0.25
    with pytest.raises(SpaceError):
        risk_table_from_json({"risks": [{"edge": "e1", "z": "u", "p": 0.5}]}, g)
    with pytest.raises(SpaceError):
        risk_table_from_json({}, g)
    bad = risk_table_from_json({"risks": []}, g)
    bad.entries[("e1", "v")] = 1.5
    with pytest.raises(ValueError):
        bad.validate(g)
    # the parser range-checks listed rows itself, with validate's slack
    for p in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError):
            risk_table_from_json(
                {"risks": [{"edge": "e1", "z": "v", "p": p}]}, g)
    for p in (1.0 + 1e-12, -1e-12):
        table = risk_table_from_json(
            {"risks": [{"edge": "e1", "z": "v", "p": p}]}, g)
        table.validate(g)
        assert table.entries == {("e1", "v"): p}


def test_risk_table_from_json_stores_only_listed_rows():
    g = MultiDigraph.build(["x", "y", "z", "w"],
                           [("a", "x", "y"), ("b", "y", "z"),
                            ("c", "z", "w")])
    rows = [{"edge": "a", "z": "w", "p": 0.5},
            {"edge": "b", "z": "z", "p": 1.0},
            {"edge": "c", "z": "w", "p": 0.0}]
    for k in range(len(rows) + 1):
        table = risk_table_from_json({"risks": rows[:k]}, g)
        assert table.entries == {(r["edge"], r["z"]): r["p"]
                                 for r in rows[:k]}
        assert len(table.entries) == k
    # unknown edges and vertices outside reach(head) are still rejected
    for edge, z in (("q", "w"), ("b", "y"), ("c", "x")):
        with pytest.raises(SpaceError):
            risk_table_from_json(
                {"risks": [{"edge": edge, "z": z, "p": 0.5}]}, g)

