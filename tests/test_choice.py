"""Choice instances, marginal conditions, search."""

import numpy as np
import pytest

from localcut.choice import (ChoiceInstance, MarginalWeights, avoids_all,
                             check_expectation_condition, choice_from_json,
                             marginals_from_json, randomized_choice_search)
from localcut.core import UsageError


def crafted():
    return ChoiceInstance.build(
        [("a1", "a2", "a3"), ("b1", "b2"), ("c1", "c2")],
        [("a1", "b1"), ("a2", "c1")])


def test_build_validation():
    with pytest.raises(UsageError):
        ChoiceInstance.build([], [])
    with pytest.raises(UsageError):
        ChoiceInstance.build([("a",), ()], [])
    with pytest.raises(UsageError):
        ChoiceInstance.build([("a",), ("a",)], [])
    with pytest.raises(UsageError):
        ChoiceInstance.build([("a", "b")], [()])
    with pytest.raises(UsageError):
        ChoiceInstance.build([("a", "b")], [("a", "b")])
    with pytest.raises(UsageError):
        ChoiceInstance.build([("a",)], [("zzz",)])


def test_avoids_all_validation():
    inst = crafted()
    assert avoids_all(inst, ("a3", "b1", "c1"))
    assert not avoids_all(inst, ("a1", "b1", "c2"))
    with pytest.raises(UsageError):
        avoids_all(inst, ("a1", "b1"))
    with pytest.raises(UsageError):
        avoids_all(inst, ("b1", "a1", "c1"))


def test_expectation_condition_without_forbidden_sets():
    inst = ChoiceInstance.build([("a1", "a2"), ("b1", "b2", "b3")], [])
    w = MarginalWeights.build(inst, {x: 1.0 for u in inst.universes
                                     for x in u})
    rep = check_expectation_condition(inst, w)
    assert rep.feasible
    assert rep.sum_margins == pytest.approx((1.0, 2.0), abs=1e-15)
    assert rep.equivalence_gap <= 1e-12


def test_expectation_condition_hand_margins():
    inst = ChoiceInstance.build([("a1", "a2"), ("b1", "b2")],
                                [("a1", "b1")])
    w = MarginalWeights.build(inst, {"a1": 0.5, "a2": 0.7,
                                     "b1": 0.4, "b2": 0.8})
    rep = check_expectation_condition(inst, w)
    assert rep.feasible
    # tau = 1.2 each; product term 0.5 * 0.4 = 0.2; margins are zero
    for a, b in zip(rep.sum_margins, rep.tau_margins):
        assert a == pytest.approx(0.0, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)


def test_expectation_condition_infeasible_and_errors():
    inst = ChoiceInstance.build([("a1", "a2")], [])
    w = MarginalWeights.build(inst, {"a1": 0.3, "a2": 0.3})
    assert not check_expectation_condition(inst, w).feasible
    dead = MarginalWeights.build(inst, {"a1": 0.0, "a2": 0.0})
    with pytest.raises(UsageError):
        check_expectation_condition(inst, dead)


def test_marginal_weights_validation():
    inst = ChoiceInstance.build([("a1", "a2")], [])
    with pytest.raises(UsageError):
        MarginalWeights.build(inst, {"a1": 0.5})
    with pytest.raises(UsageError):
        MarginalWeights.build(inst, {"a1": 0.5, "a2": 0.5, "zzz": 0.5})
    with pytest.raises(UsageError):
        MarginalWeights.build(inst, {"a1": 1.5, "a2": 0.5})
    # values a hair outside [0,1] are clamped, not rejected
    w = MarginalWeights.build(inst, {"a1": 1.0 + 1e-13, "a2": -1e-13})
    assert w.p["a1"] == 1.0 and w.p["a2"] == 0.0


def test_margin_forms_agree_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        sizes = [int(rng.integers(1, 4)) for _ in range(n)]
        universes = [tuple(f"u{i}e{s}" for s in range(sizes[i]))
                     for i in range(n)]
        forbidden = []
        for _ in range(int(rng.integers(0, 5))):
            take = [i for i in range(n) if rng.random() < 0.6]
            if not take:
                continue
            forbidden.append(tuple(
                universes[i][int(rng.integers(0, sizes[i]))] for i in take))
        inst = ChoiceInstance.build(universes, forbidden)
        p = {x: float(rng.uniform(0.05, 1.0))
             for u in universes for x in u}
        rep = check_expectation_condition(inst, MarginalWeights.build(inst, p))
        assert rep.equivalence_gap <= 1e-12 * max(
            1.0, *(abs(m) for m in rep.sum_margins))


def test_randomized_search_finds_avoiding_choice():
    inst = crafted()
    p = {x: 1.0 for u in inst.universes for x in u}
    w = MarginalWeights.build(inst, p)
    a = randomized_choice_search(inst, w, seed=42)
    b = randomized_choice_search(inst, w, seed=42)
    assert a == b
    assert a.status == "found"
    assert avoids_all(inst, a.choice)


def test_randomized_search_rejects_infeasible_weights():
    inst = ChoiceInstance.build([("a1", "a2")], [])
    w = MarginalWeights.build(inst, {"a1": 0.3, "a2": 0.3})
    with pytest.raises(UsageError):
        randomized_choice_search(inst, w, seed=1)


def test_randomized_search_cap_exhaustion():
    inst = ChoiceInstance.build([("x1", "x2"), ("y1", "y2")],
                                [("x1", "y1")])
    w = MarginalWeights.build(inst, {x: 1.0 for x in
                                     ("x1", "x2", "y1", "y2")})
    res = randomized_choice_search(inst, w, seed=2, cap=0)
    assert res.status == "cap-exhausted" and res.choice is None
    res = randomized_choice_search(inst, w, seed=2, cap=50)
    assert res.status == "found"


def test_json_parsing():
    inst = choice_from_json({"universes": [["a1", "a2"], ["b1"]],
                             "forbidden": [["a1", "b1"]]})
    assert inst.universes == (("a1", "a2"), ("b1",))
    w = marginals_from_json(inst, {"a1": 0.5, "a2": 0.5, "b1": 1.0})
    assert w.tau == (1.0, 1.0)
    with pytest.raises(UsageError):
        choice_from_json({"forbidden": []})
    with pytest.raises(UsageError):
        marginals_from_json(inst, "not a map")
