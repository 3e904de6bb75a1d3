"""Lopsided local-lemma checker and the level-to-weight translation."""

import math
import re

import numpy as np
import pytest

from localcut.engine import IndeterminateError
from localcut.lll import (LllError, LllInstance, auto_mu, check_lopsided,
                          instance_from_json, mu_to_tau)


def symmetric_pair(p, mu):
    return LllInstance.build(
        2, {1: frozenset({2}), 2: frozenset({1})},
        {1: p, 2: p}, {1: mu, 2: mu})


def test_build_validation():
    with pytest.raises(LllError):
        LllInstance.build(0, {}, {}, {})
    with pytest.raises(LllError):
        LllInstance.build(1, {1: frozenset({1})}, {1: 0.1}, {1: 0.1})
    with pytest.raises(LllError):
        LllInstance.build(1, {1: frozenset({9})}, {1: 0.1}, {1: 0.1})
    with pytest.raises(LllError):
        LllInstance.build(1, {1: frozenset()}, {1: 1.5}, {1: 0.1})
    with pytest.raises(LllError):
        LllInstance.build(1, {1: frozenset()}, {1: 0.1}, {1: 1.0})
    with pytest.raises(LllError):
        LllInstance.build(2, {1: frozenset()}, {1: 0.1}, {1: 0.1})


def test_json_parsing():
    inst = instance_from_json({"n": 2, "gamma": [[2], [1]],
                               "p": [0.125, 0.125], "mu": [0.25, 0.25]})
    assert inst.n == 2
    assert inst.gamma[1] == frozenset({2})
    with pytest.raises(LllError):
        instance_from_json({"n": 2, "gamma": [[2]], "p": [0.1], "mu": [0.1]})
    with pytest.raises(LllError):
        instance_from_json({"n": 1, "gamma": [[]], "p": ["x"], "mu": [0.1]})


def test_symmetric_pair_frozen_values():
    inst = symmetric_pair(0.125, 0.25)
    rep = check_lopsided(inst)
    assert rep.feasible
    # allowance 1/4 * 3/4 = 3/16, margin 3/16 - 1/8 = 1/16
    for m in rep.margins.values():
        assert m == pytest.approx(1.0 / 16.0, abs=1e-15)
    assert rep.bound == pytest.approx(9.0 / 16.0, abs=1e-15)

    res = mu_to_tau(inst)
    for i in (1, 2):
        assert res.tau[i] == pytest.approx(4.0 / 3.0, abs=1e-15)
        # tau - 1 - p * tau(closed neighborhood) = 4/3 - 1 - (1/8)(16/9)
        assert res.tau[i] - res.margins[i] == pytest.approx(11.0 / 9.0,
                                                            abs=1e-12)
        assert res.margins[i] == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert res.product_identity_error <= 1e-12


def test_infeasible_pair_is_rejected():
    inst = symmetric_pair(0.25, 0.25)
    rep = check_lopsided(inst)
    assert not rep.feasible
    with pytest.raises(LllError):
        mu_to_tau(inst)


def test_auto_mu_fixed_point_value():
    gamma = {1: frozenset({2}), 2: frozenset({1})}
    res = auto_mu({1: 0.125, 2: 0.125}, gamma)
    assert res.status == "converged"
    want = (1.0 - math.sqrt(0.5)) / 2.0   # mu(1 - mu) = 1/8, lower root
    for i in (1, 2):
        assert res.weights[i] == pytest.approx(want, abs=1e-10)
    # the levels meet the lopsided condition with equality, up to 1e-9
    inst = LllInstance.build(2, gamma, {1: 0.125, 2: 0.125},
                             {i: res.weights[i] for i in (1, 2)})
    rep = check_lopsided(inst, tol=1e-9)
    assert rep.feasible
    for m in rep.margins.values():
        assert abs(m) <= 1e-9


def test_auto_mu_detects_infeasibility():
    gamma = {1: frozenset({2}), 2: frozenset({1})}
    res = auto_mu({1: 0.3, 2: 0.3}, gamma)
    assert res.status == "diverged" and res.weights is None


def test_auto_mu_validation_and_cap():
    gamma = {1: frozenset({2}), 2: frozenset({1})}
    with pytest.raises(LllError):
        auto_mu({1: 1.0, 2: 0.1}, gamma)
    with pytest.raises(IndeterminateError):
        auto_mu({1: 0.24999, 2: 0.24999}, gamma, iter_cap=3)


@pytest.mark.parametrize("probs, gamma, message", [
    ({1: 0.1}, {1: frozenset({2})}, "gamma[1] holds 2"),
    ({1: 0.1, 2: 0.1}, {1: frozenset()}, "gamma[2] is missing"),
    ({1: 0.1, 2: 0.1}, {1: frozenset({1}), 2: frozenset()},
     "gamma[1] contains 1"),
    ({1: 0.1}, {1: frozenset(), 3: frozenset()}, "gamma[3] has no event"),
])
def test_auto_mu_validates_gamma_like_build(probs, gamma, message):
    with pytest.raises(LllError, match=re.escape(message)):
        auto_mu(probs, gamma)
    with pytest.raises(LllError):   # the instance builder agrees
        LllInstance.build(max(probs), gamma, probs, dict.fromkeys(probs, 0.0))


def test_random_feasible_instances_translate_cleanly():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        gamma = {}
        for i in range(1, n + 1):
            others = [j for j in range(1, n + 1) if j != i]
            take = int(rng.integers(0, len(others) + 1))
            chosen = rng.choice(others, size=take, replace=False) if take else []
            gamma[i] = frozenset(int(j) for j in chosen)
        mu = {i: float(rng.uniform(0.05, 0.6)) for i in range(1, n + 1)}
        probs = {}
        for i in range(1, n + 1):
            allowance = mu[i] * math.prod(1.0 - mu[j] for j in gamma[i])
            probs[i] = allowance * float(rng.uniform(0.5, 1.0))
        inst = LllInstance.build(n, gamma, probs, mu)
        assert check_lopsided(inst).feasible
        res = mu_to_tau(inst)
        assert all(m >= -1e-12 for m in res.margins.values())
        assert res.product_identity_error <= 1e-12
