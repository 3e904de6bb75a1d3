"""Scalar feasibility solver and the derived closed-form bounds."""

import itertools
import math

import pytest

from localcut.instances import Hypergraph
from localcut.thresholds import (DegreeProfile, SeriesCondition,
                                 acyclic_condition, acyclic_feasible,
                                 chromatic_condition,
                                 critical_condition_check, critical_min_slack,
                                 g_weight, greedy_peel,
                                 hypergraph_two_coloring_max_degree,
                                 nonrepetitive_chromatic_bound,
                                 nonrepetitive_sequence_feasible,
                                 scalar_feasible, sequence_condition,
                                 two_coloring_condition)

SQRT5 = math.sqrt(5.0)


def gamma(profile, z):
    """A degree profile's charge: every edge count times g_weight of its
    surviving size."""
    return (sum(count * g_weight(t, z) for t, count in profile.a.items())
            + sum(count * g_weight(t, z) for t, count in profile.b.items()))


# ------------------------------------------------------- scalar solver

def test_scalar_zero_series():
    res = scalar_feasible(SeriesCondition(lambda t: 0.0, float("inf")))
    assert res.feasible and res.tau_star == 1.0 and res.margin == 0.0


def test_scalar_linear_crossing():
    res = scalar_feasible(SeriesCondition(lambda t: 0.25 * t, float("inf")))
    assert res.feasible
    assert res.tau_star == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert abs(res.margin) <= 1e-12


def test_scalar_hopeless_series():
    res = scalar_feasible(SeriesCondition(lambda t: t * t, float("inf")))
    assert not res.feasible
    assert res.margin == pytest.approx(-1.0, abs=1e-12)


def test_scalar_guards():
    cond = SeriesCondition(lambda t: 0.0, float("inf"))
    with pytest.raises(ValueError):
        scalar_feasible(cond, grid_points=1)
    collapsed = SeriesCondition(lambda t: 0.0, 1.0)
    res = scalar_feasible(collapsed)
    assert not res.feasible and res.tau_star is None


# ------------------------------------------------- sequence thresholds

def test_sequence_list_size_four_is_tangent_at_two():
    res = nonrepetitive_sequence_feasible(4)
    assert res.feasible
    assert res.tau_star == pytest.approx(2.0, abs=1e-6)
    assert abs(res.margin) <= 1e-12


def test_sequence_list_size_three_fails():
    res = nonrepetitive_sequence_feasible(3)
    assert not res.feasible
    # the best slack is exactly 3 - 2*sqrt(3)
    assert res.margin == pytest.approx(3.0 - 2.0 * math.sqrt(3.0), abs=1e-9)


def test_sequence_crossing_is_the_least_satisfying_float():
    cond = sequence_condition(5)
    res = scalar_feasible(cond)

    def h(t):
        return t - 1.0 - cond.g(t)

    assert res.feasible and res.margin == h(res.tau_star) >= 0.0
    assert h(math.nextafter(res.tau_star, 1.0)) < 0.0


def test_sequence_large_list_closed_form():
    res = nonrepetitive_sequence_feasible(100)
    want = 50.0 - 20.0 * math.sqrt(6.0)
    assert res.feasible
    assert res.tau_star == pytest.approx(want, abs=1e-9)


def test_sequence_condition_validation():
    with pytest.raises(ValueError):
        nonrepetitive_sequence_feasible(1)
    cond = sequence_condition(4)
    assert cond.radius == 4.0


# -------------------------------------------------- acyclic thresholds

def test_acyclic_four_delta_minus_one_closed_form():
    want = 2.0 * (SQRT5 - 1.0)
    for delta in (3, 5, 10):
        res = acyclic_feasible(delta, 4 * (delta - 1))
        assert res.result.feasible
        assert res.result.tau_star == pytest.approx(want, abs=1e-9)
        assert not res.extrapolated


def test_acyclic_small_palettes_fail():
    res = acyclic_feasible(5, 2 * (5 - 1))
    assert not res.result.feasible
    # h(1) = -(g at 1/2) = -13/12 is the best the series allows
    assert res.result.margin == pytest.approx(-13.0 / 12.0, abs=1e-9)
    res = acyclic_feasible(5, 3 * (5 - 1))
    assert not res.result.feasible
    assert res.result.margin < -0.5


def test_acyclic_extrapolation_flag():
    # palettes off the 4*(delta-1) form are marked, not hidden
    assert acyclic_feasible(5, 17).extrapolated
    assert not acyclic_feasible(3, 8).extrapolated


# ------------------------------------------- hypergraph two-coloring

FROZEN_K10 = {
    "lll": (19.735427387977847, 19),
    "exact": (19.835929036800007, 19),
    "crude": (18.835427387977848, 18),
    "improved": (20.92825265330872, 20),
}


def test_two_coloring_bounds_at_k10():
    for variant, (bound, max_d) in FROZEN_K10.items():
        res = hypergraph_two_coloring_max_degree(10, variant=variant)
        assert res.bound == pytest.approx(bound, rel=1e-12)
        assert res.max_d == max_d
        if variant == "lll":
            # the product-form bound has no series to cross-check
            assert res.condition_feasible is None
        else:
            assert res.condition_feasible


def test_two_coloring_frontier_is_sharp_for_exact_variant():
    res = hypergraph_two_coloring_max_degree(10, variant="exact")
    at = scalar_feasible(two_coloring_condition(10, res.max_d, "exact"))
    beyond = scalar_feasible(
        two_coloring_condition(10, math.floor(res.bound) + 1, "exact"))
    assert at.feasible and not beyond.feasible


def test_two_coloring_crude_weakening_shares_the_series():
    # crude drops one degree at k=10; its series is still the exact one
    res = hypergraph_two_coloring_max_degree(10, variant="crude")
    assert scalar_feasible(
        two_coloring_condition(10, res.max_d, "crude")).feasible
    assert scalar_feasible(
        two_coloring_condition(10, res.max_d + 1, "crude")).feasible
    assert not scalar_feasible(
        two_coloring_condition(10, 20, "crude")).feasible


def test_two_coloring_improved_variant_is_conservative():
    # the closed form stays below the series frontier (between 22 and 23)
    assert scalar_feasible(two_coloring_condition(10, 22, "improved")).feasible
    assert not scalar_feasible(
        two_coloring_condition(10, 23, "improved")).feasible


def test_two_coloring_validation():
    with pytest.raises(ValueError):
        hypergraph_two_coloring_max_degree(1)
    with pytest.raises(ValueError):
        hypergraph_two_coloring_max_degree(10, variant="nope")


# ----------------------------------------------- chromatic thresholds

def test_chromatic_closed_form_at_delta_100():
    res = nonrepetitive_chromatic_bound(100)
    assert res.palette == 15083
    y = 1.0 - (2.0 / 100.0) ** (1.0 / 3.0)
    want = 100.0 ** 2 * (1.0 / y + 1.0 / (100.0 * (1.0 - y) ** 2))
    assert res.closed_form == pytest.approx(want, rel=1e-12)
    assert res.ratio_condition_ok and res.condition_feasible


def test_chromatic_smaller_palettes_fail():
    res = nonrepetitive_chromatic_bound(100)
    small = scalar_feasible(chromatic_condition(100, int(res.palette * 0.8)))
    assert not small.feasible


def test_chromatic_validation():
    for delta in (0, 1, 2):
        with pytest.raises(ValueError):
            nonrepetitive_chromatic_bound(delta)


# ---------------------------------------------- critical hypergraphs

def test_critical_min_slack_closed_form():
    res = critical_min_slack(16)
    assert res.c_min == pytest.approx(math.sqrt(320.0) - 8.0, abs=1e-12)
    assert res.default_c == pytest.approx(16.0, abs=1e-12)
    assert res.default_c_ok
    assert abs(res.identity_residual) <= 1e-9


def test_critical_condition_at_declared_point():
    chk = critical_condition_check(16, 16.0, 1.0, 5.0)
    assert chk.all_ok
    assert chk.quadratic_value == pytest.approx(0.0, abs=1e-12)
    assert chk.canonical_z == pytest.approx(5.0, abs=1e-12)


def test_critical_condition_double_root_at_minimum_slack():
    k = 16
    c = critical_min_slack(k).c_min
    tau = c * k / (8.0 * (k - c))
    chk = critical_condition_check(k, c, tau, k / (4.0 * tau) + 1.0)
    assert chk.all_ok
    assert abs(chk.quadratic_value) <= 1e-9
    assert chk.canonical_z == pytest.approx(SQRT5, abs=1e-12)


def test_g_weight_values_and_guards():
    assert g_weight(1, 2.0) == 0.5
    assert g_weight(2, 2.0) == 0.25
    assert g_weight(3, 4.0) == pytest.approx(1.0 / 16.0, abs=1e-15)
    with pytest.raises(ValueError):
        g_weight(0, 2.0)
    with pytest.raises(ValueError):
        g_weight(1, 1.0)


def test_degree_profile_validation_and_gamma():
    prof = DegreeProfile.build({1: 2, 3: 1}, {3: 2})
    assert gamma(prof, 2.0) == pytest.approx(
        2 * 0.5 + 1 * g_weight(3, 2.0) + 2 * g_weight(3, 2.0), abs=1e-15)
    with pytest.raises(ValueError):
        DegreeProfile.build({0: 1}, {})
    with pytest.raises(ValueError):
        DegreeProfile.build({1: -1}, {})


# -------------------------------------------------------- greedy peel

def complete_three_uniform(n):
    vs = [f"u{i}" for i in range(n)]
    return Hypergraph.build(vs, [set(c) for c in itertools.combinations(vs, 3)])


def test_peel_dense_hypergraph_to_empty():
    hg = complete_three_uniform(5)
    res = greedy_peel(hg, 4, 3.5, 2.0)
    assert res.status == "all-peeled"
    assert res.remaining == () and not res.profiles
    assert res.order == ("u0", "u1", "u2", "u3", "u4")
    assert res.chain_total == pytest.approx(8.75, abs=1e-12)
    # every recorded step cleared the threshold, so the chain witnesses
    # |E| > (k - c) |V|
    assert all(s >= 0.5 - 1e-12 for s in res.step_sums)
    assert res.edge_count > res.chain_total
    assert res.chain_total >= 0.5 * res.vertex_count - 1e-12


def test_peel_chain_matches_independent_replay():
    hg = complete_three_uniform(5)
    res = greedy_peel(hg, 4, 3.5, 2.0)
    alive = set(hg.vertices)
    for v, recorded in zip(res.order, res.step_sums):
        total = sum(g_weight(len(e & alive), 2.0)
                    for e in hg.edges if v in e)
        assert total == pytest.approx(recorded, abs=1e-12)
        alive.remove(v)


def test_peel_stops_below_threshold():
    hg = Hypergraph.build(["a", "b", "c"], [{"a", "b", "c"}])
    res = greedy_peel(hg, 4, 2.0, 2.0)
    assert res.status == "stopped"
    assert res.remaining == ("a", "b", "c")
    for v in res.remaining:
        prof = res.profiles[v]
        assert dict(prof.b) == {3: 1} and not prof.a
        assert gamma(prof, 2.0) < 2.0


def test_peel_partial_stop_leaves_partial_profiles():
    vs = [f"u{i}" for i in range(5)] + ["q"]
    edges = [set(c) for c in itertools.combinations(vs[:5], 3)]
    edges.append({"u0", "q", "u1"})
    hg = Hypergraph.build(vs, edges)
    res = greedy_peel(hg, 4, 3.4, 2.0)
    assert res.status == "stopped"
    assert res.remaining == ("q",)
    prof = res.profiles["q"]
    assert dict(prof.a) == {1: 1} and not prof.b
    assert gamma(prof, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert gamma(prof, 2.0) < 0.6


def test_peel_tie_breaks_on_input_position():
    hg = Hypergraph.build(["b", "a"], [{"b"}, {"a"}])
    res = greedy_peel(hg, 1, 0.5, 2.0)
    assert res.order == ("b", "a")
    assert not res.true_hypergraph


def test_peel_guards():
    hg = Hypergraph.build(["a"], [{"a"}])
    with pytest.raises(ValueError):
        greedy_peel(hg, 4, 4.0, 2.0)
    with pytest.raises(ValueError):
        greedy_peel(hg, 4, 2.0, 1.0)
