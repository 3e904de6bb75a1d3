"""Acceptance gate: nine end-to-end criteria over seeded corpora.

Each test prints one PASS/FAIL line (visible under pytest -s); the
assertions behind the line are the actual gate.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from corpus import corpus
from localcut.choice import (ChoiceInstance, MarginalWeights, avoids_all,
                             check_expectation_condition)
from localcut.digraph import min_product_weights, underlying_simple
from localcut.engine import (CutInstance, IndeterminateError,
                             apply_risk_operator, check_weight_condition,
                             least_weight_solution, probability_bounds,
                             telescoping_check)
from localcut.families import (FamilyInstance, check_family_condition,
                               hypercube_digraph, hypergraph_coloring_family)
from localcut.instances import (Hypergraph, ListAssignment,
                                random_graph_max_degree,
                                random_regular_uniform_hypergraph)
from localcut.lll import LllInstance, check_lopsided, mu_to_tau
from localcut.probability import (ProductSpace, risk_table_exact,
                                  validate_cut_model)
from localcut.samplers import (greedy_acyclic_edge_coloring,
                               is_acyclic_edge_coloring, is_nonrepetitive,
                               moser_tardos_two_coloring,
                               nonrep_sequence_build, verify_proper_2coloring)
from localcut import thresholds as th


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# ----------------------------------------- shared corpus (criteria 1-3)

@dataclass
class Solved:
    name: str
    cut: CutInstance
    result: object                # fixed-point solve outcome, or None
    bounds: object                # exact bound report when feasible


@pytest.fixture(scope="module")
def solved_corpus():
    start = time.perf_counter()
    rows = []
    for ci in corpus(200):
        risks, checked = risk_table_exact(ci.space, ci.model)
        assert checked.ok, checked.reason
        cut = CutInstance.build(ci.graph, risks, ci.space, ci.model)
        try:
            res = least_weight_solution(cut)
        except IndeterminateError:
            res = None
        bounds = None
        if res is not None and res.status == "converged" \
                and check_weight_condition(cut, res.weights).feasible:
            bounds = probability_bounds(cut, res.weights, tol=1e-9)
        rows.append(Solved(ci.name, cut, res, bounds))
    return rows, time.perf_counter() - start


def test_criterion_1_exact_arc_bounds(solved_corpus):
    rows, elapsed = solved_corpus
    feasible = [r for r in rows if r.bounds is not None]
    checked = sum(len(r.bounds.arc_rows) for r in feasible)
    violations = sum(1 for r in feasible
                     for row in r.bounds.arc_rows if not row.ok)
    undecided = sum(1 for r in rows if r.result is None)
    ok = (len(rows) == 200 and len(feasible) >= 150 and undecided == 0
          and violations == 0 and checked > 0 and elapsed < 120.0)
    verdict(1, ok, f"{len(feasible)}/200 feasible instances, "
                   f"{checked} arc bounds, {violations} violations, "
                   f"{elapsed:.1f}s")


def test_criterion_2_reachable_pair_bounds(solved_corpus):
    rows, _ = solved_corpus
    feasible = [r for r in rows if r.bounds is not None]
    checked = sum(len(r.bounds.pair_rows) for r in feasible)
    violations = sum(1 for r in feasible
                     for row in r.bounds.pair_rows if not row.ok)
    ok = violations == 0 and checked > 0
    verdict(2, ok, f"{checked} reachable-pair bounds, "
                   f"{violations} violations")


def test_criterion_3_iteration_machinery(solved_corpus):
    rows, _ = solved_corpus
    # monotone growth of the iteration chain, replayed from all-ones
    monotone_steps = 0
    monotone_ok = True
    for r in rows:
        weights = {arc: 1.0 for arc in r.cut.simple.arcs}
        for _ in range(1500):
            updated = apply_risk_operator(r.cut, weights)
            monotone_ok &= all(updated[a] >= weights[a] - 1e-12
                               for a in weights)
            monotone_steps += 1
            step = max(abs(updated[a] - weights[a]) for a in weights)
            weights = updated
            if step <= 1e-12 or max(weights.values()) > 1e6:
                break
        if r.result is not None and r.result.status == "converged":
            monotone_ok &= r.result.min_step >= -1e-12

    # the least solution sits below every independently feasible weight
    rng = np.random.default_rng(4177)
    dominance_hits = 0
    dominance_bad = 0
    for r in rows:
        if r.result is None or r.result.status != "converged":
            continue
        arcs = sorted(r.cut.simple.arcs)
        for _ in range(3):
            cand = {a: float(rng.uniform(1.0, 3.0)) for a in arcs}
            if check_weight_condition(r.cut, cand).feasible:
                dominance_hits += 1
                if any(r.result.weights[a] > cand[a] + 1e-9 for a in arcs):
                    dominance_bad += 1

    rng = np.random.default_rng(993)
    telescoping_ok = 0
    for _ in range(10 ** 4):
        length = int(rng.integers(1, 7))
        a = rng.uniform(0.0, 4.0, length)
        b = np.maximum(a, 1.0) + rng.uniform(0.0, 4.0, length)
        telescoping_ok += telescoping_check(list(a), list(b)).ok

    ok = (monotone_ok and dominance_hits >= 100 and dominance_bad == 0
          and telescoping_ok == 10 ** 4)
    verdict(3, ok, f"{monotone_steps} monotone steps, "
                   f"{dominance_hits} dominance checks "
                   f"({dominance_bad} bad), "
                   f"{telescoping_ok}/10000 telescoping tuples")


# -------------------------------------- subset-lattice reduction (4)

def up_family(rng):
    """Members are subsets of the switched-on elements; per-element
    failure event is that element's bit being off."""
    size = int(rng.integers(1, 4))
    names = [f"g{i}" for i in range(size)]
    on = {i: float(rng.uniform(0.3, 0.9)) for i in names}
    space = ProductSpace.build(
        [(f"b_{i}", [0, 1], [1.0 - on[i], on[i]]) for i in names])

    def member(point, subset):
        return all(point[f"b_{i}"] == 1 for i in subset)

    events = {i: [("off", lambda pt, i=i: pt[f"b_{i}"] == 0)]
              for i in names}
    inst = FamilyInstance.build(names, space, member, events)
    witnesses = {(i, "off"): frozenset({i}) for i in names}
    tau = {i: 1.0 / on[i] for i in names}
    return inst, witnesses, tau


def coloring_family(vertices, colors, tau_value):
    hg = Hypergraph.build(vertices, [set(vertices)])
    inst, witnesses = hypergraph_coloring_family(hg, colors=colors)
    return inst, witnesses, {i: tau_value for i in inst.ground}


def test_criterion_4_reduction_bound_equality():
    rng = np.random.default_rng(2718)
    cases = [up_family(rng) for _ in range(14)]
    cases += [
        coloring_family(["a", "b", "c"], 2, 2.0),
        coloring_family(["a", "b", "c"], 3,
                        (9.0 - math.sqrt(45.0)) / 2.0 + 1e-9),
        coloring_family(["a", "b", "c"], 4,
                        8.0 - math.sqrt(48.0) + 1e-9),
        coloring_family(["a", "b"], 2, 2.0),
        coloring_family(["a", "b"], 3, 1.5),
        coloring_family(["a", "b"], 4, 4.0 / 3.0),
    ]
    worst_gap = 0.0
    models_ok = 0
    for inst, witnesses, tau in cases:
        rep = check_family_condition(inst, tau, witnesses)
        assert rep.feasible
        red = hypercube_digraph(inst, tau)
        simple = underlying_simple(red.graph)
        full = red.vertex_of[frozenset(inst.ground)]
        empty = red.vertex_of[frozenset()]
        products = min_product_weights(simple, red.weights, full)
        reduction_bound = 1.0 / products[empty]
        worst_gap = max(worst_gap, abs(rep.bound - reduction_bound))
        models_ok += validate_cut_model(inst.space, red.model).ok
    ok = len(cases) == 20 and worst_gap <= 1e-12 and models_ok == 20
    verdict(4, ok, f"20 families, bound gap max {worst_gap:.2e}, "
                   f"{models_ok}/20 models valid")


# --------------------------------------- product-form translation (5)

def test_criterion_5_product_form_translation():
    rng = np.random.default_rng(5151)
    worst_margin = math.inf
    worst_identity = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        gamma = {}
        for i in range(1, n + 1):
            others = [j for j in range(1, n + 1) if j != i]
            take = int(rng.integers(0, len(others) + 1))
            chosen = (rng.choice(others, size=take, replace=False)
                      if take else [])
            gamma[i] = frozenset(int(j) for j in chosen)
        mu = {i: float(rng.uniform(0.05, 0.6)) for i in range(1, n + 1)}
        probs = {}
        for i in range(1, n + 1):
            allowance = mu[i] * math.prod(1.0 - mu[j] for j in gamma[i])
            probs[i] = allowance * float(rng.uniform(0.5, 1.0))
        inst = LllInstance.build(n, gamma, probs, mu)
        assert check_lopsided(inst).feasible
        res = mu_to_tau(inst)
        worst_margin = min(worst_margin, min(res.margins.values()))
        worst_identity = max(worst_identity, res.product_identity_error)
    ok = worst_margin >= -1e-12 and worst_identity <= 1e-12
    verdict(5, ok, f"50 instances, min margin {worst_margin:.2e}, "
                   f"max identity error {worst_identity:.2e}")


# --------------------------------------------- closed thresholds (6)

def test_criterion_6_closed_form_thresholds():
    details = []
    ok = True

    # (a) sequence lists: size 4 tangent at weight 2, size 3 infeasible
    seq4 = th.nonrepetitive_sequence_feasible(4)
    seq3 = th.nonrepetitive_sequence_feasible(3)
    part_a = (seq4.feasible and abs(seq4.margin) <= 1e-12
              and abs(seq4.tau_star - 2.0) <= 1e-4
              and not seq3.feasible)
    ok &= part_a
    details.append(f"a:{'ok' if part_a else 'BAD'}")

    # (b) acyclic palette 4(delta-1): universal tangent weight
    target = 2.0 * (math.sqrt(5.0) - 1.0)
    part_b = True
    for delta in (3, 4, 7):
        got = th.acyclic_feasible(delta, 4 * (delta - 1))
        part_b &= (got.result.feasible
                   and abs(got.result.tau_star - target) <= 1e-9)
    ok &= part_b
    details.append(f"b:{'ok' if part_b else 'BAD'}")

    # (c) 2-coloring degree bounds: sharp beats the product-form bound,
    # and a high-precision reading of the k=10 cleaned-up closed form
    # stays within one integer of the reported max degree
    part_c = True
    for k in range(10, 31):
        exact = th.hypergraph_two_coloring_max_degree(k, "exact")
        lll = th.hypergraph_two_coloring_max_degree(k, "lll")
        part_c &= exact.bound > lll.bound
    import mpmath as mp
    with mp.workdps(60):
        high = mp.mpf(2) ** 9 / (mp.e * 9)
        floor_high = int(mp.floor(high))
    improved = th.hypergraph_two_coloring_max_degree(10, "improved")
    part_c &= abs(floor_high - improved.max_d) <= 1
    ok &= part_c
    details.append(f"c:{'ok' if part_c else 'BAD'}")

    # (d) critical density: the default charge always satisfies its
    # quadratic, and the minimal charge at k=16 is exact
    part_d = all(th.critical_min_slack(k).default_c_ok
                 for k in range(1, 1001))
    c_min = th.critical_min_slack(16).c_min
    part_d &= abs(c_min - (math.sqrt(320.0) - 8.0)) <= 1e-12
    for c in np.linspace(1.0, 16.0, 200):
        quadratic_ok = c * c + 16.0 * c - 256.0 >= -1e-9
        part_d &= quadratic_ok == (c >= c_min - 1e-9)
    ok &= part_d
    details.append(f"d:{'ok' if part_d else 'BAD'}")

    # every closed form against the series solver on a coarse grid
    grid_ok = True
    grid_ok &= th.scalar_feasible(th.sequence_condition(4),
                                  grid_points=200).feasible
    grid_ok &= not th.scalar_feasible(th.sequence_condition(3),
                                      grid_points=200).feasible
    for delta in (3, 4, 7):
        grid_ok &= th.scalar_feasible(
            th.acyclic_condition(delta, 4 * (delta - 1)),
            grid_points=200).feasible
    grid_ok &= not th.scalar_feasible(th.acyclic_condition(4, 6),
                                      grid_points=200).feasible
    for variant, lo, hi in (("exact", 19, 20), ("improved", 22, 23),
                            ("crude", 19, 20)):
        grid_ok &= th.scalar_feasible(
            th.two_coloring_condition(10, lo, variant),
            grid_points=200).feasible
        grid_ok &= not th.scalar_feasible(
            th.two_coloring_condition(10, hi, variant),
            grid_points=200).feasible
    grid_ok &= th.scalar_feasible(th.chromatic_condition(100, 15083),
                                  grid_points=200).feasible
    grid_ok &= not th.scalar_feasible(
        th.chromatic_condition(100, 0.8 * 15083), grid_points=200).feasible
    ok &= grid_ok
    details.append(f"grid:{'ok' if grid_ok else 'BAD'}")

    verdict(6, ok, " ".join(details))


# ------------------------------------------------------- samplers (7)

def test_criterion_7_samplers_with_verifiers():
    start = time.perf_counter()

    mt_good = 0
    for s in range(100):
        hg = random_regular_uniform_hypergraph(200, 8, 6, seed=500 + s)
        colors, rep = moser_tardos_two_coloring(hg, seed=s)
        mt_good += rep.success and verify_proper_2coloring(hg, colors)[0]

    lists = ListAssignment.uniform(10 ** 4, 4)
    seq, rep = nonrep_sequence_build(lists, seed=20230823)
    nonrep_good = (rep.success and len(seq) == 10 ** 4
                   and is_nonrepetitive(seq).ok
                   and all(s in lists.lists[i] for i, s in enumerate(seq)))

    acyclic_good = 0
    for s in range(50):
        graph = random_graph_max_degree(24, 6, 40, seed=900 + s)
        delta = graph.max_degree
        assert 2 <= delta <= 6
        coloring, rep = greedy_acyclic_edge_coloring(
            graph, 4 * (delta - 1), seed=s)
        acyclic_good += (rep.success
                         and is_acyclic_edge_coloring(graph, coloring).ok)

    elapsed = time.perf_counter() - start
    ok = (mt_good == 100 and nonrep_good and acyclic_good == 50
          and elapsed < 300.0)
    verdict(7, ok, f"2-coloring {mt_good}/100, sequence n=10^4 "
                   f"{'ok' if nonrep_good else 'BAD'}, acyclic "
                   f"{acyclic_good}/50, {elapsed:.1f}s")


# ------------------------------------------------- choice systems (8)

def test_criterion_8_expectation_condition_forms():
    rng = np.random.default_rng(881)
    gap_max = 0.0
    sign_mismatches = 0
    feasible_count = 0
    confirmed = 0
    for _ in range(1000):
        universe_count = int(rng.integers(1, 4))
        universes = []
        for u in range(universe_count):
            size = int(rng.integers(1, 5))
            universes.append([f"u{u}e{j}" for j in range(size)])
        seen = set()
        forbidden = []
        for _ in range(int(rng.integers(0, 4))):
            take = int(rng.integers(1, universe_count + 1))
            which = rng.choice(universe_count, size=take, replace=False)
            group = [universes[int(w)][int(rng.integers(
                0, len(universes[int(w)])))] for w in which]
            if frozenset(group) not in seen:
                seen.add(frozenset(group))
                forbidden.append(group)
        inst = ChoiceInstance.build(universes, forbidden)
        p = {x: float(rng.uniform(0.2, 1.0)) for u in universes for x in u}
        rep = check_expectation_condition(inst, MarginalWeights.build(inst, p))
        gap_max = max(gap_max, rep.equivalence_gap)
        for a, b in zip(rep.sum_margins, rep.tau_margins):
            if abs(a) > 1e-9 and (a >= 0.0) != (b >= 0.0):
                sign_mismatches += 1
        if rep.feasible:
            feasible_count += 1
            assert math.prod(len(u) for u in universes) <= 256
            confirmed += any(avoids_all(inst, mc)
                             for mc in itertools.product(*universes))
    ok = (gap_max <= 1e-9 and sign_mismatches == 0
          and feasible_count >= 150 and confirmed == feasible_count)
    verdict(8, ok, f"1000 instances, gap max {gap_max:.2e}, "
                   f"{sign_mismatches} sign mismatches, "
                   f"{confirmed}/{feasible_count} feasible confirmed")


# --------------------------------------------- peeling certificate (9)

def complete_uniform(n, arity):
    names = [f"u{i}" for i in range(n)]
    return Hypergraph.build(names,
                            [set(e) for e in
                             itertools.combinations(names, arity)])


def replay_step_sums(hypergraph, order, z):
    surviving = {i: len(e) for i, e in enumerate(hypergraph.edges)}
    sums = []
    for v in order:
        sums.append(math.fsum(th.g_weight(surviving[i], z)
                              for i in hypergraph.edges_at[v]))
        for i in hypergraph.edges_at[v]:
            surviving[i] -= 1
    return sums


def test_criterion_9_peel_certificates():
    z = 2.0
    full_runs = [
        (complete_uniform(5, 3), 4, 3.5),
        (complete_uniform(6, 3), 4, 3.5),
        (complete_uniform(6, 3), 5, 4.5),
        (complete_uniform(6, 4), 5, 4.5),
    ]
    full_ok = 0
    for hg, k, c in full_runs:
        result = th.greedy_peel(hg, k, c, z)
        replayed = replay_step_sums(hg, result.order, z)
        chain = math.fsum(replayed)
        full_ok += (result.status == "all-peeled"
                    and len(result.order) == len(hg.vertices)
                    and all(abs(a - b) <= 1e-12
                            for a, b in zip(replayed, result.step_sums))
                    and all(s >= k - c - 1e-12 for s in replayed)
                    and result.edge_count > chain
                    and chain >= (k - c) * len(hg.vertices) - 1e-9)

    pendant = Hypergraph.build(
        [f"u{i}" for i in range(5)] + ["q"],
        [set(e) for e in itertools.combinations(
            [f"u{i}" for i in range(5)], 3)] + [{"u0", "q", "u1"}])
    stop_runs = [
        (Hypergraph.build(["a", "b", "c"], [{"a", "b", "c"}]), 4, 2.0),
        (pendant, 4, 3.4),
        (complete_uniform(6, 4), 4, 3.2),
    ]
    stop_ok = 0
    remaining_checked = 0
    for hg, k, c in stop_runs:
        result = th.greedy_peel(hg, k, c, z)
        alive = set(result.remaining)
        good = result.status == "stopped" and alive
        for v in result.remaining:
            gamma = math.fsum(th.g_weight(len(hg.edges[i] & alive), z)
                              for i in hg.edges_at[v])
            good = good and gamma < k - c
            remaining_checked += 1
        stop_ok += bool(good)

    ok = full_ok == len(full_runs) and stop_ok == len(stop_runs)
    verdict(9, ok, f"{full_ok}/{len(full_runs)} full peels certified, "
                   f"{stop_ok}/{len(stop_runs)} early stops with "
                   f"{remaining_checked} remaining vertices re-verified")
