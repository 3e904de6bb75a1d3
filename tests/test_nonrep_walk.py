"""The nonrep model's exact risk table and check from the prefix walk,
against the generic sweep over every outcome.

`build_nonrep_instance` in exact mode walks the square-free prefixes;
`risk_table_exact` sweeps all outcomes of the same space and model.  The
two must agree exactly: the same entries in the same key order, and the
same `ModelCheck`, counterexample included.  The bound table is checked
against the exact one: the lemma allows no stored risk below the true
conditional.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcut import engine, probability
from localcut.engine import build_nonrep_instance
from localcut.probability import risk_table_exact


def assert_walk_matches_sweep(lists):
    inst = build_nonrep_instance(lists, risk_mode="exact")
    table, checked = risk_table_exact(inst.space, inst.model)
    assert list(inst.risks.entries.items()) == list(table.entries.items())
    assert inst.model_check == checked
    return checked


def test_walk_matches_sweep_on_every_small_assignment():
    # every list of 1 to 3 of the letters, at every position, n <= 3
    choices = [list(c) for size in (1, 2, 3)
               for c in itertools.combinations("abcd", size)]
    for n in (1, 2, 3):
        for lists in itertools.product(choices, repeat=n):
            assert assert_walk_matches_sweep(list(lists)).ok


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4),
                min_size=1, max_size=8)
       .filter(lambda lists: math.prod(map(len, lists)) <= 3 ** 8))
def test_walk_matches_sweep_on_random_lists(lists):
    # lists may repeat a value: it then counts once per copy
    assert assert_walk_matches_sweep(lists).ok


def test_walk_counts_repeated_values_per_copy():
    assert_walk_matches_sweep([["a", "b", "a"]] * 5)
    assert_walk_matches_sweep([["a", "a"], ["a", "b"], ["b", "b", "a"]] * 2)


@pytest.mark.parametrize("dropped", ["e_1_1", "e_2_1", "e_1_2", "e_3_1",
                                     "e_2_2", "e_1_3"])
def test_walk_names_the_sweeps_counterexample(monkeypatch, dropped):
    # a hand-built failing model: the check loses one edge of F, so every
    # class whose boundary arc carries only that repeat fails.  At n >= 4
    # on x, y, z the classes ending at 4 pass with e_3_1 (x y x x) before
    # they fail with e_1_2 (x y x y), so a memo by the end alone passes.
    real = probability._cut_checker

    def lossy(graph):
        check = real(graph)
        return lambda inside, chosen: check(inside, chosen - {dropped})

    monkeypatch.setattr(probability, "_cut_checker", lossy)
    monkeypatch.setattr(engine, "_cut_checker", lossy)
    failed = 0
    for lists in ([["x", "y", "z"]] * 6, [["x", "y"], ["y", "x", "z"]] * 3,
                  [["z", "y", "x"], ["y", "x"], ["x", "y", "z"]] * 2):
        checked = assert_walk_matches_sweep(lists)
        failed += not checked.ok
        if not checked.ok:
            assert checked.reason.startswith("F misses boundary arc")
    assert failed > 0


@pytest.mark.parametrize("size, n", [(3, 8), (6, 5), (7, 6)])
def test_bound_table_never_understates_the_exact_risk(size, n):
    # on uniform lists the exact conditional at the witness vertex is
    # 1 / size^t, which rounds below itself to nearest for these sizes
    lists = [list(range(size))] * n
    bound = build_nonrep_instance(lists, risk_mode="bound").risks.entries
    exact = build_nonrep_instance(lists, risk_mode="exact").risks.entries
    for (eid, z), r in bound.items():
        t = int(eid.split("_")[2])
        assert Fraction(r) >= Fraction(1, size ** t)
        assert r >= exact[(eid, z)]
