"""The product-form operators and the Kleene step scan against references.

The τ operator, the μ operator, the lopsided check and `kleene`'s step
scan run their inner loops through `map` and `math.prod`.  The
references below are the plain per-factor forms: a generator per
product, a Python-level sum left to right, and a per-entry max/min fold
of the steps.  Results must agree exactly, float for float, NaN and
signed zeros included.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from localcut import families
from localcut.engine import (ITER_CAP, TOL, VALUE_CAP, FixedPointResult,
                             IndeterminateError, kleene)
from localcut.families import (apply_tau_operator, least_tau_solution,
                               tau_of_set)
from localcut.lll import LllInstance, auto_mu, check_lopsided

CAP = 400          # iteration cap for the random solves


def ref_kleene(operator, start, tol=TOL, iter_cap=ITER_CAP,
               value_cap=VALUE_CAP):
    current = dict(start)
    applications = 0
    min_step = 0.0
    while applications < iter_cap:
        nxt = operator(current)
        applications += 1
        sup_step = 0.0
        repeat = True
        for key, value in nxt.items():
            step = value - current[key]
            sup_step = max(sup_step, abs(step))
            min_step = min(min_step, step)
            repeat = repeat and step == 0.0
        current = nxt
        peak = max(current.values(), default=0.0)
        if peak > value_cap:
            return FixedPointResult("diverged", None, applications, peak,
                                    min_step)
        if sup_step < tol or repeat:
            return FixedPointResult("converged", current, applications,
                                    peak, min_step)
    raise IndeterminateError("cap", applications)


def ref_tau_of_set(tau, subset):
    return math.prod(tau[i] for i in subset)


def ref_tau_operator(ground, terms, tau):
    nxt = {}
    for elem in ground:
        total = 0.0
        for p, witness in terms.get(elem, ()):
            total += p * ref_tau_of_set(tau, witness)
        nxt[elem] = 1.0 + total
    return nxt


def fsum_tau_operator(ground, terms, tau):
    """A mutant: the terms summed with compensation."""
    return {elem: 1.0 + math.fsum(p * ref_tau_of_set(tau, witness)
                                  for p, witness in terms.get(elem, ()))
            for elem in ground}


def ref_least_tau(ground, terms):
    return ref_kleene(lambda tau: ref_tau_operator(ground, terms, tau),
                      dict.fromkeys(ground, 0.0), iter_cap=CAP)


def ref_check_lopsided(inst, tol=TOL):
    margins = {}
    for i in range(1, inst.n + 1):
        allowance = inst.mu[i] * math.prod(1.0 - inst.mu[j]
                                           for j in inst.gamma[i])
        margins[i] = allowance - inst.probs[i]
    feasible = all(m >= -tol for m in margins.values())
    bound = math.prod(1.0 - inst.mu[i] for i in range(1, inst.n + 1))
    return feasible, margins, bound


def ref_auto_mu(probs, gamma):
    idx = sorted(probs)

    def operator(mu):
        nxt = {}
        for i in idx:
            denom = math.prod(1.0 - mu[j] for j in gamma[i])
            nxt[i] = probs[i] / denom if denom > 0.0 else math.inf
        return nxt

    return ref_kleene(operator, {i: probs[i] for i in idx}, TOL, CAP,
                      math.nextafter(1.0, 0.0))


def exact(value):
    """Floats as hex strings, so NaN equals NaN and 0.0 differs from
    -0.0; containers mapped through."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [exact(v) for v in value]
    return value


def outcome(solve, *args, **kwargs):
    try:
        return exact(solve(*args, **kwargs))
    except IndeterminateError as exc:
        return ("indeterminate", exc.iterations)


# ------------------------------------------------------------- strategies

@st.composite
def tau_instances(draw):
    """Ground set, terms with witnesses containing their element (as
    shuffled tuples or as frozensets), and a weight function >= 1."""
    size = draw(st.integers(1, 7))
    ground = tuple(f"e{k}" for k in range(size))
    as_tuples = draw(st.booleans())
    terms = {}
    for elem in ground:
        rows = []
        for _ in range(draw(st.integers(0, 3))):
            others = draw(st.lists(st.sampled_from(ground), max_size=size,
                                   unique=True))
            members = draw(st.permutations(sorted({elem, *others})))
            witness = tuple(members) if as_tuples else frozenset(members)
            p = draw(st.floats(0.0, 0.4, allow_subnormal=False))
            rows.append((p, witness))
        if rows or draw(st.booleans()):
            terms[elem] = rows
    tau = {elem: draw(st.floats(1.0, 8.0)) for elem in ground}
    return ground, terms, tau


@st.composite
def lll_instances(draw):
    n = draw(st.integers(1, 8))
    gamma = {}
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        gamma[i] = frozenset(draw(st.lists(st.sampled_from(others),
                                           unique=True))) if others \
            else frozenset()
    probs = {i: draw(st.floats(0.0, 0.45)) for i in range(1, n + 1)}
    mu = {i: draw(st.floats(0.0, 0.95)) for i in range(1, n + 1)}
    return n, gamma, probs, mu


SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0,
                           1.0 + 1e-13, 2.0, 5e8, 2e9])
VALUES = st.one_of(SPECIAL, st.floats(-3.0, 3.0))


@st.composite
def scripted_operators(draw):
    """A fixed sequence of iterates over a few keys, repeating the last
    one, so every run stops within the script's length plus one."""
    keys = [f"k{k}" for k in range(draw(st.integers(1, 4)))]
    script = [{k: draw(VALUES) for k in keys}
              for _ in range(draw(st.integers(1, 6)))]
    start = {k: draw(VALUES) for k in keys}
    return start, script


def operator_from(script):
    calls = []

    def operator(current):
        calls.append(None)
        return dict(script[min(len(calls), len(script)) - 1])
    return operator


# ------------------------------------------------------------------ tests

@settings(derandomize=True, deadline=None, max_examples=300)
@given(tau_instances())
def test_tau_operator_and_products_match_reference(instance):
    ground, terms, tau = instance
    assert exact(apply_tau_operator(ground, terms, tau)) == \
        exact(ref_tau_operator(ground, terms, tau))
    for rows in terms.values():
        for _, witness in rows:
            assert tau_of_set(tau, witness).hex() == \
                ref_tau_of_set(tau, witness).hex()
    assert tau_of_set(tau, ground).hex() == ref_tau_of_set(tau, ground).hex()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(tau_instances())
def test_least_tau_solution_matches_reference(instance):
    ground, terms, _ = instance
    assert outcome(least_tau_solution, ground, terms, iter_cap=CAP) == \
        outcome(ref_least_tau, ground, terms)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(lll_instances())
def test_check_lopsided_matches_reference(instance):
    n, gamma, probs, mu = instance
    inst = LllInstance.build(n, gamma, probs, mu)
    assert exact(tuple(check_lopsided(inst))) == \
        exact(ref_check_lopsided(inst))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lll_instances(), st.booleans())
def test_auto_mu_matches_reference(instance, as_tuples):
    _, gamma, probs, _ = instance
    if as_tuples:
        gamma = {i: tuple(sorted(g, reverse=True)) for i, g in gamma.items()}
    assert outcome(auto_mu, probs, gamma, iter_cap=CAP) == \
        outcome(ref_auto_mu, probs, gamma)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(scripted_operators(), st.sampled_from([0.0, TOL, 1e-3, 0.5]),
       st.sampled_from([VALUE_CAP, 1.5, math.inf]))
def test_kleene_step_scan_matches_per_entry_fold(case, tol, value_cap):
    start, script = case
    assert outcome(kleene, operator_from(script), start, tol, 50,
                   value_cap) == \
        outcome(ref_kleene, operator_from(script), start, tol, 50,
                value_cap)


def test_kleene_skips_nan_steps_where_the_fold_did():
    # a NaN step first, then a large one: the fold skips the NaN, while
    # max(0.0, max(steps)) would read 0.0 and stop one step early
    start = {"a": math.inf, "b": 0.0}
    script = [{"a": math.inf, "b": 3.0}, {"a": math.inf, "b": 3.0}]
    for value_cap in (VALUE_CAP, math.inf):
        res = kleene(operator_from(script), start, TOL, 50, value_cap)
        ref = ref_kleene(operator_from(script), start, TOL, 50, value_cap)
        assert exact(res) == exact(ref)
    res = kleene(operator_from(script), start, TOL, 50, math.inf)
    assert (res.status, res.iterations) == ("converged", 2)


def test_reference_catches_a_compensated_sum():
    """The comparison has teeth: for these three terms the left-to-right
    sum and math.fsum give other floats."""
    ground = ("a",)
    terms = {"a": [(0.261, ("a",)), (0.315, ("a",)), (0.038, ("a",))]}
    tau = {"a": 1.0}
    assert apply_tau_operator(ground, terms, tau) == {"a": 1.614}
    assert ref_tau_operator(ground, terms, tau) == {"a": 1.614}
    assert fsum_tau_operator(ground, terms, tau) == {"a": 1.6139999999999999}


def test_fsum_mutant_fails_the_solve_comparison(monkeypatch):
    """An operator summing with math.fsum ends one ulp off the least
    solution, so the solve comparison above would fail on it."""
    ground = ("a",)
    terms = {"a": [(0.095, ("a",)), (0.223, ("a",)), (0.131, ("a",))]}
    expected = outcome(ref_least_tau, ground, terms)
    assert outcome(least_tau_solution, ground, terms, iter_cap=CAP) == \
        expected
    monkeypatch.setattr(families, "apply_tau_operator", fsum_tau_operator)
    assert outcome(least_tau_solution, ground, terms, iter_cap=CAP) != \
        expected
