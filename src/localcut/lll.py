"""Classical lopsided local-lemma checker and its weight translation.

The input is the textbook shape: n events with probabilities p_i, a
neighborhood map, and levels mu_i in [0, 1).  Feasibility means
p_i <= mu_i * prod_{j in Gamma(i)} (1 - mu_j) for every i, which buys
Pr(no event occurs) >= prod_i (1 - mu_i).  The translation
tau_i = 1 / (1 - mu_i) turns a feasible level vector into element weights
whose condition margins are checkable directly and whose full product
reproduces the same bound.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import gt, mul, sub, truediv
from typing import Iterable, Mapping, NamedTuple

from .core import (INTEGER, INTEGER_ROWS, ITER_CAP, TOL, FixedPointResult,
                   UsageError, json_list, json_numbers, json_value, kleene,
                   pick, row_folds)


class LllInstance(NamedTuple):
    """Events indexed 1..n with probabilities, neighborhoods, and levels."""

    n: int
    gamma: dict[int, frozenset[int]]
    probs: dict[int, float]
    mu: dict[int, float]

    @staticmethod
    def build(n: int, gamma: Mapping[int, frozenset[int]],
              probs: Mapping[int, float],
              mu: Mapping[int, float]) -> "LllInstance":
        if n < 1:
            raise UsageError("need at least one event")
        idx = set(range(1, n + 1))
        for table, name in ((gamma, "gamma"), (probs, "p"), (mu, "mu")):
            if set(table) != idx:
                raise UsageError(f"{name} must be indexed 1..{n}")
        for i in idx:
            if not frozenset(gamma[i]) <= idx:
                raise UsageError(f"gamma[{i}] leaves 1..{n}")
            if i in gamma[i]:
                raise UsageError(f"gamma[{i}] contains {i}")
            if not 0.0 <= probs[i] <= 1.0:
                raise UsageError(f"p[{i}] = {probs[i]} outside [0,1]")
            if not 0.0 <= mu[i] < 1.0:
                raise UsageError(f"mu[{i}] = {mu[i]} outside [0,1)")
        return LllInstance(n, {i: frozenset(gamma[i]) for i in idx},
                           {i: float(probs[i]) for i in idx},
                           {i: float(mu[i]) for i in idx})


def instance_from_json(obj: dict, levels: bool = True) -> LllInstance:
    """Parse {"n", "gamma": [[...]...], "p": [...], "mu": [...]} with
    1-based neighbor indices.  With `levels` false, "mu" is not read and
    every level is 0, for callers that search for the levels.  "n" and
    every neighbor index must be JSON integers, "p" and "mu" JSON
    numbers."""
    try:
        n = json_value(obj["n"], INTEGER, "n")
        gamma_rows = json_list(obj["gamma"], INTEGER_ROWS, "gamma")
        probs = json_numbers(obj["p"], "p")
        # sized by the file's own list, so a huge "n" fails the length test
        mu = json_numbers(obj["mu"], "mu") if levels else [0.0] * len(probs)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"bad instance object: {exc}") from exc
    if not (len(gamma_rows) == len(probs) == len(mu) == n):
        raise UsageError(f"arrays must all have length n={n}")
    gamma = {i + 1: frozenset(row) for i, row in enumerate(gamma_rows)}
    return LllInstance.build(n,
                             gamma,
                             {i + 1: p for i, p in enumerate(probs)},
                             {i + 1: m for i, m in enumerate(mu)})


class LopsidedReport(NamedTuple):
    feasible: bool
    margins: dict[int, float]     # mu_i * prod(1 - mu_j) - p_i
    bound: float                  # prod_i (1 - mu_i)


def _keep_products(mu: Mapping[int, float],
                   gammas: Iterable[frozenset[int]]) -> list[float]:
    """prod(1 - mu_j) over each neighbourhood, multiplied in the set's
    iteration order.  Each 1 - mu_j is computed once, into a table that
    is dropped on return, before the caller builds its result."""
    keep = {j: 1.0 - m for j, m in mu.items()}.__getitem__
    return [math.prod(map(keep, g)) for g in gammas]


def check_lopsided(inst: LllInstance, tol: float = TOL) -> LopsidedReport:
    events = range(1, inst.n + 1)
    products = _keep_products(inst.mu, map(inst.gamma.__getitem__, events))
    margins = {i: inst.mu[i] * prod - inst.probs[i]
               for i, prod in zip(events, products)}
    feasible = all(m >= -tol for m in margins.values())
    bound = math.prod(1.0 - inst.mu[i] for i in range(1, inst.n + 1))
    return LopsidedReport(feasible, margins, bound)


class MuTauResult(NamedTuple):
    tau: dict[int, float]
    margins: dict[int, float]     # tau_i - (1 + p_i * tau(Gamma(i) + i))
    product_identity_error: float # |bound * prod tau - 1|


def mu_to_tau(inst: LllInstance, tol: float = TOL,
              report: LopsidedReport | None = None) -> MuTauResult:
    """Translate levels to weights tau_i = 1/(1 - mu_i) and check that a
    feasible instance satisfies the per-element weight condition.

    `report` is the instance's lopsided check at tol, made here when not
    given.  Raises UsageError when the instance fails it: the translation is
    only claimed for feasible inputs.
    """
    from .families import check_tau_condition

    if report is None:
        report = check_lopsided(inst, tol)
    if not report.feasible:
        raise UsageError("instance fails the lopsided condition")
    events = range(1, inst.n + 1)
    tau = {i: 1.0 / (1.0 - inst.mu[i]) for i in events}
    terms = {i: [(inst.probs[i], inst.gamma[i] | {i})] for i in events}
    margins = check_tau_condition(events, terms, tau, tol).margins
    identity = abs(report.bound * math.prod(tau.values()) - 1.0)
    return MuTauResult(tau, margins, identity)


def auto_mu(probs: Mapping[int, float], gamma: Mapping[int, frozenset[int]],
            tol: float = TOL, iter_cap: int = ITER_CAP) -> FixedPointResult:
    """Search for feasible levels by iterating mu_i = p_i / prod(1 - mu_j).

    Started at mu = p the chain increases and stays below any feasible
    level vector, so reaching 1 proves infeasibility ("diverged").
    Converged levels are the chain's last iterate, just below the fixed
    point, so they miss the condition by a little: margin i is
    prod(1 - mu_j) times minus the step one more iteration would take.
    check_lopsided at a tolerance judges them.
    """
    idx = sorted(probs)
    for i in gamma:
        if i not in probs:
            raise UsageError(f"gamma[{i}] has no event")
    for i in idx:
        if not 0.0 <= probs[i] < 1.0:
            raise UsageError(f"p[{i}] = {probs[i]} outside [0,1)")
        if i not in gamma:
            raise UsageError(f"gamma[{i}] is missing")
        if not all(map(probs.__contains__, gamma[i])):
            j = next(j for j in gamma[i] if j not in probs)
            raise UsageError(f"gamma[{i}] holds {j}, not an event")
        if i in gamma[i]:
            raise UsageError(f"gamma[{i}] contains {i}")

    # each Gamma row as positions, in its iteration order, so a step
    # multiplies the 1 - mu_j of a list as _keep_products does its table's
    at = {i: k for k, i in enumerate(idx)}
    levels = pick(idx)
    keep_products = row_folds([[at[j] for j in gamma[i]] for i in idx], mul,
                              1.0)
    ps = list(map(probs.__getitem__, idx))

    def operator(mu: dict[int, float]) -> dict[int, float]:
        products = keep_products(list(map(sub, repeat(1.0), levels(mu))))
        # a product that underflows to 0 reads as an infinite level
        if all(map(gt, products, repeat(0.0))):
            return dict(zip(idx, map(truediv, ps, products)))
        return {i: p / d if d > 0.0 else math.inf
                for i, p, d in zip(idx, ps, products)}

    # the largest float below 1 as the cap: an entry >= 1 is infeasible
    return kleene(operator, {i: probs[i] for i in idx}, tol, iter_cap,
                  math.nextafter(1.0, 0.0))
