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
from typing import Iterable, Mapping, NamedTuple

from .core import ITER_CAP, TOL, FixedPointResult, kleene


class LllError(ValueError):
    """Malformed instance data or out-of-range parameters."""


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
            raise LllError("need at least one event")
        idx = set(range(1, n + 1))
        for table, name in ((gamma, "gamma"), (probs, "p"), (mu, "mu")):
            if set(table) != idx:
                raise LllError(f"{name} must be indexed 1..{n}")
        for i in idx:
            if not frozenset(gamma[i]) <= idx:
                raise LllError(f"gamma[{i}] leaves 1..{n}")
            if i in gamma[i]:
                raise LllError(f"gamma[{i}] contains {i}")
            if not 0.0 <= probs[i] <= 1.0:
                raise LllError(f"p[{i}] = {probs[i]} outside [0,1]")
            if not 0.0 <= mu[i] < 1.0:
                raise LllError(f"mu[{i}] = {mu[i]} outside [0,1)")
        return LllInstance(n, {i: frozenset(gamma[i]) for i in idx},
                           {i: float(probs[i]) for i in idx},
                           {i: float(mu[i]) for i in idx})


def _integers(values: list, name: str) -> list:
    """`values`, unless one is not a JSON integer (a float or a bool)."""
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise LllError(f"{name} must be an integer, got {bad!r}")
    return values


def instance_from_json(obj: dict, levels: bool = True) -> LllInstance:
    """Parse {"n", "gamma": [[...]...], "p": [...], "mu": [...]} with
    1-based neighbor indices.  With `levels` false, "mu" is not read and
    every level is 0, for callers that search for the levels.  "n" and
    every neighbor index must be JSON integers, not floats or booleans."""
    try:
        [n] = _integers([obj["n"]], "n")
        gamma_rows = obj["gamma"]
        probs = [float(x) for x in obj["p"]]
        mu = [float(x) for x in obj["mu"]] if levels else [0.0] * n
    except (KeyError, TypeError, ValueError) as exc:
        raise LllError(f"bad instance object: {exc}") from exc
    if not (len(gamma_rows) == len(probs) == len(mu) == n):
        raise LllError(f"arrays must all have length n={n}")
    gamma = {i + 1: frozenset(_integers(row, f"gamma[{i + 1}] entry"))
             for i, row in enumerate(gamma_rows)}
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
    given.  Raises LllError when the instance fails it: the translation is
    only claimed for feasible inputs.
    """
    from .families import check_tau_condition

    if report is None:
        report = check_lopsided(inst, tol)
    if not report.feasible:
        raise LllError("instance fails the lopsided condition")
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
            raise LllError(f"gamma[{i}] has no event")
    for i in idx:
        if not 0.0 <= probs[i] < 1.0:
            raise LllError(f"p[{i}] = {probs[i]} outside [0,1)")
        if i not in gamma:
            raise LllError(f"gamma[{i}] is missing")
        if not all(map(probs.__contains__, gamma[i])):
            j = next(j for j in gamma[i] if j not in probs)
            raise LllError(f"gamma[{i}] holds {j}, not an event")
        if i in gamma[i]:
            raise LllError(f"gamma[{i}] contains {i}")

    def operator(mu: dict[int, float]) -> dict[int, float]:
        products = _keep_products(mu, map(gamma.__getitem__, idx))
        return {i: p / d if d > 0.0 else math.inf
                for i, p, d in zip(idx, map(probs.__getitem__, idx), products)}

    # the largest float below 1 as the cap: an entry >= 1 is infeasible
    return kleene(operator, {i: probs[i] for i in idx}, tol, iter_cap,
                  math.nextafter(1.0, 0.0))
