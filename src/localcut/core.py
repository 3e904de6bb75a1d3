"""What every solve and check shares: the tolerance and cap constants, the
monotone (Kleene) iteration, the margin rule and the errors that end a run.
It imports nothing from localcut, so loading it loads no cut engine.
"""

from __future__ import annotations

from itertools import chain
from operator import sub
from typing import Callable, Mapping, NamedTuple

TOL = 1e-12
ITER_CAP = 10 ** 5
VALUE_CAP = 1e9
ENUM_CAP = 1 << 22


class UsageError(ValueError):
    """A bad command-line argument or setting."""


class IndeterminateError(RuntimeError):
    """Iteration cap reached without convergence or divergence."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


class EnumerationCapError(RuntimeError):
    """The outcome count exceeds the enumeration cap."""


class FixedPointResult(NamedTuple):
    """What a monotone iteration ends with.  weights is the last iterate,
    None when diverged; it is not checked against any condition."""

    status: str                   # "converged" or "diverged"
    weights: dict | None
    iterations: int               # operator applications
    max_entry: float              # the last iterate's largest entry
    min_step: float               # most negative per-entry step observed


def kleene(operator: Callable[[dict], dict], start: Mapping,
           tol: float = TOL, iter_cap: int = ITER_CAP,
           value_cap: float = VALUE_CAP) -> FixedPointResult:
    """Iterate a monotone operator from `start` until it settles.

    Stops "converged" once no entry moves by tol or more, and "diverged"
    once some entry exceeds value_cap.  Raises IndeterminateError after
    iter_cap applications.
    """
    current = dict(start)
    applications = 0
    min_step = 0.0
    while applications < iter_cap:
        nxt = operator(current)
        applications += 1
        # builtin max/min over an iterable fold pairwise from the first
        # item, as the per-entry loop did, so a NaN step is skipped alike
        steps = list(map(sub, nxt.values(), map(current.__getitem__, nxt)))
        sup_step = max(chain((0.0,), map(abs, steps)))
        min_step = min(chain((min_step,), steps))
        del steps             # else it stays alive through the next call
        current = nxt
        peak = max(current.values(), default=0.0)
        if peak > value_cap:
            return FixedPointResult("diverged", None, applications, peak,
                                    min_step)
        if sup_step < tol:
            return FixedPointResult("converged", current, applications,
                                    peak, min_step)
    raise IndeterminateError(
        f"no convergence or divergence within {iter_cap} iterations",
        applications)


class WeightReport(NamedTuple):
    weights: dict
    margins: dict                 # weight - F(weight), per key
    feasible: bool


def check_margins(weights: Mapping, updated: Mapping,
                  tol: float = TOL) -> WeightReport:
    """Margins w - F(w), in the order of `updated` = F(w); feasible iff
    every margin >= -tol."""
    margins = {key: weights[key] - updated[key] for key in updated}
    feasible = all(m >= -tol for m in margins.values())
    return WeightReport(dict(weights), margins, feasible)
