"""What every solve and check shares: the tolerance and cap constants, the
monotone (Kleene) iteration, the row folds that solvers compile their
steps into, the margin rule, the typed readers of JSON input values and
the errors that end a run.  It imports nothing from localcut, so loading
it loads no cut engine.
"""

from __future__ import annotations

from itertools import chain, groupby, islice
from operator import itemgetter, le, sub
from typing import Callable, Mapping, NamedTuple, Sequence

TOL = 1e-12
ITER_CAP = 10 ** 5            # operator applications of one solve
VALUE_CAP = 1e9               # an iterate entry past it has diverged
ENUM_CAP = 1 << 22            # outcomes of one enumeration
SAMPLE_CAP = 10 ** 5          # draws or resamples of one sampler run
CHOICE_CAP = 10 ** 4          # resamples of one choice search


class UsageError(ValueError):
    """Bad input: a command-line argument, a setting or an input value."""


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

    Stops "converged" once no entry moves by tol or more, or the iterate
    repeats exactly (a fixed point, even at tol 0), and "diverged"
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
        # an exact repeat is a float fixed point, so tol 0 can end too
        settled = sup_step < tol or not any(steps)
        del steps             # else it stays alive through the next call
        current = nxt
        peak = max(current.values(), default=0.0)
        if peak > value_cap:
            return FixedPointResult("diverged", None, applications, peak,
                                    min_step)
        if settled:
            return FixedPointResult("converged", current, applications,
                                    peak, min_step)
    raise IndeterminateError(
        f"no convergence or divergence within {iter_cap} iterations",
        applications)


def pick(keys: Sequence) -> Callable[[Sequence], tuple]:
    """itemgetter(*keys), but a tuple for one key or none too."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda values: tuple(map(values.__getitem__, keys))


def row_folds(rows: Sequence[Sequence[int]], op: Callable,
              start: float | None = None) -> Callable[[Sequence], Sequence]:
    """Compile rows of positions into one step over a value sequence: per
    row, `acc = op(acc, value)` over the values at its positions, in the
    row's order, as a Python loop would.  `acc` starts at `start`, or with
    start None at the row's first value (every row then needs one).

    Rows of one length form a group, and each column of a group is one
    C-level `map`, so a step loops in Python only over the columns of the
    distinct lengths, and its work is the total row length.  Each column's
    fold is kept as a list, so a long row nests no iterators."""
    lengths = list(map(len, rows))
    rank = range(len(rows))
    ordered = all(map(le, lengths, islice(lengths, 1, None)))
    order = rank if ordered else sorted(rank, key=lengths.__getitem__)
    plan = []
    for _, members in groupby(order, lengths.__getitem__):
        group = list(map(rows.__getitem__, members))
        columns = list(map(pick, zip(*group)))
        if start is not None:       # a first column that reads `start`
            columns.insert(0, lambda values, first=(start,) * len(group):
                           first)
        plan.append(columns)
    back = None if ordered else pick(sorted(rank, key=order.__getitem__))

    def step(values: Sequence) -> Sequence:
        out: list = []
        for first, *columns in plan:
            acc = first(values)
            for column in columns:
                acc = list(map(op, acc, column(values)))
            out.extend(acc)
        return out if back is None else back(out)

    return step


# What a JSON input value may be: the types json.load reads it as (a bool
# is not an int here), the rule in words, and for rows, what each row holds.
NUMBER, INTEGER = ({int, float}, "a number"), ({int}, "an integer")
STRING, LIST = ({str}, "a string"), ({list}, "a list")
STRING_ROWS, INTEGER_ROWS = (*LIST, STRING), (*LIST, INTEGER)


def json_value(value, kind: tuple, what: str):
    """`value`, if json.load read it as `kind`; else raise UsageError
    naming `what` and the value."""
    if type(value) not in kind[0]:
        raise UsageError(f"{what} must be {kind[1]}, got {value!r}")
    return value


def json_list(values, kind: tuple, what: str) -> list:
    """`values`, if it is a JSON list of `kind` values, their types tested
    for the whole list at once, in C; else raise UsageError naming the
    first bad one.  A string row would read as the set of its letters, so
    rows must be JSON lists too."""
    types, rule, *row = kind
    if not set(map(type, json_value(values, LIST, what))) <= types:
        bad = next(v for v in values if type(v) not in types)
        raise UsageError(f"each entry of {what} must be {rule}, got {bad!r}")
    if row:
        json_list([*chain(*values)], row[0], f"each row of {what}")
    return values


def json_numbers(values, what: str) -> list[float]:
    """A JSON list of numbers, as floats."""
    try:
        return list(map(float, json_list(values, NUMBER, what)))
    except OverflowError:
        raise UsageError(f"{what} holds an integer past the float range") \
            from None


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
