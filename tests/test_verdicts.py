"""check-family verdicts against an exact re-computation of the margins.

Random instances run through the command line in both modes.  Every
reported margin must match tau - (1 + sum of p * tau(W)) computed here in
exact rational arithmetic, up to the rounding of the float evaluation, and
the verdict and exit code must follow from the reported margins at the
given tolerance alone.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from localcut.cli import main

CAP = 2000


@st.composite
def family_calls(draw):
    n = draw(st.integers(1, 6))
    ground = [f"g{i}" for i in range(n)]
    events = []
    for elem in ground:
        for _ in range(draw(st.integers(0, 3))):
            others = draw(st.sets(st.sampled_from(ground), max_size=3))
            events.append({"element": elem,
                           "p": draw(st.floats(0.0, 0.3)),
                           "witness": sorted(others | {elem})})
    data = {"ground": ground, "events": events}
    if draw(st.booleans()):
        data["tau"] = {g: draw(st.floats(1.0, 3.0)) for g in ground}
    # a solve stops once a step is below tol, so tol 0 only runs to the cap
    tol = draw(st.sampled_from([1e-15, 1e-12, 1e-6]
                               + ([0.0] if "tau" in data else [])))
    return data, tol


def exact_margins(data, tau):
    """Per element: tau - F(tau) in exact arithmetic, and how far a float
    evaluation may stray from it.  Each rounded operation (the witness
    product, the times p, the sums and the final subtraction) errs by at
    most one ulp of max(tau, F(tau))."""
    load = {g: Fraction(0) for g in data["ground"]}
    steps = dict.fromkeys(data["ground"], 2)
    for ev in data["events"]:
        load[ev["element"]] += Fraction(ev["p"]) * math.prod(
            Fraction(tau[w]) for w in ev["witness"])
        steps[ev["element"]] += len(ev["witness"]) + 1
    return {g: (Fraction(tau[g]) - 1 - load[g],
                steps[g] * Fraction(math.ulp(max(tau[g], 1 + load[g]))))
            for g in data["ground"]}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(family_calls())
def test_check_family_margins_and_verdicts(tmp_path_factory, call):
    data, tol = call
    path = tmp_path_factory.mktemp("family") / "fam.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["check-family", str(path), "--tol", repr(tol),
                     "--cap", str(CAP)])
    if not out.getvalue():
        assert code == 3 and "tau" not in data     # iteration cap hit
        return
    report = json.loads(out.getvalue())
    assert report["mode"] == ("check" if "tau" in data else "solve")
    if report.get("status") == "diverged":
        assert code == 1 and not report["feasible"]
        return
    tau = report["tau"]
    if "tau" in data:
        assert tau == data["tau"]
    exact = exact_margins(data, tau)
    assert set(report["margins"]) == set(exact)
    for g, margin in report["margins"].items():
        want, slack = exact[g]
        assert abs(Fraction(margin) - want) <= slack
    feasible = all(m >= -tol for m in report["margins"].values())
    assert report["feasible"] == feasible
    if feasible:
        assert code == 0
    else:
        assert code == (1 if "tau" in data else 3)
