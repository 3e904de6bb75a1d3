"""End-to-end command line tests, run in process through main()."""

import importlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import localcut
from localcut import cli, engine, thresholds
from localcut.cli import main

SINGLE_ARC = {
    "digraph": {"vertices": ["x", "y"],
                "edges": [{"id": "e", "tail": "x", "head": "y"}]},
    "risks": [{"edge": "e", "z": "y", "p": 0.5}],
}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def python_process(args, hash_seed=0):
    """Run the interpreter on args in a fresh process with this checkout
    of localcut first on the path; return the completed process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(localcut.__file__)))
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, timeout=120, check=True)


def call_id(argv):
    return "_".join(a.lstrip("-") for a in argv if not a.endswith(".json"))


# ------------------------------------------------------------- check-lcl

def test_check_lcl_solve_single_arc(tmp_path, capsys):
    path = write(tmp_path, "inst.json", SINGLE_ARC)
    code, out, _ = run(["check-lcl", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "solve" and report["feasible"]
    assert report["weights"]["x->y"] == pytest.approx(2.0, abs=1e-6)


def test_check_lcl_check_mode_both_verdicts(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", SINGLE_ARC)
    good = write(tmp_path, "good.json", {"weights": {"x->y": 3.0}})
    code, out, _ = run(["check-lcl", inst, "--weights", good], capsys)
    report = json.loads(out)
    assert code == 0 and report["mode"] == "check"
    assert report["margins"]["x->y"] == pytest.approx(0.5)

    bad = write(tmp_path, "bad.json", {"weights": {"x->y": 1.5}})
    code, out, _ = run(["check-lcl", inst, "--weights", bad], capsys)
    assert code == 1
    assert json.loads(out)["margins"]["x->y"] == pytest.approx(-0.25)


def test_check_lcl_divergence_is_a_negative_verdict(tmp_path, capsys):
    diverging = {
        "digraph": {"vertices": ["x", "y"],
                    "edges": [{"id": "e1", "tail": "x", "head": "y"},
                              {"id": "e2", "tail": "x", "head": "y"}]},
        "risks": [{"edge": "e1", "z": "y", "p": 0.6},
                  {"edge": "e2", "z": "y", "p": 0.6}],
    }
    path = write(tmp_path, "div.json", diverging)
    code, out, _ = run(["check-lcl", path], capsys)
    report = json.loads(out)
    assert code == 1 and report["status"] == "diverged"


# ------------------------------------------------------------ bad inputs

def test_malformed_inputs_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    code, _, err = run(["check-lcl", str(broken)], capsys)
    assert code == 2 and "error" in err

    code, _, err = run(["check-lcl", str(tmp_path / "missing.json")], capsys)
    assert code == 2

    inst = write(tmp_path, "inst.json", SINGLE_ARC)
    stray = write(tmp_path, "stray.json", {"weights": {"x->y": 2.0,
                                                       "y->x": 2.0}})
    code, _, err = run(["check-lcl", inst, "--weights", stray], capsys)
    assert code == 2 and "unknown arc" in err


FAMILY = {"ground": ["a", "b"],
          "events": [{"element": "a", "p": 0.125, "witness": ["a"]}]}

LLL = {"n": 2, "gamma": [[2], [1]], "p": [0.125, 0.125], "mu": [0.25, 0.25]}

CHOICE = {"universes": [["a1", "a2"], ["b1", "b2"]],
          "forbidden": [["a1", "b1"]],
          "p": {"a1": 1.0, "a2": 1.0, "b1": 1.0, "b2": 1.0}}


@pytest.mark.parametrize("subcommand, weights", [
    ("check-family", [1, 2]),
    ("check-family", {"a": 2, "b": 1, "z": 1}),
    ("check-family", {"a": "nan", "b": 1}),
    ("check-family", {"a": 2, "b": "inf"}),
    ("check-lcl", {"x->y": "inf"}),
    # all zeros is the solver's start, not a weight function to judge
    ("check-lcl", {"x->y": 0}),
], ids=["tau-list", "tau-unknown", "tau-nan", "tau-inf", "arc-inf",
        "arc-all-zero"])
def test_malformed_or_non_finite_weights_exit_2(subcommand, weights,
                                                tmp_path, capsys):
    if subcommand == "check-family":
        argv = [write(tmp_path, "fam.json", {**FAMILY, "tau": weights})]
    else:
        argv = [write(tmp_path, "inst.json", SINGLE_ARC), "--weights",
                write(tmp_path, "w.json", {"weights": weights})]
    code, out, err = run([subcommand, *argv], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("subcommand, payload", [
    ("check-lcl", {**SINGLE_ARC,
                   "risks": [{"edge": "e", "z": "y", "p": "0.5"}]}),
    ("check-lcl", {**SINGLE_ARC,
                   "risks": [{"edge": "e", "z": "y", "p": True}]}),
    ("check-family", {**FAMILY, "events": [
        {"element": "a", "p": 0.125, "witness": "ab"}]}),
    ("check-family", {**FAMILY, "events": [
        {"element": "a", "p": "0.125", "witness": ["a"]}]}),
    ("choice", {**CHOICE, "p": {**CHOICE["p"], "a1": "1.0"}}),
    ("choice", {**CHOICE, "p": {**CHOICE["p"], "a2": True}}),
    ("choice", {"universes": [["a1", "a2"], ["b1", 2]],
                "forbidden": [["a1", "b1"]],
                "p": {"a1": 1.0, "a2": 1.0, "b1": 1.0, "2": 1.0}}),
    ("choice", {"universes": ["ab", "cd"],
                "p": {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}}),
    ("check-lcl", {"digraph": {
        "vertices": ["x", "y"],
        "edges": [{"id": 1, "tail": "x", "head": "y"}]},
        "risks": [{"edge": 1, "z": "y", "p": 0.5}]}),
], ids=["risk-string", "risk-bool", "witness-string", "event-p-string",
        "choice-p-string", "choice-p-bool", "choice-integer-element",
        "choice-string-universe", "edge-integer-id"])
def test_inputs_that_read_as_results_exit_2(subcommand, payload, tmp_path,
                                            capsys):
    # a string or bool read as a number, a string read as the set of its
    # letters, or a number read as a string id once gave a verdict
    code, out, err = run([subcommand, write(tmp_path, "inst.json", payload)],
                         capsys)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert "must be" in err


HYPERGRAPH = {"vertices": ["a", "b", "c", "d"],
              "edges": [["a", "b", "c"], ["b", "c", "d"]]}

# per case: the argv, where FILE is the input file and ARC the SINGLE_ARC
# instance; the input as meant; the input as once misread, a string or a
# bool read as a number or a string read as the list of its letters; and
# the exit code of the input as meant
MISREAD = {
    "arc-weight-string": (["check-lcl", "ARC", "--weights", "FILE"],
                          {"weights": {"x->y": 2.5}},
                          {"weights": {"x->y": "2.5"}}, 0),
    "arc-weight-bool": (["check-lcl", "ARC", "--weights", "FILE"],
                        {"weights": {"x->y": 1.0}},
                        {"weights": {"x->y": True}}, 1),
    "tau-string": (["check-family", "FILE"],
                   {**FAMILY, "tau": {"a": 2.0, "b": 1.0}},
                   {**FAMILY, "tau": {"a": "2.0", "b": 1.0}}, 0),
    "tau-bool": (["check-family", "FILE"],
                 {**FAMILY, "tau": {"a": 1.0, "b": 1.0}},
                 {**FAMILY, "tau": {"a": True, "b": 1.0}}, 1),
    "lll-p-string": (["check-lll", "FILE"], LLL,
                     {**LLL, "p": ["0.125", 0.125]}, 0),
    "lll-p-bool": (["check-lll", "FILE"], {**LLL, "p": [1.0, 0.125]},
                   {**LLL, "p": [True, 0.125]}, 1),
    "lll-mu-string": (["check-lll", "FILE"], LLL,
                      {**LLL, "mu": ["0.25", 0.25]}, 0),
    "lll-mu-bool": (["check-lll", "FILE"], {**LLL, "mu": [0.0, 0.25]},
                    {**LLL, "mu": [False, 0.25]}, 1),
    "ground-string": (["check-family", "FILE"], FAMILY,
                      {**FAMILY, "ground": "ab"}, 0),
    "peel-edges-string": (["peel", "FILE", "--k", "3", "--c", "2",
                           "--z", "2"], HYPERGRAPH,
                          {**HYPERGRAPH, "edges": ["abc", "bcd"]}, 1),
    "2col-edges-string": (["sample", "2col", "--instance", "FILE"],
                          HYPERGRAPH,
                          {**HYPERGRAPH, "edges": ["abc", "bcd"]}, 0),
    "acyclic-edges-string": (["sample", "acyclic", "--instance", "FILE"],
                             {"vertices": ["a", "b", "c"],
                              "edges": [["a", "b"], ["b", "c"]]},
                             {"vertices": ["a", "b", "c"],
                              "edges": ["ab", "bc"]}, 0),
    "hypcol2-edges-string": (["validate-model", "hypcol2", "--instance",
                              "FILE"], HYPERGRAPH,
                             {**HYPERGRAPH, "edges": ["abc", "bcd"]}, 0),
    "nonrep-seq-lists-string": (["sample", "nonrep-seq", "--instance",
                                 "FILE"], {"lists": [["a", "b", "c"]] * 3},
                                {"lists": ["abc"] * 3}, 0),
    "nonrep-lists-string": (["validate-model", "nonrep", "--instance",
                             "FILE"], {"lists": [["a", "b", "c"]] * 3},
                            {"lists": ["abc"] * 3}, 0),
}


@pytest.mark.parametrize("argv, meant, misread, meant_code",
                         MISREAD.values(), ids=MISREAD)
def test_misread_inputs_exit_2(argv, meant, misread, meant_code, tmp_path,
                               capsys):
    # each misread input once gave the verdict of the input as meant, or
    # of another one: "2.5" read as 2.5, true as 1.0, "ab" as ["a", "b"]
    files = {"ARC": write(tmp_path, "arc.json", SINGLE_ARC)}

    def call(payload):
        files["FILE"] = write(tmp_path, "input.json", payload)
        return run([files.get(arg, arg) for arg in argv], capsys)

    code, out, err = call(misread)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert "must be" in err
    code, out, _ = call(meant)
    assert code == meant_code and json.loads(out)["subcommand"] == argv[0]


def test_integer_past_the_float_range_exits_2(tmp_path, capsys):
    # float() of it raised OverflowError, an internal error (exit 4)
    path = tmp_path / "lll.json"
    path.write_text('{"n": 2, "gamma": [[2], [1]], "p": [1' + "0" * 400
                    + ', 0.125], "mu": [0.25, 0.25]}', encoding="utf-8")
    code, out, err = run(["check-lll", str(path)], capsys)
    assert code == 2 and out == "" and "float range" in err


LLL_PAIR = {"n": 2, "gamma": [[2], [1]], "p": [0.125, 0.125],
            "mu": [0.25, 0.25]}
LONG = "1" + "0" * 400
ARC_WEIGHTS = ["check-lcl", "ARC", "--weights", "FILE"]


# each bad input but the last once ended in another exit code: an
# exception outside the usage arm (4), a last-wins read of a repeated key
# (0) or a bare `unhashable type` message (2); a file that is not UTF-8
# exited 2 only through the catch-all ValueError arm that is gone.
# Beside each, the valid input it was made from, which exits 0
BAD_INPUTS = [
    ("lll-n-2^62", ["check-lll", "FILE", "--auto-mu"],
     {**LLL_PAIR, "n": 2 ** 62}, "length n=", LLL_PAIR),
    ("json-100000-deep", ["check-lll", "FILE"], "[" * 100_000 + "]" * 100_000,
     "recursion depth", LLL_PAIR),
    ("weights-repeated-key", ARC_WEIGHTS, '{"weights": {"x->y": 0.5, '
     '"x->y": 2.5}}', "duplicate key 'x->y'", {"weights": {"x->y": 2.5}}),
    ("risk-row-twice", ["check-lcl", "FILE"],
     {**SINGLE_ARC, "risks": [{"edge": "e", "z": "y", "p": 0.5},
                              {"edge": "e", "z": "y", "p": 0.9}]},
     "two risk rows for ('e', 'y')", SINGLE_ARC),
    ("list-tail", ["check-lcl", "FILE"],
     {**SINGLE_ARC, "digraph": {"vertices": ["x", "y"], "edges": [
         {"id": "e", "tail": ["x"], "head": "y"}]}},
     "tails and heads must be a string, got ['x']", SINGLE_ARC),
    ("list-risk-edge", ["check-lcl", "FILE"],
     {**SINGLE_ARC, "risks": [{"edge": ["e"], "z": "y", "p": 0.5}]},
     "risk edges and zs must be a string, got ['e']", SINGLE_ARC),
    ("not-utf-8", ["check-lll", "FILE"], b"\xff\xfe", "utf-8", LLL_PAIR),
]


@pytest.mark.parametrize("argv, bad, message, good",
                         [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_exits_2_with_a_message(argv, bad, message, good,
                                          tmp_path, capsys):
    files = {"ARC": write(tmp_path, "arc.json", SINGLE_ARC)}
    path = tmp_path / "input.json"
    if isinstance(bad, bytes):
        path.write_bytes(bad)
    else:
        path.write_text(bad if isinstance(bad, str) else json.dumps(bad),
                        encoding="utf-8")
    files["FILE"] = str(path)
    code, out, err = run([files.get(arg, arg) for arg in argv], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert message in err
    files["FILE"] = write(tmp_path, "good.json", good)
    code, out, _ = run([files.get(arg, arg) for arg in argv], capsys)
    assert code == 0 and json.loads(out)


# a flag value past the float range, or a closed form that leaves it,
# once raised OverflowError (exit 4), and a NaN point was judged (exit 1);
# beside each the valid call it was made from, which exits 0
CRITICAL = ["threshold", "critical", "--k", "4"]
PEEL = ["peel", "FILE", "--k", "4"]
BAD_FLAGS = [
    (["threshold", "hypcol", "--k", "2000"],
     ["threshold", "hypcol", "--k", "12"]),
    (["threshold", "hypcol", "--k", "12", "--d", LONG],
     ["threshold", "hypcol", "--k", "12", "--d", "10"]),
    (["threshold", "critical", "--k", LONG], CRITICAL),
    (CRITICAL + ["--c", "nan", "--tau", "2", "--z", "3"],
     CRITICAL + ["--c", "8", "--tau", "2", "--z", "3"]),
    (CRITICAL + ["--c", "8", "--tau", "-inf", "--z", "3"],
     CRITICAL + ["--c", "8", "--tau", "2", "--z", "3"]),
    (["threshold", "sequence", "--L", "inf"],
     ["threshold", "sequence", "--L", "6"]),
    (["threshold", "chromatic", "--delta", "1" + "0" * 200],
     ["threshold", "chromatic", "--delta", "10"]),
    (PEEL + ["--c", "nan", "--z", "2"], PEEL + ["--c", "3.5", "--z", "2"]),
    (PEEL + ["--c", "3.5", "--z", "inf"], PEEL + ["--c", "3.5", "--z", "2"]),
]


@pytest.mark.parametrize("argv, good", BAD_FLAGS,
                         ids=[" ".join(case[0])[:40] for case in BAD_FLAGS])
def test_bad_flag_value_exits_2(argv, good, tmp_path, capsys):
    peel = write(tmp_path, "peel.json", {
        "vertices": list("abcde"),
        "edges": [list(e) for e in ("abc", "abd", "abe", "acd", "ace",
                                    "ade", "bcd", "bce", "bde", "cde")]})
    code, out, err = run([peel if a == "FILE" else a for a in argv], capsys)
    assert code == 2 and out == "" and "error:" in err
    code, out, _ = run([peel if a == "FILE" else a for a in good], capsys)
    assert code == 0 and json.loads(out)


@pytest.mark.parametrize("error", [ValueError, KeyError, TypeError])
def test_a_solver_fault_exits_4(error, tmp_path, capsys, monkeypatch):
    def solver(*args):
        raise error("boom")

    monkeypatch.setattr(engine, "least_weight_solution", solver)
    path = write(tmp_path, "inst.json", SINGLE_ARC)
    code, out, err = run(["check-lcl", path], capsys)
    assert code == 4 and out == ""
    assert err.startswith(f"internal error: {error.__name__}(")


def test_unconverged_solve_weights_exit_3(tmp_path, capsys, monkeypatch):
    # solvers that stop while one more application still moves the
    # weights by more than --tol: the check, not the solver, decides
    from localcut import families, lll
    solve_arcs, solve_tau, solve_mu = engine.least_weight_solution, \
        families.least_tau_solution, lll.auto_mu
    monkeypatch.setattr(engine, "least_weight_solution",
                        lambda inst, tol, cap: solve_arcs(inst, 1e-3, cap))
    monkeypatch.setattr(families, "least_tau_solution",
                        lambda ground, terms, tol, cap:
                        solve_tau(ground, terms, 1e-3, cap))
    monkeypatch.setattr(lll, "auto_mu", lambda probs, gamma, tol, cap:
                        solve_mu(probs, gamma, 1e-3, cap))
    for subcommand, payload in (("check-lcl", SINGLE_ARC),
                                ("check-family", FAMILY)):
        path = write(tmp_path, "inst.json", payload)
        code, out, _ = run([subcommand, path], capsys)
        report = json.loads(out)
        assert code == 3 and report["mode"] == "solve"
        assert not report["feasible"]
        assert min(report["margins"].values()) < -1e-12

    path = write(tmp_path, "lll.json", LLL)
    code, out, _ = run(["check-lll", path, "--auto-mu"], capsys)
    report = json.loads(out)
    assert code == 3 and report["mode"] == "auto-mu"
    assert not report["feasible"] and len(report["mu"]) == 2
    levels = lll.instance_from_json({**LLL, "mu": report["mu"]})
    assert min(lll.check_lopsided(levels).margins.values()) < -1e-12


def test_risks_in_the_negative_slack_read_as_zero(tmp_path, capsys):
    def solve(p):
        payload = {**SINGLE_ARC, "risks": [{"edge": "e", "z": "y", "p": p}]}
        return run(["check-lcl", write(tmp_path, "inst.json", payload)],
                   capsys)

    code, out, _ = solve(-1e-12)
    assert code == 0 and json.loads(out)["weights"]["x->y"] == 1.0
    assert solve(0.0) == (code, out, "")


def test_unknown_subcommand_and_bad_flags(capsys):
    assert run(["frobnicate"], capsys)[0] == 2
    assert run(["threshold", "hypcol"], capsys)[0] == 2      # missing --k
    assert run(["threshold", "hypcol", "--k", "10",
                "--variant", "lll", "--d", "5"], capsys)[0] == 2


# ----------------------------------------------------------- check-family

def test_check_family_solve_and_check(tmp_path, capsys):
    base = {"ground": ["a", "b"],
            "events": [{"element": "a", "p": 0.125, "witness": ["a"]}]}
    path = write(tmp_path, "fam.json", base)
    code, out, _ = run(["check-family", path], capsys)
    report = json.loads(out)
    assert code == 0 and report["mode"] == "solve"
    assert report["tau"]["a"] == pytest.approx(8.0 / 7.0, abs=1e-6)
    assert report["bound"] == pytest.approx(7.0 / 8.0, abs=1e-6)

    fixed = write(tmp_path, "fam2.json", {**base, "tau": {"a": 2, "b": 1}})
    code, out, _ = run(["check-family", fixed], capsys)
    assert code == 0
    assert json.loads(out)["margins"]["a"] == pytest.approx(0.75)

    tight = write(tmp_path, "fam3.json", {**base, "tau": {"a": 1.1, "b": 1}})
    assert run(["check-family", tight], capsys)[0] == 1


def test_check_family_report_ignores_the_hash_seed(tmp_path):
    # witness products must not follow set iteration order, which changes
    # with the string hash seed from one process to the next
    rng = random.Random(7)
    ground = [f"x{i}" for i in range(60)]
    events = []
    for elem in ground:
        for _ in range(rng.randint(1, 3)):
            others = rng.sample([g for g in ground if g != elem],
                                rng.randint(2, 6))
            events.append({"element": elem, "p": rng.uniform(0.001, 0.02),
                           "witness": [elem, *others]})
    path = write(tmp_path, "fam.json", {"ground": ground, "events": events})
    argv = ["-m", "localcut.cli", "check-family", path]
    first = python_process(argv, hash_seed=0).stdout
    assert json.loads(first)["feasible"]
    assert python_process(argv, hash_seed=1).stdout == first


# -------------------------------------------------------------- check-lll

def test_check_lll_exit_codes_and_translation(tmp_path, capsys):
    feasible = write(tmp_path, "ok.json", LLL)
    code, out, _ = run(["check-lll", feasible], capsys)
    report = json.loads(out)
    assert code == 0 and report["feasible"]
    assert report["bound"] == pytest.approx(9.0 / 16.0)
    assert report["tau"] == pytest.approx([4.0 / 3.0, 4.0 / 3.0])
    assert abs(report["product_identity_error"]) <= 1e-12

    infeasible = write(tmp_path, "no.json",
                       {"n": 2, "gamma": [[2], [1]],
                        "p": [0.25, 0.25], "mu": [0.25, 0.25]})
    code, out, _ = run(["check-lll", infeasible], capsys)
    assert code == 1 and not json.loads(out)["feasible"]

    code, out, _ = run(["check-lll", feasible, "--auto-mu"], capsys)
    report = json.loads(out)
    assert code == 0
    want = (1.0 - math.sqrt(0.5)) / 2.0
    assert report["mu"] == pytest.approx([want, want], abs=1e-6)

    # levels reaching 1 prove the probabilities infeasible
    hopeless = write(tmp_path, "hopeless.json", {**LLL, "p": [0.3, 0.3]})
    code, out, _ = run(["check-lll", hopeless, "--auto-mu"], capsys)
    report = json.loads(out)
    assert code == 1 and not report["feasible"] and report["mu"] is None


def test_check_lll_auto_mu_reads_no_levels(tmp_path, capsys):
    events = {"n": 2, "gamma": [[2], [1]], "p": [0.125, 0.125]}
    bare = write(tmp_path, "bare.json", events)
    code, out, _ = run(["check-lll", bare, "--auto-mu"], capsys)
    assert code == 0 and json.loads(out)["feasible"]
    for mu in ([0.25, 0.25], [0.0, 0.9]):
        given = write(tmp_path, "given.json", {**events, "mu": mu})
        assert run(["check-lll", given, "--auto-mu"], capsys)[:2] == (0, out)

    # the check itself still needs the levels, and says so
    code, out, err = run(["check-lll", bare], capsys)
    assert code == 2 and out == "" and "mu" in err


def test_check_lll_runs_the_lopsided_check_once(tmp_path, capsys,
                                               monkeypatch):
    from localcut import lll

    calls = []
    check = lll.check_lopsided

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    path = write(tmp_path, "ok.json",
                 {"n": 2, "gamma": [[2], [1]],
                  "p": [0.125, 0.125], "mu": [0.25, 0.25]})
    code, first, _ = run(["check-lll", path], capsys)
    monkeypatch.setattr(lll, "check_lopsided", counted)
    code, out, _ = run(["check-lll", path], capsys)
    assert code == 0 and len(calls) == 1 and out == first
    assert "tau" in json.loads(out)


# n or a neighbor index that is not a JSON integer, and what the message
# names; each was read as an integer, or overflowed, before
NON_INTEGERS = {
    "fraction-n": ('"n": 2.5, "gamma": [[2], [1]]', "2.5"),
    "huge-n": ('"n": 1e400, "gamma": [[2], [1]]', "inf"),
    "fraction-and-bool-neighbors": ('"n": 2, "gamma": [[2.7], [true]]',
                                    "2.7"),
    "bool-neighbor": ('"n": 2, "gamma": [[2], [true]]', "True"),
}


@pytest.mark.parametrize("fields, named", NON_INTEGERS.values(),
                         ids=NON_INTEGERS)
def test_check_lll_refuses_non_integer_indices(fields, named, tmp_path,
                                               capsys):
    path = tmp_path / "lll.json"
    path.write_text("{" + fields + ', "p": [0.125, 0.125], '
                    '"mu": [0.25, 0.25]}', encoding="utf-8")
    code, out, err = run(["check-lll", str(path)], capsys)
    assert code == 2 and out == "" and named in err
    assert "must be an integer" in err


# -------------------------------------------------------------- threshold

def test_threshold_hypcol_bound(capsys):
    code, out, _ = run(["threshold", "hypcol", "--k", "10",
                        "--variant", "improved"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["bound"] == pytest.approx(20.92825265330872, abs=1e-9)
    assert report["max_d"] == 20

    code, out, _ = run(["threshold", "hypcol", "--k", "10",
                        "--variant", "exact", "--d", "19"], capsys)
    assert code == 0 and json.loads(out)["at_d"]["feasible"]
    code, out, _ = run(["threshold", "hypcol", "--k", "10",
                        "--variant", "exact", "--d", "20"], capsys)
    assert code == 1 and not json.loads(out)["at_d"]["feasible"]


def test_threshold_sequence_exit_codes(capsys):
    code, out, _ = run(["threshold", "sequence", "--L", "4"], capsys)
    report = json.loads(out)
    assert code == 0 and report["tau_star"] == pytest.approx(2.0, abs=1e-9)
    assert run(["threshold", "sequence", "--L", "3"], capsys)[0] == 1


def test_threshold_acyclic_exit_codes(capsys):
    code, out, _ = run(["threshold", "acyclic", "--delta", "4",
                        "--k", "12"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["tau_star"] == pytest.approx(2.0 * (math.sqrt(5.0) - 1.0),
                                               abs=1e-6)
    assert run(["threshold", "acyclic", "--delta", "4", "--k", "6"],
               capsys)[0] == 1


@pytest.mark.parametrize("argv", [
    ["hypcol", "--k", "10", "--variant", "exact"],
    ["hypcol", "--k", "10", "--variant", "exact", "--d", "19"],
    ["sequence", "--L", "5"],
    ["chromatic", "--delta", "5"],
    ["acyclic", "--delta", "4", "--k", "12"]])
def test_threshold_passes_tol_to_every_scalar_search(argv, capsys,
                                                     monkeypatch):
    seen = []
    search = thresholds.scalar_feasible

    def spy(cond, tol=engine.TOL, *args):
        seen.append(tol)
        return search(cond, tol, *args)

    monkeypatch.setattr(thresholds, "scalar_feasible", spy)
    run(["threshold", *argv, "--tol", "0.25"], capsys)
    assert seen and all(tol == 0.25 for tol in seen)
    seen.clear()
    monkeypatch.setenv("LOCALCUT_TOL", "0.125")
    run(["threshold", *argv], capsys)
    assert seen and all(tol == 0.125 for tol in seen)


def test_threshold_tol_moves_the_verdict(capsys):
    # the maximum of t - 1 - g(t) at list size 3 is about -0.464
    assert run(["threshold", "sequence", "--L", "3"], capsys)[0] == 1
    code, out, _ = run(["threshold", "sequence", "--L", "3", "--tol", "0.5"],
                       capsys)
    assert code == 0 and json.loads(out)["margin"] < 0.0


def test_threshold_chromatic_and_critical(capsys):
    code, out, _ = run(["threshold", "chromatic", "--delta", "100"], capsys)
    report = json.loads(out)
    assert code == 0 and report["palette"] == 15083

    code, out, _ = run(["threshold", "critical", "--k", "16", "--c", "16",
                        "--tau", "1", "--z", "5"], capsys)
    report = json.loads(out)
    assert code == 0 and report["at_point"]["all_ok"]
    assert report["c_min"] == pytest.approx(math.sqrt(320.0) - 8.0)

    code, out, _ = run(["threshold", "critical", "--k", "16", "--c", "8",
                        "--tau", "1.5", "--z", "5"], capsys)
    assert code == 1 and not json.loads(out)["at_point"]["all_ok"]


@pytest.mark.parametrize("point, missing", [
    (["--c", "3"], "--tau and --z"),
    (["--tau", "1"], "--c and --z"),
    (["--c", "16", "--z", "5"], "--tau"),
])
def test_threshold_critical_rejects_part_of_a_point(point, missing, capsys):
    code, out, err = run(["threshold", "critical", "--k", "12", *point],
                         capsys)
    assert code == 2 and out == "" and err.endswith(f"missing {missing}\n")


# ----------------------------------------------------------------- choice

def test_choice_search_and_negative(tmp_path, capsys):
    inst = {"universes": [["a1", "a2", "a3"], ["b1", "b2"], ["c1", "c2"]],
            "forbidden": [["a1", "b1"], ["a2", "c1"]],
            "p": {e: 1.0 for e in
                  ("a1", "a2", "a3", "b1", "b2", "c1", "c2")}}
    path = write(tmp_path, "choice.json", inst)
    code, out, _ = run(["choice", path, "--seed", "1"], capsys)
    report = json.loads(out)
    assert code == 0 and report["status"] == "found"
    picked = report["choice"]
    assert len(picked) == 3
    assert not {"a1", "b1"} <= set(picked)
    assert not {"a2", "c1"} <= set(picked)

    thin = write(tmp_path, "thin.json",
                 {"universes": [["a1", "a2"]], "forbidden": [],
                  "p": {"a1": 0.3, "a2": 0.3}})
    code, out, _ = run(["choice", thin], capsys)
    assert code == 1 and not json.loads(out)["feasible"]


def test_choice_verdict_is_taken_at_tol(tmp_path, capsys, monkeypatch):
    from localcut import choice

    calls = []
    check = choice.check_expectation_condition

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(choice, "check_expectation_condition", counted)
    # each universe's margin is 0.5 + (0.75 - 1e-10) - 1 - 0.5 * 0.5
    short = 0.75 - 1e-10
    path = write(tmp_path, "near.json",
                 {"universes": [["a0", "a1"], ["b0", "b1"]],
                  "forbidden": [["a0", "b0"]],
                  "p": {"a0": 0.5, "a1": short, "b0": 0.5, "b1": short}})
    code, out, _ = run(["choice", path], capsys)
    report = json.loads(out)
    assert code == 1 and not report["feasible"]
    assert all(-2e-10 < m < -5e-11 for m in report["margins"])
    code, out, _ = run(["choice", path, "--tol", "1e-9"], capsys)
    report = json.loads(out)
    assert code == 0 and report["feasible"] and report["status"] == "found"
    # the search takes the verdict's check instead of making its own
    assert len(calls) == 2


# ----------------------------------------------------------------- sample

def test_sample_nonrep_multiple_runs(capsys):
    code, out, _ = run(["sample", "nonrep-seq", "--n", "20", "--uniform",
                        "4", "--runs", "3", "--seed", "5"], capsys)
    report = json.loads(out)
    assert code == 0 and report["successes"] == 3
    assert [row["seed"] for row in report["rows"]] == [5, 6, 7]


def test_sample_single_run_embeds_the_object(capsys):
    code, out, _ = run(["sample", "nonrep-seq", "--n", "10",
                        "--uniform", "4"], capsys)
    report = json.loads(out)
    assert code == 0 and len(report["result"]) == 10


def test_sample_2col_random_instance(capsys):
    code, out, _ = run(["sample", "2col", "--n", "16", "--k", "8",
                        "--d", "2", "--seed", "0"], capsys)
    assert code == 0 and json.loads(out)["successes"] == 1


def test_sample_acyclic_from_instance_file(tmp_path, capsys):
    k4 = {"vertices": ["a", "b", "c", "d"],
          "edges": [["a", "b"], ["a", "c"], ["a", "d"],
                    ["b", "c"], ["b", "d"], ["c", "d"]]}
    path = write(tmp_path, "k4.json", k4)
    code, out, _ = run(["sample", "acyclic", "--instance", path,
                        "--k", "5", "--seed", "1"], capsys)
    report = json.loads(out)
    assert code == 0 and report["successes"] == 1
    assert len(report["result"]) == 6

    # a four-color palette jams the greedy: schema-level rejection
    code, _, err = run(["sample", "acyclic", "--instance", path,
                        "--k", "4", "--seed", "1"], capsys)
    assert code == 2 and "error" in err


def test_sample_cap_exhaustion_is_indeterminate(capsys):
    code, out, _ = run(["sample", "nonrep-seq", "--n", "6", "--uniform",
                        "2", "--cap", "200"], capsys)
    report = json.loads(out)
    assert code == 3 and report["successes"] == 0


@pytest.mark.parametrize("runs", ["-1", "0"])
def test_sample_rejects_runs_below_one(runs, capsys):
    code, out, err = run(["sample", "nonrep-seq", "--n", "5", "--uniform",
                          "4", "--runs", runs], capsys)
    assert code == 2 and out == "" and "--runs" in err


@pytest.mark.parametrize("flag, env", [(["--jobs", "-2"], None),
                                       (["--jobs", "0"], None),
                                       ([], "0")])
def test_sample_rejects_jobs_below_one(flag, env, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv("LOCALCUT_JOBS", env)
    code, out, err = run(["sample", "2col", "--n", "16", "--k", "8", "--d",
                          "2", "--runs", "2", *flag], capsys)
    assert code == 2 and out == "" and "--jobs" in err


@pytest.mark.parametrize("edges", ["0", "-4"])
def test_sample_rejects_edges_below_one(edges, capsys):
    code, out, err = run(["sample", "acyclic", "--n", "10", "--delta", "3",
                          "--edges", edges], capsys)
    assert code == 2 and out == "" and "--edges" in err


SEEDED_CALLS = [
    ["sample", "2col", "--n", "16", "--k", "8", "--d", "2"],
    ["sample", "nonrep-seq", "--n", "5", "--uniform", "4"],
    ["sample", "acyclic", "--n", "10", "--delta", "3"],
    ["choice", "choice.json"],
    ["validate-model", "hypcol2", "--n", "6", "--k", "3", "--d", "1"],
]


@pytest.mark.parametrize("argv", SEEDED_CALLS, ids=call_id)
@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None),
                                       ([], "-3")], ids=["flag", "env"])
def test_seeded_calls_reject_a_negative_seed(argv, flag, env, tmp_path,
                                             monkeypatch, capsys):
    from localcut import instances

    def not_reached(*args):
        raise AssertionError("instance generated before the seed check")

    # rejected up front: no random instance is generated first
    monkeypatch.setattr(instances, "random_regular_uniform_hypergraph",
                        not_reached)
    monkeypatch.setattr(instances, "random_graph_max_degree", not_reached)
    if env is not None:
        monkeypatch.setenv("LOCALCUT_SEED", env)
    path = write(tmp_path, "choice.json", STARTUP_INPUTS["choice.json"])
    argv = [path if a == "choice.json" else a for a in argv]
    code, out, err = run([*argv, *flag], capsys)
    assert code == 2 and out == "" and "--seed" in err


def test_generators_reject_a_negative_seed():
    # random.Random(-s) seeds like Random(s), so a negative seed would
    # alias the instance of its absolute value
    from localcut import instances

    for seed in (-1, -5):
        with pytest.raises(ValueError, match="seed >= 0"):
            instances.random_graph_max_degree(20, 3, 30, seed)
        with pytest.raises(ValueError, match="seed >= 0"):
            instances.random_regular_uniform_hypergraph(6, 3, 1, seed)
    assert instances.random_graph_max_degree(20, 3, 30, 0).edges
    assert instances.random_regular_uniform_hypergraph(6, 3, 1, 0).edges


def test_internal_fault_exits_4(monkeypatch, capsys):
    from localcut import samplers
    monkeypatch.setattr(samplers, "verify_proper_2coloring",
                        lambda hypergraph, coloring: (False, None))
    code, out, err = run(["sample", "2col", "--n", "16", "--k", "8",
                          "--d", "2", "--seed", "0"], capsys)
    assert code == 4 and out == ""
    assert err.startswith("internal error:")
    assert "verifier rejected a finished coloring" in err


# --------------------------------------------------------- validate-model

def test_validate_model_builders(capsys):
    code, out, _ = run(["validate-model", "nonrep", "--n", "4",
                        "--uniform", "2"], capsys)
    report = json.loads(out)
    assert code == 0 and report["ok"]
    assert report["vertices"] == 4

    code, out, _ = run(["validate-model", "hypcol2", "--n", "6", "--k", "3",
                        "--d", "1", "--seed", "0"], capsys)
    report = json.loads(out)
    assert code == 0 and report["ok"] and report["ground_size"] == 6


@pytest.mark.parametrize("mode", ["exact", "bound"])
def test_validate_model_counts_every_reachable_pair(mode, capsys):
    n = 6
    code, out, _ = run(["validate-model", "nonrep", "--n", str(n),
                        "--uniform", "3", "--risk-mode", mode], capsys)
    report = json.loads(out)
    assert code == 0 and report["ok"]
    assert report["risk_entries"] == sum(i * ((i + 1) // 2)
                                         for i in range(1, n))


@pytest.mark.parametrize("colors", ["0", "1"])
def test_validate_model_rejects_fewer_than_two_colors(colors, capsys):
    # 0 is a given value, not "use the default of 2"
    code, out, err = run(["validate-model", "hypcol2", "--n", "6", "--k",
                          "3", "--d", "1", "--colors", colors], capsys)
    assert code == 2 and out == "" and "at least two colors" in err


@pytest.mark.parametrize("call, n, k, d", [
    ("sample", "4", "0", "1"), ("sample", "0", "2", "1"),
    ("sample", "-4", "2", "1"), ("sample", "4", "2", "-1"),
    ("validate-model", "4", "0", "1"), ("validate-model", "0", "2", "1"),
])
def test_random_hypergraph_rejects_sizes_out_of_range(call, n, k, d, capsys):
    kind = "2col" if call == "sample" else "hypcol2"
    code, out, err = run([call, kind, "--n", n, "--k", k, "--d", d], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: need n >= 1, k >= 1 and d >= 0")


# ------------------------------------------------------------------- peel

def test_peel_cli_both_verdicts(tmp_path, capsys):
    import itertools
    names = [f"u{i}" for i in range(5)]
    dense = {"vertices": names,
             "edges": [list(e) for e in itertools.combinations(names, 3)]}
    path = write(tmp_path, "dense.json", dense)
    code, out, _ = run(["peel", path, "--k", "4", "--c", "3.5",
                        "--z", "2"], capsys)
    report = json.loads(out)
    assert code == 0 and report["status"] == "all-peeled"
    assert report["chain_total"] == pytest.approx(8.75)
    assert report["edge_bound_strict"] is True

    sparse = write(tmp_path, "sparse.json",
                   {"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]})
    code, out, _ = run(["peel", sparse, "--k", "4", "--c", "2",
                        "--z", "2"], capsys)
    assert code == 1 and json.loads(out)["status"] == "stopped"


def test_peel_rejects_settings_it_does_not_read(tmp_path, capsys):
    path = write(tmp_path, "one.json",
                 {"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]})
    code, out, err = run(["peel", path, "--k", "4", "--c", "2", "--z", "2",
                          "--tol", "1"], capsys)
    assert code == 2 and out == "" and "--tol" in err


# --------------------------------------------------------------- settings

# one valid call per subcommand, and the settings each declares besides
# --format and --out
SETTING_CALLS = {
    "check-lcl": (["check-lcl", "lcl.json"], {"tol", "cap"}),
    "check-family": (["check-family", "family.json"], {"tol", "cap"}),
    "check-lll": (["check-lll", "lll.json"], {"tol", "cap"}),
    "threshold": (["threshold", "sequence", "--L", "4"], {"tol"}),
    "choice": (["choice", "choice.json"], {"tol", "seed", "cap"}),
    "sample": (["sample", "nonrep-seq", "--n", "5", "--uniform", "4"],
               {"seed", "cap", "jobs"}),
    "validate-model": (["validate-model", "nonrep", "--n", "4",
                        "--uniform", "2"], {"seed", "cap"}),
    "peel": (["peel", "triangle.json", "--k", "4", "--c", "2", "--z", "2"],
             set()),
}

BAD_SETTINGS = [("tol", "inf"), ("tol", "nan"), ("tol", "-1"),
                ("cap", "-1"), ("seed", "-1"), ("jobs", "0"),
                ("format", "yaml")]

BAD_SETTING_CASES = [(argv, name, value)
                     for argv, declared in SETTING_CALLS.values()
                     for name, value in BAD_SETTINGS
                     if name in declared | {"format"}]


def test_each_subcommand_declares_its_settings():
    from localcut.cli import _build_parser

    for argv, declared in SETTING_CALLS.values():
        settings = _build_parser().parse_args(argv).settings
        assert set(settings) == declared | {"format", "out"}


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("argv, name, value", BAD_SETTING_CASES,
                         ids=[f"{argv[0]}-{name}={value}"
                              for argv, name, value in BAD_SETTING_CASES])
def test_bad_settings_exit_2_before_any_input_is_read(
        argv, name, value, via, tmp_path, monkeypatch, capsys):
    from localcut import cli

    def not_reached(*args):
        raise AssertionError("input read before the settings were checked")

    monkeypatch.setattr(cli, "_load_json", not_reached)
    if via == "env":
        monkeypatch.setenv(f"LOCALCUT_{name.upper()}", value)
        flag = []
    else:
        flag = [f"--{name}", value]
    argv = [str(tmp_path / a) if a in STARTUP_INPUTS else a for a in argv]
    code, out, err = run([*argv, *flag], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: --{name} (or LOCALCUT_{name.upper()})")


@pytest.mark.parametrize("argv, declared", SETTING_CALLS.values(),
                         ids=SETTING_CALLS)
def test_zero_tol_and_cap_are_accepted(argv, declared, tmp_path, capsys):
    for name, payload in STARTUP_INPUTS.items():
        write(tmp_path, name, payload)
    argv = [str(tmp_path / a) if a in STARTUP_INPUTS else a for a in argv]
    zeros = [a for name in sorted(declared & {"tol", "cap"})
             for a in (f"--{name}", "0")]
    # cap 0 stops a solve at once, indeterminate
    assert run([*argv, *zeros], capsys)[0] in (0, 1, 3)


@pytest.mark.parametrize("argv", [["check-lcl", "lcl.json"],
                                  ["check-family", "family.json"],
                                  ["check-lll", "lll.json", "--auto-mu"]],
                         ids=call_id)
def test_tol_zero_solves_end_at_a_float_fixed_point(argv, tmp_path, capsys):
    for name, payload in STARTUP_INPUTS.items():
        write(tmp_path, name, payload)
    argv = [str(tmp_path / a) if a in STARTUP_INPUTS else a for a in argv]
    code, out, _ = run([*argv, "--tol", "0"], capsys)
    report = json.loads(out)
    assert code == 0 and report["feasible"]
    assert all(m == 0 for m in report.get("margins", {}).values())
    if argv[0] == "check-lcl":
        # w = 1 + w / 2 has the float solution 2
        assert report["weights"] == {"x->y": 2.0}


def test_unwritable_out_exits_2_before_any_input_is_read(tmp_path,
                                                         monkeypatch, capsys):
    def not_reached(*args, **kwargs):
        raise AssertionError("enumerated before --out was checked")

    monkeypatch.setattr(engine, "build_nonrep_instance", not_reached)
    missing = str(tmp_path / "missing" / "r.json")
    code, out, err = run(["validate-model", "nonrep", "--n", "8",
                          "--uniform", "3", "--out", missing], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: --out {missing}: no writable directory")
    assert not os.path.exists(os.path.dirname(missing))
    # a bad setting next to a writable --out leaves the file untouched
    kept = tmp_path / "kept.json"
    kept.write_text("old", encoding="utf-8")
    code, _, _ = run(["validate-model", "nonrep", "--n", "8", "--uniform",
                      "3", "--out", str(kept), "--cap", "-1"], capsys)
    assert code == 2 and kept.read_text(encoding="utf-8") == "old"


# ------------------------------------------------------- output plumbing

def test_cli_import_leaves_scipy_unloaded():
    probe = ("import sys, localcut.cli; "
             "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert python_process(["-c", probe]).stdout.strip() == b"False"
    # the package itself resolves its names on first use
    probe = ("import sys, localcut; "
             "print([m for m in sys.modules if m.startswith('localcut.')])")
    assert python_process(["-c", probe]).stdout.strip() == b"[]"


# what start-up leaves out: the process pool, which only `sample --jobs`
# starts, and what dataclass records and exact rationals would load
STARTUP_SPARED = {"concurrent.futures", "dataclasses", "fractions",
                  "multiprocessing"}

# one fresh process per call: run main, then print its exit code, the
# heavy packages, the localcut modules and the spared modules loaded, as
# the last line of stdout
STARTUP_PROBE = f"""
import json, sys
from localcut.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else None
heavy = sorted({{m.split(".")[0] for m in sys.modules}} & {{"numpy", "scipy"}})
ours = sorted(m for m in sys.modules if m.split(".")[0] == "localcut")
spared = sorted(set(sys.modules) & {STARTUP_SPARED!r})
print(json.dumps([code, heavy, ours, spared]))
"""

STARTUP_INPUTS = {
    "lcl.json": SINGLE_ARC,
    "family.json": {"ground": ["a", "b"],
                    "events": [{"element": "a", "p": 0.125,
                                "witness": ["a"]}]},
    "lll.json": {"n": 2, "gamma": [[2], [1]], "p": [0.125, 0.125],
                 "mu": [0.25, 0.25]},
    "triangle.json": {"vertices": ["a", "b", "c"],
                      "edges": [["a", "b", "c"]]},
    "choice.json": {"universes": [["a1", "a2"], ["b1", "b2"]],
                    "forbidden": [["a1", "b1"]],
                    "p": {"a1": 1.0, "a2": 1.0, "b1": 1.0, "b2": 1.0}},
}


NON_DRAWING_CALLS = [
    ["threshold", "sequence", "--L", "4"],
    ["threshold", "hypcol", "--k", "10", "--d", "19"],
    ["check-lcl", "lcl.json"],
    ["check-family", "family.json"],
    ["check-lll", "lll.json"],
    ["check-lll", "lll.json", "--auto-mu"],
    ["peel", "triangle.json", "--k", "4", "--c", "2", "--z", "2"],
    ["validate-model", "nonrep", "--n", "4", "--uniform", "2"],
    ["validate-model", "hypcol2", "--n", "6", "--k", "3", "--d", "1"],
]


def startup_probe(argv, tmp_path):
    """Exit code, heavy packages, localcut modules and spared modules of
    one fresh-process call."""
    for name, payload in STARTUP_INPUTS.items():
        write(tmp_path, name, payload)
    argv = [str(tmp_path / a) if a in STARTUP_INPUTS else a for a in argv]
    out = python_process(["-c", STARTUP_PROBE, *argv]).stdout
    return json.loads(out.splitlines()[-1])


DRAWING_CALLS = [
    ["sample", "nonrep-seq", "--n", "30", "--uniform", "4"],
    ["sample", "acyclic", "--n", "12", "--delta", "3"],
    ["sample", "2col", "--n", "16", "--k", "8", "--d", "2", "--runs", "2",
     "--jobs", "2"],
    ["choice", "choice.json"],
]


# the name predates `rng`: since it reproduces NumPy's seeded stream, no
# subcommand loads numpy, the drawing ones included
@pytest.mark.parametrize("argv", NON_DRAWING_CALLS + DRAWING_CALLS,
                         ids=call_id)
def test_only_drawing_subcommands_load_numpy(argv, tmp_path):
    code, heavy, _, _ = startup_probe(argv, tmp_path)
    assert code in (0, 1) and heavy == []


# each sampler; prints what they drew
DRAWS_PROBE = """
import json
from localcut import instances, samplers
seq, _ = samplers.nonrep_sequence_build(
    instances.ListAssignment.uniform(60, 4), 5)
graph = instances.random_graph_max_degree(14, 3, 21, 2)
edges, _ = samplers.greedy_acyclic_edge_coloring(graph, 8, 2)
hypergraph = instances.random_regular_uniform_hypergraph(16, 8, 2, 1)
colors, _ = samplers.moser_tardos_two_coloring(hypergraph, 1)
print(json.dumps([seq, sorted((sorted(e), c) for e, c in edges.items()),
                  sorted(colors.items())]))
"""


def test_draws_need_no_numpy():
    # with every import of numpy failing, the same draws
    blocked = python_process(
        ["-c", 'import sys; sys.modules["numpy"] = None\n' + DRAWS_PROBE])
    assert blocked.stdout == python_process(["-c", DRAWS_PROBE]).stdout
    seq, edges, colors = json.loads(blocked.stdout)
    assert len(seq) == 60 and edges
    assert len(colors) == 16


@pytest.mark.parametrize("argv", NON_DRAWING_CALLS, ids=call_id)
def test_non_drawing_subcommands_spare_pool_records_and_rationals(
        argv, tmp_path):
    code, _, _, spared = startup_probe(argv, tmp_path)
    assert code in (0, 1) and spared == []


def test_cli_import_spares_pool_records_and_rationals():
    probe = ("import sys, localcut.cli; "
             f"print(sorted(set(sys.modules) & {STARTUP_SPARED!r}))")
    assert python_process(["-c", probe]).stdout.strip() == b"[]"


LOCALCUT_MODULES = {f"localcut.{path.stem}" for path in
                    pathlib.Path(localcut.__file__).parent.glob("*.py")
                    if path.stem != "__init__"}
CUT_ENGINE = {"localcut.engine", "localcut.digraph", "localcut.probability"}

# per call, the localcut modules it must not load: each runs only its own
# code on top of `core`; an empty argv only imports the command line
STARTUP_TABLE = [
    ([], LOCALCUT_MODULES - {"localcut.cli", "localcut.core"}),
    (["threshold", "sequence", "--L", "4"], CUT_ENGINE),
    (["peel", "triangle.json", "--k", "4", "--c", "2", "--z", "2"],
     CUT_ENGINE),
    (["check-lll", "lll.json", "--auto-mu"],
     CUT_ENGINE | {"localcut.families"}),
    (["choice", "choice.json"], CUT_ENGINE | {"localcut.instances"}),
    (["sample", "2col", "--n", "8", "--k", "4", "--d", "1"], CUT_ENGINE),
    (["check-family", "family.json"], {"localcut.engine"}),
    (["validate-model", "hypcol2", "--n", "6", "--k", "3", "--d", "1"],
     {"localcut.engine"}),
]


@pytest.mark.parametrize("argv, unloaded", STARTUP_TABLE,
                         ids=[call_id(argv) or "import"
                              for argv, _ in STARTUP_TABLE])
def test_startup_loads_only_what_the_call_runs(argv, unloaded, tmp_path):
    code, _, ours, _ = startup_probe(argv, tmp_path)
    assert code in (None, 0, 1)
    assert "localcut.core" in ours and set(ours) & unloaded == set()


def test_sample_pool_runs_from_a_fresh_process():
    out = python_process(["-m", "localcut.cli", "sample", "2col", "--n",
                          "16", "--k", "8", "--d", "2", "--runs", "2",
                          "--jobs", "2"]).stdout
    report = json.loads(out)
    assert report["successes"] == 2
    assert [row["seed"] for row in report["rows"]] == [0, 1]


# today's public names; each must be the object its defining module holds
PUBLIC_NAMES = set("""
    ChoiceInstance CutInstance CutModel Edge EnumerationCapError
    FamilyInstance FeasibilityResult FixedPointResult Graph
    Hypergraph IndeterminateError ListAssignment LllInstance
    MarginalWeights MultiDigraph ProductSpace RiskTable
    SamplerReport SeriesCondition SimpleDigraph UsageError
    WeightReport acyclic_feasible
    apply_risk_operator apply_tau_operator auto_mu
    build_nonrep_instance check_expectation_condition
    check_family_condition check_lopsided check_tau_condition
    check_weight_condition cond_prob critical_condition_check
    critical_min_slack digraph_from_json exact_prob
    graph_from_json greedy_acyclic_edge_coloring greedy_peel
    hypercube_digraph hypergraph_coloring_family
    hypergraph_from_json hypergraph_two_coloring_max_degree
    instance_from_json is_acyclic_edge_coloring is_nonrepetitive
    least_tau_solution least_weight_solution lists_from_json
    min_product_weights moser_tardos_two_coloring mu_to_tau
    nonrep_sequence_build nonrepetitive_chromatic_bound
    nonrepetitive_sequence_feasible probability_bounds
    random_graph_max_degree random_regular_uniform_hypergraph
    randomized_choice_search reachable risk_table_exact
    risk_table_from_json scalar_feasible telescoping_check
    underlying_simple validate_cut_model validate_family_instance
    verify_proper_2coloring vertex_probabilities""".split())


def test_package_names_resolve_to_their_modules():
    assert len(PUBLIC_NAMES) == 70
    assert set(localcut.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(localcut, name)
        assert value.__module__.startswith("localcut.")
        assert value is getattr(sys.modules[value.__module__], name)
    star: dict = {}
    exec("from localcut import *", star)
    assert set(star) - {"__builtins__"} == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(localcut))
    with pytest.raises(AttributeError, match="no_such_name"):
        localcut.no_such_name
    assert localcut.__version__ == "0.1.0"


# bad input is a UsageError or an unreadable file; any other error a
# handler raises is a fault, even one json.load raises, since _load_json
# turns the parse errors of an input file into UsageError
HANDLER_ERRORS = [
    ("localcut.core", "UsageError", (), 2),
    ("builtins", "OSError", (), 2),
    ("localcut.engine", "IndeterminateError", (3,), 3),
    ("localcut.probability", "EnumerationCapError", (), 3),
    ("builtins", "ValueError", (), 4),
    ("builtins", "KeyError", (), 4),
    ("builtins", "TypeError", (), 4),
    ("json", "JSONDecodeError", ("{", 1), 4),
    ("builtins", "RuntimeError", (), 4),
]


@pytest.mark.parametrize("module, name, extra, expected", HANDLER_ERRORS,
                         ids=[case[1] for case in HANDLER_ERRORS])
def test_handler_errors_map_to_exit_codes(module, name, extra, expected,
                                          monkeypatch, capsys):
    from localcut import cli
    error = getattr(importlib.import_module(module), name)

    def handler(args):
        raise error("boom", *extra)

    monkeypatch.setattr(cli, "_run_threshold", handler)
    code, out, err = run(["threshold", "sequence", "--L", "4"], capsys)
    prefix = {2: "error:", 3: "indeterminate:", 4: "internal error:"}
    assert code == expected and out == ""
    assert err.startswith(prefix[expected]) and "boom" in err


def test_reports_refuse_records():
    # a NamedTuple record is a tuple, but a handler must name its fields
    from localcut.cli import _canonical
    record = thresholds.FeasibilityResult(True, 1.5, 0.25, 3)
    with pytest.raises(TypeError, match="FeasibilityResult"):
        _canonical({"result": record})
    with pytest.raises(TypeError, match="Edge"):
        _canonical([localcut.Edge("e", "x", "y")])
    assert _canonical({"pair": (1, 2.5)}) == '{"pair":[1,2.5]}'


def per_item_canonical(value):
    """The report form written one item at a time, as `_canonical` did
    before flat lists and dicts went to `json.dumps` in one call."""
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return cli._float_text(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:"
                              f"{per_item_canonical(value[k])}"
                              for k in sorted(value, key=str)) + "}"
    return "[" + ",".join(map(per_item_canonical, value)) + "]"


class Text(str):
    pass


class Count(int):
    pass


AWKWARD = ["caf\u00e9", "\u65e5\u672c", '"q"', "back\\slash",
           "tab\tnl\n\x00\x1f", "\u2028\u2029", "\ud800", "\U0001f600", ""]
EMISSION_CASES = [
    AWKWARD, tuple(AWKWARD), [], (), ["x"],
    [Text("sub"), "plain"], ["a", 1], ["a", 1.5], ["a", True], ["a", None],
    ["a", float("nan")], [["a"], "b"],
    {}, {"b": 1, "a": -2, "c": 10 ** 30}, {"t": True, "f": False, "n": None},
    {"s": "\u2028", "i": 0, "b": True}, {"x": 0.5, "y": 1}, {"x": Count(3)},
    {Text("k"): 1}, {2: "int key", "a": "str key"}, {"k": ["a", "b"]},
    {f"w{i}|w{i + 1}": i % 7 for i in range(50)},
]


@pytest.mark.parametrize("value", EMISSION_CASES,
                         ids=[str(i) for i in range(len(EMISSION_CASES))])
def test_flat_reports_keep_their_bytes(value):
    assert cli._canonical(value) == per_item_canonical(value)


def test_flat_lists_and_dicts_take_one_json_call(monkeypatch):
    calls = []
    dumps = json.dumps

    def counted(*args, **kwargs):
        calls.append(args)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    cli._canonical({"sequence": ["a", "b"] * 50,
                    "coloring": {f"e{i}": i for i in range(50)}})
    assert len(calls) == 4    # two keys, then each value in one call


def test_tracer_hooks_and_read_only_records():
    # perfbench/spans.py wraps these by name, in the class or module
    # __dict__; a rename or a move must fail here, not only in its run
    import concurrent.futures

    from localcut import cli, instances, probability
    assert callable(probability.RiskTable.__dict__["__init__"])
    assert callable(probability.RiskTable.__dict__["validate"])
    assert callable(probability.ProductSpace.__dict__["outcomes"])
    assert isinstance(instances.ListAssignment.__dict__["uniform"],
                      staticmethod)
    assert cli.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    assert cli.__dict__["ProcessPoolExecutor"] is cli.ProcessPoolExecutor
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
    # records are read-only, those with cached properties included
    graph = localcut.MultiDigraph.build(["x", "y"], [("e", "x", "y")])
    risks = localcut.RiskTable({("e", "y"): 0.5})
    inst = localcut.CutInstance.build(graph, risks)
    assert inst.reach["x"] == {"x", "y"}
    for record, field in ((graph.edges[0], "head"), (graph, "edges"),
                          (risks, "entries"), (inst, "graph"),
                          (instances.ListAssignment.uniform(2, 3), "lists"),
                          (thresholds.FeasibilityResult(True, 1.5, 0.25, 3),
                           "margin")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_output_is_byte_stable(capsys):
    argv = ["threshold", "hypcol", "--k", "12", "--variant", "improved"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second
    keys = list(json.loads(first))
    assert keys == sorted(keys)


def test_csv_format_and_header(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", SINGLE_ARC)
    code, out, _ = run(["check-lcl", inst, "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "arc,weight,margin,feasible"
    assert lines[1].startswith("x->y,")


def test_env_format_fallback(tmp_path, capsys, monkeypatch):
    inst = write(tmp_path, "inst.json", SINGLE_ARC)
    monkeypatch.setenv("LOCALCUT_FORMAT", "csv")
    _, out, _ = run(["check-lcl", inst], capsys)
    assert out.startswith("arc,weight,margin,feasible")
    # an explicit flag still wins
    _, out, _ = run(["check-lcl", inst, "--format", "json"], capsys)
    assert out.startswith("{")
    monkeypatch.setenv("LOCALCUT_FORMAT", "yaml")
    assert run(["check-lcl", inst], capsys)[0] == 2


def test_out_flag_writes_file(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", SINGLE_ARC)
    target = tmp_path / "report.json"
    code, out, _ = run(["check-lcl", inst, "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["feasible"]
