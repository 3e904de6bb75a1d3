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
from localcut import engine, thresholds
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


@pytest.mark.parametrize("argv", NON_DRAWING_CALLS, ids=call_id)
def test_only_drawing_subcommands_load_numpy(argv, tmp_path):
    code, heavy, _, _ = startup_probe(argv, tmp_path)
    assert code in (0, 1) and heavy == []


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
    (["choice", "choice.json"], CUT_ENGINE),
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
    BudgetExceededError ChoiceError ChoiceInstance CutInstance CutModel
    DigraphError Edge EnumerationCapError FamilyInstance FeasibilityResult
    FixedPointResult Graph Hypergraph IndeterminateError InstanceError
    ListAssignment LllError LllInstance MarginalWeights McEstimate
    MultiDigraph NotOutClosedError PaletteTooSmallError ProductSpace
    RiskTable SamplerError SamplerReport SeriesCondition SimpleDigraph
    SpaceError WeightReport acyclic_feasible apply_risk_operator
    apply_tau_operator auto_mu boundary build_nonrep_instance
    check_expectation_condition check_family_condition check_lopsided
    check_tau_condition check_weight_condition cond_prob
    critical_condition_check critical_min_slack critical_vertex_condition
    defect digraph_from_json digraph_to_json estimate_cond_prob exact_prob
    extract_choice family_of graph_from_json greedy_acyclic_edge_coloring
    greedy_peel hypercube_digraph hypergraph_coloring_family
    hypergraph_from_json hypergraph_two_coloring_max_degree
    instance_from_json is_a_cut is_acyclic_edge_coloring is_nonrepetitive
    is_nonrepetitive_coloring is_out_closed least_tau_solution
    least_weight_solution lists_from_json min_product_weight
    min_product_weights moser_tardos_two_coloring mu_to_tau
    multichoice_certificate nonrep_sequence_build
    nonrepetitive_chromatic_bound nonrepetitive_sequence_feasible
    probability_bounds random_graph_max_degree
    random_regular_uniform_hypergraph randomized_choice_search reachable
    risk_of_edge risk_table_exact risk_table_from_json scalar_feasible
    space_from_json telescoping_check underlying_simple validate_cut_model
    validate_family_instance verify_proper_2coloring vertex_probabilities
    witness_bound""".split())


def test_package_names_resolve_to_their_modules():
    assert len(PUBLIC_NAMES) == 94
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


HANDLER_ERRORS = [
    ("localcut.digraph", "DigraphError", (), 2),
    ("localcut.digraph", "NotOutClosedError", (), 2),
    ("localcut.probability", "SpaceError", (), 2),
    ("localcut.instances", "InstanceError", (), 2),
    ("localcut.lll", "LllError", (), 2),
    ("localcut.choice", "ChoiceError", (), 2),
    ("localcut.samplers", "SamplerError", (), 2),
    ("localcut.samplers", "PaletteTooSmallError", (), 2),
    ("json", "JSONDecodeError", ("{", 1), 2),
    ("localcut.core", "UsageError", (), 2),
    ("localcut.engine", "IndeterminateError", (3,), 3),
    ("localcut.probability", "EnumerationCapError", (), 3),
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
