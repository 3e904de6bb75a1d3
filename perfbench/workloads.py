"""Seeded inputs and the fixed invocation list of each workload.

A workload is a list of `Call`s, each one `localcut` command line with the
exit code it must end with, a timeout and an output check.  Every input
file is written before any timing starts; the program only ever sees the
generated files and flags.  The benchmark seed picks one of `VARIANTS`
input sets (seed modulo VARIANTS), so that every report has a digest
recorded in `digests.json`.

Checks import the checkout's `localcut` in the benchmark process and
re-verify each report with the library's own checkers, never trusting a
`success` or `feasible` flag alone.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

VARIANTS = 32
TOL = 1e-12


class CheckError(Exception):
    """A report that is wrong, not just different."""


@dataclass
class Call:
    name: str                       # unique within the workload
    argv: list[str]                 # arguments after `python -m localcut.cli`
    expect: int                     # exit code the call must end with
    check: Callable[[dict], None]   # raises CheckError on a wrong report
    family: str | None = None       # input family with several sizes
    size: int | None = None         # the stated size within that family
    timeout: float = 60.0


@dataclass
class Workload:
    name: str
    variant: int
    calls: list[Call]
    min_margins: dict[str, float] = field(default_factory=dict)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _labels(rng: random.Random, count: int, prefix: str) -> list[str]:
    """Distinct random labels, so each variant renames every id."""
    picked = rng.sample(range(10 * count + 100), count)
    return [f"{prefix}{k}" for k in picked]


# ------------------------------------------------------------------ solve

def nonrep_bound_instance(n: int, list_size: int,
                          rng: random.Random) -> dict:
    """The repetition-free-sequence cut instance with product-bound risks.

    Same digraph and risk table as
    `engine.build_nonrep_instance(..., risk_mode="bound")` (path
    v_n -> ... -> v_1, one edge per block pair, bound list_size**-t at the
    witness vertex and 1.0 elsewhere), with renamed ids and a shuffled
    edge order.  Only the entries below 1 are listed;
    the parser fills in the rest.
    """
    names = _labels(rng, n, "v")
    edges, risks = [], []
    ids = iter(_labels(rng, n * n, "e"))
    for i in range(1, n):                 # arc v_{i+1} -> v_i
        end = i + 1
        for t in range(1, end // 2 + 1):
            s = end - 2 * t + 1
            eid = next(ids)
            edges.append({"id": eid, "tail": names[i], "head": names[i - 1]})
            risks.append({"edge": eid, "z": names[s + t - 2],
                          "p": float(list_size) ** -t})
    rng.shuffle(edges)
    rng.shuffle(risks)
    return {"digraph": {"vertices": rng.sample(names, n), "edges": edges},
            "risks": risks}


def family_instance(m: int, rng: random.Random) -> dict:
    """Per-element events with small probabilities and 3-element
    witnesses; feasible with room to spare (tau about 1.2)."""
    ground = _labels(rng, m, "g")
    events = []
    for elem in ground:
        for _ in range(3):
            others = _sample_others(rng, ground, elem, 2)
            events.append({"element": elem, "p": rng.uniform(0.01, 0.04),
                           "witness": [elem, *others]})
    rng.shuffle(events)
    return {"ground": ground, "events": events}


def _sample_others(rng: random.Random, pool: list[str], skip: str,
                   count: int) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        pick = pool[rng.randrange(len(pool))]
        if pick != skip and pick not in out:
            out.append(pick)
    return out


def lll_instance(n: int, degree: int, rng: random.Random) -> dict:
    """Symmetric dependency graph of degree <= `degree`, probabilities at
    most 1/(e (degree + 1)), so the slack iteration converges."""
    gamma: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for _ in range(degree // 2):
            j = rng.randrange(n)
            if j != i and len(gamma[i]) < degree and len(gamma[j]) < degree:
                gamma[i].add(j)
                gamma[j].add(i)
    top = 1.0 / (math.e * (degree + 1))
    p = [rng.uniform(0.5, 1.0) * top for _ in range(n)]
    return {"n": n, "gamma": [sorted(j + 1 for j in row) for row in gamma],
            "p": p, "mu": p}


def regular_hypergraph(n: int, k: int, d: int, rng: random.Random,
                       prefix: str) -> dict:
    """d random partitions of n vertices into k-sets (k divides n)."""
    vertices = _labels(rng, n, prefix)
    edges = []
    for _ in range(d):
        order = vertices[:]
        rng.shuffle(order)
        edges.extend(order[s:s + k] for s in range(0, n, k))
    return {"vertices": vertices, "edges": edges}


def _check_solved_weights(instance: dict, report: dict, margins: dict,
                          key: str) -> None:
    """Re-check reported weights with `check_weight_condition`."""
    from localcut import engine
    from localcut.digraph import digraph_from_json
    from localcut.probability import risk_table_from_json
    graph = digraph_from_json(instance["digraph"])
    inst = engine.CutInstance.build(
        graph, risk_table_from_json({"risks": instance["risks"]}, graph))
    by_name = {f"{t}->{h}": (t, h) for t, h in graph.edges_by_arc}
    _require(set(report["weights"]) == set(by_name),
             "weights do not cover exactly the arcs")
    weights = {by_name[a]: float(w) for a, w in report["weights"].items()}
    rep = engine.check_weight_condition(inst, weights, TOL)
    _require(rep.feasible, "reported weights fail the weight condition")
    margins[key] = min(rep.margins.values())


def solve_workload(variant: int, work: Path) -> Workload:
    rng = random.Random(f"solve-{variant}")
    wl = Workload("solve", variant, [])
    calls = wl.calls
    big = None
    for list_size, n in ((5, 20), (5, 40), (5, 80), (4, 20), (4, 40)):
        inst = nonrep_bound_instance(n, list_size, rng)
        edges = len(inst["digraph"]["edges"])
        path = _write(work / f"lcl-L{list_size}-n{n}.json", inst)
        key = f"check-lcl.L{list_size}.E{edges}"

        def check(report, inst=inst, key=key):
            _require(report["mode"] == "solve" and report["feasible"],
                     "solve did not report feasible weights")
            _check_solved_weights(inst, report, wl.min_margins, key)

        calls.append(Call(key, ["check-lcl", path], 0, check,
                          family=f"check-lcl.L{list_size}", size=edges))
        if n == 80:
            big = (inst, path, edges)
    inst, path, edges = big
    weights_path = _write(work / "lcl-weights.json",
                          {"weights": _solve_weights(inst)})

    def check_given(report):
        _require(report["mode"] == "check" and report["feasible"],
                 "supplied least weights were not accepted")
        _require(min(report["margins"].values()) >= -TOL,
                 "a margin is below -tol")

    calls.append(Call(f"check-lcl.weights.E{edges}",
                      ["check-lcl", path, "--weights", weights_path], 0,
                      check_given))
    for m in (500, 2000):
        data = family_instance(m, rng)
        path = _write(work / f"family-{m}.json", data)
        calls.append(Call(f"check-family.m{m}", ["check-family", path], 0,
                          lambda r, data=data: _check_family(data, r),
                          family="check-family", size=m))
    for n in (1000, 4000):
        data = lll_instance(n, 8, rng)
        path = _write(work / f"lll-{n}.json", data)
        calls.append(Call(f"check-lll.n{n}",
                          ["check-lll", path, "--auto-mu"], 0,
                          lambda r, data=data: _check_lll(data, r),
                          family="check-lll", size=n))
    calls.extend(_threshold_calls(rng))
    peel = regular_hypergraph(300, 3, 12, rng, "h")
    path = _write(work / "peel.json", peel)
    calls.append(Call("peel.V300",
                      ["peel", path, "--k", "4", "--c", "3", "--z", "2"], 0,
                      lambda r: _check_peel(peel, r)))
    return wl


def _solve_weights(instance: dict) -> dict[str, float]:
    """Least weights of an instance, solved once during set-up."""
    from localcut import engine
    from localcut.digraph import digraph_from_json
    from localcut.probability import risk_table_from_json
    graph = digraph_from_json(instance["digraph"])
    inst = engine.CutInstance.build(
        graph, risk_table_from_json({"risks": instance["risks"]}, graph))
    res = engine.least_weight_solution(inst)
    return {f"{t}->{h}": w for (t, h), w in res.weights.items()}


def _check_family(data: dict, report: dict) -> None:
    _require(report["mode"] == "solve" and report["feasible"],
             "family solve did not report feasible weights")
    tau = report["tau"]
    _require(set(tau) == set(data["ground"]), "tau does not cover the ground")
    load = {g: [] for g in data["ground"]}
    for ev in data["events"]:
        load[ev["element"]].append(
            ev["p"] * math.prod(tau[w] for w in ev["witness"]))
    worst = min(tau[g] - 1.0 - math.fsum(terms) for g, terms in load.items())
    _require(worst >= -1e-9, f"family weights fail by {worst}")


def _check_lll(data: dict, report: dict) -> None:
    _require(report["feasible"], "auto-mu did not converge")
    mu = report["mu"]
    _require(len(mu) == data["n"], "wrong number of slack levels")
    for i, row in enumerate(data["gamma"]):
        keep = math.prod(1.0 - mu[j - 1] for j in row)
        _require(data["p"][i] <= mu[i] * keep + 1e-9,
                 f"lopsided condition fails at event {i + 1}")


def _threshold_calls(rng: random.Random) -> list[Call]:
    k = rng.choice((8, 9, 10, 11, 12))
    size = rng.choice(("4", "4.5", "5", "6"))
    chrom = rng.choice((3, 4, 5, 6))
    delta = rng.choice((4, 5, 6))
    crit = rng.choice((12, 16))

    def hypcol(r):
        _require(r["condition_feasible"] and r["bound"] > 1.0
                 and r["max_d"] == math.floor(r["bound"]), "bad hypcol bound")

    def feasible(r):
        _require(r["feasible"] and r["margin"] >= -TOL
                 and r["tau_star"] >= 1.0, "scalar condition not met")

    def chromatic(r):
        _require(r["condition_feasible"]
                 and r["palette"] == math.ceil(r["bound"]),
                 "bad chromatic bound")

    def critical(r):
        _require(r["at_point"]["all_ok"] and r["default_c_ok"],
                 "critical point check failed")

    return [
        Call("threshold.hypcol", ["threshold", "hypcol", "--k", str(k),
                                  "--variant", "improved"], 0, hypcol),
        Call("threshold.sequence", ["threshold", "sequence", "--L", size], 0,
             feasible),
        Call("threshold.chromatic", ["threshold", "chromatic", "--delta",
                                     str(chrom)], 0, chromatic),
        Call("threshold.acyclic", ["threshold", "acyclic", "--delta",
                                   str(delta), "--k", str(4 * (delta - 1))],
             0, feasible),
        Call("threshold.critical", ["threshold", "critical", "--k", str(crit),
                                    "--c", str(crit), "--tau", "1",
                                    "--z", "5"], 0, critical),
    ]


def _check_peel(hypergraph: dict, report: dict) -> None:
    _require(report["status"] == "all-peeled"
             and report["peeled"] == len(hypergraph["vertices"])
             and report["remaining"] == 0, "peel stopped early")
    _require(report["edge_count"] == len(hypergraph["edges"])
             and report["edge_bound_strict"]
             == (report["edge_count"] > report["chain_total"]),
             "inconsistent peel certificate")


# -------------------------------------------------------------- enumerate

def enumerate_workload(variant: int, work: Path) -> Workload:
    rng = random.Random(f"enumerate-{variant}")
    wl = Workload("enumerate", variant, [])
    alphabet = [f"s{k}" for k in rng.sample(range(100), 5)]
    for n, mode in ((7, "exact"), (8, "exact"), (9, "exact"), (9, "bound")):
        lists = [rng.sample(alphabet, 3) for _ in range(n)]
        path = _write(work / f"lists-{n}-{mode}.json", {"lists": lists})
        edges = sum((i + 1) // 2 for i in range(1, n))
        entries = sum(i * ((i + 1) // 2) for i in range(1, n))

        def check(r, n=n, edges=edges, entries=entries):
            _require(r["ok"] and r["reason"] == "ok", "model check failed")
            _require(r["vertices"] == n and r["edges"] == edges
                     and r["risk_entries"] == entries, "wrong instance shape")

        wl.calls.append(Call(
            f"validate-nonrep.{mode}.n{n}",
            ["validate-model", "nonrep", "--instance", path,
             "--risk-mode", mode], 0, check,
            family=f"validate-nonrep.{mode}", size=n))
    for n in (6, 9):
        data = regular_hypergraph(n, 3, 2, rng, "c")
        path = _write(work / f"hypcol2-{n}.json", data)

        def check(r, n=n):
            _require(r["ok"] and r["ground_size"] == n, "family check failed")

        wl.calls.append(Call(f"validate-hypcol2.n{n}",
                             ["validate-model", "hypcol2", "--instance",
                              path], 0, check,
                             family="validate-hypcol2", size=n))
    return wl


# ----------------------------------------------------------------- sample

def sample_workload(variant: int, work: Path) -> Workload:
    rng = random.Random(f"sample-{variant}")
    wl = Workload("sample", variant, [])
    seed = str(variant)
    for n in (2500, 5000, 10000):
        wl.calls.append(Call(
            f"sample-nonrep.n{n}",
            ["sample", "nonrep-seq", "--uniform", "4", "--n", str(n),
             "--seed", seed], 0,
            lambda r, n=n: _check_nonrep(n, r),
            family="sample-nonrep", size=n))
    for n in (100, 200, 400):
        wl.calls.append(Call(
            f"sample-acyclic.n{n}",
            ["sample", "acyclic", "--delta", "6", "--n", str(n),
             "--seed", seed], 0,
            lambda r, n=n: _check_acyclic(n, 6, variant, r),
            family="sample-acyclic", size=n))
    twocol = ["sample", "2col", "--n", "2400", "--k", "8", "--d", "8",
              "--runs", "8", "--seed", seed]

    def check_twocol(report):     # one object: both paths share verdicts
        _check_twocol(2400, 8, 8, variant, report)

    wl.calls.append(Call("sample-2col.serial", twocol, 0, check_twocol))
    wl.calls.append(Call("sample-2col.jobs2", twocol + ["--jobs", "2"], 0,
                         check_twocol))
    data = list_coloring_instance(600, 4, 8, 64, rng)
    path = _write(work / "choice.json", data)
    wl.calls.append(Call("choice.n600", ["choice", path, "--seed", seed], 0,
                         lambda r: _check_choice(data, r)))
    return wl


def list_coloring_instance(n: int, degree: int, list_size: int,
                           palette: int, rng: random.Random) -> dict:
    """Proper list coloring as a choice instance, with one uniform
    marginal q chosen so that every universe meets the expectation
    condition: list_size * q >= 1 + (forbidden pairs) * q**2."""
    vertices = _labels(rng, n, "w")
    deg = dict.fromkeys(vertices, 0)
    edges = set()
    for _ in range(n * degree):
        a, b = rng.sample(vertices, 2)
        if deg[a] < degree and deg[b] < degree and (b, a) not in edges:
            edges.add((a, b))
            deg[a] += 1
            deg[b] += 1
    lists = {v: rng.sample(range(palette), list_size) for v in vertices}
    forbidden = [[f"{a}:{c}", f"{b}:{c}"] for a, b in sorted(edges)
                 for c in lists[a] if c in lists[b]]
    through = dict.fromkeys(vertices, 0)
    for pair in forbidden:
        for x in pair:
            through[x.split(":")[0]] += 1
    worst = max(through.values())
    q = min(1.0, list_size / (2.0 * max(worst, 1)))
    universes = [[f"{v}:{c}" for c in lists[v]] for v in vertices]
    return {"universes": universes, "forbidden": forbidden,
            "p": {x: q for u in universes for x in u}}


def _check_nonrep(n: int, report: dict) -> None:
    from localcut.samplers import is_nonrepetitive
    seq = report["result"]
    _require(isinstance(seq, list) and len(seq) == n,
             "sequence missing or of the wrong length")
    _require(set(seq) <= {"0", "1", "2", "3"}, "symbol outside its list")
    _require(is_nonrepetitive(seq).ok, "sequence has a repeated block")


def _check_acyclic(n: int, delta: int, seed: int, report: dict) -> None:
    from localcut.instances import random_graph_max_degree
    from localcut.samplers import is_acyclic_edge_coloring
    graph = random_graph_max_degree(n, delta, n * delta // 2, seed)
    result = report["result"]
    _require(isinstance(result, dict), "no edge coloring reported")
    coloring = {frozenset(k.split("|")): c for k, c in result.items()}
    _require(set(coloring) == set(graph.edges), "coloring misses edges")
    _require(all(0 <= c < 4 * (graph.max_degree - 1)
                 for c in coloring.values()), "color outside the palette")
    _require(is_acyclic_edge_coloring(graph, coloring).ok,
             "edge coloring is not acyclic")


def _check_twocol(n: int, k: int, d: int, seed: int, report: dict) -> None:
    """Rows carry no colorings, so each run is replayed here and the
    replayed coloring goes to the verifier; the replay must take exactly
    the reported number of resamples."""
    from localcut.instances import random_regular_uniform_hypergraph
    from localcut.samplers import (moser_tardos_two_coloring,
                                   verify_proper_2coloring)
    hypergraph = random_regular_uniform_hypergraph(n, k, d, seed)
    rows = report["rows"]
    _require([row["seed"] for row in rows] == list(range(seed, seed + 8)),
             "wrong seeds in the rows")
    for row in rows:
        coloring, rep = moser_tardos_two_coloring(hypergraph, row["seed"])
        _require(coloring is not None
                 and verify_proper_2coloring(hypergraph, coloring)[0],
                 "replayed coloring fails the verifier")
        _require(row["success"] and row["resamples"] == rep.steps,
                 "reported run differs from its replay")


def _check_choice(data: dict, report: dict) -> None:
    from localcut.choice import avoids_all, choice_from_json
    _require(report["feasible"] and report["status"] == "found",
             "no choice found")
    inst = choice_from_json(data)
    _require(avoids_all(inst, report["choice"]),
             "choice contains a forbidden pair")


WORKLOADS = {"solve": solve_workload, "enumerate": enumerate_workload,
            "sample": sample_workload}
