"""Command-line frontend.

Subcommands wire JSON instance files to the checkers, solvers, and
samplers, and emit schema-stable reports.  Exit codes separate the five
kinds of outcome so parameter scans can branch on them:

    0  feasible / success (verifier-backed)
    1  infeasible, diverged, or object not found: a valid negative verdict
    2  usage, IO, or schema error
    3  indeterminate: an iteration/enumeration cap was hit, or a
       converged solve's weights fail the check
    4  internal fault: a bug, e.g. a verifier rejected a finished object

Reports are byte-stable for identical inputs: JSON with sorted keys and
floats at 17 significant digits, or CSV with a fixed per-subcommand
header.  Numeric flags fall back to LOCALCUT_* environment variables
before built-in defaults.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from functools import partial
from typing import Mapping, Sequence

# Only the shared core loads with the command line; each handler imports
# what it runs, so a call loads only its own modules.
from .core import (ENUM_CAP, ITER_CAP, TOL, EnumerationCapError,
                   IndeterminateError, UsageError)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL = 4

_ENV_PREFIX = "LOCALCUT_"


def __getattr__(name: str):
    """`ProcessPoolExecutor` loads multiprocessing, so it is imported on
    first use (PEP 562), by `sample --jobs` only, and then kept here,
    where a caller may replace it."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


# ------------------------------------------------------- report emission

def _float_text(value: float) -> str:
    if math.isnan(value):
        return '"nan"'
    if math.isinf(value):
        return '"inf"' if value > 0 else '"-inf"'
    return format(value, ".17g")


def _canonical(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, Mapping):
        parts = [f"{json.dumps(str(k))}:{_canonical(value[k])}"
                 for k in sorted(value, key=str)]
        return "{" + ",".join(parts) + "}"
    # a record (a NamedTuple) has no report form: a handler names its fields
    if isinstance(value, (list, tuple)) and not hasattr(value, "_fields"):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _float_text(value).strip('"')
    return str(value)


def emit_report(report: Mapping, rows: Sequence[Mapping], fmt: str,
                out: str | None) -> None:
    """Write the JSON report or the CSV row table, bit-stable."""
    if fmt == "json":
        text = _canonical(report) + "\n"
    else:
        import csv

        buffer = io.StringIO()
        if rows:
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(list(rows[0].keys()))
            for row in rows:
                writer.writerow([_cell(v) for v in row.values()])
        text = buffer.getvalue()
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# -------------------------------------------------------- config helpers

def _env(name: str, cast, fallback):
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise UsageError(f"bad {_ENV_PREFIX}{name}={raw!r}") from exc


def _setting(args, attr: str, env_name: str, cast, fallback):
    value = getattr(args, attr, None)
    if value is not None:
        return value
    return _env(env_name, cast, fallback)


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _arc_name(arc: tuple[str, str]) -> str:
    return f"{arc[0]}->{arc[1]}"


def _parse_weights(table, known: Mapping[str, object], what: str,
                   noun: str) -> dict:
    """A {name: number} map that names every known name and no other,
    keyed by known[name]; `what` and `noun` word the errors."""
    if not isinstance(table, Mapping):
        raise UsageError(f"need an object with one {what} per {noun}")
    weights = {}
    for name, value in table.items():
        if name not in known:
            raise UsageError(f"{what} for unknown {noun} {name!r}")
        weights[known[name]] = float(value)
    missing = sorted(set(known) - set(table))
    if missing:
        raise UsageError(f"no {what} for {noun} {missing[0]!r}")
    return weights


# ----------------------------------------------------------- subcommands

def _run_check_lcl(args):
    from . import engine
    from .digraph import digraph_from_json
    from .probability import risk_table_from_json

    data = _load_json(args.instance)
    if not isinstance(data, Mapping) or "digraph" not in data:
        raise UsageError('instance needs a "digraph" entry')
    graph = digraph_from_json(data["digraph"])
    risks = risk_table_from_json({"risks": data.get("risks", [])})
    inst = engine.CutInstance.build(graph, risks)
    tol = _setting(args, "tol", "TOL", float, TOL)
    cap = _setting(args, "cap", "CAP", int, ITER_CAP)
    if args.weights:
        obj = _load_json(args.weights)
        weights = _parse_weights(
            obj.get("weights") if isinstance(obj, Mapping) else None,
            {_arc_name(arc): arc for arc in graph.edges_by_arc},
            "weight", "arc")
        mode, iterations, failed = "check", 0, EXIT_NEGATIVE
    else:
        res = engine.least_weight_solution(inst, tol, cap)
        if res.status == "diverged":
            report = {"subcommand": "check-lcl", "mode": "solve",
                      "feasible": False, "status": "diverged",
                      "iterations": res.iterations,
                      "max_entry": res.max_entry}
            return EXIT_NEGATIVE, report, []
        weights, mode, iterations = res.weights, "solve", res.iterations
        failed = EXIT_INDETERMINATE
    rep = engine.check_weight_condition(inst, weights, tol)
    report = {"subcommand": "check-lcl", "mode": mode,
              "feasible": rep.feasible, "iterations": iterations,
              "weights": {_arc_name(a): w for a, w in rep.weights.items()},
              "margins": {_arc_name(a): m for a, m in rep.margins.items()}}
    rows = [{"arc": _arc_name(arc), "weight": rep.weights[arc],
             "margin": rep.margins[arc], "feasible": rep.margins[arc] >= -tol}
            for arc in sorted(rep.weights)]
    return (EXIT_OK if rep.feasible else failed), report, rows


def _family_terms(data) -> tuple[tuple[str, ...], dict]:
    if not isinstance(data, Mapping) or "ground" not in data:
        raise UsageError('instance needs a "ground" entry')
    ground = tuple(sorted(str(i) for i in data["ground"]))
    members = frozenset(ground)
    if len(members) != len(ground) or not ground:
        raise UsageError("ground set must be nonempty without duplicates")
    terms: dict[str, list] = {i: [] for i in ground}
    for idx, entry in enumerate(data.get("events", [])):
        try:
            element = str(entry["element"])
            p = float(entry["p"])
            witness = tuple(sorted(set(map(str, entry["witness"]))))
        except (TypeError, KeyError) as exc:
            raise UsageError(f"malformed event {idx}: {exc}") from exc
        if element not in terms:
            raise UsageError(f"event {idx} names unknown element "
                             f"{element!r}")
        if not members.issuperset(witness) or element not in witness:
            raise UsageError(f"event {idx} witness must contain its "
                             "element and stay inside the ground set")
        if not 0.0 <= p <= 1.0:
            raise UsageError(f"event {idx} has probability {p} outside "
                             "[0, 1]")
        terms[element].append((p, witness))
    return ground, terms


def _run_check_family(args):
    from . import families

    data = _load_json(args.instance)
    ground, terms = _family_terms(data)
    tol = _setting(args, "tol", "TOL", float, TOL)
    cap = _setting(args, "cap", "CAP", int, ITER_CAP)
    if "tau" in data:
        tau = _parse_weights(data["tau"], {i: i for i in ground}, "tau",
                             "element")
        mode, iterations, failed = "check", 0, EXIT_NEGATIVE
    else:
        res = families.least_tau_solution(ground, terms, tol, cap)
        if res.status == "diverged":
            report = {"subcommand": "check-family", "mode": "solve",
                      "feasible": False, "status": "diverged",
                      "iterations": res.iterations}
            return EXIT_NEGATIVE, report, []
        tau, mode, iterations = res.weights, "solve", res.iterations
        failed = EXIT_INDETERMINATE
    rep = families.check_tau_condition(ground, terms, tau, tol)
    bound = 1.0 / families.tau_of_set(tau, ground) if rep.feasible else 0.0
    report = {"subcommand": "check-family", "mode": mode,
              "feasible": rep.feasible, "iterations": iterations,
              "tau": rep.weights, "margins": rep.margins, "bound": bound}
    rows = [{"element": i, "tau": tau[i], "margin": rep.margins[i],
             "events": len(terms[i])} for i in ground]
    return (EXIT_OK if rep.feasible else failed), report, rows


def _run_check_lll(args):
    from . import lll

    inst = lll.instance_from_json(_load_json(args.instance),
                                  levels=not args.auto_mu)
    tol = _setting(args, "tol", "TOL", float, TOL)
    if args.auto_mu:
        cap = _setting(args, "cap", "CAP", int, ITER_CAP)
        res = lll.auto_mu(inst.probs, inst.gamma, tol, cap)
        report = {"subcommand": "check-lll", "mode": "auto-mu",
                  "feasible": False, "iterations": res.iterations,
                  "mu": None}
        if res.status == "diverged":
            return EXIT_NEGATIVE, report, []
        found = lll.LllInstance(inst.n, inst.gamma, inst.probs, res.weights)
        feasible = lll.check_lopsided(found, tol).feasible
        mu = [found.mu[i] for i in range(1, inst.n + 1)]
        report.update(feasible=feasible, mu=mu)
        rows = [{"index": i, "mu": m} for i, m in enumerate(mu, 1)]
        return (EXIT_OK if feasible else EXIT_INDETERMINATE), report, rows
    rep = lll.check_lopsided(inst, tol)
    report = {"subcommand": "check-lll", "mode": "check",
              "feasible": rep.feasible, "bound": rep.bound,
              "margins": {str(i): m for i, m in rep.margins.items()}}
    rows = [{"index": i, "p": inst.probs[i], "mu": inst.mu[i],
             "margin": rep.margins[i]} for i in range(1, inst.n + 1)]
    if rep.feasible:
        translated = lll.mu_to_tau(inst, tol, rep)
        report["tau"] = [translated.tau[i] for i in range(1, inst.n + 1)]
        report["product_identity_error"] = translated.product_identity_error
    return (EXIT_OK if rep.feasible else EXIT_NEGATIVE), report, rows


def _feasibility_payload(result) -> dict:
    return {"feasible": result.feasible, "tau_star": result.tau_star,
            "margin": result.margin, "iterations": result.iterations}


def _run_threshold(args):
    from . import thresholds

    app = args.application
    tol = _setting(args, "tol", "TOL", float, TOL)
    report: dict = {"subcommand": "threshold", "application": app}
    rows: list[dict] = []
    code = EXIT_OK
    if app == "hypcol":
        if args.k is None:
            raise UsageError("hypcol needs --k")
        variant = args.variant or "exact"
        got = thresholds.hypergraph_two_coloring_max_degree(args.k, variant,
                                                            tol)
        report.update({"k": args.k, "variant": variant, "bound": got.bound,
                       "max_d": got.max_d,
                       "condition_feasible": got.condition_feasible})
        rows = [{"k": args.k, "variant": variant, "bound": got.bound,
                 "max_d": got.max_d}]
        if args.d is not None:
            if variant == "lll":
                raise UsageError("the lll variant has no scalar condition "
                                 "to check at --d")
            result = thresholds.scalar_feasible(
                thresholds.two_coloring_condition(args.k, args.d, variant),
                tol)
            report["at_d"] = {"d": args.d, **_feasibility_payload(result)}
            code = EXIT_OK if result.feasible else EXIT_NEGATIVE
    elif app == "sequence":
        if args.list_size is None:
            raise UsageError("sequence needs --L")
        result = thresholds.nonrepetitive_sequence_feasible(args.list_size,
                                                            tol)
        report.update({"list_size": args.list_size,
                       **_feasibility_payload(result)})
        rows = [{"list_size": args.list_size,
                 **_feasibility_payload(result)}]
        code = EXIT_OK if result.feasible else EXIT_NEGATIVE
    elif app == "chromatic":
        if args.delta is None:
            raise UsageError("chromatic needs --delta")
        got = thresholds.nonrepetitive_chromatic_bound(args.delta, tol)
        report.update({"delta": args.delta, "bound": got.closed_form,
                       "palette": got.palette, "y": got.y,
                       "ratio_condition_ok": got.ratio_condition_ok,
                       "condition_feasible": got.condition_feasible})
        rows = [{"delta": args.delta, "bound": got.closed_form,
                 "palette": got.palette}]
    elif app == "acyclic":
        if args.delta is None or args.k is None:
            raise UsageError("acyclic needs --delta and --k")
        got = thresholds.acyclic_feasible(args.delta, args.k, tol)
        report.update({"delta": args.delta, "palette": args.k,
                       "extrapolated": got.extrapolated,
                       **_feasibility_payload(got.result)})
        rows = [{"delta": args.delta, "palette": args.k,
                 "extrapolated": got.extrapolated,
                 **_feasibility_payload(got.result)}]
        code = EXIT_OK if got.result.feasible else EXIT_NEGATIVE
    else:                                        # critical
        if args.k is None:
            raise UsageError("critical needs --k")
        slack = thresholds.critical_min_slack(args.k)
        report.update({"k": args.k, "c_min": slack.c_min,
                       "default_c": slack.default_c,
                       "default_c_ok": slack.default_c_ok})
        rows = [{"k": args.k, "c_min": slack.c_min,
                 "default_c": slack.default_c}]
        if args.c is not None and args.tau is not None \
                and args.z is not None:
            got = thresholds.critical_condition_check(
                args.k, args.c, args.tau, args.z)
            report["at_point"] = {
                "c": args.c, "tau": args.tau, "z": args.z,
                "ratio_ok": got.ratio_ok, "weight_ok": got.weight_ok,
                "canonical_z": got.canonical_z,
                "quadratic_value": got.quadratic_value,
                "quadratic_ok": got.quadratic_ok, "all_ok": got.all_ok}
            code = EXIT_OK if got.all_ok else EXIT_NEGATIVE
    return code, report, rows


def _run_choice(args):
    from .choice import (RESAMPLE_CAP, ChoiceError,
                         check_expectation_condition, choice_from_json,
                         marginals_from_json, randomized_choice_search)

    data = _load_json(args.instance)
    inst = choice_from_json(data)
    if "p" not in data:
        raise ChoiceError('instance needs a "p" weight map')
    weights = marginals_from_json(inst, data["p"])
    tol = _setting(args, "tol", "TOL", float, TOL)
    rep = check_expectation_condition(inst, weights, tol)
    report = {"subcommand": "choice", "feasible": rep.feasible,
              "margins": list(rep.sum_margins),
              "equivalence_gap": rep.equivalence_gap}
    rows = [{"universe": i, "margin": m, "chosen": None}
            for i, m in enumerate(rep.sum_margins)]
    if not rep.feasible:
        return EXIT_NEGATIVE, report, rows
    seed = _setting(args, "seed", "SEED", int, 0)
    cap = _setting(args, "cap", "CAP", int, RESAMPLE_CAP)
    found = randomized_choice_search(inst, weights, seed, cap, rep)
    report.update({"status": found.status, "resamples": found.resamples,
                   "choice": list(found.choice) if found.choice else None})
    if found.status != "found":
        return EXIT_INDETERMINATE, report, rows
    for i, row in enumerate(rows):
        row["chosen"] = found.choice[i]
    return EXIT_OK, report, rows


def _sample_once(draw, payload: tuple, cap: int, seed: int) -> dict:
    _, rep = draw(*payload, seed, cap)
    return {"seed": seed, "success": rep.success, "resamples": rep.steps}


def _run_sample(args):
    # samplers (and numpy) load before the pool forks, so its workers
    # inherit them instead of importing them again
    from . import samplers
    from .instances import (ListAssignment, graph_from_json,
                            hypergraph_from_json, lists_from_json,
                            random_graph_max_degree,
                            random_regular_uniform_hypergraph)

    kind = args.kind
    draw = {"2col": samplers.moser_tardos_two_coloring,
            "nonrep-seq": samplers.nonrep_sequence_build,
            "acyclic": samplers.greedy_acyclic_edge_coloring}[kind]
    seed = _setting(args, "seed", "SEED", int, 0)
    cap = _setting(args, "cap", "CAP", int, samplers.RESAMPLE_CAP)
    jobs = _setting(args, "jobs", "JOBS", int, 1)
    runs = 1 if args.runs is None else args.runs
    if runs < 1:
        raise UsageError(f"--runs must be at least 1, got {runs}")
    if jobs < 1:
        raise UsageError(f"--jobs (or {_ENV_PREFIX}JOBS) must be at least 1, "
                         f"got {jobs}")
    if args.edges is not None and args.edges < 1:
        raise UsageError(f"--edges must be at least 1, got {args.edges}")
    if kind == "2col":
        if args.instance:
            payload = (hypergraph_from_json(_load_json(args.instance)),)
        else:
            if args.n is None or args.k is None or args.d is None:
                raise UsageError("2col needs --instance or --n --k --d")
            payload = (random_regular_uniform_hypergraph(
                args.n, args.k, args.d, seed),)
    elif kind == "nonrep-seq":
        if args.instance:
            payload = (lists_from_json(_load_json(args.instance)),)
        else:
            if args.n is None or args.uniform is None:
                raise UsageError("nonrep-seq needs --instance or "
                                 "--n --uniform")
            payload = (ListAssignment.uniform(args.n, args.uniform),)
    else:
        if args.instance:
            graph = graph_from_json(_load_json(args.instance))
        else:
            if args.n is None or args.delta is None:
                raise UsageError("acyclic needs --instance or --n --delta")
            edges = (args.n * args.delta // 2 if args.edges is None
                     else args.edges)
            graph = random_graph_max_degree(args.n, args.delta, edges, seed)
        palette = args.k if args.k is not None else \
            4 * (graph.max_degree - 1)
        if palette < 1:
            raise UsageError("palette must be nonempty")
        payload = (graph, palette)
    seeds = list(range(seed, seed + runs))
    result = None
    note = ""
    if runs == 1:
        found, rep = draw(*payload, seed, cap)
        if found and kind == "2col":
            result = dict(sorted(found.items()))
        elif found and kind == "nonrep-seq":
            result = list(found)
        elif found:
            result = {"|".join(sorted(e)): c for e, c in found.items()}
        note = rep.note
        rows = [{"seed": seed, "success": rep.success,
                 "resamples": rep.steps}]
    elif jobs > 1:
        worker = partial(_sample_once, draw, payload, cap)
        pool_type = (globals().get("ProcessPoolExecutor")
                     or __getattr__("ProcessPoolExecutor"))
        with pool_type(max_workers=jobs) as pool:
            # one chunk per worker: the payload is pickled once per
            # worker, not once per seed
            rows = list(pool.map(worker, seeds, chunksize=-(-runs // jobs)))
    else:
        rows = [_sample_once(draw, payload, cap, s) for s in seeds]
    successes = sum(1 for row in rows if row["success"])
    report = {"subcommand": "sample", "kind": kind, "runs": runs,
              "successes": successes, "cap": cap,
              "rows": [dict(row) for row in rows]}
    if runs == 1:
        report["result"] = result
        report["note"] = note
    code = EXIT_OK if successes == runs else EXIT_INDETERMINATE
    return code, report, rows


def _run_validate_model(args):
    from .instances import (ListAssignment, hypergraph_from_json,
                            lists_from_json,
                            random_regular_uniform_hypergraph)

    cap = _setting(args, "cap", "CAP", int, ENUM_CAP)
    if args.builder == "nonrep":
        if args.instance:
            lists = lists_from_json(_load_json(args.instance))
        else:
            if args.n is None or args.uniform is None:
                raise UsageError("nonrep needs --instance or --n --uniform")
            lists = ListAssignment.uniform(args.n, args.uniform)
        from . import engine
        from .probability import validate_cut_model

        inst = engine.build_nonrep_instance(
            lists.lists, risk_mode=args.risk_mode, cap=cap)
        checked = inst.model_check
        if checked is None:
            checked = validate_cut_model(inst.space, inst.model, cap=cap)
        report = {"subcommand": "validate-model", "builder": "nonrep",
                  "ok": checked.ok, "reason": checked.reason,
                  "vertices": len(inst.graph.vertices),
                  "edges": len(inst.graph.edges),
                  "risk_entries": sum(len(inst.reach[e.head])
                                      for e in inst.graph.edges)}
        rows = [{"builder": "nonrep", "ok": checked.ok,
                 "reason": checked.reason}]
        return (EXIT_OK if checked.ok else EXIT_NEGATIVE), report, rows
    if args.instance:
        hypergraph = hypergraph_from_json(_load_json(args.instance))
    else:
        if args.n is None or args.k is None or args.d is None:
            raise UsageError("hypcol2 needs --instance or --n --k --d")
        seed = _setting(args, "seed", "SEED", int, 0)
        hypergraph = random_regular_uniform_hypergraph(
            args.n, args.k, args.d, seed)
    from . import families

    colors = 2 if args.colors is None else args.colors
    fam, _ = families.hypergraph_coloring_family(hypergraph, colors)
    checked = families.validate_family_instance(fam, cap=cap)
    report = {"subcommand": "validate-model", "builder": "hypcol2",
              "ok": checked.ok, "reason": checked.reason,
              "ground_size": len(fam.ground)}
    rows = [{"builder": "hypcol2", "ok": checked.ok,
             "reason": checked.reason}]
    return (EXIT_OK if checked.ok else EXIT_NEGATIVE), report, rows


def _run_peel(args):
    from . import thresholds
    from .instances import hypergraph_from_json

    hypergraph = hypergraph_from_json(_load_json(args.instance))
    result = thresholds.greedy_peel(hypergraph, args.k, args.c, args.z)
    floor_total = (args.k - args.c) * result.vertex_count
    report = {"subcommand": "peel", "status": result.status,
              "k": args.k, "c": args.c, "z": args.z,
              "peeled": len(result.order),
              "remaining": len(result.remaining),
              "chain_total": result.chain_total,
              "edge_count": result.edge_count,
              "vertex_count": result.vertex_count,
              "true_hypergraph": result.true_hypergraph}
    if result.status == "all-peeled":
        report["chain_floor"] = floor_total
        report["edge_bound_strict"] = result.edge_count > result.chain_total
    rows = [{"step": i, "vertex": v, "charge": s}
            for i, (v, s) in enumerate(zip(result.order, result.step_sums))]
    code = EXIT_OK if result.status == "all-peeled" else EXIT_NEGATIVE
    return code, report, rows


# --------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localcut",
        description="Checkers, threshold solvers, and samplers for "
                    "cut-based probabilistic feasibility conditions.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *settings, instance=True):
        """--format, --out and the named numeric settings, which are the
        ones the subcommand's handler reads."""
        if instance:
            p.add_argument("instance", help="instance JSON file")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--out", default=None, help="output path")
        for name in settings:
            p.add_argument(f"--{name}", type=float if name == "tol" else int,
                           default=None)

    p = sub.add_parser("check-lcl", help="check or solve arc weights")
    common(p, "tol", "cap")
    p.add_argument("--weights", default=None,
                   help="weights JSON; omit to solve for the least ones")
    p.set_defaults(handler=_run_check_lcl)

    p = sub.add_parser("check-family",
                       help="check or solve per-element weights")
    common(p, "tol", "cap")
    p.set_defaults(handler=_run_check_family)

    p = sub.add_parser("check-lll", help="product-form condition check")
    common(p, "tol", "cap")
    p.add_argument("--auto-mu", action="store_true",
                   help="iterate slack parameters from the probabilities")
    p.set_defaults(handler=_run_check_lll)

    p = sub.add_parser("threshold", help="closed-form application bounds")
    p.add_argument("application",
                   choices=("hypcol", "sequence", "chromatic", "acyclic",
                            "critical"))
    common(p, "tol", instance=False)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--L", dest="list_size", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--variant",
                   choices=("lll", "exact", "crude", "improved"),
                   default=None)
    p.set_defaults(handler=_run_threshold)

    p = sub.add_parser("choice", help="expectation condition + search")
    common(p, "tol", "seed", "cap")
    p.set_defaults(handler=_run_choice)

    p = sub.add_parser("sample", help="randomized constructions")
    p.add_argument("kind", choices=("2col", "nonrep-seq", "acyclic"))
    common(p, "seed", "cap", "jobs", instance=False)
    p.add_argument("--instance", default=None, help="instance JSON file")
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--edges", type=int, default=None)
    p.add_argument("--uniform", type=int, default=None,
                   help="uniform list size for nonrep-seq")
    p.set_defaults(handler=_run_sample)

    p = sub.add_parser("validate-model",
                       help="exhaustively validate a built model")
    p.add_argument("builder", choices=("nonrep", "hypcol2"))
    common(p, "seed", "cap", instance=False)
    p.add_argument("--instance", default=None, help="instance JSON file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--uniform", type=int, default=None)
    p.add_argument("--colors", type=int, default=None)
    p.add_argument("--risk-mode", choices=("exact", "bound"),
                   default="exact")
    p.set_defaults(handler=_run_validate_model)

    p = sub.add_parser("peel", help="greedy vertex peeling certificate")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--z", type=float, required=True)
    p.set_defaults(handler=_run_peel)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else EXIT_USAGE
    try:
        code, report, rows = args.handler(args)
    except (IndeterminateError, EnumerationCapError) as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (ValueError, KeyError, TypeError, OSError) as exc:
        # every localcut usage error, and json.JSONDecodeError, is a
        # ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    fmt = _setting(args, "format", "FORMAT", str, "json")
    if fmt not in ("json", "csv"):
        print(f"error: unknown format {fmt!r}", file=sys.stderr)
        return EXIT_USAGE
    out = _setting(args, "out", "OUT", str, None)
    try:
        emit_report(report, rows, fmt, out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
