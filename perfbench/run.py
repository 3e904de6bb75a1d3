"""localcut benchmark: one workload, end to end or traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 36 --trace 0

With `--trace 0` the workload's invocation list runs as a closed loop with
one client: `python -m localcut.cli ...` subprocesses, one after another,
with the checkout's `src` first on PYTHONPATH and every LOCALCUT_* variable
removed.  The calls repeat round-robin until `--seconds` have passed, and
each time metric is built from per-call medians of CPU time.  With
`--trace 1` the same list runs in this process through
`localcut.cli.main(argv)`, plain and with layer spans (see spans.py), and
the per-layer metrics are printed instead.

Every report is checked (see workloads.py).  The last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; details go
to stderr.  README.md explains the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import Tracer, loglog_slope
from workloads import VARIANTS, WORKLOADS, CheckError

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 150.0          # hard stop for one run, inside the 180 s limit
SETUP_PROBES = 3           # set-up probes per pass
IMPORT_SAMPLES = 3

# Layers that must record calls on the workload meant to load them.
BUSY = {
    "solve": ["cli.parse", "cli.emit", "digraph.reachable",
              "digraph.min_product", "digraph.check_weights",
              "engine.operator", "engine.check", "engine.solve",
              "families.solve", "lll.auto_mu", "thresholds.scalar",
              "thresholds.peel"],
    "enumerate": ["cli.parse", "cli.emit", "probability.sweep",
                  "engine.model", "families.validate"],
    "sample": ["cli.parse", "cli.emit", "samplers.nonrep",
               "samplers.acyclic", "samplers.twocol", "samplers.verify",
               "samplers.pool", "choice.search", "instances.generate"],
}
# Layers predicted to stay idle; calls there are reported, not failed.
IDLE = {
    "solve": ["probability.sweep", "engine.model", "samplers.nonrep"],
    "enumerate": ["digraph.min_product", "samplers.nonrep"],
    "sample": ["digraph.reachable", "digraph.min_product",
               "digraph.check_weights", "probability.sweep",
               "engine.operator"],
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Outcome:
    name: str
    wall: float
    rss_mb: float
    ok: bool
    digest: str
    reason: str = ""
    report: dict | None = None
    cpu: float = 0.0


# --------------------------------------------------------------- checks

class Judge:
    """Failed: timed out, wrong exit code, a traceback, or a wrong report.

    A report's check depends only on its bytes, so the verdict is kept per
    (check, digest) and repeated passes do not re-verify the same bytes.
    """

    def __init__(self) -> None:
        self.verdicts: dict[tuple[int, str], tuple[str, dict | None]] = {}

    def __call__(self, call, code, stdout: bytes, stderr: str,
                 timed_out: bool) -> Outcome:
        digest = hashlib.sha256(stdout).hexdigest()
        report = None
        if timed_out:
            reason = (f"timed out: {call.timeout:.0f} s per call, "
                      f"{RUN_LIMIT_S:.0f} s per run")
        elif "Traceback" in stderr:
            reason = "traceback: " + stderr.strip().splitlines()[-1]
        elif code != call.expect:
            reason = f"exit code {code}, expected {call.expect}"
        elif (id(call.check), digest) in self.verdicts:
            reason, report = self.verdicts[(id(call.check), digest)]
        else:
            reason = ""
            try:
                report = json.loads(stdout)
                call.check(report)
            except (CheckError, ValueError, KeyError, TypeError,
                    AttributeError) as exc:
                reason, report = f"bad report: {exc!r}", None
            self.verdicts[(id(call.check), digest)] = (reason, report)
        return Outcome(call.name, 0.0, 0.0, not reason, digest, reason,
                       report)


# -------------------------------------------------------- end to end

def child_env(src: Path) -> dict:
    """The checkout's src first on PYTHONPATH, no LOCALCUT_* settings, and
    one OpenBLAS thread: localcut does no BLAS work, but numpy and scipy
    each start a BLAS thread pool on import whose CPU time varies from
    process to process."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LOCALCUT_")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + rest if rest else "")
    return env


def spawn(argv: list[str], env: dict, timeout: float, out_path: Path,
          err_path: Path) -> tuple[int, float, float, float, bool]:
    """Run one process to its end through launch.py.  Returns the exit
    code, wall seconds, CPU seconds, peak RSS in MB and whether the
    timeout hit."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), f"{timeout:.3f}",
         str(out_path), str(err_path), "--", *argv],
        env=env, capture_output=True, timeout=timeout + 30.0, check=True)
    got = json.loads(proc.stdout)
    return (got["code"], got["wall"], got["cpu"], got["rss_mb"],
            got["timed_out"])


def setup_probe(env: dict, src: Path, work: Path
                ) -> tuple[float, float, Path]:
    """Wall and CPU seconds of one process that only imports localcut.cli,
    and the file it imported, which must be the checkout's."""
    probe = "import localcut.cli, sys; sys.stdout.write(localcut.cli.__file__)"
    out, err = work / "setup.out", work / "setup.err"
    code, wall, cpu, _, _ = spawn([sys.executable, "-c", probe], env, 60.0,
                                  out, err)
    if code != 0:
        raise RuntimeError("import localcut.cli failed:\n"
                           + err.read_text(errors="replace"))
    found = Path(out.read_text()).resolve()
    if src.resolve() not in found.parents:
        raise RuntimeError(f"imported {found}, not {src}")
    return wall, cpu, found


def largest_calls(wl) -> set[str]:
    """Per input family with two or more sizes, its largest call."""
    best: dict[str, object] = {}
    sizes: dict[str, set] = {}
    for call in wl.calls:
        if call.family is None:
            continue
        sizes.setdefault(call.family, set()).add(call.size)
        if call.family not in best or call.size > best[call.family].size:
            best[call.family] = call
    return {c.name for f, c in best.items() if len(sizes[f]) > 1}


def end_to_end(wl, src: Path, work: Path, seconds: float, start: float
               ) -> tuple[dict, list[Outcome]]:
    """Round-robin over the calls until `seconds` have passed (the first
    pass always completes).  Set-up probes are spread through the passes,
    SETUP_PROBES per pass.  Every time metric is CPU seconds (user + system)
    of the measured process tree built from per-call medians: on a shared
    VM a call's wall time also holds the time the hypervisor ran other
    guests, which CPU time leaves out.  The wall-time figures go to
    stderr.  Reports are checked after the timed loop."""
    env = child_env(src)
    out, err = work / "call.out", work / "call.err"
    deadline = start + RUN_LIMIT_S
    every = -(-len(wl.calls) // SETUP_PROBES)
    setup: list[tuple[float, float]] = []
    runs: list[tuple] = []
    began = perf_counter()
    passes = 0
    while not passes or perf_counter() - began < seconds:
        for i, call in enumerate(wl.calls):
            if passes and perf_counter() - began >= seconds:
                break
            if i % every == 0:
                wall, cpu, found = setup_probe(env, src, work)
                if not setup:
                    log(f"localcut.cli resolves to {found}")
                setup.append((wall, cpu))
            left = deadline - perf_counter()
            if left <= 1.0:
                runs.append((call, None, b"", "", True, 0.0, 0.0, 0.0))
                continue
            code, wall, cpu, rss, timed_out = spawn(
                [sys.executable, "-m", "localcut.cli", *call.argv], env,
                min(call.timeout, left), out, err)
            runs.append((call, code, out.read_bytes(),
                         err.read_text(errors="replace"), timed_out, wall,
                         cpu, rss))
        passes += 1
    judge = Judge()
    outcomes: list[Outcome] = []
    for call, code, stdout, stderr, timed_out, wall, cpu, rss in runs:
        outcome = judge(call, code, stdout, stderr, timed_out)
        outcome.wall, outcome.cpu, outcome.rss_mb = wall, cpu, rss
        outcomes.append(outcome)

    med = statistics.median

    def per_call(field: str) -> dict[str, float]:
        return {c.name: med(getattr(o, field) for o in outcomes
                            if o.name == c.name) for c in wl.calls}

    cpu, wall, rss = per_call("cpu"), per_call("wall"), per_call("rss_mb")
    large = largest_calls(wl)
    failed = sum(not o.ok for o in outcomes)
    metrics = {
        "pass_cpu_s": (sum(cpu.values()), "s"),
        "call_p50_cpu_s": (med(cpu.values()), "s"),
        "large_cpu_s": (sum(cpu[name] for name in large), "s"),
        "setup_s": (med(c for _, c in setup), "s"),
        "peak_rss_mb": (max(rss.values()), "MB"),
        "ok_frac": (1.0 - failed / len(outcomes), "ratio"),
    }
    log(f"{len(outcomes)} timed calls over {passes} passes of "
        f"{len(wl.calls)}; {len(setup)} set-up probes; largest calls: "
        f"{sorted(large)}")
    log(f"  {'call':28s} {'cpu':>8s}   {'wall':>8s}")
    for call in wl.calls:
        mine = [o for o in outcomes if o.name == call.name]
        log(f"  {call.name:28s} {cpu[call.name]:8.3f} s "
            f"{wall[call.name]:8.3f} s {rss[call.name]:7.1f} MB  "
            f"x{len(mine)} "
            + ("ok" if all(o.ok for o in mine) else "FAILED"))
    log(f"  wall time: pass {sum(wall.values()):.3f} s, call p50 "
        f"{med(wall.values()):.3f} s, large "
        f"{sum(wall[name] for name in large):.3f} s, set-up "
        f"{med(w for w, _ in setup):.3f} s")
    return metrics, outcomes


# ------------------------------------------------------------ traced

class _Alarm(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Alarm()


def inprocess_pass(wl, cli, deadline: float, judge: Judge, tracer=None
                   ) -> tuple[list[Outcome], float]:
    """Run every call through cli.main in this process.  With a tracer,
    each call is one `cli.main` span and its report is checked with the
    tracer off."""
    outcomes = []
    total = 0.0
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for call in wl.calls:
            left = deadline - perf_counter()
            if left <= 1.0:
                outcomes.append(judge(call, None, b"", "", True))
                continue
            out, err = io.StringIO(), io.StringIO()
            code, timed_out = None, False
            if tracer is not None:
                tracer.invocation = call.name
                tracer.on = True
                span = tracer.open("cli.main")
            signal.setitimer(signal.ITIMER_REAL, min(call.timeout, left))
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(call.argv)
            except _Alarm:
                timed_out = True
            except Exception:
                err.write(traceback.format_exc())
            finally:
                wall = perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
                if tracer is not None:
                    tracer.close(span)
                    tracer.on = False
            total += wall
            outcome = judge(call, code, out.getvalue().encode(),
                            err.getvalue(), timed_out)
            outcome.wall = wall
            outcomes.append(outcome)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return outcomes, total


def import_times(env: dict, work: Path) -> tuple[float, float]:
    """Cumulative import time of localcut.cli and of scipy.optimize,
    from `python -X importtime`, median over a few processes."""
    out, err = work / "imp.out", work / "imp.err"
    cli_s, scipy_s = [], []
    for _ in range(IMPORT_SAMPLES):
        code, *_ = spawn([sys.executable, "-X", "importtime", "-c",
                          "import localcut.cli"], env, 60.0, out, err)
        if code != 0:
            raise RuntimeError("import localcut.cli failed")
        found = {}
        for line in err.read_text().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name not in found and parts[1].strip().isdigit():
                    found[name] = int(parts[1]) / 1e6
        cli_s.append(found["localcut.cli"])
        scipy_s.append(found.get("scipy.optimize", 0.0))
    return statistics.median(cli_s), statistics.median(scipy_s)


def traced(wl, src: Path, work: Path, start: float, digests: dict
           ) -> tuple[dict, list[Outcome], list[str]]:
    import localcut.cli as cli

    problems: list[str] = []
    deadline = start + RUN_LIMIT_S
    log(f"localcut.cli resolves to {cli.__file__}")
    cli_s, scipy_s = import_times(child_env(src), work)
    # plain, traced, plain, traced: the first pass in a process pays for
    # warming up, so the overhead compares the faster pass of each kind
    judge = Judge()
    every: list[Outcome] = []
    plain_s, traced_s = [], []
    for _ in range(2):
        plain, wall = inprocess_pass(wl, cli, deadline, judge)
        plain_s.append(wall)
        tracer = Tracer()
        tracer.install()
        try:
            outcomes, wall = inprocess_pass(wl, cli, deadline, judge, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(wall)
        for a, b in zip(plain, outcomes):
            if a.digest != b.digest:
                b.ok = False
                b.reason = "report differs between plain and traced runs"
        every += plain + outcomes
    changed = len(differing(wl, outcomes, digests))

    calls, total, own = tracer.totals()
    counts = tracer.counts

    def timed_sizes(key, family=None, exclusive=True):
        """(time, size) per sized span; exclusive leaves out children."""
        child = {idx: 0.0 for idx, _ in tracer.sizes[key]}
        if exclusive:
            for rec in tracer.spans:
                if rec[3] in child:
                    child[rec[3]] += rec[2] - rec[1]
        by_call = {c.name: c.family for c in wl.calls}
        return [(tracer.spans[i][2] - tracer.spans[i][1] - child[i], size)
                for i, size in tracer.sizes[key]
                if family is None or by_call[tracer.spans[i][4]] == family]

    draws = nonrep_draws = nonrep_symbols = 0
    for call, o in zip(wl.calls, outcomes):
        if call.argv[0] == "sample" and o.report is not None:
            steps = sum(row["resamples"] for row in o.report["rows"])
            draws += steps
            if call.argv[1] == "nonrep-seq":
                nonrep_draws += steps
                nonrep_symbols += len(o.report["result"])
    margins = wl.min_margins.values()
    count_unit = "count"
    metrics = {
        "cli.import_s": (cli_s, "s"),
        "cli.import_scipy_s": (scipy_s, "s"),
        "cli.parse_s": (total["cli.parse"], "s"),
        "cli.emit_s": (total["cli.emit"], "s"),
        "cli.reports_changed": (changed, count_unit),
        "digraph.reachable_calls": (calls["digraph.reachable"], count_unit),
        "digraph.reachable_s": (total["digraph.reachable"], "s"),
        "digraph.min_product_calls": (calls["digraph.min_product"],
                                      count_unit),
        "digraph.min_product_s": (total["digraph.min_product"], "s"),
        "digraph.check_weights_calls": (calls["digraph.check_weights"],
                                        count_unit),
        "probability.sweeps": (counts["probability.sweeps"], count_unit),
        "probability.outcomes": (counts["probability.outcomes"], count_unit),
        "probability.sweep_s": (own["probability.sweep"], "s"),
        "probability.risk_entries": (counts["probability.risk_entries"],
                                     count_unit),
        "engine.iterations": (counts["engine.iterations"], count_unit),
        "engine.operator_calls": (calls["engine.operator"], count_unit),
        "engine.operator_s": (total["engine.operator"], "s"),
        "engine.check_s": (total["engine.check"], "s"),
        "engine.solve_exp": (loglog_slope(
            timed_sizes("engine.solve", "check-lcl.L5", exclusive=False)),
            "ratio"),
        "engine.model_calls": (calls["engine.model"], count_unit),
        "engine.model_s": (total["engine.model"], "s"),
        "engine.min_margin": (min(margins) if margins else 0.0, "weight"),
        "families.iterations": (counts["families.iterations"], count_unit),
        "families.solve_s": (total["families.solve"], "s"),
        "families.validate_s": (total["families.validate"], "s"),
        "lll.iterations": (counts["lll.iterations"], count_unit),
        "lll.auto_mu_s": (total["lll.auto_mu"], "s"),
        "thresholds.evaluations": (counts["thresholds.evaluations"],
                                   count_unit),
        "thresholds.scalar_s": (total["thresholds.scalar"], "s"),
        "thresholds.peel_s": (total["thresholds.peel"], "s"),
        "choice.resamples": (counts["choice.resamples"], count_unit),
        "choice.search_s": (total["choice.search"], "s"),
        "samplers.draws": (draws, count_unit),
        "samplers.symbols_per_draw": (
            nonrep_symbols / nonrep_draws if nonrep_draws else 0.0, "ratio"),
        "samplers.nonrep_s": (own["samplers.nonrep"], "s"),
        "samplers.acyclic_s": (own["samplers.acyclic"], "s"),
        "samplers.twocol_s": (own["samplers.twocol"], "s"),
        "samplers.verify_s": (total["samplers.verify"], "s"),
        "samplers.pool_s": (total["samplers.pool"], "s"),
        "samplers.nonrep_exp": (loglog_slope(timed_sizes("samplers.nonrep")),
                                "ratio"),
        "samplers.acyclic_exp": (loglog_slope(timed_sizes("samplers.acyclic")),
                                 "ratio"),
        "instances.generate_s": (total["instances.generate"], "s"),
        "trace.overhead_frac": (min(traced_s) / min(plain_s) - 1.0, "ratio"),
    }
    for name in BUSY[wl.name]:
        if calls[name] == 0:
            problems.append(f"layer {name} recorded no calls on {wl.name}")
    for name in IDLE[wl.name]:
        if calls[name]:
            log(f"note: {name} was predicted idle on {wl.name} but recorded "
                f"{calls[name]} calls")
    log(f"in-process passes {plain_s} s plain, {traced_s} s traced, "
        f"{len(tracer.spans)} spans; {changed} of {len(outcomes)} reports "
        f"differ from the recorded digests")
    trace_dir = HERE / "_work" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_dir / f"{wl.name}.jsonl")
    return metrics, every, problems


# --------------------------------------------------------------- main

def differing(wl, outcomes: list[Outcome], digests: dict) -> set[str]:
    """Calls whose report differs from the digest recorded for them."""
    recorded = digests.get(wl.name, {}).get(str(wl.variant), {})
    return {o.name for o in outcomes if o.digest != recorded.get(o.name)}


def prepare(root: Path) -> Path | None:
    """Point imports at the checkout's src and drop the LOCALCUT_*
    settings that cli reads.  None without sources."""
    src = root / "src"
    if not (src / "localcut" / "cli.py").is_file():
        return None
    for key in [k for k in os.environ if k.startswith("LOCALCUT_")]:
        del os.environ[key]
    sys.path.insert(0, str(src))
    return src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "enumerate", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = perf_counter()

    root = Path.cwd()
    src = prepare(root)
    if src is None:
        log(f"error: no localcut sources under {root / 'src'}; run from "
            "the root of a localcut checkout")
        return 2

    digests = json.loads((HERE / "digests.json").read_text())
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed % VARIANTS,
                                     Path(os.path.relpath(work, root)))
        if args.trace:
            metrics, outcomes, problems = traced(wl, src, work, start,
                                                 digests)
        else:
            metrics, outcomes = end_to_end(wl, src, work, args.seconds,
                                           start)
            log(f"{len(differing(wl, outcomes, digests))} of "
                f"{len(wl.calls)} reports differ from the recorded digests")
            problems = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for o in outcomes:
        if not o.ok:
            problems.append(f"{o.name}: {o.reason}")
    for line in problems:
        log(f"FAILED {line}")
    failed = sum(not o.ok for o in outcomes)
    for name, (value, unit) in metrics.items():
        log(f"  {name:30s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
