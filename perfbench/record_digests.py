"""Record the SHA-256 of every report, for every input variant.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Run from the root of a checkout.  Each variant's calls run in this process
through `localcut.cli.main`, every report is checked as in a benchmark run,
and `perfbench/digests.json` gets one digest per (workload, variant, call).
Benchmark runs compare against this file and count the reports that
differ as `cli.reports_changed`; a difference is not a failure.
"""

import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

from run import HERE, Judge, inprocess_pass, prepare
from workloads import VARIANTS, WORKLOADS


def main(names: list[str]) -> int:
    root = Path.cwd()
    if prepare(root) is None:
        print("error: run from the root of a localcut checkout",
              file=sys.stderr)
        return 2
    import localcut.cli as cli

    path = HERE / "digests.json"
    digests = json.loads(path.read_text())
    work = HERE / "_work" / f"record-{os.getpid()}"
    bad = 0
    try:
        for name in names or list(WORKLOADS):
            table = {}
            for variant in range(VARIANTS):
                work.mkdir(parents=True, exist_ok=True)
                wl = WORKLOADS[name](variant,
                                    Path(os.path.relpath(work, root)))
                outcomes, wall = inprocess_pass(
                    wl, cli, perf_counter() + 600.0, Judge())
                for o in outcomes:
                    if not o.ok:
                        bad += 1
                        print(f"{name} variant {variant}: {o.name} failed: "
                              f"{o.reason}", file=sys.stderr)
                table[str(variant)] = {o.name: o.digest for o in outcomes}
                print(f"{name} variant {variant}: {wall:.2f} s",
                      file=sys.stderr, flush=True)
                shutil.rmtree(work)
            digests[name] = table
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        print(f"{bad} calls failed; digests.json left unchanged",
              file=sys.stderr)
        return 1
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
