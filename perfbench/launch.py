"""Run one command; print its exit code, wall time, CPU time and peak RSS
as JSON.  CPU time is user plus system time of the command and of the
children it waited for.

    python3 perfbench/launch.py TIMEOUT OUT ERR -- COMMAND...

Linux carries the peak RSS of the process that calls exec into the new
program's ru_maxrss.  The benchmark process holds localcut, numpy and
scipy, so it starts every measured command through this small launcher,
whose own footprint stays below that of any localcut run.

The command runs in its own process group with stdout and stderr sent to
the files OUT and ERR; after TIMEOUT seconds the whole group is killed.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from time import perf_counter


def main() -> int:
    if len(sys.argv) < 6 or sys.argv[4] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    timeout, out_path, err_path, _, *argv = sys.argv[1:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                process_group=0)
        fired = threading.Event()

        def kill():
            fired.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(float(timeout), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:                 # pool workers of a killed or crashed command
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    print(json.dumps({"code": proc.returncode, "wall": wall,
                      "cpu": usage.ru_utime + usage.ru_stime,
                      "rss_mb": usage.ru_maxrss / 1024.0,
                      "timed_out": fired.is_set()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
