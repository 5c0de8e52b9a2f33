"""Small long-lived process that starts each job and reports its rusage.

    python3 bench/spawner.py        (driven by run.py over stdin/stdout)

Linux folds the parent's peak RSS into a child's ``ru_maxrss`` when the
child calls exec, so jobs started straight from the benchmark (which
holds the inputs and the checks) would all report at least the
benchmark's own size.  This process starts before the benchmark grows
and stays small, so each job's reported peak RSS is its own.

Protocol: one JSON request per line, ``{"cmd", "stdout", "stderr",
"timeout"}``; one JSON reply per line, ``{"wall", "cpu", "maxrss_kb",
"code"}``.  ``code`` is negative when a signal ended the job.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "code": code,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
