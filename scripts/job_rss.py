#!/usr/bin/env python3
"""Each benchmark job's own peak RSS, highest first.

    python3 scripts/job_rss.py --workload words --seed 1 --reps 15

Run from the root of a knotcert checkout.  The jobs are the benchmark's
own for the workload and seed (``bench/inputs.py``), run ``--reps`` times
in order through ``bench/spawner.py`` as ``bench/run.py`` runs them, so
every reading is the job's own ``ru_maxrss``, and every report is checked
against its known answer.  The table gives each job's median, lowest and
highest reading in MB; its first row is the job whose median sets the
workload's ``peak_rss_mb``.  ``bench/run.py`` prints only each job's
highest reading, to 0.1 MB, which cannot tell the peak job from the one
below it.  The last line of stdout is one JSON object, ``{"workload",
"seed", "reps", "failed", "jobs"}``, with ``jobs`` a list of [name,
median MB] pairs in table order.  Nothing under ``bench/`` is written:
its modules are imported without bytecode and the inputs go to a
temporary directory.  Any wrong answer makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, default=15)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")

    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    spawner = run.Spawner(env)
    try:
        with tempfile.TemporaryDirectory(prefix="job_rss-") as tmp:
            workdir = Path(tmp)
            jobs = inputs.build_jobs(args.workload, args.seed, workdir / "inputs",
                                     ROOT / "src" / "knotcert" / "data")
            run.run_job(inputs.WARMUP, spawner, workdir)
            passes = [run.run_pass(jobs, spawner, workdir) for _ in range(args.reps)]
    finally:
        spawner.close()

    failed = [r for results in passes for r in results if r.error is not None]
    rows = sorted(
        ((job.name, [results[i].rss_mb for results in passes]) for i, job in enumerate(jobs)),
        key=lambda row: -statistics.median(row[1]))
    print(f"workload {args.workload}, seed {args.seed}: peak RSS of each job over "
          f"{args.reps} runs, MB")
    print(f"{'job':44s} {'median':>8s} {'min':>8s} {'max':>8s}")
    for name, readings in rows:
        print(f"{name:44s} {statistics.median(readings):8.3f} {min(readings):8.3f} "
              f"{max(readings):8.3f}")
    for r in failed:
        print(f"  FAIL {r.name}: {r.error}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "reps": args.reps, "failed": len(failed),
        "jobs": [[name, round(statistics.median(readings), 3)] for name, readings in rows],
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
