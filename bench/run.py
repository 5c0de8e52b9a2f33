"""knotcert benchmark: cold CLI time-to-verdict, one fresh process per job.

    python3 bench/run.py --workload certify|words|seifert --seed N \
        --seconds S --trace 0|1

Run from the root of a knotcert checkout.  The inputs are generated from
the seed, each job runs as its own ``knotcert`` process (closed loop,
one client), every report is checked against an answer the benchmark
works out itself, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs traced and untraced passes and
reports the per-layer metrics.  Any wrong answer makes the exit code 1.

Job times in the end-to-end metrics are in reference-speed seconds
(``ref_s``): each job's wall or CPU time times ``REF_PROBE_S / probe``,
where ``probe`` is the mean time of a fixed piece of pure-Python work run
right before and right after the job (see ``probe()``).  On a shared host
the same work runs up to a third slower for seconds or minutes at a time;
the probe slows with it, so the scaled times follow the program rather
than its neighbours.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers

BENCH_DIR = Path(__file__).resolve().parent
TRACER = BENCH_DIR / "tracer.py"
SPAWNER = BENCH_DIR / "spawner.py"
ENTRY = "import sys; from knotcert.cli import main; sys.exit(main())"
WORKLOADS = ("certify", "words", "seifert")
SETUPS = 7
JOB_TIMEOUT_S = 30.0
PROBE_ENTRIES = 60_000
PROBE_FRESH_S = 1.0
# about the probe's time between two jobs on a 2-core Intel Xeon host
# with Python 3.11, when nothing else runs on it
REF_PROBE_S = 0.025

# layers whose spans a workload must record, to catch a missed rebinding
EXERCISED = {
    "certify": {"cli", "words", "schreier", "magnus", "lyndon", "decomp", "bounds", "certify"},
    "words": {"cli", "words", "schreier", "magnus", "lyndon", "decomp", "bounds",
              "trivializer", "seifert"},
    "seifert": {"cli", "seifert", "bounds"},
}


@dataclass
class Result:
    name: str
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    stdout: bytes
    error: str | None
    probe: float  # mean of the probes right before and right after the job
    trace: str | dict | None = None  # spans file text, parsed by check()

    @property
    def scale(self) -> float:
        """Seconds on this host to reference-speed seconds, for this job."""
        return REF_PROBE_S / self.probe


def probe() -> float:
    """Wall seconds to fill and sum a dict of tuple keys and big-integer
    values, the kinds of objects knotcert spends its time on.

    It runs in this process, not in the spawner, whose peak RSS must stay
    small (see ``spawner.py``).
    """
    start = time.perf_counter()
    table = {}
    for i in range(PROBE_ENTRIES):
        table[(i, i * 7919)] = (i * 12345678901234567) ** 2
    sum(v & 255 for v in table.values())
    return time.perf_counter() - start


class Spawner:
    """Client of ``spawner.py``, which starts every job (see its docstring).

    Each job is bracketed by probes: the probe after one job serves as the
    probe before the next, unless more than ``PROBE_FRESH_S`` has passed.
    """

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(SPAWNER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, text=True,
        )
        self.last_probe = None
        self.probed_at = 0.0

    def _probe(self) -> float:
        self.last_probe = probe()
        self.probed_at = time.perf_counter()
        return self.last_probe

    def run(self, cmd: list[str], out_path: Path, err_path: Path) -> dict:
        """The job's usage, plus ``probe``: the mean of the probes around it."""
        if self.last_probe is None or time.perf_counter() - self.probed_at > PROBE_FRESH_S:
            self._probe()
        before = self.last_probe
        request = {"cmd": cmd, "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("job spawner exited")
        usage = json.loads(reply)
        usage["probe"] = (before + self._probe()) / 2
        return usage

    def close(self) -> None:
        self.proc.stdin.close()
        try:  # a job still running is killed by the spawner's own timeout
            self.proc.wait(timeout=JOB_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_job(job, spawner: Spawner, workdir: Path, traced: bool = False) -> Result:
    """Run one job in a fresh process; its report is checked later."""
    out_path, err_path, spans_path = (workdir / n for n in ("stdout", "stderr", "spans.json"))
    if traced:
        cmd = [sys.executable, str(TRACER), str(spans_path), "--", *job.argv]
    else:
        cmd = [sys.executable, "-c", ENTRY, *job.argv]
    usage = spawner.run(cmd, out_path, err_path)
    result = Result(job.name, usage["wall"], usage["cpu"], usage["maxrss_kb"] / 1024,
                    usage["code"], out_path.read_bytes(), None, usage["probe"])
    if usage["code"] != job.exit_code:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:] or [""]
        result.error = f"exit {usage['code']}, expected {job.exit_code}: {tail[0][:200]}"
    elif traced:
        result.trace = spans_path.read_text()
    return result


def check(job, result: Result) -> None:
    """Compare the job's report with the known answer; record any mismatch."""
    if result.error is not None:
        return
    try:
        result.error = job.check(json.loads(result.stdout))
        if result.trace is not None:
            result.trace = json.loads(result.trace)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        result.error = f"report does not parse or lacks a field: {exc!r}"
    if result.error is not None:
        result.trace = None


def run_pass(jobs, spawner, workdir, traced=False, between=None, deadline=None,
             expected=None) -> list[Result]:
    """Run the jobs once in order; the answer checks run after the last job.

    ``between`` is called before each job; it may run a set-up, which is
    timed on its own and is not part of any job's time.  With a
    ``deadline`` the pass stops before the first job that is ``expected``
    (its wall time in an earlier pass) to end after it.
    """
    results = []
    for i, job in enumerate(jobs):
        if deadline is not None and time.perf_counter() + expected[i] > deadline:
            break
        if between is not None:
            between()
        results.append(run_job(job, spawner, workdir, traced))
    for job, result in zip(jobs, results):
        check(job, result)
    return results


def setup(args, root: Path, workdir: Path, spawner: Spawner):
    """Seed to input files, plus one untimed warm-up job (compiles .pyc)."""
    import inputs

    start = time.perf_counter()
    jobs = inputs.build_jobs(args.workload, args.seed, workdir, root / "src" / "knotcert" / "data")
    warm = run_job(inputs.WARMUP, spawner, workdir)
    check(inputs.WARMUP, warm)
    return time.perf_counter() - start, jobs, warm


def nearest_rank(values, q: float) -> float:
    """The q-quantile as a sample value, never an interpolation between
    two jobs of very different cost."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def print_rows(passes: list[list[Result]]) -> None:
    """One row per job over all passes, so a slow input cannot hide in a total.

    wall_s and cpu_s are medians as measured on this host; wall_ref_s is
    the median of the job's wall time at the reference speed.
    """
    print(f"{'job':44s} {'wall_s':>8s} {'cpu_s':>8s} {'wall_ref_s':>10s} {'rss_mb':>7s} exit")
    for i, first in enumerate(passes[0]):
        runs = [p[i] for p in passes if i < len(p)]
        print(
            f"{first.name:44s} {statistics.median(r.wall for r in runs):8.3f} "
            f"{statistics.median(r.cpu for r in runs):8.3f} "
            f"{statistics.median(r.wall * r.scale for r in runs):10.3f} "
            f"{max(r.rss_mb for r in runs):7.1f} {first.exit}"
        )
        for r in runs:
            if r.error:
                print(f"  FAIL {r.name}: {r.error}")


def pass_order(trace: bool):
    """Untraced passes; with tracing, untraced then two traced, then alternating."""
    if trace:
        yield from (False, True, True)
    while True:
        yield from (False, True) if trace else (False,)


def measure(args, jobs, spawner, workdir, redo_setup) -> list[tuple[bool, list[Result]]]:
    """Run passes for --seconds.

    Untraced: one whole pass, then jobs in the same order while each is
    expected to end in time, so the last pass may stop part-way.  Traced:
    whole passes while the next one is expected to end in time, at least
    three.
    ``redo_setup`` is called at evenly spaced times during the passes, so
    the set-up times sample the whole run rather than one moment of it.
    """
    start = time.perf_counter()
    deadline = start + args.seconds
    due = [start + args.seconds * k / SETUPS for k in range(1, SETUPS)] if redo_setup else []

    def between():
        if due and time.perf_counter() >= due[0]:
            due.pop(0)
            redo_setup()

    passes = []
    longest = 0.0
    for i, traced in enumerate(pass_order(bool(args.trace))):
        if args.trace and i >= 3 and time.perf_counter() + longest > deadline:
            break
        partial = i >= 1 and not args.trace
        began = time.perf_counter()
        results = run_pass(jobs, spawner, workdir, traced, between, deadline if partial else None,
                           [r.wall for r in passes[0][1]] if partial else None)
        longest = max(longest, time.perf_counter() - began)
        if results:
            passes.append((traced, results))
        if len(results) < len(jobs):
            break
    while due:  # a run whose passes ended early still does every set-up
        due.pop(0)
        redo_setup()
    return passes


def job_medians(passes: list[list[Result]], measure_of) -> list[float]:
    """Each job's median over the passes that ran it (the last may stop early)."""
    return [statistics.median(measure_of(p[i]) for p in passes if i < len(p))
            for i in range(len(passes[0]))]


def pass_time(passes: list[list[Result]], measure_of) -> float:
    """A typical pass: the sum over jobs of each job's median."""
    return sum(job_medians(passes, measure_of))


def end_to_end(setup_times, passes: list[list[Result]]) -> dict:
    """Every job time from one typical pass: each job's median over passes."""
    walls = job_medians(passes, lambda r: r.wall * r.scale)
    return {
        "run_s": (sum(walls), "ref_s"),
        "cpu_s": (pass_time(passes, lambda r: r.cpu * r.scale), "ref_s"),
        "job_p50_s": (statistics.median(walls), "ref_s"),
        "job_p90_s": (nearest_rank(walls, 0.9), "ref_s"),
        "peak_rss_mb": (max(job_medians(passes, lambda r: r.rss_mb)), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer(workload: str, passes) -> tuple[dict, list[str]]:
    """Per-layer metrics and tracing self-check failures."""
    problems = []
    plain = [res for traced, res in passes if not traced]
    traced_passes = [res for traced, res in passes if traced]
    reference = {r.name: r.stdout for r in plain[0]}
    times, counts, spans = [], [], None
    for results in traced_passes:
        profiles = []
        for r in results:
            if r.stdout != reference[r.name]:
                problems.append(f"{r.name}: traced stdout differs from untraced stdout")
            if r.trace is None:
                continue
            try:
                profiles.append(layers.job_profile(r.trace, r.wall))
            except layers.SpanError as exc:
                problems.append(f"{r.name}: {exc}")
        t, c, spans = layers.pass_metrics(profiles)
        times.append(t)
        counts.append(c)
    for c in counts[1:]:
        if c != counts[0]:
            diff = sorted(k for k in c if c[k] != counts[0][k])
            problems.append(f"counts differ between traced runs: {diff}")
    for layer in sorted(EXERCISED[workload]):
        if not spans[layer]:
            problems.append(f"layer {layer} recorded no span on workload {workload}")
    units = dict(layers.PER_LAYER)
    metrics = {name: (statistics.median(t[name] for t in times), units[name]) for name in times[0]}
    metrics.update({name: (value, units[name]) for name, value in counts[0].items()})
    untraced_wall = pass_time(plain, lambda r: r.wall * r.scale)
    traced_wall = pass_time(traced_passes, lambda r: r.wall * r.scale)
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return {name: metrics[name] for name, _ in layers.PER_LAYER}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "knotcert" / "cli.py").is_file():
        print(f"error: no knotcert sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spawner = Spawner(env)
    try:
        setups = [setup(args, root, workdir, spawner)]
        _, jobs, _ = setups[0]

        def redo_setup():
            setups.append(setup(args, root, workdir, spawner))

        passes = measure(args, jobs, spawner, workdir, None if args.trace else redo_setup)
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    results = [w for _, _, w in setups] + [r for _, res in passes for r in res]
    failed = sum(r.error is not None for r in results)
    print(f"workload {args.workload}, seed {args.seed}: one fresh process per job")
    print_rows([res for _, res in passes])
    problems = []
    if args.trace:
        metrics, problems = per_layer(args.workload, passes)
        for p in problems:
            print(f"  TRACE CHECK FAILED: {p}")
    else:
        metrics = end_to_end([t for t, _, _ in setups], [res for _, res in passes])
        plain = [res for _, res in passes]
        print(f"as measured on this host: run {pass_time(plain, lambda r: r.wall):.3f} s, "
              f"cpu {pass_time(plain, lambda r: r.cpu):.3f} s, median probe "
              f"{statistics.median(r.probe for res in plain for r in res) * 1e3:.2f} ms "
              f"(reference {REF_PROBE_S * 1e3:.0f} ms)")
    print(f"error_ratio {failed}/{len(results)} = {failed / len(results):.4f}")
    traced = sum(t for t, _ in passes)
    runs = sum(len(res) for _, res in passes)
    print(f"samples: {len(setups)} set-ups; {len(passes) - traced} untraced and {traced} traced"
          f" passes of {len(jobs)} jobs, {runs} job runs (the last pass may stop part-way)")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
