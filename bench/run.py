"""Benchmark of the ``wardcf`` command line, one workload per run.

    python3 bench/run.py --workload {expand,enumerate,invert,hankel,all}
                         --seed N --seconds S --trace {0,1}

A workload is a fixed list of CLI jobs (see ``workloads``).  Each job is a
fresh ``python -m wardcf.cli ...`` interpreter started in the repository's
``src`` directory, one at a time (a closed loop with one client), with
PYTHONHASHSEED and WARDCF_MAX_N pinned and a timeout that counts as a
failure.  Every job's output is checked by ``oracle``, which does not
import ``wardcf``.

``--trace 0`` times as many passes over the job list as fit in
``--seconds`` (at least one) and reports, from each job's median over the
passes:

* ``wall_s``: one pass, summed spawn-to-exit over its jobs;
* ``job_geomean_s``: geometric mean of the per-job times of one pass;
* ``peak_rss_mb``: the largest max-RSS of any job in a pass (``os.wait4``);
* ``setup_s``: median spawn-to-exit of ``python -c "import wardcf.cli"``,
  over a few spawns before each pass, after one warm-up spawn.

Times are calibrated against drift in the machine's speed: the set-up
batch and every job of a timed pass sit between two spawns of
``calibrate.py`` (fixed stdlib-only work), and each is scaled by
CAL_REFERENCE_S / (mean time of those two spawns).  They read as seconds on
a machine that runs the calibration in CAL_REFERENCE_S; the unscaled wall
time and the median calibration time are printed too.

``fail_ratio`` (failed / attempted jobs) is printed with them and is the
``failed``/``attempted`` pair of the result line.

``--trace 1`` makes one untraced pass and one pass with every job run under
``tracer`` (whatever ``--seconds`` says), and reports the per-layer metrics
of ``layers.TABLE``, with unscaled times; it checks the table's
zero/nonzero pattern and fails the run if it does not hold.

``baseline.json`` holds the figures of the program this benchmark was
written against.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in turn and prefixes its metric names with the
workload's.  The benchmark exits with code 2, printing no result, when the
checkout holds no ``src/wardcf``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import layers
import oracle
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
JOB_ENV = {"PYTHONHASHSEED": "0", "WARDCF_MAX_N": "6"}
JOB_TIMEOUT_S = 60
SETUP_SPAWNS = 5  # per pass
# Median time of calibrate.py, spawn to exit, on the 2-vCPU machine where
# the baseline in baseline.json was recorded.
CAL_REFERENCE_S = 0.14
VERBS = ("expand", "verify", "invert", "hankel")


@dataclass
class Job:
    argv: list[str]
    seconds: float
    rss_mb: float
    cpu_s: float
    returncode: int
    timed_out: bool
    stdout: str
    failure: str | None = None


class Runner:
    """Spawns jobs one at a time, through ``spawner``, and checks their outputs."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir  # holds job outputs and span files
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(JOB_ENV)
        self.verdicts: dict[tuple, str | None] = {}
        self.spawned = 0
        self.spawner = subprocess.Popen([sys.executable, str(BENCH_DIR / "spawner.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def spawn(self, cmd: list[str], argv: list[str] | None = None) -> Job:
        """Run one command in ``src``; time it from spawn to exit.  The job
        is labelled ``argv`` (default: the command)."""
        self.spawned += 1
        out_path = os.path.join(self.workdir, f"job{self.spawned}")
        request = {"cmd": cmd, "cwd": str(SRC_DIR), "env": self.env, "out": out_path + ".out",
                   "err": out_path + ".err", "timeout": JOB_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        answer = self.spawner.stdout.readline()
        if not answer:
            raise RuntimeError("bench: the spawner process died")
        r = json.loads(answer)
        with open(out_path + ".out", encoding="utf-8", errors="replace") as f:
            stdout = f.read()
        return Job(argv or cmd, r["seconds"], r["maxrss_kb"] / 1024, r["cpu_s"],
                   r["returncode"], r["timed_out"], stdout)

    def run_job(self, argv: list[str], traced_out: str | None = None) -> Job:
        if traced_out is None:
            cmd = [sys.executable, "-m", "wardcf.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), traced_out,
                   os.path.basename(traced_out), "--", *argv]
        job = self.spawn(cmd, argv)
        if job.timed_out:
            job.failure = f"timed out after {JOB_TIMEOUT_S} s"
        else:
            # Identical output of the same job gets the same verdict.
            key = (tuple(argv), job.returncode, job.stdout)
            if key not in self.verdicts:
                self.verdicts[key] = oracle.check(argv, job.returncode, job.stdout, self.seed)
            job.failure = self.verdicts[key]
        if job.failure:
            print(f"FAILED: wardcf {' '.join(argv)}: {job.failure}", file=sys.stderr)
        return job

    def run_pass(self, jobs: list[list[str]], traced: bool = False) -> list[Job]:
        out = []
        for i, argv in enumerate(jobs):
            traced_out = os.path.join(self.workdir, f"trace{i}") if traced else None
            out.append(self.run_job(argv, traced_out))
        return out

    def calibrate(self) -> float:
        """Spawn-to-exit time of the fixed calibration script."""
        return self.spawn([sys.executable, str(BENCH_DIR / "calibrate.py")]).seconds

    def setup_times(self, spawns: int) -> list[float]:
        """Spawn-to-exit times of interpreters that only import the CLI."""
        cmd = [sys.executable, "-c", "import wardcf.cli"]
        times = []
        for _ in range(spawns):
            job = self.spawn(cmd)
            if job.returncode != 0:
                raise SystemExit(f"bench: cannot import wardcf.cli from {SRC_DIR}")
            times.append(job.seconds)
        return times


def end_to_end(runner: Runner, jobs: list[list[str]], seconds: float):
    runner.setup_times(1)  # warms the bytecode cache
    calibration = [runner.calibrate()]
    setup: list[float] = []
    passes: list[list[Job]] = []
    scaled: list[list[float]] = []  # per pass, per job

    def scale() -> float:
        """Calibrate again; the scale for what ran since the last calibration."""
        calibration.append(runner.calibrate())
        return 2 * CAL_REFERENCE_S / (calibration[-2] + calibration[-1])

    start = time.perf_counter()
    # Another pass only if it is expected to end within ``seconds``.  The
    # set-up batch and every job sit between two calibration spawns.
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        times = runner.setup_times(SETUP_SPAWNS)
        k = scale()
        setup += [t * k for t in times]
        passes.append([])
        scaled.append([])
        for argv in jobs:
            job = runner.run_job(argv)
            passes[-1].append(job)
            scaled[-1].append(job.seconds * scale())
    # Each job's median over the passes, so one slow pass moves no metric.
    per_job = [statistics.median(s[i] for s in scaled) for i in range(len(jobs))]
    metrics = {
        "wall_s": sum(per_job),
        "job_geomean_s": statistics.geometric_mean(per_job),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(statistics.median(p[i].rss_mb for p in passes) for i in range(len(jobs))),
    }
    raw = {
        "unscaled_wall_s": sum(statistics.median(p[i].seconds for p in passes)
                               for i in range(len(jobs))),
        "calibration_s": statistics.median(calibration),
    }
    return metrics, raw, [j for p in passes for j in p], len(passes)


def per_layer(runner: Runner, jobs: list[list[str]], workload: str):
    plain = runner.run_pass(jobs)
    traced = runner.run_pass(jobs, traced=True)
    selfs: Counter = Counter()
    counters: Counter = Counter()
    errors = 0
    for i in range(len(jobs)):
        out = os.path.join(runner.workdir, f"trace{i}")
        if not os.path.exists(out + ".json"):
            continue  # the job failed before it could write its spans
        header, spans = tracer.load(out)
        selfs.update(tracer.self_times(header, spans))
        counters.update(header["counters"])
        errors += header["errors"]
    values: dict[str, float] = {}
    for name, _, _, _ in layers.PER_LAYER:
        if name.endswith(".self_s"):
            prefix = name[: -len(".self_s")]
            values[name] = sum(v for g, v in selfs.items()
                               if g == prefix or g.startswith(prefix + "."))
        else:
            values[name] = counters.get(name, 0)
    for verb in VERBS:
        values[f"cli.{verb}_s"] = sum(j.seconds for j in plain if j.argv[0] == verb)
    values["cli.cpu_s"] = sum(j.cpu_s for j in plain)
    items = counters.get("matchings.enumerate.items", 0)
    values["matchings.profile_ratio"] = (
        counters.get("matchings.oracle.terms_out", 0) / items if items else 0
    )
    values["trace.overhead_ratio"] = (sum(j.seconds for j in traced)
                                      / sum(j.seconds for j in plain))
    values["trace.errors"] = errors
    violations = layers.pattern_violations(workload, values)
    for v in violations:
        print(f"PATTERN: {v}", file=sys.stderr)
    return values, plain + traced, not violations


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    workdir = os.path.join(workdir, workload)
    os.mkdir(workdir)
    jobs = workloads.jobs(workload, seed)
    pattern_ok = True
    raw: dict[str, float] = {}
    runner = Runner(seed, workdir)
    try:
        if trace:
            values, done, pattern_ok = per_layer(runner, jobs, workload)
            units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
            passes = 2
        else:
            values, raw, done, passes = end_to_end(runner, jobs, seconds)
            units = {"wall_s": "s", "job_geomean_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    finally:
        runner.close()
    failed = sum(1 for j in done if j.failure)
    print(f"workload {workload}  seed {seed}  passes {passes}  jobs {len(done)}"
          f"  trace {int(trace)}")
    for name, value in values.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    for name, value in raw.items():
        print(f"  {name:32s} {value:.6g} s")
    print(f"  {'fail_ratio':32s} {failed / len(done):.6g} ({failed}/{len(done)})")
    return {
        "correct": failed == 0 and pattern_ok,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "wardcf" / "cli.py").is_file():
        print(f"bench: no wardcf sources under {SRC_DIR}", file=sys.stderr)
        return 2
    print("env " + json.dumps({
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **JOB_ENV,
        "job_timeout_s": JOB_TIMEOUT_S,
    }))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), workdir)
                   for w in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
