"""Benchmark plap end to end on one seeded workload.

Usage, from the root of a plap source tree::

    python3 perfbench/run.py --workload recover_jets --seed 0 --seconds 55 --trace 0

A run writes the workload's configs, times a fresh interpreter importing
``plap.cli`` and loading them (``setup_s``), and then runs whole timed
passes over the tasks for about ``--seconds`` (at least two).  Every task is
``plap.cli.main([command, "--config", path, "--jobs", "1", "--out", dir])``
in this process, one at a time, checked for exit code 0, ``"pass": true``
and a ``report.json`` byte-identical to the one of its first pass.

With ``--trace 1`` the passes alternate untraced and traced (see
``tracing.py``) and the per-layer metrics are reported per pass, together
with the slowdown tracing causes.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything else, including the configs, the machine and per-task times,
goes to ``.perfbench_run/<workload>/`` under the source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_AFTER_UNITS = 2  # setup_s samples: at the start, after this many units, at the end
MIN_PASSES = 2  # the second pass checks the first one's reports
TIME_CAP_S = 150.0  # no pass starts that would end a run later than this

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import plap.cli
for path in sys.argv[2:]:
    plap.cli.load_config(path)
print(repr(time.perf_counter() - t0))
"""


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the source tree, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measure_setup(config_paths: list[Path]) -> float:
    """One ``setup_s`` sample, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, config_paths)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs tasks through ``plap.cli.main`` and checks every report."""

    def __init__(self, cli, config_dir: Path, out_dir: Path):
        self.cli = cli
        self.config_dir = config_dir
        self.out_dir = out_dir
        self.reference: dict[str, bytes] = {}
        self.failures: list[dict] = []
        self.attempted = 0

    def run_task(self, task, pass_no: int) -> tuple[float, bool]:
        out = self.out_dir / task.name
        argv = [task.command, "--config", str(self.config_dir / f"{task.name}.cfg"),
                "--jobs", "1", "--out", str(out)]
        self.attempted += 1
        report_path = out / "report.json"
        report_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
            problem = self.check(task.name, code, report_path.read_bytes())
        except Exception:  # a crash is a failed task, not a failed benchmark
            elapsed = time.perf_counter() - t0
            problem = traceback.format_exc(limit=3)
        if problem is not None:
            self.failures.append({"task": task.name, "pass": pass_no, "problem": problem})
        return elapsed, problem is None

    def run_pass(self, tasks, pass_no: int, tracer=None) -> tuple[list[float], int]:
        """Run every task once; returns the task times and how many passed."""
        times, verified = [], 0
        for task in tasks:
            if tracer:
                tracer.task = f"{pass_no}:{task.name}"
            elapsed, ok = self.run_task(task, pass_no)
            times.append(elapsed)
            verified += ok
        return times, verified

    def check(self, name: str, code: int, report: bytes) -> str | None:
        ref = self.reference.setdefault(name, report)
        if code != 0:
            return f"exit code {code}"
        if json.loads(report).get("pass") is not True:
            return "report pass is not true"
        if report != ref:
            return "report.json differs from the task's first run"
        return None


def quantile_summary(values: list[float]) -> dict:
    values = sorted(values)
    out = {"n": len(values), "p50": statistics.median(values), "max": values[-1]}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out.update(q1=q[0], q3=q[2])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "plap" / "cli.py").is_file():
        print(f"no plap sources under {SRC}", file=sys.stderr)
        return 2
    tasks = workloads.generate(args.workload, args.seed)
    work = ROOT / ".perfbench_run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    config_dir, out_dir = work / "configs", work / "out"
    config_dir.mkdir(parents=True)
    for task in tasks:
        (config_dir / f"{task.name}.cfg").write_text(task.text, encoding="ascii")

    # setup samples are spread over the run, so one burst of load from other
    # processes on the machine does not hit all of them
    config_paths = [config_dir / f"{t.name}.cfg" for t in tasks]
    setup = [measure_setup(config_paths)]

    sys.path.insert(0, str(SRC))
    import plap.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "plap").resolve():
        print(f"plap was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # No separate warm-up pass: plap is imported already, its only lazy set-up
    # is two small multi-index tables in jets, and a first pass measured no
    # slower than later ones.  The first pass gives each task its reference
    # report.
    runner = Runner(cli, config_dir, out_dir)
    tracer = tracing.Tracer() if args.trace else None
    task_times: dict[str, list[float]] = {t.name: [] for t in tasks}
    pass_times = {False: [], True: []}
    verified_untraced = 0
    traced_spans = []
    units = []  # wall time of each pass, or of each untraced+traced pair
    timed_start = time.perf_counter()
    k = 0
    while True:
        unit_start = time.perf_counter()
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                times, verified = runner.run_pass(tasks, k, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
                    traced_spans.append(tracer.take())
            pass_s = time.perf_counter() - t0
            pass_times[traced].append(pass_s)
            if not traced:
                verified_untraced += verified
                for task, elapsed in zip(tasks, times):
                    task_times[task.name].append(elapsed)
            k += 1
        now = time.perf_counter()
        units.append(now - unit_start)
        if len(units) <= SETUP_AFTER_UNITS:
            setup.append(measure_setup(config_paths))
        # start another pass (or pair) while the run would end nearer to
        # --seconds with it than without it
        next_s = statistics.median(units)
        if k >= MIN_PASSES and (now - timed_start + next_s / 2 > args.seconds
                                or time.perf_counter() - started + next_s > TIME_CAP_S):
            break
    setup.append(measure_setup(config_paths))

    # Other tenants of the machine slow it for stretches of seconds to minutes,
    # so the timings average over the whole run: tasks_per_s is the verified
    # tasks over the untraced pass time, and task_s_p50 the median over tasks
    # of each task's mean over the passes, every task weighing the same.
    task_means = [statistics.fmean(times) for times in task_times.values()]
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "tasks_per_s": (verified_untraced / sum(pass_times[False]), "1/s"),
        "task_s_p50": (statistics.median(task_means), "s"),
        "ok_ratio": (1.0 - len(runner.failures) / runner.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"setup_s": len(setup), "tasks_per_s": len(pass_times[False]),
               "task_s_p50": sum(map(len, task_times.values())), "ok_ratio": runner.attempted, "peak_rss_mb": 1}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "configs": {t.name: t.text for t in tasks},
        "setup_samples_s": setup,
        "task_s": {name: quantile_summary(times) for name, times in task_times.items()},
        "pass_s": pass_times[False],
        "attempted": runner.attempted,
        "failures": runner.failures,
        "end_to_end": {k: {"value": v, "unit": u, "samples": samples[k]}
                       for k, (v, u) in end_to_end.items()},
    }
    if tracer:
        per_pass = [tracing.layer_metrics(spans) for spans in traced_spans]
        layers = {name: statistics.fmean(m[name] for m in per_pass) for name in tracing.METRICS}
        # passes run the same tasks, so this is the tracing overhead
        layers["trace.pass_s"] = statistics.fmean(pass_times[True])
        layers["trace.slowdown"] = layers["trace.pass_s"] / statistics.fmean(pass_times[False])
        units = {**tracing.METRICS, "trace.pass_s": "s", "trace.slowdown": "ratio"}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in layers.items()}
        result["per_layer"] = {"traced_passes": len(per_pass), "metrics": metrics,
                               "exact_counts_per_pass": [{k: m[k] for k in tracing.EXACT}
                                                         for m in per_pass]}
        tracing.write_spans(str(work / "spans.csv"), traced_spans)
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()}
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="ascii")

    for failure in runner.failures:
        print(f"FAILED {failure['task']} (pass {failure['pass']}): {failure['problem']}")
    print(f"{args.workload} seed {args.seed}: {len(pass_times[False])} untraced and "
          f"{len(pass_times[True])} traced passes in {time.perf_counter() - timed_start:.1f} s; "
          f"details in {work / 'result.json'}")
    print("samples: " + ", ".join(f"{k} {n}" for k, n in samples.items()))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
