"""Benchmark of the gch package.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; gch is imported from its ``src``
directory, never from an installed copy.  Workloads (inputs in
``workloads.py``, operations in ``ops.py``):

  eval-grid     closed-form evaluations on stratified parameter sets
  verify-sweep  what ``gch verify`` computes per row, in-process
  states        radial samples and normalize calls of bound states
  cli-session   ``python -m gch.cli`` processes for the README commands

Each workload runs in this process as a closed loop with one call in
flight, so nothing queues and every layer's wait time is 0.  The loop
repeats the workload's tasks in a fresh seeded order per pass until the
time is up (at least two passes), and takes each task's median time.

The machine this runs on is shared, and its speed drifts by 20% and more
over seconds to minutes, for every program alike.  So the loop also
times a fixed pure-Python calibration loop between tasks, and the timed
metrics are given in reference time: each measured time is scaled by
REF_CALIBRATION_MS over the median of the calibration samples taken
around it (units ``ref_ms`` and ``1/ref_s``).  setup_s is the median of
SETUP_RUNS fresh processes, each timed between calibration samples and
scaled the same way: seconds at the reference speed.  The raw times are
printed next to them.

With ``--trace 0`` the last line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of a
run that alternates each task untraced and traced (see ``tracing.py``).
The names and units of both come from BENCHMARK.json.
The lines before it print every metric with its unit, the outcome counts
and the environment; the same document goes to
``perfbench/out/result-<workload>-seed<seed>-trace<t>.json``.

``correct`` is true when every op was checked against a reference that
``reference.py`` accepted at two precisions and every CLI output had its
pinned header and repeated byte for byte.  ``attempted`` counts the
distinct ops of the workload's tasks, each once however often the loop
repeated it, and ``failed`` those that did not return a verified value:
unconverged, wrong (outside 1e-9 while claiming convergence), raised, or
refused.  Both depend on the seed only, not on the length of the run.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

import entry
import ops
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: set-ups timed per run (their median is setup_s)
SETUP_RUNS = 9
#: calibration samples taken before and after each set-up
SETUP_CALIBRATIONS = 7
#: bare interpreter starts timed per run
BARE_RUNS = 5
MIN_PASSES = 2
#: median time of calibration_loop() on the machine the benchmark was
#: defined on (2-vCPU Intel Xeon at 2.0 GHz, Python 3.11.7)
REF_CALIBRATION_MS = 1.0
#: task time between two calibration samples
CALIBRATE_EVERY_S = 0.02
#: calibration samples whose median scales a time: one sample is noisier
#: than the drift it corrects over a few tasks
CALIBRATION_WINDOW = 15


def _spec_units(key: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


E2E_UNITS = _spec_units("end_to_end")
LAYER_UNITS = _spec_units("per_layer")
#: printed and written next to the metrics, not in the last line
REPORT_UNITS = {
    "failed_frac": "frac", "wrong_converged": "count", "max_rel_err": "rel",
    "cli.eval_s": "s", "cli.wavefunction_s": "s", "cli.verify_s": "s", "cli.spectrum_s": "s",
    "import.interpreter_s": "s", "achieved_ops_per_s": "1/s", "calibration_ms": "ms",
    "raw.ops_per_s": "1/s", "raw.op_p50_ms": "ms", "raw.op_p99_ms": "ms", "raw.setup_s": "s",
}
UNITS = {**E2E_UNITS, **LAYER_UNITS, **REPORT_UNITS}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------- environment

def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None  # an exported checkout has no .git


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version, "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "seed": seed, "git_commit": _git_commit()}


# -------------------------------------------------------------- child processes

def _ready_time(cmd, env) -> float:
    """Seconds from starting ``cmd`` to the perf_counter reading it prints."""
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1]) - start


def setup_times(cmd, env) -> tuple[list[float], list[float]]:
    """SETUP_RUNS ready times of ``cmd``: raw, and each scaled to the
    reference speed by the calibration samples taken right before and
    after it."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        around = calibration_samples(SETUP_CALIBRATIONS)
        raw.append(_ready_time(cmd, env))
        around += calibration_samples(SETUP_CALIBRATIONS)
        scaled.append(raw[-1] * 1e-3 * REF_CALIBRATION_MS / statistics.median(around))
    return raw, scaled


def references(ref_tasks) -> list:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "reference.py")], cwd=ROOT,
                          input=json.dumps(ref_tasks), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


# ------------------------------------------------------------------ timed loops

def calibration_loop() -> float:
    """Fixed pure-Python work shaped like the series folds (fresh lists, a
    backward float recurrence, fsum): the machine's speed at this moment."""
    total = 0.0
    for k in range(36):
        u = [1.0] * 82
        for p in range(80, -1, -1):
            u[p] = 1.0 + (0.05 * k - 1.0) * (p + 0.5) / ((p + 1.5) * (p + 2.5)) * u[p + 1]
        total += math.fsum(u)
    return total


def calibration_samples(n: int) -> list[float]:
    out = []
    for _ in range(n):
        t0 = perf_counter()
        calibration_loop()
        out.append(perf_counter() - t0)
    return out


class Summaries:
    """Per task: its first summary, how often it ran, and whether a repeat
    differed from the first.  Fixed size, whatever the number of runs."""

    def __init__(self, n: int):
        self.first = [None] * n
        self.runs = [0] * n
        self.differs = [False] * n

    def add(self, i: int, summary) -> None:
        if not self.runs[i]:
            self.first[i] = summary
        elif summary != self.first[i]:
            self.differs[i] = True
        self.runs[i] += 1


def timed_loop(tasks, seconds, rng):
    """Passes over the tasks in a fresh order each, until ``seconds`` have
    passed and at least MIN_PASSES passes are complete, with a calibration
    sample for every CALIBRATE_EVERY_S of task time, taken between tasks
    (at most CALIBRATION_WINDOW at a time).  The peak RSS is read when
    MIN_PASSES passes are done, before the lists of times grow with the
    length of the run."""
    times = [[] for _ in tasks]
    marks = [[] for _ in tasks]  # calibration samples taken before each run
    summaries = Summaries(len(tasks))
    calibration = []
    order = list(range(len(tasks)))
    since = CALIBRATE_EVERY_S
    start = perf_counter()
    deadline = start + seconds
    passes = 0
    rss_kib = None
    while passes < MIN_PASSES or perf_counter() < deadline:
        rng.shuffle(order)
        for i in order:
            if passes >= MIN_PASSES and perf_counter() >= deadline:
                break
            if since >= CALIBRATE_EVERY_S:
                # one sample per CALIBRATE_EVERY_S of task time since the last
                calibration += calibration_samples(min(int(since / CALIBRATE_EVERY_S), CALIBRATION_WINDOW))
                since = 0.0
            t0 = perf_counter()
            summary = tasks[i].fn()
            dt = perf_counter() - t0
            times[i].append(dt)
            marks[i].append(len(calibration))
            summaries.add(i, summary)
            since += dt
        else:
            passes += 1
            if passes == MIN_PASSES:
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return times, marks, summaries, calibration, perf_counter() - start, rss_kib


def reference_times(times, marks, calibration):
    """Each time scaled by REF_CALIBRATION_MS over the median of the
    CALIBRATION_WINDOW calibration samples around it."""
    half = CALIBRATION_WINDOW // 2
    return [[dt * 1e-3 * REF_CALIBRATION_MS / statistics.median(calibration[max(0, m - 1 - half):m + half])
             for dt, m in zip(ts, ms)] for ts, ms in zip(times, marks)]


def traced_loop(tasks, seconds, rng, tracer):
    """Each task untraced and traced back to back, alternating which goes
    first; passes until ``seconds`` have passed, at least one complete.
    A traced task runs inside the tracer's root span."""
    plain = [[] for _ in tasks]
    traced = [[] for _ in tasks]
    summaries = Summaries(len(tasks))
    order = list(range(len(tasks)))
    deadline = perf_counter() + seconds
    passes = 0
    executions = 0
    while passes < 1 or perf_counter() < deadline:
        rng.shuffle(order)
        for i in order:
            if passes >= 1 and perf_counter() >= deadline:
                break
            for is_traced in ((False, True) if executions % 2 else (True, False)):
                if is_traced:
                    tracer.op_id = executions
                    tracer.install()
                t0 = perf_counter()
                summary = tracer.run_task(tasks[i].fn) if is_traced else tasks[i].fn()
                dt = perf_counter() - t0
                if is_traced:
                    tracer.uninstall()
                (traced if is_traced else plain)[i].append(dt)
                summaries.add(i, summary)
            executions += 1
        else:
            passes += 1
    return plain, traced, summaries


# ------------------------------------------------------------------- checking

def classify(workload, tasks, summaries, refs):
    """Outcome counts of the distinct ops (a task counts its weight once,
    however often it ran), the largest error among ok ops, and whether
    every op was checked: its reference accepted, its output well formed
    and every repeat identical to its first run."""
    counts = collections.Counter({k: 0 for k in ops.OUTCOMES})
    max_err = 0.0
    checked = True
    for task, first, runs, differs in zip(tasks, summaries.first, summaries.runs, summaries.differs):
        if not runs:
            continue
        if refs[task.ref] is None:
            checked = False
            counts["unchecked"] += task.weight
            continue
        outcome, err = ops.check(workload, task, first, refs)
        if outcome == "malformed" or differs:
            checked = False
            outcome = "wrong"
        counts[outcome] += task.weight
        if outcome == "ok" and err is not None:
            max_err = max(max_err, err)
    return counts, max_err, checked


def _percentile(sorted_vals, q):
    return sorted_vals[max(0, math.ceil(q / 100.0 * len(sorted_vals)) - 1)]


def latency_metrics(tasks, times):
    """ops_per_s and op percentiles from each task's median time; a task
    of weight w counts as w ops of 1/w of its time."""
    med = [(statistics.median(t), task.weight) for task, t in zip(tasks, times) if t]
    per_op = sorted(v / w for v, w in med for _ in range(w))
    return {
        "ops_per_s": sum(w for _, w in med) / sum(v for v, _ in med),
        "op_p50_ms": 1e3 * _percentile(per_op, 50),
        "op_p99_ms": 1e3 * _percentile(per_op, 99),
    }, len(per_op)


# ------------------------------------------------------------------------ main

def _pin_cpu() -> None:
    """Keep this process and its children on one CPU, the one the
    calibration loop measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _traced(args, g, tasks, rng, env, bare):
    """Per-layer metrics of the run that alternates untraced and traced."""
    tracer = tracing.Tracer(g)
    plain, traced, summaries = traced_loop(tasks, args.seconds, rng, tracer)
    layer = tracer.layer_metrics()
    wall = sum(map(sum, traced))
    metrics = {k: layer[k] for k in LAYER_UNITS if k in layer}
    metrics.update(tracing.import_split(env, ROOT))
    metrics["import.interpreter_s"] = bare
    # bytes one run of every command wrote
    metrics["cli.bytes_out"] = sum(len(s[2]) for s in summaries.first if s and s[0] == "cli")
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_frac"] = wall / sum(map(sum, plain)) - 1.0
    metrics["trace.uncovered_frac"] = 1.0 - layer["trace.root_s"] / wall
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return metrics, summaries, {}


def _timed(args, tasks, rng, setups, bare, rss, report):
    """End-to-end metrics of the untraced run, and the report-only extras."""
    times, marks, summaries, calibration, elapsed, rss_kib = timed_loop(tasks, args.seconds, rng)
    metrics, samples = latency_metrics(tasks, reference_times(times, marks, calibration))
    raw_setups, setups = setups
    metrics["setup_s"] = statistics.median(setups)
    # cli-session: the largest peak RSS of the CLI processes
    metrics["peak_rss_mb"] = (max(rss) if rss else rss_kib) / 1024.0
    report.update(op_samples=samples, loop_s=elapsed, setup_runs_s=setups, raw_setup_runs_s=raw_setups)
    raw, _ = latency_metrics(tasks, times)
    extra = {f"raw.{k}": v for k, v in raw.items()}
    extra.update({
        "raw.setup_s": statistics.median(raw_setups),
        "import.interpreter_s": bare,
        "calibration_ms": 1e3 * statistics.median(calibration),
        "achieved_ops_per_s": sum(t.weight * len(r) for t, r in zip(tasks, times)) / elapsed,
    })
    if rss:  # cli-session: median wall time per subcommand
        for t, r in zip(tasks, times):
            if f"cli.{t.label}_s" in REPORT_UNITS:
                extra[f"cli.{t.label}_s"] = statistics.median(r)
    return metrics, summaries, extra


def _run(args) -> dict:
    entry.check_source(ROOT)
    _pin_cpu()
    os.makedirs(OUT, exist_ok=True)
    env = ops.cli_env(ROOT)
    stderr_path = os.path.join(OUT, "cli-stderr.txt")
    open(stderr_path, "wb").close()
    t_phase = perf_counter()
    # one untimed import first, so the bytecode cache is warm as it is
    # for an installed package
    subprocess.run([sys.executable, "-c", "import gch.cli"], cwd=ROOT, env=env, check=True)
    bare = statistics.median(
        _ready_time([sys.executable, "-c", "import time; print(repr(time.perf_counter()))"], env)
        for _ in range(BARE_RUNS))
    setups = None
    if not args.trace:
        setups = setup_times([sys.executable, os.path.join(HERE, "setup_probe.py"),
                              args.workload, str(args.seed)], env)
    phases = {"probes_s": perf_counter() - t_phase}
    t_phase = perf_counter()
    inputs = workloads.generate(args.workload, args.seed)
    refs = references(ops.reference_tasks(args.workload, inputs))
    phases["references_s"] = perf_counter() - t_phase

    subprocesses = args.workload == "cli-session" and not args.trace
    g = None if subprocesses else entry.Gch(ROOT)
    rss = []  # peak RSS of each CLI child, KiB
    tasks = ops.build(args.workload, g, inputs, refs, ROOT, stderr_path, rss, in_process=not subprocesses)
    rng = random.Random(f"order:{args.workload}:{args.seed}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(args.seed), "ops_per_pass": sum(t.weight for t in tasks),
              "wait_s": {layer: 0.0 for layer in ("import", *entry.LAYERS)}, "phases": phases}
    if args.trace:
        metrics, summaries, extra = _traced(args, g, tasks, rng, env, bare)
        units = LAYER_UNITS
    else:
        metrics, summaries, extra = _timed(args, tasks, rng, setups, bare, rss, report)
        units = E2E_UNITS

    counts, max_err, checked = classify(args.workload, tasks, summaries, refs)
    attempted = sum(counts.values())
    failed = attempted - counts["ok"]
    report.update(outcomes=dict(counts), checked=checked)
    if not args.trace:
        extra.update({"failed_frac": failed / attempted, "wrong_converged": counts["wrong"],
                      "max_rel_err": max_err})
    report["all_metrics"] = {k: {"value": v, "unit": UNITS[k]}
                             for k, v in sorted({**metrics, **extra}.items())}
    report["result"] = {
        "correct": checked,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return report


def _print(report) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']}")
    shown = report["all_metrics"]
    for name, m in shown.items():
        print(f"  {name:28s} {m['value']:<14.6g} {m['unit']}")
    if report["trace"]:
        print(f"  layer self times (gch layers and the bench adapter) cover all but"
              f" {shown['trace.uncovered_frac']['value']:.2%} of the traced wall time;"
              f" tracing overhead {shown['trace.overhead_frac']['value']:.2%}")
    print("  outcomes: " + ", ".join(f"{k}={v}" for k, v in report["outcomes"].items()))
    print("  wait_s: 0 in every layer (closed loop, one call in flight, nothing queues)")
    print("  correct (every op checked against an accepted reference):", report["result"]["correct"])
    print(json.dumps({"report": {k: v for k, v in report.items() if k != "result"}}))
    print(json.dumps(report["result"]))


def main(argv=None) -> int:
    args = _args(argv)
    report = _run(args)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    _print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
