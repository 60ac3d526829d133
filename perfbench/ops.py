"""The workloads' operations, their reference tasks and their checks.

A workload turns its seeded inputs (``workloads.py``) into a list of
:class:`Task`.  A task is one call into gch that counts for ``weight``
ops: one evaluation, one verification row, one radial sample, one
quadrature, one ``normalize`` call (which takes ``weight`` radial
samples) or one CLI command.  ``Task.fn`` returns a plain summary of what
gch returned, so a repeat of the task can be compared with its first
run.  Checking happens after the timed loop, against values from
``reference.py``.

Every op lands in one of the OUTCOMES classes; all but "ok" count as
failed.  "wrong" is a value outside tolerance from a call that claimed
to have converged.  A check may also answer "malformed" (CLI output
without its pinned header), which counts as wrong and makes the run
incorrect.
"""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import workloads

OUTCOMES = ("ok", "unconverged", "wrong", "raised", "refused")
#: relative tolerance of every value check
REL_TOL = 1e-9
#: gch verify's default thresholds for rel_err and the ODE residual
VERIFY_TOL = 1e-9
VERIFY_RESIDUAL_TOL = 1e-8

CLI_HEADERS = {
    "eval": "x,value,terms_used,est_error,converged",
    "spectrum": "i,beta,eigenvalue",
    "wavefunction": "r,value,converged",
    "asymptote": "x,value",
    "verify": "mu,epsilon,nu,omega_cap,omega,x,kind,rel_err,rel_residual,status",
}


@dataclass
class Task:
    fn: Callable[[], tuple]
    weight: int
    ref: int  # index of its reference task
    label: str
    slot: int = 0  # position inside the reference result


def _raised(exc: Exception) -> tuple:
    return ("raised", type(exc).__name__)


# --------------------------------------------------------------- eval-grid

def eval_grid_tasks(g, sets) -> list[Task]:
    tasks = []
    for si, s in enumerate(sets):
        p, kind, poly = g.params(s["params"]), g.kind(s["kind"]), s["cls"] == "poly"
        for xi, x in enumerate(s["xs"]):
            def fn(p=p, kind=kind, poly=poly, x=x):
                try:
                    res = g.evaluate(p, kind, poly, x)
                except Exception as exc:  # every raise is an outcome to count
                    return _raised(exc)
                return ("value", res.value, res.converged)
            tasks.append(Task(fn, 1, si, s["stratum"], xi))
    return tasks


def eval_grid_refs(sets) -> list[dict]:
    return [{"type": "series", "params": s["params"], "kind": s["kind"], "norm": "closed", "xs": s["xs"]}
            for s in sets]


def _classify_value(summary, ref, scale):
    """(outcome, error) of an evaluation summary against its reference."""
    if summary[0] == "raised":
        return "raised", None
    _, value, converged = summary
    if not converged:
        return "unconverged", None
    if not math.isfinite(value):
        return "wrong", math.inf
    err = abs(value - ref) / scale if scale else abs(value - ref)
    return ("ok" if err <= REL_TOL else "wrong"), err


def eval_grid_check(task, summary, refs):
    ref = refs[task.ref][task.slot]
    return _classify_value(summary, ref, abs(ref))


# ------------------------------------------------------------ verify-sweep

def verify_tasks(g, rows) -> list[Task]:
    tasks = []
    groups = _verify_groups(rows)
    keys = {key: i for i, key in enumerate(groups)}
    for row in rows:
        p, kind = g.params(row["params"]), g.kind(row["kind"])
        spec = g.grid_spec(p, kind, row["x"])
        key = (tuple(row["params"]), row["kind"])

        def fn(spec=spec, p=p, kind=kind, x=row["x"]):
            try:
                rec, rel_res = g.verify_row(spec, p, kind, x)
            except Exception as exc:
                return _raised(exc)
            if rec.error is not None:
                return ("raised", rec.error.split(":")[0])
            return ("row", rec.closed, rec.oracle, rec.rel_err, rel_res)
        tasks.append(Task(fn, 1, keys[key], row["kind"], groups[key].index(row["x"])))
    return tasks


def _verify_groups(rows) -> dict:
    """(params, kind) -> its x values; one reference task per group."""
    groups: dict = {}
    for row in rows:
        xs = groups.setdefault((tuple(row["params"]), row["kind"]), [])
        if row["x"] not in xs:
            xs.append(row["x"])
    return groups


def verify_refs(rows) -> list[dict]:
    return [{"type": "series", "params": list(k[0]), "kind": k[1], "norm": "unit", "xs": xs}
            for k, xs in _verify_groups(rows).items()]


def verify_check(task, summary, refs):
    if summary[0] == "raised":
        return "raised", None
    _, closed, oracle, rel_err, rel_res = summary
    ref = refs[task.ref][task.slot]
    err = max(abs(closed - ref), abs(oracle - ref)) / abs(ref)
    if not (rel_err <= VERIFY_TOL and rel_res <= VERIFY_RESIDUAL_TOL):
        return "unconverged", None  # the row reports its own tolerance failure
    if not err <= REL_TOL:
        return "wrong", err
    return "ok", err


# ------------------------------------------------------------------ states

def states_tasks(g, states, refs=None) -> list[Task]:
    """Per state: one task per radial sample; one Simpson quadrature
    (``radial_norm``) of the state's reference samples, so that it times
    the quadrature alone; and one ``normalize`` on the tail grid, which
    takes NORM_POINTS samples.  Reference task 2k holds state k's samples,
    2k + 1 its tail grid.  Without ``refs`` (the set-up probe) the
    quadrature integrates zeros, at the same cost."""
    tasks = []
    for si, st in enumerate(states):
        system = g.system(st["system"])
        state = g.state(system, st["i"], st["beta"])
        label = f"{st['system']['name']}:{st['i']},{st['beta']}"
        for ri, r in enumerate(st["rs"]):
            def fn(system=system, state=state, r=r):
                try:
                    value, converged = g.wavefunction(system, state, r)
                except Exception as exc:
                    return _raised(exc)
                return ("value", value, converged)
            tasks.append(Task(fn, 1, 2 * si, label, ri))

        n = len(st["rs"])
        samples = refs[2 * si][:n] if refs and refs[2 * si] else [0.0] * n

        def quad(samples=samples, r_max=st["r_max"], n=n):
            step = r_max / (n - 1)
            try:
                return ("quad", g.radial_norm(lambda r: samples[round(r / step)], r_max, n))
            except Exception as exc:
                return _raised(exc)
        tasks.append(Task(quad, 1, 2 * si, label + ":radial_norm"))

        def norm(system=system, state=state, r_tail=st["r_tail"], n=len(st["norm_rs"])):
            try:
                return ("norm", g.normalize(system, state, r_tail, n))
            except g.errors.TailNotDecayed:
                return ("refused",)
            except Exception as exc:
                return _raised(exc)
        tasks.append(Task(norm, len(st["norm_rs"]), 2 * si + 1, label + ":normalize"))
    return tasks


def states_refs(states) -> list[dict]:
    return [{"type": "state", "system": st["system"], "i": st["i"], "beta": st["beta"], "rs": rs}
            for st in states for rs in (st["rs"], st["norm_rs"])]


def states_check(task, summary, refs):
    """Samples are judged against the state's sampled peak; the quadrature
    and normalize against the reference's 1/sqrt of the Simpson sum."""
    ref = refs[task.ref]
    if summary[0] == "refused":
        return "refused", None
    if summary[0] in ("quad", "norm"):
        got = summary[1] if summary[0] == "norm" else 1.0 / math.sqrt(summary[1])
        want = ref[-2]
        err = abs(got - want) / abs(want)
        return ("ok" if err <= REL_TOL else "wrong"), err
    samples = ref[:-2]
    return _classify_value(summary, samples[task.slot], max(abs(v) for v in samples))


# ------------------------------------------------------------- cli-session

def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, root: str, env: dict, stderr_path: str) -> tuple:
    """One ``python -m gch.cli`` process: (exit code, stdout bytes, peak RSS
    in KiB).  The child is reaped with wait4 for its own resource usage."""
    with open(stderr_path, "ab") as err:
        proc = subprocess.Popen([sys.executable, "-m", "gch.cli", *argv], cwd=root, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def cli_tasks(g, commands, root: str, stderr_path: str, rss: list, in_process: bool) -> list[Task]:
    """Subprocess calls, or in-process ``gch.cli.main`` calls (traced run)."""
    env = cli_env(root)
    tasks = []
    for ci, cmd in enumerate(commands):
        if in_process:
            def fn(argv=cmd["argv"]):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = g.cli_main(argv)
                return ("cli", code, out.getvalue().encode())
        else:
            def fn(argv=cmd["argv"]):
                code, out, maxrss = run_cli(argv, root, env, stderr_path)
                rss.append(maxrss)
                return ("cli", code, out)
        tasks.append(Task(fn, 1, ci, cmd["name"]))
    return tasks


def cli_refs(commands) -> list[dict]:
    refs = []
    for cmd in commands:
        name = cmd["name"]
        if name == "eval":
            refs.append({"type": "series", "params": list(cmd["params"]), "kind": "first", "norm": "closed",
                         "xs": workloads.cli_grid(*cmd["xs"])})
        elif name == "spectrum":
            refs.append({"type": "spectrum", "system": cmd["system"], "i_max": cmd["i_max"],
                         "beta_max": cmd["beta_max"]})
        elif name == "wavefunction":
            refs.append({"type": "state", "system": cmd["system"], "i": cmd["state"][0],
                         "beta": cmd["state"][1], "rs": workloads.cli_grid(*cmd["xs"])})
        elif name == "asymptote":
            refs.append({"type": "asymptote", "mu": cmd["mu"], "xs": workloads.cli_grid(*cmd["xs"])})
        else:
            refs.append({"type": "none"})
    return refs


def cli_check(task, summary, refs):
    """Exit code, pinned header, row count and values of one CLI output."""
    _, code, out = summary
    name = task.label
    if code not in (0, 1, 3):  # 2 is gch's config/validation error
        return "raised", None
    lines = out.decode().split("\n")
    if lines[-1] != "" or lines[0] != CLI_HEADERS[name]:
        return "malformed", None
    rows = [line.split(",") for line in lines[1:-1]]
    ref = refs[task.ref]
    if name == "verify":
        ok = code == 0 and len(rows) == 768 and all(r[-1] == "ok" for r in rows)
        return ("ok" if ok else "unconverged"), None
    if name == "spectrum":
        got = [float(r[2]) for r in rows]
        scale = [abs(v) for v in ref]
    elif name == "eval":
        got = [float(r[1]) for r in rows]
        scale = [abs(v) for v in ref]
        if code == 3 or any(r[4] != "true" for r in rows):
            return "unconverged", None
    elif name == "wavefunction":
        got = [float(r[1]) for r in rows]
        peak = max(abs(v) for v in ref[:-2])
        scale = [peak] * len(got)
        ref = ref[:-2]
        if code == 3 or any(r[2] != "true" for r in rows):
            return "unconverged", None
    else:
        got = [float(r[1]) for r in rows]
        scale = [abs(v) for v in ref]
    if len(got) != len(ref):
        return "wrong", None
    err = max(abs(a - b) / s if s else abs(a - b) for a, b, s in zip(got, ref, scale))
    return ("ok" if err <= REL_TOL else "wrong"), err


# ------------------------------------------------------------------ table

def build(workload: str, g, inputs, refs=None, root: str = "", stderr_path: str = "", rss=None,
          in_process=False):
    if workload == "eval-grid":
        return eval_grid_tasks(g, inputs)
    if workload == "verify-sweep":
        return verify_tasks(g, inputs)
    if workload == "states":
        return states_tasks(g, inputs, refs)
    return cli_tasks(g, inputs, root, stderr_path, rss if rss is not None else [], in_process)


def reference_tasks(workload: str, inputs) -> list[dict]:
    return {"eval-grid": eval_grid_refs, "verify-sweep": verify_refs,
            "states": states_refs, "cli-session": cli_refs}[workload](inputs)


def check(workload: str, task: Task, summary, refs):
    """(outcome, error) of one task's summary; error is None when no value
    was compared."""
    return {"eval-grid": eval_grid_check, "verify-sweep": verify_check,
            "states": states_check, "cli-session": cli_check}[workload](task, summary, refs)
