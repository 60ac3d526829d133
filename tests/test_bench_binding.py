"""The benchmark in ``perfbench/`` still binds to gch.

Each workload's seed-0 tasks are built through perfbench's own ``entry``,
``ops`` and ``workloads`` modules, with no references and no timing, and
each task runs once.  A change to gch's API that the harness calls
therefore fails here, not only in a benchmark run.  Nothing under
``perfbench/`` is edited.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's (entry, ops, workloads) modules and its Gch binding."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        entry, ops, workloads = (importlib.import_module(name) for name in ("entry", "ops", "workloads"))
        yield entry.Gch(str(ROOT)), ops, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", ["eval-grid", "verify-sweep", "states", "cli-session"])
def test_every_task_runs_without_raising(bench, workload):
    g, ops, workloads = bench
    tasks = ops.build(workload, g, workloads.generate(workload, 0), None, str(ROOT), "", None,
                      in_process=True)
    assert tasks
    summaries = [task.fn() for task in tasks]
    raised = [(task.label, s) for task, s in zip(tasks, summaries) if s[0] == "raised"]
    assert raised == []
    if workload == "cli-session":
        assert [(task.label, s[1]) for task, s in zip(tasks, summaries)] == [
            (task.label, 0) for task in tasks]
