"""Spans around the calls into each gch layer, recorded from outside.

:class:`Tracer` wraps the functions ``entry.LAYERS`` names, at their own
module attribute and at every other ``gch`` module attribute bound to the
same function (``gch.verify.eval_general``, ``gch.cli.eval_qw_infinite``,
``gch.spectra.betas_from_omega``, the package's re-exports).  A span is
``(function, start, end, parent, op_id, info)``; spans stay in memory
until :meth:`Tracer.write`.  A layer's self time is the sum over its
spans of the duration minus the time covered by child spans.

:meth:`Tracer.run_task` runs one benchmark task inside a root span of its
own, layer ``bench``: its self time is the benchmark's call adapter, so
the traced wall time is covered by spans up to the cost of that call.

The import layer comes from ``python -X importtime -c "import gch.cli"``.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from time import perf_counter

from entry import LAYERS


class Tracer:
    def __init__(self, g):
        self.spans: list = []
        self.names: list[tuple[str, str]] = []  # (layer, function) per wrapped function
        self._stack: list[int] = []
        self.op_id = -1
        self._bindings: list = []  # (module, attribute, original, wrapper)
        originals = {}
        for layer, names in LAYERS.items():
            module = g.modules[layer]
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn) and getattr(fn, "__module__", None) == module.__name__:
                    originals[id(fn)] = (fn, self._wrap(fn, len(self.names)))
                    self.names.append((layer, name))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "gch" or modname.startswith("gch.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value, hit[1]))
        self.names.append(("bench", "task"))
        self.run_task = self._wrap(lambda task: task(), len(self.names) - 1)

    def _wrap(self, fn, index):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            # the span includes the wrapper's own bookkeeping, so tracing
            # cost lands in the layer that paid it rather than between spans
            start = perf_counter()
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            info = None
            try:
                result = fn(*args, **kwargs)
                info = _info(result)
                return result
            except BaseException as exc:
                info = type(exc).__name__
                raise
            finally:
                stack.pop()
                spans[slot] = (index, start, perf_counter(), parent, self.op_id, info)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times over every recorded span."""
        n = len(self.spans)
        child = [0.0] * n
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        layers = (*LAYERS, "bench")
        m = {f"{layer}.self_s": 0.0 for layer in layers}
        m.update({f"{layer}.calls": 0 for layer in layers})
        m.update({"series.inner_steps": 0, "series.orders": 0, "series.unconverged": 0,
                  "recurrence.terms": 0, "recurrence.coefficients_s": 0.0,
                  "verify.residual_calls": 0, "verify.residual_s": 0.0,
                  "spectra.normalize_self_s": 0.0, "spectra.normalize_refused": 0,
                  "trace.root_s": 0.0})
        for i, (index, start, end, parent, _, info) in enumerate(self.spans):
            layer, name = self.names[index]
            own = end - start - child[i]
            m[f"{layer}.self_s"] += own
            if parent < 0:
                m["trace.root_s"] += end - start
            entry = parent < 0 or self.names[self.spans[parent][0]][0] != layer
            if entry:
                m[f"{layer}.calls"] += 1
            if layer == "series" and entry and isinstance(info, tuple) and info[0] == "eval":
                m["series.inner_steps"] += info[1]
                m["series.orders"] += info[2]
                m["series.unconverged"] += 0 if info[3] else 1
            elif layer == "recurrence":
                if isinstance(info, tuple):  # sum_series terms, coefficients count
                    m["recurrence.terms"] += info[1]
                if name == "coefficients":
                    m["recurrence.coefficients_s"] += own
            elif name == "ode_residual":
                m["verify.residual_calls"] += 1
                m["verify.residual_s"] += own
            elif name == "normalize":
                m["spectra.normalize_self_s"] += own
                if info == "TailNotDecayed":
                    m["spectra.normalize_refused"] += 1
        steps = m["series.inner_steps"]
        m["series.ns_per_step"] = 1e9 * m["series.self_s"] / steps if steps else 0.0
        return m

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, start, end, parent, op_id, _ in self.spans:
                layer, name = self.names[index]
                fh.write(json.dumps({"name": f"{layer}.{name}", "start": start, "end": end,
                                     "parent": parent, "op_id": op_id}) + "\n")


def _info(result):
    """Counts a span keeps from its result: ("eval", terms_used, orders,
    converged) for EvalResult-like values, ("list", len) for lists."""
    if hasattr(result, "terms_used") and hasattr(result, "converged"):
        orders = getattr(result, "orders", None)
        return ("eval", result.terms_used, len(orders) if orders else 0, result.converged)
    if isinstance(result, list):
        return ("list", len(result))
    return None


_IMPORTTIME = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)")


def import_split(env: dict, cwd: str, runs: int = 3) -> dict:
    """Median over ``runs`` of the cumulative import time of numpy, and of
    the rest of what ``import gch.cli`` pulls in, from -X importtime."""
    numpy_s, gch_s = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gch.cli"],
                              cwd=cwd, env=env, capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            mt = _IMPORTTIME.match(line)
            if mt:
                cumulative.setdefault(mt.group(2), int(mt.group(1)) * 1e-6)
        numpy_s.append(cumulative.get("numpy", 0.0))
        gch_s.append(cumulative["gch.cli"] - numpy_s[-1])
    return {"import.numpy_s": statistics.median(numpy_s), "import.gch_s": statistics.median(gch_s)}
