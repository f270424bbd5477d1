"""Spans around the public functions of the mhenet modules.

The tracer replaces module attributes with timing wrappers, so calls made
through the module (``models.simulate(...)``) and calls inside the module
by global name are both recorded.  Each span keeps its parent, so a
layer's self time is its duration minus the time of the spans it caused.
Spans stay in memory; ``summary`` folds them into per-layer metrics.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np

# Traced layers and what each reports besides ``.calls`` and ``.s``.
# ``self_s`` is reported for layers that call other traced layers.
LAYERS = {
    "experiments.run": ("self_s",),
    "plant.step": (),
    "plant.drift_run": ("self_s",),
    "plant.collect_dataset": ("self_s",),
    "models.window_loss_and_gradient": (),
    "models.simulate": (),
    "models.output_jacobian": ("self_s",),
    "models.batch_param_outputs": ("rollouts",),
    "mhe.solve_update": ("self_s", "n_evals", "iterations", "fallbacks",
                         "moved_ratio"),
    "mhe.reconstruct_initial_state": ("self_s",),
    "convergence.estimate_delta": ("self_s", "samples"),
    "training.train_offline": ("self_s", "epochs"),
    "training.evaluate_mse": ("self_s",),
    "mhe.save_checkpoints": (),
    "plant.save_sequence_csv": (),
    "plant.file_sha256": ("bytes",),
    "experiments.emit_plotdata": ("self_s",),
}

UNITS = {"calls": "count", "s": "s", "self_s": "s", "rollouts": "count",
         "n_evals": "count", "iterations": "count", "fallbacks": "count",
         "moved_ratio": "ratio", "samples": "count", "epochs": "count",
         "bytes": "B"}


def metric_names():
    """Every per-layer metric name the tracer reports, with its unit."""
    names = {}
    for layer, extra in LAYERS.items():
        for field in ("calls", "s") + extra:
            names[f"{layer}.{field}"] = UNITS[field]
    return names


def _count_solve(counters, args, kwargs, result):
    prior = args[2] if len(args) > 2 else kwargs["prior"]
    solution, stats = result
    counters["n_evals"] += stats.n_evals
    counters["iterations"] += stats.iterations
    counters["fallbacks"] += solution is prior
    counters["moved"] += not np.array_equal(solution.values, prior.values)


def _count_rollouts(counters, args, kwargs, result):
    counters["rollouts"] += np.shape(args[1] if len(args) > 1
                                     else kwargs["values_batch"])[0]


def _count_samples(counters, args, kwargs, result):
    counters["samples"] += result.n_samples


def _count_epochs(counters, args, kwargs, result):
    counters["epochs"] += len(result[1])


def _count_bytes(counters, args, kwargs, result):
    counters["bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


COUNTERS = {
    "mhe.solve_update": _count_solve,
    "models.batch_param_outputs": _count_rollouts,
    "convergence.estimate_delta": _count_samples,
    "training.train_offline": _count_epochs,
    "plant.file_sha256": _count_bytes,
}


class Tracer:
    """Installs span wrappers on ``LAYERS``; ``restore`` removes them.

    A layer whose function no longer exists is listed in ``absent``
    instead of failing the run.
    """

    def __init__(self):
        self.spans = []                 # [layer, start, end, parent index]
        self.counters = defaultdict(lambda: defaultdict(float))
        self.absent = []
        self._stack = []
        self._patched = []
        for layer in LAYERS:
            module_name, attr = layer.split(".")
            module = importlib.import_module(f"mhenet.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(layer)
                continue
            setattr(module, attr, self._wrap(layer, fn))
            self._patched.append((module, attr, fn))

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        counters, count = self.counters[layer], COUNTERS.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def restore(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-layer metric values; absent layers read 0."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        for layer, start, end, parent in self.spans:
            calls[layer] += 1
            total[layer] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out = {}
        for layer, extra in LAYERS.items():
            c = self.counters[layer]
            values = {"calls": calls[layer], "s": total[layer],
                      "self_s": total[layer] - child[layer],
                      "moved_ratio": c["moved"] / max(calls[layer], 1)}
            for field in ("calls", "s") + extra:
                out[f"{layer}.{field}"] = values.get(field, c[field])
        return out
