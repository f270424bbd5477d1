"""One measured operation of the benchmark, in a fresh interpreter.

run.py starts this script once per operation, so that module caches
(``plant._STEADY_STATE_CACHE``) and the peak RSS of one run never carry
over into the next.  It sets the workload up, makes one
``experiments.run`` call, checks the outputs and writes its measurements
as JSON to ``--result``.

Set-up time runs from ``--launched`` (a ``time.monotonic`` reading the
parent takes just before starting this interpreter) to the
``experiments.run`` call, so it covers interpreter start, imports,
config and loading and verifying the model.
"""

import argparse
import json
import math
import pathlib
import resource
import sys
import time
import traceback


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for run artifacts")
    p.add_argument("--result", required=True, help="JSON file to write")
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    return p.parse_args(argv)


class UpdateClock:
    """Latency of each model update, seen from outside the library.

    Online workloads: the stream handed to ``mhe.run_adaptation`` is
    wrapped to read the clock as each sample is yielded, and the
    checkpoint callback reads it again; an update's latency is the time
    from yielding the sample that completes its window to the delivery
    of its checkpoint.  offline-train: one update is one full-batch
    training epoch, timed between the starts of consecutive gradient
    evaluations.
    """

    def __init__(self, online: bool):
        from mhenet import mhe, models
        self.latencies = []        # seconds
        self.nonfinite = 0         # checkpoints with non-finite cost or weights
        self._patched = []
        if online:
            self._patch(mhe, "run_adaptation", self._wrap_adaptation)
        else:
            self._patch(models, "window_loss_and_gradient", self._wrap_gradient)

    def _patch(self, module, attr, wrap):
        fn = getattr(module, attr)
        setattr(module, attr, wrap(fn))
        self._patched.append((module, attr, fn))

    def restore(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)

    def _wrap_adaptation(self, run_adaptation):
        import numpy as np
        clock = time.perf_counter
        last_yield = [0.0]

        def timed_stream(stream):
            for sample in stream:
                last_yield[0] = clock()
                yield sample

        def run(spec, initial_params, stream, config, on_checkpoint=None):
            def delivered(ckpt):
                self.latencies.append(clock() - last_yield[0])
                if not (math.isfinite(ckpt.total_cost)
                        and np.all(np.isfinite(ckpt.solution.values))):
                    self.nonfinite += 1
                if on_checkpoint is not None:
                    on_checkpoint(ckpt)
            return run_adaptation(spec, initial_params, timed_stream(stream),
                                  config, on_checkpoint=delivered)
        return run

    def _wrap_gradient(self, fn):
        clock = time.perf_counter
        starts = []

        def timed(*args, **kwargs):
            now = clock()
            if starts:
                self.latencies.append(now - starts[-1])
            starts.append(now)
            return fn(*args, **kwargs)
        return timed


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    import workloads
    from mhenet import experiments
    import tracer

    cfg = workloads.config(args.workload, args.seed, args.out, tiny=args.tiny)
    if cfg.model_dir is not None:
        workloads.load_model(cfg)
    result = {"setup_s": time.monotonic() - args.launched}
    if args.setup_only:
        pathlib.Path(args.result).write_text(json.dumps(result))
        return 0

    online = cfg.tag != "train"
    clock = UpdateClock(online)
    spans = tracer.Tracer() if args.trace else None
    t0 = time.perf_counter()
    try:
        manifest = experiments.run(cfg)
    except Exception:   # a failed run is a measured outcome, not a crash
        manifest, raised = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    if spans is not None:
        spans.restore()
    clock.restore()

    if manifest is None:
        failures = [f"run raised:\n{raised}"]
    else:
        failures = workloads.check_run(args.workload, cfg, manifest, args.out,
                                       tiny=args.tiny)
    budget = workloads.update_budget_s(cfg)
    result.update({
        "wall_s": wall,
        "latencies_s": clock.latencies,
        "updates": len(clock.latencies) if online else 0,
        "slow_updates": sum(t > budget for t in clock.latencies) if online else 0,
        "nonfinite_updates": clock.nonfinite,
        "failures": failures,
        "metrics": manifest.metrics if manifest is not None else {},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if spans is not None:
        result["layers"] = spans.summary()
        result["absent"] = spans.absent
    pathlib.Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:   # set-up failed: report it and exit non-zero
        traceback.print_exc()
        sys.exit(2)
