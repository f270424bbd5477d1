"""mhenet benchmark: drift-adapt, offline-train and (by hand) twin-converge.

Run from the repository root:

    python3 perfbench/run.py --workload drift-adapt --seed 0 --seconds 35 --trace 0

Each operation is one ``mhenet.experiments.run`` call at acceptance-suite
scale, made in a fresh interpreter (perfbench/child.py) with BLAS pinned to
one thread.  Operations run back to back (a closed loop, one client) until
the next one would end past ``--seconds``; at least one always runs.
Artifacts go to a temporary directory inside the checkout that is removed
at exit.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` operations alternate untraced
and traced, and it holds the per-layer metrics of the traced ones together
with the tracing overhead.  Exit status is non-zero, with no JSON line, if
the benchmark cannot run at all.  perfbench/README.md lists the metrics and
which layer should move which end-to-end figure.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402
import tracer  # noqa: E402  (numpy only; mhenet is imported by the children)

WORKLOADS = ("drift-adapt", "twin-converge", "offline-train")

# result quality from the manifest: a speed-up must not buy its gain with
# fit (drift-adapt reports adapted_mse, offline-train train_mse)
QUALITY = ("adapted_mse", "train_mse")

# set-up is short and noisy, so every run measures it this many extra times
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run in this directory."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="criterion-10 sizes, for the self-test")
    return p.parse_args(argv)


def child_env(root):
    src = root / "src"
    if not (src / "mhenet" / "__init__.py").is_file():
        raise BenchmarkError(f"no mhenet sources under {src}; run from the "
                             f"repository root")
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args, env, work, name, trace=False, setup_only=False):
    """One operation in a fresh interpreter; returns its measurements."""
    out = work / name
    result = work / f"{name}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--result", str(result)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--tiny"] * args.tiny
    launched = time.monotonic()
    proc = subprocess.run(cmd + ["--launched", repr(launched)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(proc.stdout)
        raise BenchmarkError(f"{name} exited with status {proc.returncode}")
    return json.loads(result.read_text())


def measure(args, env, work, deadline_s):
    """Set-up probes, then operations until the next would pass the deadline."""
    setups = [] if args.trace else [
        run_child(args, env, work, f"setup{i}", setup_only=True)["setup_s"]
        for i in range(SETUP_PROBES)]
    ops = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for trace in ((False, True) if args.trace else (False,)):
            ops.append((trace, run_child(args, env, work, f"op{len(ops)}", trace=trace)))
        took = time.monotonic() - t0
        if time.monotonic() - start + took > deadline_s:
            return setups, ops


def account(ops):
    """(attempted, failed, failure lines): each run and online update counts."""
    attempted = failed = 0
    lines = []
    for i, (_, r) in enumerate(ops):
        attempted += 1 + r["updates"]
        failed += r["slow_updates"] + r["nonfinite_updates"]
        if r["slow_updates"]:
            lines.append(f"op {i}: {r['slow_updates']} updates over budget")
        if r["nonfinite_updates"]:
            lines.append(f"op {i}: {r['nonfinite_updates']} non-finite updates")
        if r["failures"]:
            failed += 1
            lines += [f"op {i}: {f}" for f in r["failures"]]
    return attempted, failed, lines


def end_to_end(setups, ops):
    done = [r for _, r in ops]
    return {
        "setup_s": (statistics.median(setups + [r["setup_s"] for r in done]), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in done), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in done), "MB"),
    }


def updates_and_quality(ops):
    """Update-latency percentiles and result quality of the untraced operations.

    Both follow the seed more than any bound allows: twin-converge's update
    latency follows its LM iteration count (2 to 9 per update), and fit
    follows the drift run or dataset.  So they are printed with the
    end-to-end metrics and reported with the per-layer ones, not gated.
    """
    plain = [r for t, r in ops if not t]
    latencies_ms = [1e3 * t for r in plain for t in r["latencies_s"]] or [0.0]
    p50, p95 = numpy.percentile(latencies_ms, [50, 95])
    out = {"update_p50_ms": (float(p50), "ms"), "update_p95_ms": (float(p95), "ms")}
    # 0 where the workload does not produce the metric
    for name in QUALITY:
        out[name] = (statistics.median(r["metrics"].get(name, 0.0) for r in plain),
                     "mse")
    return out, sum(len(r["latencies_s"]) for r in plain)


def per_layer(ops):
    traced = [r for t, r in ops if t]
    plain = [r for t, r in ops if not t]
    out = {name: (statistics.median(r["layers"][name] for r in traced), unit)
           for name, unit in tracer.metric_names().items()}
    out.update(updates_and_quality(ops)[0])
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain), "s")
    return out, sorted({a for r in traced for a in r["absent"]})


def environment():
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), **BLAS_ENV}


def main(argv=None):
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    try:
        env = child_env(root)
        with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=root) as tmp:
            setups, ops = measure(args, env, pathlib.Path(tmp), args.seconds)
    except (BenchmarkError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    for i, (traced, r) in enumerate(ops):
        print(f"op {i}{' traced' if traced else ''}: wall_s {r['wall_s']:.3f}, "
              f"setup_s {r['setup_s']:.3f}, {len(r['latencies_s'])} updates")
    attempted, failed, lines = account(ops)
    for line in lines:
        print(f"FAILED {line}")
    print("env " + json.dumps(environment()))
    if args.trace:
        metrics, absent = per_layer(ops)
        print(f"traced {sum(t for t, _ in ops)} of {len(ops)} operations; "
              f"absent layers: {', '.join(absent) or 'none'}; tracing overhead "
              f"{metrics['trace.overhead_s'][0]:.3f} s")
    else:
        metrics = end_to_end(setups, ops)
        extra, n_updates = updates_and_quality(ops)
        print(f"{len(ops)} operations, {len(setups) + len(ops)} set-ups, "
              f"{n_updates} update latencies")
        for name, (value, unit) in extra.items():
            print(f"{name} = {value:.6g} {unit} (not gated)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
