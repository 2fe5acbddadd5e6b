#!/usr/bin/env python3
"""curveext benchmark: time to verdict of four experiment workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it imports curveext from ./src.  Each run
first times SETUP_REPS set-ups: a fresh interpreter importing curveext,
plus building the workload's inputs from the seed.  Then, untraced, it
repeats the workload's experiment (about a second each) until --seconds
are used and reports the median repetition after a warm-up one.  Traced, it
alternates untraced and traced set-up+experiment units; the per-layer
metrics come from the traced unit with the median wall time.  Outputs are
checked after the timed region.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5

# (metric, unit, better)
END_TO_END = [
    ("wall_ref", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("evals_per_ref", "1/ref", "higher"),
    ("peak_alloc_mb", "MB", "lower"),
]

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import curveext.lab, curveext.decomposition\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds():
    """Import time of curveext (numpy and scipy included) in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout)


def reference_kernel():
    """A fixed kernel, independent of curveext, timed between repetitions.

    It mixes what the workloads spend their time on: a Python loop, complex
    exp and a small GEMM.  Dividing a repetition by the reference times on
    either side of it cancels most of a shared host's speed drift, which
    reached 60 % for minutes at a time on a 2-CPU share of a busy host.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((200, 200))
    x = np.exp(1j * a)
    for _ in range(4):
        x = x @ x
        x /= np.abs(x).max()
    s = 0
    for i in range(100_000):
        s += i * i
    return s


def _timed(fn):
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception:
        traceback.print_exc()
        out = None
    return time.perf_counter() - t0, out


def repeat(unit, seconds, between=None):
    """Call unit() until the next call would end past `seconds`; always once.

    With `between`, it is also called before each unit() and after the last.
    Returns (durations, outputs, between durations); a call that raised has
    output None.
    """
    times, outs, gaps = [], [], []
    end = time.perf_counter() + seconds
    while True:
        if between is not None:
            gaps.append(_timed(between)[0])
        dt, out = _timed(unit)
        times.append(dt)
        outs.append(out)
        if time.perf_counter() + statistics.median(times) > end:
            if between is not None:
                gaps.append(_timed(between)[0])
            return times, outs, gaps


def judge(wl, outs):
    """(attempted, failed) operations over all outputs of one workload.

    The output check runs once, on the first output; every other output
    must be byte-identical to it.  A raised run fails all its operations.
    """
    ref = next((o for o in outs if o is not None), None)
    check_failed = set(wl.op_ids)
    if ref is not None:
        ref_bytes = pickle.dumps(ref)
        try:
            check_failed = wl.check(ref)
        except Exception:
            traceback.print_exc()
    attempted = failed = 0
    for out in outs:
        attempted += len(wl.op_ids)
        if out is None or pickle.dumps(out) != ref_bytes:
            failed += len(wl.op_ids)
            continue
        ok = wl.verdicts(out)
        failed += len({op for op in wl.op_ids if not ok[op]} | check_failed)
    return attempted, failed


def _measure_untraced(wl, seconds):
    # The first repetition warms up under tracemalloc, which gives the peak
    # of memory allocated by one repetition (numpy arrays included).  Peak
    # RSS is not used: where worker threads overlap their block matrices it
    # moved by up to 16 % between runs of the same inputs.
    start = time.perf_counter()
    tracemalloc.start()
    try:
        _, first = _timed(wl.run)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    times, outs, refs = repeat(wl.run, seconds - (time.perf_counter() - start),
                               between=reference_kernel)
    attempted, failed = judge(wl, [first] + outs)
    rel = [t / (0.5 * (a + b)) for t, a, b in zip(times, refs, refs[1:])]
    wall = statistics.median(rel)
    metrics = {"wall_ref": wall, "evals_per_ref": wl.evals / wall, "peak_alloc_mb": peak}
    return attempted, failed, metrics, {"wall_s": times, "reference_s": refs}, []


def _measure_traced(cls, wl, seed, size, seconds):
    """Alternate untraced and traced set-up+experiment units, so that the
    order of the two does not bias trace.overhead_s."""
    import tracing

    def unit():
        w = cls(seed, size)
        return w, w.run()

    recs, plain_times = [], []

    def pair():
        t0 = time.perf_counter()
        plain = unit()
        plain_times.append(time.perf_counter() - t0)
        rec = tracing.Recorder()
        with tracing.instrument(rec), rec.span("rep"):
            traced = unit()
        recs.append(rec)
        return plain, traced

    _, pairs, _ = repeat(pair, seconds)
    outs = []
    for p in pairs:
        outs += [None, None] if p is None else [p[0][1], p[1][1]]
    attempted, failed = judge(wl, outs)
    walls = [r.spans[0][2] - r.spans[0][1] for r in recs]
    metrics = {m: 0.0 for m, _, _ in tracing.PER_LAYER}
    if recs:
        median_unit = sorted(range(len(recs)), key=walls.__getitem__)[(len(recs) - 1) // 2]
        metrics.update(recs[median_unit].metrics())
        metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain_times)
    ratios = [t1 / tn for t1, tn in getattr(wl, "eval_seconds", ())]
    metrics["speedup_nproc"] = statistics.median(ratios) if ratios else 0.0
    metrics["failed_frac"] = failed / attempted
    samples = {"untraced_unit_s": plain_times, "traced_unit_s": walls}
    spans = [[[n, s - r.spans[0][1], e - r.spans[0][1], p] for n, s, e, p in r.spans]
             for r in recs]
    return attempted, failed, metrics, samples, spans


def measure(name, seed, seconds, trace, size="full"):
    """One benchmark run; returns (result, samples, spans of traced units)."""
    import workloads

    cls = workloads.WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPS):
        imported = import_seconds()
        t0 = time.perf_counter()
        wl = cls(seed, size)
        setups.append(imported + time.perf_counter() - t0)
    if trace:
        import tracing

        attempted, failed, metrics, samples, spans = _measure_traced(
            cls, wl, seed, size, seconds)
        table = tracing.PER_LAYER
    else:
        attempted, failed, metrics, samples, spans = _measure_untraced(wl, seconds)
        metrics["setup_s"] = statistics.median(setups)
        table = END_TO_END
    samples["setup_s"] = setups
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u, _ in table},
    }
    return result, samples, spans


def _source_digest():
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit():
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(seed):
    import numpy
    import scipy

    from workloads import nproc

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "curveext" / "__init__.py").is_file():
        print(f"curveext sources not found under {SRC}", file=sys.stderr)
        return 2
    # one BLAS/OpenMP thread per process, fixed before numpy is imported
    for key in THREAD_ENV:
        os.environ[key] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, samples, spans = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    if spans:
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"], "units": spans}))
    print("env: " + json.dumps(environment(args.seed)))
    print("samples: " + json.dumps(samples))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
