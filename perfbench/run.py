"""aeroinv benchmark: closed-loop inversion workloads with output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload single --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's layer boundaries and prints the per-layer metrics instead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is an ``info``
object (versions, machine, input digest, sample counts, workload-specific
quality).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import bench_metrics as bm

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
SPEED_REPEATS = 3
PROBE_EVERY_S = 0.25


def blas_threads():
    """Thread counts reported by each OpenBLAS loaded into this process."""
    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[Path(lib).name] = fn()
                break
    return out


@dataclass
class OpResult:
    inp: object
    out: object
    error: Exception | None
    start: float
    end: float
    timed: bool
    reasons: list = field(default_factory=list)  # failed checks or error type
    no_models: int = 0  # method calls that found no model, each verified


def slowdown():
    """Machine slowdown against the nominal speed: the median of three
    ``reference_work`` timings over ``REFERENCE_NOMINAL_S``."""
    times = [bm.reference_work() for _ in range(SPEED_REPEATS)]
    return statistics.median(times) / bm.REFERENCE_NOMINAL_S


def timed_at_reference(fn):
    """Run ``fn()``; return its result, its wall time, and that wall time
    divided by the mean slowdown measured just before and just after."""
    before = slowdown()
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    return out, raw, raw / (0.5 * (before + slowdown()))


def probe_import():
    """A fresh interpreter that imports the package."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import aeroinv"
    subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "aeroinv" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import aeroinv
    from aeroinv.errors import AeroinvError
    from aeroinv.simulation_study import fine_grid

    if Path(aeroinv.__file__).resolve().parent != SRC / "aeroinv":
        print(f"error: imported aeroinv from {aeroinv.__file__}", file=sys.stderr)
        return 2

    from bench_trace import EvidenceLog, Tracer, layer_unit
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    # after the tracer, so the capture wraps the traced orthant_integral
    evidence = EvidenceLog()
    evidence.install()

    def label(op):
        evidence.op = op
        if tracer:
            tracer.op = op

    # Inputs, outside every timed region.
    label("synth")
    t0 = time.perf_counter()
    inputs = workload.synthesize(args.seed)
    synth_s = time.perf_counter() - t0
    digest = bm.measurement_digest(inp.meas for inp in inputs)

    # Set-up, repeated: fresh-interpreter imports, then the in-process part.
    # Every timing below is also taken at reference speed: divided by the
    # machine slowdown measured around it (see README, "Machine speed").
    import_s, import_ref_s = [], []
    for _ in range(SETUP_PROBES):
        _, raw, ref = timed_at_reference(probe_import)
        import_s.append(raw)
        import_ref_s.append(ref)
    build_s, build_ref_s = [], []
    for b in range(workload.setup_repeats):
        label(f"setup{b}")
        ctx = None  # free the previous build before timing the next
        ctx, raw, ref = timed_at_reference(workload.setup)
        build_s.append(raw)
        build_ref_s.append(ref)
    setup_s = statistics.median(import_s) + statistics.median(build_s)
    setup_ref_s = statistics.median(import_ref_s) + statistics.median(build_ref_s)

    # Closed loop: one op at a time until both the op time and the op floor
    # are met.  Ops past the timed floor up to the quality window run untimed.
    # The machine's slowdown is probed every PROBE_EVERY_S: untraced, from a
    # one-shot timer re-armed after each probe, so probes also fall inside
    # long ops and never overlap; traced, only between ops, so no span
    # contains a probe.
    results = []
    probes = []  # (start, end, slowdown)

    def probe():
        t0 = time.perf_counter()
        s = slowdown()
        probes.append((t0, time.perf_counter(), s))

    def on_timer(signum, frame):
        probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def run_op(i, inp, fn, timed):
        label(i)
        t0 = time.perf_counter()
        try:
            out, err = fn(ctx, inp), None
        except AeroinvError as exc:
            out, err = None, exc
        results.append(OpResult(inp, out, err, t0, time.perf_counter(), timed))

    probe()
    if not tracer:
        signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
    op_time = 0.0
    for i, inp in enumerate(inputs):
        if i >= workload.timed_ops and op_time >= args.seconds:
            break
        if tracer and time.perf_counter() - probes[-1][1] >= PROBE_EVERY_S:
            probe()
        run_op(i, inp, workload.run, timed=True)
        op_time += results[-1].end - results[-1].start
    signal.setitimer(signal.ITIMER_REAL, 0)
    probe()
    for i in range(len(results), workload.window_ops):
        run_op(i, inputs[i], workload.run_untimed, timed=False)
    label(None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks on every op; quality over the op window every run completes.
    fgrid = fine_grid()
    window = results[: workload.window_ops]
    quality = {}
    failures = {}
    for res in results:
        if res.error is not None:
            res.reasons = [type(res.error).__name__]
        else:
            res.reasons = workload.check(ctx, res.inp, res.out)
            res.no_models = workload.no_models(res.out)
        for reason in res.reasons:
            failures[reason] = failures.get(reason, 0) + 1
    for res in window:
        if res.out is not None:
            for key, vals in workload.quality(res.inp, res.out, fgrid).items():
                quality.setdefault(key, []).extend(vals)

    if "l2" not in quality:
        print("error: no op in the quality window returned an output", file=sys.stderr)
        return 1
    failed = sum(bool(res.reasons) for res in results)
    bad_outputs = sum(bool(res.reasons) for res in results if res.error is None)
    window_fail = sum(bool(res.reasons) for res in window)
    window_not_ok = sum(bool(res.reasons or res.no_models) for res in window)
    evidence_summary = evidence.summary(set(range(len(window))))
    if workload.ranks_by_evidence and evidence_summary is None:
        print("error: no joint orthant integral was recorded", file=sys.stderr)
        return 1

    # Each timed op at reference speed: its time outside the probes, each
    # stretch between two probes divided by their mean slowdown.
    timed_ops = [res for res in results if res.timed]
    raw_lat, ref_lat, ok_raw = [], [], []
    for res in timed_ops:
        busy, ref = bm.reference_time(res.start, res.end, probes)
        raw_lat.append(busy)
        ref_lat.append(ref)
        if not res.reasons:
            ok_raw.append(busy)
    n_ok = len(ok_raw)
    tail_p = bm.tail_percentile(workload.timed_ops)
    if not ok_raw:
        tail_s = None
    elif tail_p is None:
        tail_s = max(ok_raw)
    else:
        tail_s = bm.percentile(ok_raw, tail_p)

    l2 = np.asarray(quality["l2"])
    end_to_end = {
        "setup_s": (setup_ref_s, "s"),
        "ops_per_s": (n_ok / sum(ref_lat), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "ok_frac": (1.0 - window_not_ok / len(window), "1"),
        "l2_err_tmean_pct": (bm.trimmed_mean(l2), "%"),
    }
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": load_at_start,
        "blas_threads": blas_threads(),
        "inputs": len(inputs),
        "input_digest": digest,
        "synth_s": synth_s,
        "setup_import_s": import_s,
        "setup_build_s": build_s,
        "raw_setup_s": setup_s,
        "slowdown_probes": len(probes),
        "slowdown_median": statistics.median(s for _, _, s in probes),
        "ops": len(results),
        "timed_ops": len(timed_ops),
        "ops_failed": failed,
        "failures": failures,
        "window_ops": len(window),
        "window_failed": window_fail,
        "no_model_calls": sum(res.no_models for res in results),
        "window_no_model_ops": sum(bool(res.no_models) for res in window),
        "raw_ops_per_s": n_ok / sum(raw_lat),
        "latency_samples": len(ok_raw),
        "op_p50_s": statistics.median(ok_raw) if ok_raw else None,
        "op_tail_s": tail_s,
        "tail_percentile": tail_p if tail_p is not None else 100.0,
        "l2_samples": int(l2.size),
        "l2_err_mean_pct": float(l2.mean()),
        "l2_err_p50_pct": float(np.median(l2)),
        "l2_over_100pct": int(np.sum(l2 >= 100.0)),
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
    }
    if evidence_summary is not None:
        info.update(evidence_summary)
    if "frac_dev" in quality:
        info["frac_dev_mean_pct"] = float(np.mean(quality["frac_dev"]))

    if tracer:
        ops = {i: (res.start, res.end) for i, res in enumerate(window)}
        layer = tracer.layer_metrics(ops, "setup0")
        layer["orthant_mvn.evidence_relerr_mean"] = info.get(
            "evidence_relerr_mean", 0.0
        )
        layer["orthant_mvn.evidence_unreliable_frac"] = info.get(
            "evidence_unreliable_frac", 0.0
        )
        layer["two_component.frac_dev_mean_pct"] = info.get("frac_dev_mean_pct", 0.0)
        layer["simulation_study.synth_s"] = synth_s
        layer["op.traced_ops_per_s"] = end_to_end["ops_per_s"][0]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
        SPAN_DIR.mkdir(parents=True, exist_ok=True)
        tracer.dump(SPAN_DIR / f"spans-{workload.name}-seed{args.seed}.json")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": bad_outputs == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
