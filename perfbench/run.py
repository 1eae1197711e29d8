#!/usr/bin/env python3
"""vsabench benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload encode-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; vsabench is imported from its ``src/``.
The run sets up several times (import vsabench afresh plus one untimed
warm-up pass), then runs passes with fresh seed-derived inputs until
``--seconds`` have passed, checking every pass against the numpy
references in ``reference.py``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including
``trace.overhead`` (traced over untraced pass median, minus 1). Readable
lines go first; the last stdout line is the JSON result. A record of the
run (environment, working set, output digests, all metrics) and, when
traced, the spans are written under ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import layertrace
import workloads as wl_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "_out"
WORK_DIR = HERE / "_work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

SETUPS = 3  # set-up repetitions whose median is setup_s
MIN_PASSES = 3  # per kind (untraced, traced), even when --seconds is short


def pass_seed(seed: int, stream: int, index: int) -> int:
    """Seed of one pass: stream 0 is set-up, stream 1 the measured passes."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1, np.uint64)[0] >> 1)


def import_vsabench():
    """Import vsabench from the checkout afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "vsabench" or n.startswith("vsabench.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("vsabench")
    importlib.import_module("vsabench.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "vsabench":
        raise ImportError(f"vsabench imported from {pkg.__file__}, not {SRC}")
    return pkg


def blas_info() -> dict:
    """BLAS library and thread count as numpy's bundled OpenBLAS reports them."""
    info = {"blas": "unknown", "blas_threads": None}
    cfg = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{cfg.get('name', 'unknown')} {cfg.get('version', '')}".strip()
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def environment() -> dict:
    def sysconf(code):
        # glibc _SC_LEVEL2_CACHE_SIZE / _SC_LEVEL3_CACHE_SIZE, answered from cpuid
        try:
            value = os.sysconf(code)
        except (ValueError, OSError):
            return None
        return value if value > 0 else None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": sysconf(191),
        "llc_bytes": sysconf(194),
        "machine": platform.machine(),
    }


def measure(workload, seed: int, seconds: float, trace: bool, fault: str | None = None,
            spans_path: Path | None = None) -> dict:
    """Set up, run the timed window and return the run's record.

    ``fault`` names a corruption for ``workload.run`` to inject (self-test
    only); ``spans_path``, when tracing, receives the recorded spans.
    """
    work = WORK_DIR / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _measure(workload, seed, seconds, trace, fault, work, spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK_DIR.rmdir()


def _measure(workload, seed, seconds, trace, fault, work: Path, spans_path) -> dict:
    setups = []
    for i in range(1 if trace else SETUPS):
        p = workload.make_inputs(pass_seed(seed, 0, i), work / f"setup{i}")
        gc.collect()
        start = time.perf_counter()
        pkg = import_vsabench()
        workload.run(pkg, p)
        setups.append(time.perf_counter() - start)
        shutil.rmtree(p.dir)

    tracer = layertrace.Tracer() if trace else None
    plain, traced, extras = [], [], []
    attempted = failed = 0
    errors: dict[str, str] = {}
    digests: dict = {}

    def enough_passes() -> bool:
        return len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)

    window = time.perf_counter()
    index = 0
    while not enough_passes() or time.perf_counter() - window < seconds:
        is_traced = trace and index % 2 == 1
        p = workload.make_inputs(pass_seed(seed, 1, index), work / f"pass{index}")
        gc.collect()
        if is_traced:
            tracer.install()
            try:
                tracer.begin_pass(index)
                workload.run(pkg, p, fault)
                traced.append(tracer.end_pass())
            finally:
                tracer.uninstall()
        else:
            start = time.perf_counter()
            workload.run(pkg, p, fault)
            plain.append(time.perf_counter() - start)
        workload.check(p)
        attempted += len(workload.ops)
        failed += len(p.errors)
        for op, reason in p.errors.items():
            errors.setdefault(op, reason)
        if not p.errors:
            if index == 0:
                digests = workload.digests(p)
            if is_traced:
                extras.append(workload.layer_extras(p))
        elif is_traced:
            extras.append({})
        shutil.rmtree(p.dir)
        index += 1

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digests": digests,
        "working_set_computed": workload.working_set(),
        "pass_s": plain,
        "setup_s": setups,
    }
    if trace:
        per_pass = tracer.pass_metrics()
        layer = layertrace.layer_metrics([per_pass[i] for i in sorted(k for k in per_pass if k >= 0)], extras)
        layer["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
        record["traced_pass_s"] = traced
        record["per_layer"] = layer
        record["missing_functions"] = tracer.missing
        record["hook_errors"] = tracer.hook_errors
        if spans_path is not None:
            tracer.write_spans(spans_path)
    else:
        items = workload.items_per_pass * len(plain)
        record["end_to_end"] = {
            "setup_s": (statistics.median(setups), len(setups), "set-ups"),
            "pass_s_p50": (statistics.median(plain), len(plain), "passes"),
            "items_per_s": (items / sum(plain), items, workload.item),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1, "process"),
        }
    return record


def result_metrics(record: dict, spec: dict) -> dict:
    """The record's metrics named in BENCHMARK.json, with their units; absent ones read 0."""
    if record["trace"]:
        values = record["per_layer"]
        names = spec["per_layer"]
    else:
        values = {k: v[0] for k, v in record["end_to_end"].items()}
        names = spec["end_to_end"]
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "vsabench" / "__init__.py").is_file():
        print(f"error: no vsabench sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    workload = wl_mod.WORKLOADS[args.workload]
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = measure(workload, args.seed, args.seconds, bool(args.trace),
                     spans_path=OUT_DIR / f"{stem}.spans.jsonl" if args.trace else None)
    record["env"] = env

    print(f"# env {json.dumps(env)}")
    caches = {"l2_bytes": env["l2_bytes"], "llc_bytes": env["llc_bytes"]}
    print(f"# working set (computed) {json.dumps(record['working_set_computed'])} beside caches {json.dumps(caches)}")
    print(f"# digests for seed {args.seed} (information, not a gate) {json.dumps(record['digests'])}")
    metrics = result_metrics(record, spec)
    if record["trace"]:
        n = len(record["traced_pass_s"])
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} (median of n={n} traced passes)")
        if record["missing_functions"]:
            print(f"# traced functions absent, reporting 0 calls: {record['missing_functions']}")
    else:
        for name, m in metrics.items():
            _, n, what = record["end_to_end"][name]
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} (n={n} {what})")
    print(f"{args.workload} error_rate = {record['failed'] / max(record['attempted'], 1):.6g} "
          f"({record['failed']} failed of {record['attempted']} operations)")
    for op, reason in record["errors"].items():
        print(f"# failed {op}: {reason}", file=sys.stderr)

    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
