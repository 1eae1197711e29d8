#!/usr/bin/env python3
"""Self-test of the benchmark, on reduced sizes of every workload.

    python3 perfbench/selftest.py

For each workload it checks that an untraced and a traced run emit every
metric BENCHMARK.json names, with no failed operation, and that each layer
the workload exercises reports calls. It then injects one fault per
correctness check (a corrupted cycled file, a wrong mapping entry, a wrong
loss value, a mislabelled sweep row) and requires the failure to be
counted against the operation it corrupts. Finally it traces a function
that does not exist and requires zero calls instead of a failure.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys

import layertrace
import run
import workloads

LAYERS_RUN = {
    "encode": ("cli", "vsaf", "patches", "lsh", "mapping", "losses", "hv"),
    "flip": ("bench", "hv", "memory", "mapping"),
}
FAULT_OPS = {
    "encode": {"cycled": "cycle", "mapping": "map", "loss": "loss"},
    "flip": {"mislabel": None},  # the last operation: the last sweep's last row
}


def main() -> int:
    spec = json.loads(run.BENCHMARK_JSON.read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.SRC))
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name, wl in workloads.SMALL.items():
        kind = name.split("-")[0]
        for trace in (False, True):
            rec = run.measure(wl, seed=3, seconds=0.01, trace=trace)
            metrics = run.result_metrics(rec, spec)
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            measured = {**rec.get("per_layer", {}), **rec.get("end_to_end", {})}
            absent = [n for n in names if n not in measured]
            expect(not absent and list(metrics) == names,
                   f"{name} trace={int(trace)} measures and emits every named metric {absent or ''}")
            expect(rec["failed"] == 0 and rec["attempted"] > 0,
                   f"{name} trace={int(trace)} has no failed operation {rec['errors'] or ''}")
            if trace:
                idle = [layer for layer in LAYERS_RUN[kind] if not metrics[f"{layer}.calls"]["value"] > 0]
                expect(not idle, f"{name} traces calls in {LAYERS_RUN[kind]} {idle or ''}")
            else:
                zero = [n for n, m in metrics.items() if not m["value"] > 0]
                expect(not zero, f"{name} end-to-end metrics are positive {zero or ''}")

        for fault, op in FAULT_OPS[kind].items():
            op = op or wl.ops[-1]
            rec = run.measure(wl, seed=3, seconds=0.01, trace=False, fault=fault)
            passes = rec["attempted"] // len(wl.ops)
            expect(rec["failed"] == passes and set(rec["errors"]) == {op},
                   f"{name} fault {fault!r} fails {op!r} in every pass: {rec['failed']} of "
                   f"{rec['attempted']} {sorted(rec['errors'])}")

    gone = ("mapping.gone", "vsabench.mapping", "function_removed_by_a_refactor", None)
    layertrace.TRACED.append(gone)
    try:
        rec = run.measure(workloads.SMALL["encode-many"], seed=3, seconds=0.01, trace=True)
    finally:
        layertrace.TRACED.remove(gone)
    expect(rec["failed"] == 0 and rec["missing_functions"] == ["vsabench.mapping.function_removed_by_a_refactor"]
           and rec["per_layer"].get("mapping.gone.calls", 0.0) == 0.0,
           "a traced function that no longer exists reports zero calls")

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
