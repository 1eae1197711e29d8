"""Per-layer spans and counts for vsabench, recorded without touching src/.

``Tracer.install`` replaces each traced function with a timing wrapper at
every name it is looked up by: each ``vsabench.*`` module attribute that
holds the function (so ``vsabench.cli.assemble_patches`` and
``vsabench.bench.bind`` are caught where their callers find them), or the
class attribute for methods. A traced function that no longer exists is
skipped and reports zero calls, so the trace survives refactors that
remove per-row helpers.

Spans stay in memory as ``[name, start, end, parent, pass_id, child_s,
outer_name, outer_layer]`` and are written out once, at the end.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict

# Hooks turn (args, kwargs, result, seconds) into counter increments. They
# read only what a refactor is unlikely to rename; a hook that raises is
# counted in ``hook_errors`` and never disturbs the traced call.


def _read_bytes(args, kwargs, result, dur):
    return {"vsaf.read.bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _write_bytes(args, kwargs, result, dur):
    return {"vsaf.write.bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _patch_count(args, kwargs, result, dur):
    return {"patches.assemble.patches": result.patch_count}


def _projector_bytes(args, kwargs, result, dur):
    return {"lsh.new_projector.bytes": result.n * result.m * 8}


def _project_flops(args, kwargs, result, dur):
    p = args[0] if args else kwargs["p"]
    return {"lsh.project_batch.flops": 2 * len(result) * p.m * p.n}


def _scanned_bytes(args, kwargs, result, dur):
    mem = args[0]
    return {"memory.cleanup.bytes_scanned": len(mem) * mem.dim * 8}


def _trials(args, kwargs, result, dur):
    out = {"bench.trials": result.trials}
    if result.k == 4:
        out["bench.k4.s"] = dur
        out["bench.k4.trials"] = result.trials
    return out


# (span name, module, attribute, hook). The layer is the span name's prefix.
TRACED = [
    ("cli.main", "vsabench.cli", "main", None),
    ("cli.encode", "vsabench.cli", "cmd_encode", None),
    ("cli.map", "vsabench.cli", "cmd_map", None),
    ("cli.loss", "vsabench.cli", "cmd_loss", None),
    ("vsaf.read", "vsabench.vsaf", "read_feature_file", _read_bytes),
    ("vsaf.read", "vsabench.vsaf", "read_hypervectors", None),
    ("vsaf.write", "vsabench.vsaf", "write_feature_file", _write_bytes),
    ("vsaf.write", "vsabench.vsaf", "write_hypervectors", None),
    ("patches.assemble", "vsabench.patches", "assemble_patches", _patch_count),
    ("patches.normalize", "vsabench.patches", "normalize_blocks", None),
    ("lsh.new_projector", "vsabench.lsh", "new_projector", _projector_bytes),
    ("lsh.project_batch", "vsabench.lsh", "project_batch", _project_flops),
    ("lsh.project", "vsabench.lsh", "project", None),
    ("mapping.estimate_mapping_paired", "vsabench.mapping", "estimate_mapping_paired", None),
    ("mapping.apply_mapping", "vsabench.mapping", "apply_mapping", None),
    ("mapping._as_stack", "vsabench.mapping", "_as_stack", None),
    ("mapping.build_ground_truth_mapping", "vsabench.mapping", "build_ground_truth_mapping", None),
    ("losses.vsa_cyclic_loss", "vsabench.losses", "vsa_cyclic_loss", None),
    ("losses.check_no_zero_vectors", "vsabench.losses", "check_no_zero_vectors", None),
    ("losses.gan_loss", "vsabench.losses", "gan_loss", None),
    ("losses.total_loss", "vsabench.losses", "total_loss", None),
    ("hv.sample_hypervector", "vsabench.hv", "sample_hypervector", None),
    ("hv.bind", "vsabench.hv", "bind", None),
    ("hv.bundle", "vsabench.hv", "bundle", None),
    ("hv.cosine_similarity", "vsabench.hv", "cosine_similarity", None),
    ("memory.add", "vsabench.memory", "ItemMemory.add", None),
    ("memory.cleanup", "vsabench.memory", "ItemMemory.cleanup", _scanned_bytes),
    ("bench.run_sweep", "vsabench.bench", "run_sweep", None),
    ("bench.measure_recovery", "vsabench.bench", "measure_recovery", _trials),
    ("bench.materialize", "vsabench.bench", "materialize", None),
    ("bench.encode_scene", "vsabench.bench", "encode_scene", None),
    ("bench.scene_mapping", "vsabench.bench", "scene_mapping", None),
    ("bench.reports_to_csv", "vsabench.bench", "reports_to_csv", None),
]

LAYERS = ("vsaf", "patches", "lsh", "mapping", "losses", "hv", "memory", "bench", "cli")
PASS_SPAN = "harness.pass"
COUNTERS = ("vsaf.read.bytes", "vsaf.write.bytes", "patches.assemble.patches", "lsh.new_projector.bytes",
            "lsh.project_batch.flops", "memory.cleanup.bytes_scanned", "bench.trials", "bench.k4.s",
            "bench.k4.trials")
# Derived in layer_metrics, except the hit rate, which the workload reads from its CSV.
DERIVED = ("pass.s", "harness.self_s", "lsh.project_batch.gflops_per_s", "bench.trial_s",
           "bench.trial_s_k4", "memory.cleanup.hit_rate")


def metric_names() -> list[str]:
    """Every metric a traced pass yields; those of layers that did not run read 0."""
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "s", "self_s", "share")]
    names += [f"{span[0]}.{kind}" for span in TRACED for kind in ("calls", "s")]
    return sorted(set(names + list(COUNTERS) + list(DERIVED)))


NAME, START, END, PARENT, PASS, CHILD, OUTER_NAME, OUTER_LAYER = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self.hook_errors = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._pass = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; ``uninstall`` puts the originals back."""
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "vsabench" or n.startswith("vsabench."))]
        for name, module, attr, hook in TRACED:
            owner = sys.modules.get(module)
            cls_name, _, attr_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, attr_name, None) if owner is not None else None
            if not callable(orig):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(name, orig, hook)
            if cls_name:
                self._replace(owner, attr_name, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _replace(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, hook):
        layer = name.split(".", 1)[0]
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            depth[name] += 1
            depth[layer] += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._pass, 0.0,
                   depth[name] == 1, depth[layer] == 1]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                depth[name] -= 1
                depth[layer] -= 1
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += end - rec[START]
            if hook is not None:
                try:
                    counts = hook(args, kwargs, result, end - rec[START])
                except Exception:
                    self.hook_errors += 1
                else:
                    bucket = self.counters[self._pass]
                    for key, value in counts.items():
                        bucket[key] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- passes -------------------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self._pass = pass_id
        self._stack.append(len(self.spans))
        self.spans.append([PASS_SPAN, time.perf_counter(), 0.0, -1, pass_id, 0.0, True, True])

    def end_pass(self) -> float:
        rec = self.spans[self._stack.pop()]
        rec[END] = time.perf_counter()
        self._pass = -1
        return rec[END] - rec[START]

    # -- aggregation --------------------------------------------------------

    def pass_metrics(self) -> dict[int, dict[str, float]]:
        """Per traced pass: calls, busy and self seconds per span name and layer."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for rec in self.spans:
            m = out[rec[PASS]]
            dur = rec[END] - rec[START]
            if rec[NAME] == PASS_SPAN:
                m["pass.s"] += dur
                m["harness.self_s"] += dur - rec[CHILD]
                continue
            layer = rec[NAME].split(".", 1)[0]
            m[f"{layer}.self_s"] += dur - rec[CHILD]
            if rec[OUTER_NAME]:
                m[f"{rec[NAME]}.s"] += dur
                m[f"{rec[NAME]}.calls"] += 1
            if rec[OUTER_LAYER]:
                m[f"{layer}.s"] += dur
                m[f"{layer}.calls"] += 1
        for pass_id, counts in self.counters.items():
            out[pass_id].update(counts)
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line, fields as the first line names them; parent is a line index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "pass"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps([rec[NAME], rec[START], rec[END], rec[PARENT], rec[PASS]]) + "\n")


def layer_metrics(per_pass: list[dict[str, float]], extra: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of every per-layer metric, with derived ratios."""
    rows = []
    for m, x in zip(per_pass, extra):
        m = defaultdict(float, {**dict.fromkeys(metric_names(), 0.0), **m, **x})
        wall = m["pass.s"]
        for layer in LAYERS:
            m[f"{layer}.share"] = m[f"{layer}.self_s"] / wall
        if m["lsh.project_batch.s"] > 0:
            m["lsh.project_batch.gflops_per_s"] = m["lsh.project_batch.flops"] / m["lsh.project_batch.s"] / 1e9
        if m["bench.trials"] > 0:
            m["bench.trial_s"] = m["bench.measure_recovery.s"] / m["bench.trials"]
        if m["bench.k4.trials"] > 0:
            m["bench.trial_s_k4"] = m["bench.k4.s"] / m["bench.k4.trials"]
        rows.append(m)
    keys = set().union(*rows)
    return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in sorted(keys)}
