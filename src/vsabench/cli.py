"""Command-line front end.

Subcommands: ``encode`` (VSAF features -> patch hypervectors), ``map``
(paired or random hypervector mapping), ``loss`` (cyclic / adversarial /
total metrics as JSON), ``bench`` (sweep reports as CSV).

stdout carries only machine-readable results; diagnostics go to stderr.
Exit codes: 0 success, 1 usage, 2 data error, 3 config error. Seeds resolve
as flag > config file > VSAIT_SEED env var > 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from . import lsh, mapping, vsaf
from .errors import (
    ConfigError,
    DegenerateInputError,
    InvalidArgumentError,
    InvalidStateError,
    VsafError,
)
from .hv import QUANTIZE_MODES
from .losses import LossConfig, check_no_zero_vectors, gan_loss, total_loss, vsa_cyclic_loss
from .patches import PatchSpec, assemble_patches, block_lengths, normalize_blocks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CONFIG = 3

DEFAULT_DIM = 4096


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """Flags override config-file values, which override built-in defaults.

    A config-file key the subcommand does not define is a config error.
    """
    cfg = dict(defaults)
    file_cfg = _load_config_file(getattr(args, "config", None))
    unknown = sorted(set(file_cfg) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config key(s) for {args.command}: {', '.join(map(repr, unknown))}")
    cfg.update(file_cfg)
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = flag_value
    return cfg


def _config_number(cfg: dict, key: str, kind: type):
    """``cfg[key]`` converted by ``kind`` (int or float); booleans, fractional
    integers and unconvertible values are config errors rather than coerced."""
    value = cfg[key]
    expected = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be {expected}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be {expected}, got {value!r}") from exc


def _resolve_seed(cfg: dict) -> int:
    if cfg.get("seed") is not None:
        return _config_number(cfg, "seed", int)
    env = os.environ.get("VSAIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"VSAIT_SEED must be an integer, got {env!r}") from exc
    return 0


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be a comma-separated integer list, got {text!r}") from exc


def _parse_grid(text: str) -> list:
    values = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            values.append(int(tok))
            continue
        except ValueError:
            pass
        try:
            values.append(float(tok))
            continue
        except ValueError:
            values.append(tok)
    return values


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def cmd_encode(args) -> int:
    cfg = _merged(args, {
        "features_in": None, "out": None, "dim": DEFAULT_DIM, "seed": None,
        "patch_sizes": None, "dilation": 1, "quantize": "none", "norm_scope": "vector",
    })
    if cfg["features_in"] is None or cfg["out"] is None:
        raise UsageError("encode requires --features-in and --out")
    if cfg["patch_sizes"] is None:
        raise UsageError("encode requires --patch-sizes")
    if cfg["quantize"] not in QUANTIZE_MODES:
        raise ConfigError(f"--quantize must be one of {QUANTIZE_MODES}, got {cfg['quantize']!r}")
    if cfg["norm_scope"] not in ("vector", "per_layer"):
        raise ConfigError(f"--norm-scope must be vector or per_layer, got {cfg['norm_scope']!r}")
    seed = _resolve_seed(cfg)
    n = _config_number(cfg, "dim", int)
    dilation = _config_number(cfg, "dilation", int)

    try:
        fm = vsaf.read_feature_file(cfg["features_in"])
    except OSError as exc:
        raise VsafError(f"cannot read {cfg['features_in']}: {exc}") from exc

    sides = cfg["patch_sizes"]
    if isinstance(sides, str):
        sides = _parse_int_list(sides, "--patch-sizes")
    spec = PatchSpec(sides=tuple(sides), dilation=dilation)
    patches = assemble_patches(fm, spec)
    if cfg["norm_scope"] == "per_layer":
        patches = normalize_blocks(patches, block_lengths(fm, spec))

    projector = lsh.new_projector(m=patches.m, n=n, seed=seed)
    hvs = lsh.project_batch(projector, patches, quantize=cfg["quantize"])
    vsaf.write_hypervectors(hvs, cfg["out"])
    _emit({"patch_count": patches.patch_count, "m": patches.m, "n": n, "seed": seed})
    return EXIT_OK


def cmd_map(args) -> int:
    cfg = _merged(args, {
        "src": None, "tgt": None, "out": None, "mode": "paired",
        "quantize": "none", "seed": None,
    })
    if cfg["src"] is None or cfg["out"] is None:
        raise UsageError("map requires --src and --out")
    if cfg["mode"] not in ("paired", "random"):
        raise ConfigError(f"--mode must be paired or random, got {cfg['mode']!r}")
    seed = _resolve_seed(cfg)

    try:
        src = vsaf.read_hypervectors(cfg["src"])
    except OSError as exc:
        raise VsafError(f"cannot read {cfg['src']}: {exc}") from exc

    if cfg["mode"] == "paired":
        if cfg["tgt"] is None:
            raise UsageError("map --mode paired requires --tgt")
        try:
            tgt = vsaf.read_hypervectors(cfg["tgt"])
        except OSError as exc:
            raise VsafError(f"cannot read {cfg['tgt']}: {exc}") from exc
        u = mapping.estimate_mapping_paired(src, tgt, quantize=cfg["quantize"])
    else:
        u = mapping.random_mapping(patch_count=src.shape[0], dim=src.shape[1], seed=seed)

    vsaf.write_hypervectors(u.per_patch, cfg["out"], layer_name="mapping")
    _emit({"patch_count": u.patch_count, "dim": u.dim, "mode": cfg["mode"], "seed": seed})
    return EXIT_OK


def _load_scores(path: str | None, name: str):
    if path is None:
        return None
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DegenerateInputError(f"cannot read {name} scores from {path}: {exc}") from exc
    try:
        scores = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DegenerateInputError(f"{name} score file {path} is not valid JSON: {exc}") from exc
    return scores


def cmd_loss(args) -> int:
    cfg = _merged(args, {
        "x": None, "cycled": None, "scores_real": None, "scores_fake_translated": None,
        "scores_fake_mapped": None, "lam": 10.0, "variant": "hinge", "w1": 1.0, "w2": 1.0,
    })
    if cfg["x"] is None or cfg["cycled"] is None:
        raise UsageError("loss requires --x and --cycled")

    try:
        v_x = vsaf.read_hypervectors(cfg["x"])
        v_cycled = vsaf.read_hypervectors(cfg["cycled"])
    except OSError as exc:
        raise VsafError(f"cannot read hypervector file: {exc}") from exc
    check_no_zero_vectors(v_x, "x")
    check_no_zero_vectors(v_cycled, "cycled")

    loss_cfg = LossConfig(
        lam=_config_number(cfg, "lam", float),
        fake_term_weights=(_config_number(cfg, "w1", float), _config_number(cfg, "w2", float)),
        variant=cfg["variant"],
    )
    vsa = vsa_cyclic_loss(v_x, v_cycled)

    real = _load_scores(cfg["scores_real"], "real")
    fake_t = _load_scores(cfg["scores_fake_translated"], "fake_translated")
    fake_m = _load_scores(cfg["scores_fake_mapped"], "fake_mapped")
    score_batches = (real, fake_t, fake_m)
    if any(s is not None for s in score_batches) and any(s is None for s in score_batches):
        raise UsageError("loss needs all three score batches or none")

    if real is not None:
        d_loss, g_loss = gan_loss(real, fake_t, fake_m, loss_cfg)
        total = total_loss(g_loss, vsa, loss_cfg)
    else:
        d_loss = g_loss = None
        total = total_loss(0.0, vsa, loss_cfg)

    _emit({
        "vsa": vsa,
        "gan_d": d_loss,
        "gan_g": g_loss,
        "total": total,
        "config": {
            "lambda": loss_cfg.lam,
            "variant": loss_cfg.variant,
            "fake_term_weights": list(loss_cfg.fake_term_weights),
        },
    })
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _merged(args, {
        "axis": "dim", "grid": "128,4096", "dim": 4096, "k": 2, "objects": 32,
        "attrs": 16, "mapping": "ground_truth", "mix": 1.0, "trials": 100,
        "seed": None, "out": None,
    })
    seed = _resolve_seed(cfg)
    base = bench_mod.BenchConfig(
        dim=_config_number(cfg, "dim", int),
        k=_config_number(cfg, "k", int),
        object_vocab_size=_config_number(cfg, "objects", int),
        attr_vocab_size=_config_number(cfg, "attrs", int),
        mapping=cfg["mapping"],
        mix=_config_number(cfg, "mix", float),
        trials=_config_number(cfg, "trials", int),
        seed=seed,
    )
    grid = cfg["grid"]
    if isinstance(grid, str):
        grid = _parse_grid(grid)
    print(f"bench axis={cfg['axis']} grid={grid} base={base}", file=sys.stderr)

    results = bench_mod.run_sweep(cfg["axis"], grid, base)
    csv_text = bench_mod.reports_to_csv(cfg["axis"], results)
    if cfg["out"] is not None:
        Path(cfg["out"]).write_text(csv_text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="vsabench", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("encode", help="project VSAF feature maps to patch hypervectors")
    p.add_argument("--features-in")
    p.add_argument("--out")
    p.add_argument("--dim", type=int, help=f"hypervector dimensionality (default {DEFAULT_DIM})")
    p.add_argument("--seed", type=int)
    p.add_argument("--patch-sizes", help="comma-separated per-layer patch sides, e.g. 16,8,4")
    p.add_argument("--dilation", type=int)
    p.add_argument("--quantize", choices=QUANTIZE_MODES)
    p.add_argument("--norm-scope", dest="norm_scope", choices=("vector", "per_layer"),
                   help="normalize the whole concatenated vector or each layer block first")
    p.add_argument("--config", help="JSON config file; flags override")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("map", help="build a paired or random hypervector mapping")
    p.add_argument("--src")
    p.add_argument("--tgt")
    p.add_argument("--out")
    p.add_argument("--mode", choices=("paired", "random"))
    p.add_argument("--quantize", choices=QUANTIZE_MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("loss", help="cyclic / adversarial / total loss metrics as JSON")
    p.add_argument("--x")
    p.add_argument("--cycled")
    p.add_argument("--scores-real")
    p.add_argument("--scores-fake-translated")
    p.add_argument("--scores-fake-mapped")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--variant", choices=("nll", "hinge"))
    p.add_argument("--w1", type=float)
    p.add_argument("--w2", type=float)
    p.add_argument("--config")
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("bench", help="run a recovery sweep and emit CSV")
    p.add_argument("--axis", choices=bench_mod.SWEEP_AXES)
    p.add_argument("--grid", help="comma-separated axis values")
    p.add_argument("--dim", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--objects", type=int)
    p.add_argument("--attrs", type=int)
    p.add_argument("--mapping", choices=bench_mod.MAPPING_KINDS)
    p.add_argument("--mix", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required (encode, map, loss, bench)")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (VsafError, DegenerateInputError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, InvalidArgumentError, InvalidStateError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
