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
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import bench as bench_mod
from . import lsh, mapping, vsaf
from .errors import (
    ConfigError,
    DegenerateInputError,
    InvalidArgumentError,
    InvalidStateError,
    VsafError,
)
from .hv import QUANTIZE_MODES, as_float, as_int
from .losses import VARIANTS, LossConfig, _scores, check_no_zero_vectors, gan_loss, total_loss, vsa_cyclic_loss
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


def _path(value) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"must be a nonempty path, got {value!r}")
    return value


def _int_list(value) -> list[int]:
    """Comma-separated text or a list, each entry an integer."""
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok != ""]
    if not isinstance(value, list):
        raise ConfigError(f"must be a list of integers, got {value!r}")
    return [as_int(v, "integers") for v in value]


def _grid_token(tok: str):
    for kind in (int, float):
        try:
            return kind(tok)
        except ValueError:
            pass
    return tok


def _grid(value) -> list:
    """Comma-separated text, each token read as an int, else a float, else a string; or a list."""
    if isinstance(value, str):
        return [_grid_token(tok.strip()) for tok in value.split(",") if tok.strip()]
    if not isinstance(value, list):
        raise ConfigError(f"must be a list or comma-separated values, got {value!r}")
    return value


class _Choice(tuple):
    """A converter that accepts exactly its members."""

    def __call__(self, value):
        if value not in self:
            raise ConfigError(f"must be one of {', '.join(self)}, got {value!r}")
        return value


class Option(NamedTuple):
    """A subcommand option: config key, the converter that checks and types its flag
    and config-file values, default, and flag if not ``--key-with-dashes``."""

    key: str
    convert: Callable
    default: object = None
    help: str | None = None
    flag: str | None = None


_BENCH = bench_mod.BenchConfig()
_LOSS = LossConfig()
_QUANTIZE = Option("quantize", _Choice(QUANTIZE_MODES), "none")
_SEED = Option("seed", as_int)

OPTIONS = {
    "encode": (
        Option("features_in", _path),
        Option("out", _path),
        Option("dim", as_int, DEFAULT_DIM, f"hypervector dimensionality (default {DEFAULT_DIM})"),
        _SEED,
        Option("patch_sizes", _int_list, help="comma-separated per-layer patch sides, e.g. 16,8,4"),
        Option("dilation", as_int, 1),
        _QUANTIZE,
        Option("norm_scope", _Choice(("vector", "per_layer")), "vector",
               "normalize the whole concatenated vector or each layer block first"),
    ),
    "map": (
        Option("src", _path),
        Option("tgt", _path),
        Option("out", _path),
        Option("mode", _Choice(("paired", "random")), "paired"),
        _QUANTIZE,
        _SEED,
    ),
    "loss": (
        Option("x", _path),
        Option("cycled", _path),
        Option("scores_real", _path),
        Option("scores_fake_translated", _path),
        Option("scores_fake_mapped", _path),
        Option("lam", as_float, _LOSS.lam, flag="--lambda"),
        Option("variant", _Choice(VARIANTS), _LOSS.variant),
        Option("w1", as_float, _LOSS.fake_term_weights[0]),
        Option("w2", as_float, _LOSS.fake_term_weights[1]),
    ),
    "bench": (
        Option("axis", _Choice(bench_mod.SWEEP_AXES), "dim"),
        Option("grid", _grid, [128, 4096], "comma-separated axis values"),
        Option("dim", as_int, _BENCH.dim),
        Option("k", as_int, _BENCH.k),
        Option("objects", as_int, _BENCH.object_vocab_size),
        Option("attrs", as_int, _BENCH.attr_vocab_size),
        Option("mapping", _Choice(bench_mod.MAPPING_KINDS), _BENCH.mapping),
        Option("mix", as_float, _BENCH.mix),
        Option("trials", as_int, _BENCH.trials),
        _SEED,
        Option("out", _path),
    ),
}


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


def _merged(args: argparse.Namespace) -> dict:
    """Flags override config-file values, which override the table's defaults.
    A config-file key the subcommand does not define, or a value its option's
    converter rejects (even one a flag overrides), is a config error."""
    options = {opt.key: opt for opt in OPTIONS[args.command]}
    file_cfg = _load_config_file(args.config)
    unknown = sorted(set(file_cfg) - set(options))
    if unknown:
        raise ConfigError(f"unknown config key(s) for {args.command}: {', '.join(map(repr, unknown))}")
    cfg = {key: opt.default for key, opt in options.items()}
    for key, value in file_cfg.items():
        try:
            cfg[key] = options[key].convert(value)
        except ValueError as exc:
            raise ConfigError(f"{key} {exc}") from exc
    cfg.update((key, value) for key, value in vars(args).items() if key in cfg and value is not None)
    return cfg


def _flag_type(convert: Callable) -> Callable:
    """``convert`` as an argparse type whose usage error names the flag and the reason."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _resolve_seed(cfg: dict) -> int:
    if cfg["seed"] is not None:
        return cfg["seed"]
    try:
        return as_int(os.environ.get("VSAIT_SEED", 0))
    except InvalidArgumentError as exc:
        raise ConfigError(f"VSAIT_SEED {exc}") from exc


def _read(read, path: str):
    try:
        return read(path)
    except OSError as exc:
        raise VsafError(f"cannot read {path}: {exc}") from exc


def _check_out(path: str) -> None:
    """Fail before any work unless ``path`` names a file that can be written:
    its directory exists and is writable, and it is not itself a directory.
    Nothing is created or truncated."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(parent):
        problem = f"no such directory {parent}"
    elif not os.access(parent, os.W_OK | os.X_OK):
        problem = f"directory {parent} is not writable"
    else:
        return
    raise VsafError(f"cannot write {path}: {problem}")


def _write(write, path: str) -> None:
    """Run ``write(path)``. An OSError becomes a data error, and a regular file
    the write opened but did not finish is removed."""
    try:
        write(path)
    except OSError as exc:
        # open() names the path in its error; a failed write or close does not
        if exc.filename is None and os.path.isfile(path):
            with contextlib.suppress(OSError):
                os.remove(path)
        raise VsafError(f"cannot write {path}: {exc}") from exc


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def cmd_encode(args) -> int:
    """project VSAF feature maps to patch hypervectors"""
    cfg = _merged(args)
    if cfg["features_in"] is None or cfg["out"] is None:
        raise UsageError("encode requires --features-in and --out")
    if cfg["patch_sizes"] is None:
        raise UsageError("encode requires --patch-sizes")
    seed = _resolve_seed(cfg)
    _check_out(cfg["out"])
    fm = _read(vsaf.read_feature_file, cfg["features_in"])
    spec = PatchSpec(sides=tuple(cfg["patch_sizes"]), dilation=cfg["dilation"])
    patches = assemble_patches(fm, spec)
    if cfg["norm_scope"] == "per_layer":
        patches = normalize_blocks(patches, block_lengths(fm, spec))

    projector = lsh.new_projector(m=patches.m, n=cfg["dim"], seed=seed)
    hvs = lsh.project_batch(projector, patches, quantize=cfg["quantize"])
    _write(lambda out: vsaf.write_hypervectors(hvs, out), cfg["out"])
    _emit({"patch_count": patches.patch_count, "m": patches.m, "n": cfg["dim"], "seed": seed})
    return EXIT_OK


def cmd_map(args) -> int:
    """build a paired or random hypervector mapping"""
    cfg = _merged(args)
    if cfg["src"] is None or cfg["out"] is None:
        raise UsageError("map requires --src and --out")
    seed = _resolve_seed(cfg)
    _check_out(cfg["out"])
    src = _read(vsaf.read_hypervectors, cfg["src"])
    if cfg["mode"] == "paired":
        if cfg["tgt"] is None:
            raise UsageError("map --mode paired requires --tgt")
        tgt = _read(vsaf.read_hypervectors, cfg["tgt"])
        u = mapping.estimate_mapping_paired(src, tgt, quantize=cfg["quantize"])
    else:
        u = mapping.random_mapping(patch_count=src.shape[0], dim=src.shape[1], seed=seed)

    _write(lambda out: vsaf.write_hypervectors(u.per_patch, out, layer_name="mapping"), cfg["out"])
    _emit({"patch_count": u.patch_count, "dim": u.dim, "mode": cfg["mode"], "seed": seed})
    return EXIT_OK


def _load_scores(path: str | None, name: str):
    """Scores from a JSON file of a nonempty flat list of finite, non-boolean numbers."""
    if path is None:
        return None
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DegenerateInputError(f"cannot read {name} scores from {path}: {exc}") from exc
    try:
        scores = json.loads(raw)
        if not isinstance(scores, list) or any(isinstance(s, bool) for s in scores):
            raise InvalidArgumentError(f"{name} must be a list of numbers, not booleans")
        return _scores(scores, name)
    except (json.JSONDecodeError, InvalidArgumentError) as exc:
        raise DegenerateInputError(f"{name} score file {path} does not hold a list of scores: {exc}") from exc


def cmd_loss(args) -> int:
    """cyclic / adversarial / total loss metrics as JSON"""
    cfg = _merged(args)
    if cfg["x"] is None or cfg["cycled"] is None:
        raise UsageError("loss requires --x and --cycled")
    v_x = _read(vsaf.read_hypervectors, cfg["x"])
    v_cycled = _read(vsaf.read_hypervectors, cfg["cycled"])
    check_no_zero_vectors(v_x, "x")
    check_no_zero_vectors(v_cycled, "cycled")

    loss_cfg = LossConfig(lam=cfg["lam"], fake_term_weights=(cfg["w1"], cfg["w2"]), variant=cfg["variant"])
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

    _emit({"vsa": vsa, "gan_d": d_loss, "gan_g": g_loss, "total": total, "config": {
        "lambda": loss_cfg.lam, "variant": loss_cfg.variant,
        "fake_term_weights": list(loss_cfg.fake_term_weights)}})
    return EXIT_OK


def cmd_bench(args) -> int:
    """run a recovery sweep and emit CSV"""
    cfg = _merged(args)
    base = bench_mod.BenchConfig(
        dim=cfg["dim"], k=cfg["k"], object_vocab_size=cfg["objects"], attr_vocab_size=cfg["attrs"],
        mapping=cfg["mapping"], mix=cfg["mix"], trials=cfg["trials"], seed=_resolve_seed(cfg))
    if cfg["out"] is not None:
        _check_out(cfg["out"])
    print(f"bench axis={cfg['axis']} grid={cfg['grid']} base={base}", file=sys.stderr)

    results = bench_mod.run_sweep(cfg["axis"], cfg["grid"], base)
    csv_text = bench_mod.reports_to_csv(cfg["axis"], results)
    if cfg["out"] is not None:
        _write(lambda out: Path(out).write_text(csv_text, encoding="utf-8", newline=""), cfg["out"])
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


COMMANDS = {"encode": cmd_encode, "map": cmd_map, "loss": cmd_loss, "bench": cmd_bench}


def build_parser() -> _Parser:
    parser = _Parser(prog="vsabench", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, func in COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__)
        for opt in OPTIONS[name]:
            p.add_argument(opt.flag or "--" + opt.key.replace("_", "-"), dest=opt.key,
                           type=_flag_type(opt.convert), help=opt.help,
                           metavar="{%s}" % ",".join(opt.convert) if isinstance(opt.convert, _Choice) else None)
        p.add_argument("--config", help="JSON config file; flags override")
        p.set_defaults(func=func)
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
