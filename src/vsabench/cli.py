"""Command-line front end.

Subcommands: ``encode`` (VSAF features -> patch hypervectors), ``map``
(paired or random hypervector mapping), ``loss`` (cyclic / adversarial /
total metrics as JSON), ``bench`` (sweep reports as CSV).

stdout carries only machine-readable results; diagnostics go to stderr.
Exit codes: 0 success, 1 usage, 2 data error, 3 config error. The stage that
fails decides 3 or 2: a command's rules stage (config file, value rules that
need no file) comes first, then its files stage (``--out``, inputs, the work,
writes). Seeds resolve as flag > config file > VSAIT_SEED env var > 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from . import bench as bench_mod
from . import lsh, mapping, vsaf
from .errors import ConfigError, InvalidArgumentError, VsabenchError, VsafError
from .hv import QUANTIZE_MODES, as_count, as_float, as_int, check_seed
from .losses import VARIANTS, LossConfig, _scores, gan_loss, total_loss, vsa_cyclic_loss
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
    if not isinstance(value, str) or not value or "\0" in value:
        raise ConfigError(f"must be a nonempty path with no NUL byte, got {value!r}")
    return value


def _tokens(text: str) -> list[str]:
    """Comma-separated tokens, stripped; an empty one is rejected, not dropped."""
    tokens = [tok.strip() for tok in text.split(",")]
    if "" in tokens:
        raise ConfigError(f"must be comma-separated values with none empty, got {text!r}")
    return tokens


def _int_list(value) -> list[int]:
    """Comma-separated text or a list, each entry an integer."""
    if isinstance(value, str):
        value = _tokens(value)
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
        return [_grid_token(tok) for tok in _tokens(value)]
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


def _load_json(path: str, what: str):
    """The value of the UTF-8 JSON file at ``path``. A file that cannot be opened or read, bytes
    that are not UTF-8, text that is not JSON or nests too deeply to parse, and a path with a NUL
    byte all raise ``VsabenchError``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, not JSON, a NUL byte
        raise VsabenchError(f"cannot read {what} {path} as UTF-8 JSON: {exc}") from exc


def _merged(args: argparse.Namespace, unread: Callable[[dict], dict] = lambda cfg: {}) -> dict:
    """Flags override config-file values, which override the table's defaults.
    A config-file key the subcommand does not define, or a value its option's
    converter rejects (even one a flag overrides), is a config error. So is a
    config-file key that ``unread(cfg)`` maps to the reason the chosen mode
    does not read it; given as a flag, such an option is a usage error."""
    options = {opt.key: opt for opt in OPTIONS[args.command]}
    file_cfg = {} if args.config is None else _load_json(args.config, "config file")
    if not isinstance(file_cfg, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object")
    unknown = sorted(set(file_cfg) - set(options))
    if unknown:
        raise ConfigError(f"unknown config key(s) for {args.command}: {', '.join(map(repr, unknown))}")
    cfg = {key: opt.default for key, opt in options.items()}
    for key, value in file_cfg.items():
        try:
            cfg[key] = options[key].convert(value)
        except ValueError as exc:
            raise ConfigError(f"{key} {exc}") from exc
    flags = {key: value for key, value in vars(args).items() if key in cfg and value is not None}
    cfg.update(flags)
    for key, reason in unread(cfg).items():
        if key in flags:
            raise UsageError(f"{options[key].flag or '--' + key.replace('_', '-')} is not read {reason}")
        if key in file_cfg:
            raise ConfigError(f"{key} is not read {reason}")
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
    """The flag or config seed, else ``VSAIT_SEED``, else 0, under ``hv.check_seed``."""
    if cfg["seed"] is not None:
        return check_seed(cfg["seed"])
    try:
        return check_seed(as_int(os.environ.get("VSAIT_SEED", 0)))
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


def cmd_encode(args) -> Iterator[None]:
    """project VSAF feature maps to patch hypervectors"""
    cfg = _merged(args)
    if cfg["features_in"] is None or cfg["out"] is None:
        raise UsageError("encode requires --features-in and --out")
    if cfg["patch_sizes"] is None:
        raise UsageError("encode requires --patch-sizes")
    seed, dim = _resolve_seed(cfg), as_count(cfg["dim"], "dim")
    spec = PatchSpec(sides=tuple(cfg["patch_sizes"]), dilation=cfg["dilation"])
    lsh.LshProjector(m=1, n=dim, seed=seed)  # the projector's cap, for the least m
    yield
    _check_out(cfg["out"])
    fm = _read(vsaf.read_feature_file, cfg["features_in"])
    patches = assemble_patches(fm, spec)
    if cfg["norm_scope"] == "per_layer":
        patches = normalize_blocks(patches, block_lengths(fm, spec))

    projector = lsh.new_projector(m=patches.m, n=dim, seed=seed)
    hvs = lsh.project_batch(projector, patches, quantize=cfg["quantize"])
    _write(lambda out: vsaf.write_hypervectors(hvs, out), cfg["out"])
    _emit({"patch_count": patches.patch_count, "m": patches.m, "n": dim, "seed": seed})


def cmd_map(args) -> Iterator[None]:
    """build a paired or random hypervector mapping"""
    cfg = _merged(args, lambda cfg: {} if cfg["mode"] == "paired"
                  else dict.fromkeys(("tgt", "quantize"), "in random mode"))
    if cfg["src"] is None or cfg["out"] is None:
        raise UsageError("map requires --src and --out")
    if cfg["mode"] == "paired" and cfg["tgt"] is None:
        raise UsageError("map --mode paired requires --tgt")
    seed = _resolve_seed(cfg)
    yield
    _check_out(cfg["out"])
    src = _read(vsaf.read_hypervectors, cfg["src"])
    if cfg["mode"] == "paired":
        tgt = _read(vsaf.read_hypervectors, cfg["tgt"])
        u = mapping.estimate_mapping_paired(src, tgt, quantize=cfg["quantize"])
    else:
        u = mapping.random_mapping(patch_count=src.shape[0], dim=src.shape[1], seed=seed)

    _write(lambda out: vsaf.write_hypervectors(u.per_patch, out, layer_name="mapping"), cfg["out"])
    _emit({"patch_count": u.patch_count, "dim": u.dim, "mode": cfg["mode"], "seed": seed})


def _load_scores(path: str, name: str):
    """Scores from a UTF-8 JSON file that ``losses._scores`` accepts, a nonempty flat list of finite,
    non-boolean numbers."""
    batch = _load_json(path, f"{name} score file")
    try:
        return _scores(batch, name)
    except InvalidArgumentError as exc:
        raise VsabenchError(f"{name} score file {path} does not hold a list of scores: {exc}") from exc


_SCORE_KEYS = ("scores_real", "scores_fake_translated", "scores_fake_mapped")


def cmd_loss(args) -> Iterator[None]:
    """cyclic / adversarial / total loss metrics as JSON"""
    cfg = _merged(args, lambda cfg: {} if any(cfg[key] is not None for key in _SCORE_KEYS)
                  else dict.fromkeys(("variant", "w1", "w2"), "without score batches"))
    if cfg["x"] is None or cfg["cycled"] is None:
        raise UsageError("loss requires --x and --cycled")
    scored = [cfg[key] is not None for key in _SCORE_KEYS]
    if any(scored) and not all(scored):
        raise UsageError("loss needs all three score batches or none")
    loss_cfg = LossConfig(lam=cfg["lam"], fake_term_weights=(cfg["w1"], cfg["w2"]), variant=cfg["variant"])
    yield
    v_x = _read(vsaf.read_hypervectors, cfg["x"])
    v_cycled = _read(vsaf.read_hypervectors, cfg["cycled"])
    vsa = vsa_cyclic_loss(v_x, v_cycled)

    d_loss = g_loss = None
    if all(scored):
        batches = [_load_scores(cfg[key], key.removeprefix("scores_")) for key in _SCORE_KEYS]
        d_loss, g_loss = gan_loss(*batches, loss_cfg)
    total = total_loss(0.0 if g_loss is None else g_loss, vsa, loss_cfg)

    _emit({"vsa": vsa, "gan_d": d_loss, "gan_g": g_loss, "total": total, "config": {
        "lambda": loss_cfg.lam, "variant": loss_cfg.variant,
        "fake_term_weights": list(loss_cfg.fake_term_weights)}})


def _bench_unread(cfg: dict) -> dict:
    """The options a bench sweep never reads: those its axis sets on every
    point, and ``mix`` when no point's mapping is ``mixed``."""
    fields, _ = bench_mod.SWEEPS[cfg["axis"]]
    unread = dict.fromkeys(fields, f"under --axis {cfg['axis']}")
    mappings = cfg["grid"] if cfg["axis"] == "mapping_kind" else [cfg["mapping"]]
    if "mixed" not in map(str, mappings):
        unread.setdefault("mix", "without a mixed mapping")
    return unread


def cmd_bench(args) -> Iterator[None]:
    """run a recovery sweep and emit CSV"""
    cfg = _merged(args, _bench_unread)
    base = bench_mod.BenchConfig(
        dim=cfg["dim"], k=cfg["k"], object_vocab_size=cfg["objects"], attr_vocab_size=cfg["attrs"],
        mapping=cfg["mapping"], mix=cfg["mix"], trials=cfg["trials"], seed=_resolve_seed(cfg))
    bench_mod.sweep_configs(cfg["axis"], cfg["grid"], base)
    yield
    if cfg["out"] is not None:
        _check_out(cfg["out"])
    print(f"bench axis={cfg['axis']} grid={cfg['grid']} base={base}", file=sys.stderr)

    results = bench_mod.run_sweep(cfg["axis"], cfg["grid"], base)
    csv_text = bench_mod.reports_to_csv(cfg["axis"], results)
    if cfg["out"] is not None:
        _write(lambda out: Path(out).write_text(csv_text, encoding="utf-8", newline=""), cfg["out"])
    else:
        sys.stdout.write(csv_text)


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
    """Run one subcommand; return its exit code: 1 for a usage fault, and for a package error 3 if
    the command raised it before its ``yield`` (the rules stage), 2 after it (the files stage)."""
    code = EXIT_CONFIG
    try:
        args = build_parser().parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required (encode, map, loss, bench)")
        stages = args.func(args)
        for code in (EXIT_CONFIG, EXIT_DATA):
            next(stages, None)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VsabenchError as exc:
        print(f"{'data' if code == EXIT_DATA else 'config'} error: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
