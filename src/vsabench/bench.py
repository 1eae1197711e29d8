"""Synthetic semantic-flipping benchmark.

A scene bundles k object-attribute bindings over randomly materialized
bipolar symbol vocabularies: object i carries source attribute i, for
i < k, and target attribute i translates source attribute i. A
ground-truth mapping built from the scene's attribute pairs should recover
the target-domain scene up to superposition noise (mean recovery cosine
1/sqrt(k) for k bundled pairs); a random mapping should leave object
cleanup at chance. Sweeps over dimension, pair count, mapping kind, and a
mixing fraction reproduce those trends as CSV reports.

Trial t of every config draws its symbols from the same seeded stream, so
the points of a sweep that share a dim and a symbol dtype share each trial's
symbol matrix: a sweep pays for one fill per trial for each dim and dtype,
not one per point.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .hv import _cosines, as_count, as_float, as_int, check_seed, fill_bipolar, sample_hypervector
from .mapping import build_ground_truth_mapping
from .memory import ItemMemory
from .vsaf import MAX_ELEMENTS

MAPPING_KINDS = ("ground_truth", "random", "mixed")
# Each sweep axis: the BenchConfig fields it sets on every point, and their values from one grid value.
SWEEPS = {
    "dim": (("dim",), lambda value: (as_int(value, "integers"),)),
    "k": (("k",), lambda value: (as_int(value, "integers"),)),
    "mapping_kind": (("mapping",), lambda value: (str(value),)),
    "lambda_proxy": (("mapping", "mix"), lambda value: ("mixed", as_float(value, "numbers"))),
}
SWEEP_AXES = tuple(SWEEPS)

CSV_HEADER = "axis,value,dim,k,mapping,trials,recovery_cosine,cleanup_accuracy,flip_rate,seed"


@dataclass(frozen=True)
class BenchReport:
    """Outcome of one measured configuration."""

    recovery_cosine: float
    cleanup_accuracy: float
    dim: int
    k: int
    mapping: str
    trials: int
    seed: int
    recovery_cosine_sem: float = 0.0

    @property
    def flip_rate(self) -> float:
        return 1.0 - self.cleanup_accuracy

    @property
    def attempts(self) -> int:
        """Cleanup queries made: one per pair per trial."""
        return self.trials * self.k


@dataclass(frozen=True)
class BenchConfig:
    """One flip-bench configuration: what measure_recovery measures and sweeps vary.

    The ``mixed`` mapping is ``mix * u_gt + (1 - mix) * u_random``, where ``u_gt``
    sums k bipolar products (entry RMS about ``sqrt(k)``) and ``u_random`` is +-1:
    ``mix`` is a weight, not an energy fraction. A trial's symbol matrix, one row
    per object and two per attribute, may hold at most ``vsaf.MAX_ELEMENTS`` entries.
    """

    dim: int = 4096
    k: int = 2
    object_vocab_size: int = 32
    attr_vocab_size: int = 16
    mapping: str = "ground_truth"
    mix: float = 1.0
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "k", "object_vocab_size", "attr_vocab_size", "trials"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        if self.mapping not in MAPPING_KINDS:
            raise InvalidArgumentError(f"mapping must be one of {MAPPING_KINDS}, got {self.mapping!r}")
        if self.k > min(self.object_vocab_size, self.attr_vocab_size):
            raise InvalidArgumentError(
                f"k must be in [1, min(vocab sizes)], got k={self.k} with "
                f"{self.object_vocab_size} objects and {self.attr_vocab_size} attributes"
            )
        rows = self.object_vocab_size + 2 * self.attr_vocab_size
        if rows * self.dim > MAX_ELEMENTS:
            raise InvalidArgumentError(
                f"symbol matrix of {rows} rows by dim={self.dim} has {rows * self.dim} elements (cap {MAX_ELEMENTS})"
            )
        mix = as_float(self.mix, "a number mix")
        if not 0.0 <= mix <= 1.0:
            raise InvalidArgumentError(f"mix must be in [0, 1], got {mix}")
        object.__setattr__(self, "mix", mix)
        check_seed(self.seed)


def materialize(symbols: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill a trial's symbol matrix in place with bipolar rows drawn from ``rng``; returns it.

    The draw is the trial's largest cost, so it is a stage of its own."""
    return fill_bipolar(symbols, rng)


def encode_scene(objects: np.ndarray, attrs: np.ndarray) -> np.ndarray:
    """Bundle of the bindings of two (k, dim) stacks of bipolar rows, row i with row i."""
    return np.sum(objects * attrs, axis=0)


def scene_mapping(config: BenchConfig, src_attrs: np.ndarray, tgt_attrs: np.ndarray, rng) -> np.ndarray:
    """The config's mapping vector for a scene: the ground truth built from its attribute pairs, a
    bipolar vector drawn from ``rng``, or ``mix`` of the first and ``1 - mix`` of the second."""
    if config.mapping == "random":
        return sample_hypervector(config.dim, rng)
    u = build_ground_truth_mapping(src_attrs, tgt_attrs)
    if config.mapping == "mixed":
        u = config.mix * u + (1.0 - config.mix) * sample_hypervector(config.dim, rng)
    return u


def _symbol_dtype(config: BenchConfig):
    """float32 when the mapping is not ``mixed`` and k^2 dim <= 2^24, else float64."""
    return np.float32 if config.mapping != "mixed" and config.k**2 * config.dim <= 2**24 else np.float64


def _measure(configs: list[BenchConfig]) -> list[BenchReport]:
    """One report per config. The configs share vocab sizes, trials and seed, so
    those with the same dim and symbol dtype draw the same symbols each trial:
    each such group fills one matrix per trial, and every config of the group
    runs its own trial stages on it."""
    first = configs[0]
    n_obj, n_attr, trials = first.object_vocab_size, first.attr_vocab_size, first.trials
    members = {}
    for i, config in enumerate(configs):
        members.setdefault((config.dim, _symbol_dtype(config)), []).append(i)
    groups = []
    for (dim, dtype), indices in members.items():
        symbols = np.empty((n_obj + 2 * n_attr, dim), dtype)
        objects, src_attrs, tgt_attrs = np.split(symbols, [n_obj, n_obj + n_attr])
        objects.fill(1.0)
        # The memory adopts the object rows without a copy and caches their squared
        # norms once. Every trial refills those rows in place with +-1 entries, so
        # each cached norm stays exactly dim and the memory stays valid.
        memory = ItemMemory(objects)
        points = []
        for i in indices:
            k = configs[i].k
            points.append((i, configs[i], objects[:k], src_attrs[:k], tgt_attrs[:k]))
        groups.append((symbols, memory, points))

    cosines = np.empty((len(configs), trials))
    correct = [0] * len(configs)
    for t in range(trials):
        for symbols, memory, points in groups:
            rng = np.random.default_rng(np.random.SeedSequence(first.seed, spawn_key=(0, t)))
            materialize(symbols, rng)
            filled = rng.bit_generator.state
            for i, config, scene_objects, src, tgt in points:
                # a random or mixed mapping reads on from the fill, as if it had drawn alone
                rng.bit_generator.state = filled
                v_src = encode_scene(scene_objects, src)
                v_tgt = encode_scene(scene_objects, tgt)
                translated = v_src * scene_mapping(config, src, tgt, rng)
                if not translated.any() or not v_tgt.any():
                    raise DegenerateInputError(f"zero-norm translated or target scene in trial {t}")
                cosines[i, t] = _cosines(translated[np.newaxis], v_tgt[np.newaxis])[0][0]

                found, _ = memory.cleanup(translated * tgt)
                correct[i] += np.count_nonzero(found[:, 0] == np.arange(config.k))

    return [
        BenchReport(
            recovery_cosine=float(np.mean(cosines[i])),
            cleanup_accuracy=correct[i] / (trials * config.k),
            dim=config.dim,
            k=config.k,
            mapping=config.mapping,
            trials=trials,
            seed=config.seed,
            recovery_cosine_sem=float(np.std(cosines[i], ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
        )
        for i, config in enumerate(configs)
    ]


def measure_recovery(config: BenchConfig) -> BenchReport:
    """Run seeded trials with fresh symbol draws and report recovery statistics.

    Trial t draws from ``SeedSequence(seed, spawn_key=(0, t))``. Each trial
    fills one symbol matrix (the object rows, then the source-attribute and
    the target-attribute rows) from the trial's generator, reusing one buffer
    across trials. The scene binds object row i to source-attribute row i for
    i < k, and its target twin binds it to target-attribute row i. A trial
    encodes both scenes, builds the configured mapping, translates the source
    scene, and then recovers every object at once: it unbinds each pair's
    target attribute, cleans the stack of queries up with one
    ``ItemMemory.cleanup`` of a memory over the object rows, built once per
    call, and counts a hit where query i's top index is i. ``BenchConfig`` is
    the gate: the mapping and the cleanup go through their public gates, but
    the trial's own +-1 arithmetic is not checked again (the product that
    translates, and ``hv._cosines`` for the cosine).

    Symbols are float32 when the mapping is not ``mixed`` and k^2 dim <= 2^24:
    then every symbol, scene, mapping, query and partial sum of the memory's
    float32 scan is an integer of magnitude at most 2^24, which float32 holds
    exactly, so the report is bit for bit the float64 one.

    This is the one-config case of ``run_sweep``'s trial loop, and pays for
    one symbol fill per trial.
    """
    return _measure([config])[0]


def run_sweep(axis: str, grid, base: BenchConfig) -> list[tuple[object, BenchReport]]:
    """One report per grid point along the named axis; returns (value, report) pairs.

    Every point draws its trials from the same seeded streams, so a point's
    report is ``measure_recovery`` of its own config, whatever its place in
    the grid. Points of the same dim and symbol dtype therefore fill the same
    symbol matrix in trial t, and the sweep fills it once per trial for all of
    them: a sweep pays for one fill per trial for each dim and dtype among its
    points, and holds one symbol matrix and item memory for each at once. A
    random or mixed mapping then draws on from the generator's state just
    after the fill, which is the stream it would read alone.

    Every grid value is checked before any trial runs. Trials run in order,
    each over every point, so a degenerate sweep raises ``DegenerateInputError``
    naming the first trial at which any of its points has a zero-norm scene."""
    grid = list(grid)
    return list(zip(grid, _measure(sweep_configs(axis, grid, base))))


def sweep_configs(axis: str, grid, base: BenchConfig) -> list[BenchConfig]:
    """Each grid point's config: ``base`` with the fields the axis sets taken from the point's
    value. An unknown axis, an empty grid or a bad value raises ``InvalidArgumentError``."""
    if axis not in SWEEP_AXES:
        raise InvalidArgumentError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    fields, point = SWEEPS[axis]
    configs = []
    for value in grid:
        try:
            values = point(value)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"{axis} grid values {exc}") from exc
        configs.append(replace(base, **dict(zip(fields, values))))
    if not configs:
        raise InvalidArgumentError("sweep grid must be nonempty")
    return configs


def _format_value(value) -> str:
    if isinstance(value, bool):
        raise InvalidArgumentError("boolean axis values are not supported")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):g}"
    return str(value)


def reports_to_csv(axis: str, results: list[tuple[object, BenchReport]]) -> str:
    """Render sweep results with the fixed header and \\n line endings."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for value, r in results:
        buf.write(
            f"{axis},{_format_value(value)},{r.dim},{r.k},{r.mapping},{r.trials},"
            f"{r.recovery_cosine:.6f},{r.cleanup_accuracy:.6f},{r.flip_rate:.6f},{r.seed}\n"
        )
    return buf.getvalue()
