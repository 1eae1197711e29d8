"""Synthetic semantic-flipping benchmark.

A scene bundles k object-attribute bindings over randomly materialized
bipolar symbol vocabularies: object i carries source attribute i, for
i < k, and target attribute i translates source attribute i. A
ground-truth mapping built from the scene's attribute pairs should recover
the target-domain scene up to superposition noise (mean recovery cosine
1/sqrt(k) for k bundled pairs); a random mapping should leave object
cleanup at chance. Sweeps over dimension, pair count, mapping kind, and a
mixing fraction reproduce those trends as CSV reports.

Trial t of every config reads the same seeded stream, that of
``PCG64(SeedSequence(seed, spawn_key=(0, t)))``, so the points of a sweep
that share a dim and a symbol dtype share each trial's symbols: a sweep pays
for one fill of them per trial for each dim and dtype, not one per point.

A trial holds one panel of object rows, not the vocabulary: ``PANEL_ROWS``
rows, widened to the largest k so that panel 0 holds every scene object, in
one buffer, reused across trials, with the attribute rows. The stream holds the
object rows, then the source-attribute and the target-attribute rows, and two
PCG64 cursors on the trial's seed read it: one fills the object panels in
order, the other skips the object rows (``hv.skip_bipolar``) and fills the
attribute rows. Panel 0 is scanned through ``ItemMemory.cleanup``, the public
gate, and each later panel, if any, through its scan kernel, keeping a running
first maximum (ties to the earlier row, as ``np.argmax``).
The reports are those of one scan of the whole vocabulary: bit for bit for
float32 symbols, whose scan sums are exact, and for float64 ``mixed`` ones
while the BLAS sums a row's dot product the same in a panel as in the whole
matrix.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .hv import _cosines, as_count, as_float, check_seed, fill_bipolar, sample_hypervector, skip_bipolar
from .mapping import build_ground_truth_mapping
from .memory import ItemMemory
from .vsaf import MAX_ELEMENTS

MAPPING_KINDS = ("ground_truth", "random", "mixed")
# Each sweep axis: the BenchConfig field a grid value sets, and the fields it fixes on every point.
SWEEPS = {
    "dim": ("dim", {}),
    "k": ("k", {}),
    "mapping_kind": ("mapping", {}),
    "lambda_proxy": ("mix", {"mapping": "mixed"}),
}
SWEEP_AXES = tuple(SWEEPS)

# Object rows a trial fills and scans at a time: 4 MiB of float32 at dim 4096.
PANEL_ROWS = 256

CSV_HEADER = "axis,value,dim,k,mapping,trials,recovery_cosine,cleanup_accuracy,flip_rate,seed"


@dataclass(frozen=True)
class BenchConfig:
    """One flip-bench configuration: what measure_recovery measures and sweeps vary.

    The ``mixed`` mapping is ``mix * u_gt + (1 - mix) * u_random``, where ``u_gt``
    sums k bipolar products (entry RMS about ``sqrt(k)``) and ``u_random`` is +-1:
    ``mix`` is a weight, not an energy fraction. A trial's symbol matrix, one row
    per object and two per attribute, may hold at most ``vsaf.MAX_ELEMENTS`` entries.
    That cap is a configuration rule, not what a trial allocates: a trial holds one
    panel of object rows (``PANEL_ROWS``) and the attribute rows.
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
        object.__setattr__(self, "mix", mix + 0.0)  # -0.0 reads as 0
        check_seed(self.seed)


@dataclass(frozen=True)
class BenchReport:
    """Outcome of one measured configuration, with that configuration."""

    recovery_cosine: float
    cleanup_accuracy: float
    config: BenchConfig
    recovery_cosine_sem: float = 0.0

    @property
    def flip_rate(self) -> float:
        return 1.0 - self.cleanup_accuracy

    @property
    def attempts(self) -> int:
        """Cleanup queries made: one per pair per trial."""
        return self.config.trials * self.config.k


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


def _scan_later_panels(memory: ItemMemory, panel: np.ndarray, starts: range, rng, scans) -> None:
    """Fill the object panels that begin at ``starts`` (rows ``starts.stop`` end the last), in order, into
    ``panel``, the rows ``memory`` holds, from ``rng`` at the first of those rows' words, and fold each
    panel's top-1 scan into the running first maxima of ``scans``: per point, the top indices and
    similarities of panel 0's cleanup, and its queries as the memory's kernel prepares them. An entry
    moves only to a strictly greater similarity, so ties go to the earlier row, as in ``np.argmax``."""
    for start in starts:
        rows = min(len(panel), starts.stop - start)
        materialize(panel[:rows], rng)
        for _, _, found, best, (queries, qn2) in scans:
            sims = memory._scan(queries, qn2, rows)
            top = np.argmax(sims, axis=1)
            sims = sims[np.arange(top.size), top]
            better = sims > best
            found[better] = top[better] + start
            best[better] = sims[better]


def _measure(configs: list[BenchConfig]) -> list[BenchReport]:
    """One report per config. The configs share vocab sizes, trials and seed, so
    those with the same dim and symbol dtype draw the same symbols each trial:
    each such group fills one symbol buffer per trial, and every config of the
    group runs its own trial stages on it. The buffer is object panel 0, then
    the attribute rows; the later panels are drawn after the points' cleanups."""
    first = configs[0]
    n_obj, n_attr, trials = first.object_vocab_size, first.attr_vocab_size, first.trials
    height = min(n_obj, max(PANEL_ROWS, *(config.k for config in configs)))
    later_panels = range(height, n_obj, height)
    members = {}
    for i, config in enumerate(configs):
        members.setdefault((config.dim, _symbol_dtype(config)), []).append(i)
    groups = []
    for (dim, dtype), indices in members.items():
        symbols = np.empty((height + 2 * n_attr, dim), dtype)
        objects, src_attrs, tgt_attrs = np.split(symbols, [height, height + n_attr])
        objects.fill(1.0)
        # The memory adopts the panel's rows without a copy and caches their squared
        # norms once. Every fill rewrites those rows in place with +-1 entries, so
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
        seeds = np.random.SeedSequence(first.seed, spawn_key=(0, t))
        for symbols, memory, points in groups:
            # two cursors on the trial's stream, PCG64 pinned (not default_rng's choice) for its advance:
            # one reads the object rows panel by panel, the other skips them to read the attribute rows
            obj_rng, attr_rng = (np.random.Generator(np.random.PCG64(seeds)) for _ in range(2))
            materialize(symbols[:height], obj_rng)
            materialize(symbols[height:], skip_bipolar(attr_rng, n_obj, symbols.shape[1]))
            filled = attr_rng.bit_generator.state
            scans = []
            for i, config, scene_objects, src, tgt in points:
                # a random or mixed mapping reads on from the fill, as if it had drawn alone
                attr_rng.bit_generator.state = filled
                v_src = encode_scene(scene_objects, src)
                v_tgt = encode_scene(scene_objects, tgt)
                translated = v_src * scene_mapping(config, src, tgt, attr_rng)
                if not translated.any() or not v_tgt.any():
                    raise DegenerateInputError(f"zero-norm translated or target scene in trial {t}")
                cosines[i, t] = _cosines(translated[np.newaxis], v_tgt[np.newaxis])[0][0]

                queries = translated * tgt
                found, best = memory.cleanup(queries)
                later = memory._queries(queries) if later_panels else None
                # freed now, not at the next point's product, so that its temporaries can reuse the
                # memory: holding it slowed flip-sweep's k sweep by about 3 % on a 2-vCPU guest
                del queries
                scans.append((i, config.k, found[:, 0], best[:, 0], later))
            _scan_later_panels(memory, symbols[:height], later_panels, obj_rng, scans)
            for i, k, found, _, _ in scans:
                correct[i] += np.count_nonzero(found == np.arange(k))

    return [
        BenchReport(
            recovery_cosine=float(np.mean(cosines[i])),
            cleanup_accuracy=correct[i] / (trials * config.k),
            config=config,
            recovery_cosine_sem=float(np.std(cosines[i], ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
        )
        for i, config in enumerate(configs)
    ]


def measure_recovery(config: BenchConfig) -> BenchReport:
    """Run seeded trials with fresh symbol draws and report recovery statistics.

    Each trial reads its stream and fills its buffer as the module docstring
    sets out, encodes both scenes, builds the configured mapping, translates
    the source scene, and then recovers every object at once: it unbinds each
    pair's target attribute, cleans the stack of queries up against every
    object row, and counts a hit where query i's top index is i.
    ``BenchConfig`` is the gate: the mapping and panel 0's cleanup go through
    their public gates, but the trial's own +-1 arithmetic is not checked again
    (the product that translates, ``hv._cosines`` for the cosine, and the later
    panels' scans).

    Symbols are float32 when the mapping is not ``mixed`` and k^2 dim <= 2^24:
    then every symbol, scene, mapping, query and partial sum of the memory's
    float32 scan is an integer of magnitude at most 2^24, which float32 holds
    exactly, so the report is bit for bit the float64 one.

    This is the one-config case of ``run_sweep``'s trial loop.
    """
    return _measure([config])[0]


def run_sweep(axis: str, grid, base: BenchConfig) -> list[BenchReport]:
    """One report per grid point along the named axis, in grid order, each holding its point's config.

    Every point draws its trials from the same seeded streams, so a point's
    report is ``measure_recovery`` of its own config, whatever its place in
    the grid. A random or mixed mapping draws on from the attribute cursor's
    state just after the attribute rows, which is the stream it would read
    alone, and each later panel is drawn and scanned once for all the points.

    Every grid value is checked before any trial runs. Trials run in order,
    each over every point, so a degenerate sweep raises ``DegenerateInputError``
    naming the first trial at which any of its points has a zero-norm scene."""
    return _measure(sweep_configs(axis, grid, base))


def _sweep(axis: str) -> tuple:
    """The axis's ``SWEEPS`` entry; an unknown axis raises ``InvalidArgumentError``."""
    if axis not in SWEEP_AXES:
        raise InvalidArgumentError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    return SWEEPS[axis]


def sweep_configs(axis: str, grid, base: BenchConfig) -> list[BenchConfig]:
    """Each grid point's config: ``base`` with the axis's field set to the point's value and the fields the
    axis fixes, so ``BenchConfig``'s own rules type and check the value. An unknown axis, an empty grid or a
    bad value raises ``InvalidArgumentError``."""
    field, fixed = _sweep(axis)
    configs = [replace(base, **fixed, **{field: value}) for value in grid]
    if not configs:
        raise InvalidArgumentError("sweep grid must be nonempty")
    return configs


def _format_value(value) -> str:
    if isinstance(value, float):
        text = f"{value:g}"  # the short form, unless it names another float
        return text if float(text) == value else repr(value)
    return str(value)


def reports_to_csv(axis: str, reports: list[BenchReport]) -> str:
    """Render a sweep's reports with the fixed header and \\n line endings; a row's value is its config's
    value of the axis's field."""
    field, _ = _sweep(axis)
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in reports:
        c = r.config
        buf.write(
            f"{axis},{_format_value(getattr(c, field))},{c.dim},{c.k},{c.mapping},{c.trials},"
            f"{r.recovery_cosine:.6f},{r.cleanup_accuracy:.6f},{r.flip_rate:.6f},{c.seed}\n"
        )
    return buf.getvalue()
