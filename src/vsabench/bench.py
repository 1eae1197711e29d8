"""Synthetic semantic-flipping benchmark.

Scenes are bundles of object-attribute bindings over randomly materialized
bipolar symbol vocabularies. A ground-truth mapping built from the scene's
attribute pairs should recover the target-domain scene up to superposition
noise (mean recovery cosine 1/sqrt(k) for k bundled pairs); a random mapping
should leave object cleanup at chance. Sweeps over dimension, pair count,
mapping kind, and a mixing fraction reproduce those trends as CSV reports.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError
from .hv import as_float, as_int, bind, bundle, check_seed, cosine_similarity, fill_bipolar, sample_hypervector
from .mapping import build_ground_truth_mapping
from .memory import ItemMemory

MAPPING_KINDS = ("ground_truth", "random", "mixed")
SWEEP_AXES = ("dim", "k", "mapping_kind", "lambda_proxy")

CSV_HEADER = "axis,value,dim,k,mapping,trials,recovery_cosine,cleanup_accuracy,flip_rate,seed"


@dataclass(frozen=True)
class DomainSpec:
    """Symbol vocabularies for one benchmark domain pair.

    Source and target attribute vocabularies correspond by index: the i-th
    source attribute translates to the i-th target attribute.
    """

    object_vocab: tuple[str, ...]
    src_attr_vocab: tuple[str, ...]
    tgt_attr_vocab: tuple[str, ...]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", as_int(self.dim, "an integer dim"))
        for name, vocab in (
            ("object_vocab", self.object_vocab),
            ("src_attr_vocab", self.src_attr_vocab),
            ("tgt_attr_vocab", self.tgt_attr_vocab),
        ):
            if not vocab:
                raise InvalidArgumentError(f"{name} must be nonempty")
            if len(set(vocab)) != len(vocab):
                raise InvalidArgumentError(f"{name} has duplicate labels")
        if len(self.src_attr_vocab) != len(self.tgt_attr_vocab):
            raise InvalidArgumentError(
                "src and tgt attribute vocabularies must have equal length "
                f"({len(self.src_attr_vocab)} vs {len(self.tgt_attr_vocab)})"
            )
        if self.dim < 1:
            raise InvalidArgumentError(f"dim must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class SceneSpec:
    """k object-attribute pairs in one domain ('source' or 'target')."""

    pairs: tuple[tuple[str, str], ...]
    domain: str = "source"

    def __post_init__(self):
        if not self.pairs:
            raise InvalidArgumentError("scene needs at least one pair")
        if self.domain not in ("source", "target"):
            raise InvalidArgumentError(f"domain must be 'source' or 'target', got {self.domain!r}")

    @property
    def k(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class DomainSymbols:
    """One materialization of a DomainSpec: label -> bipolar hypervector."""

    objects: dict[str, np.ndarray]
    src_attrs: dict[str, np.ndarray]
    tgt_attrs: dict[str, np.ndarray]


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
    """Base configuration for measure_recovery and sweeps.

    The ``mixed`` mapping is ``mix * u_gt + (1 - mix) * u_random``, where ``u_gt``
    sums k bipolar products (entry RMS about ``sqrt(k)``) and ``u_random`` is +-1:
    ``mix`` is a weight, not an energy fraction.
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
            object.__setattr__(self, name, as_int(getattr(self, name), f"an integer {name}"))
        if self.mapping not in MAPPING_KINDS:
            raise InvalidArgumentError(f"mapping must be one of {MAPPING_KINDS}, got {self.mapping!r}")
        if self.k < 1 or self.k > min(self.object_vocab_size, self.attr_vocab_size):
            raise InvalidArgumentError(
                f"k must be in [1, min(vocab sizes)], got k={self.k} with "
                f"{self.object_vocab_size} objects and {self.attr_vocab_size} attributes"
            )
        object.__setattr__(self, "mix", _mix(self.mix))
        if self.trials < 1:
            raise InvalidArgumentError(f"trials must be >= 1, got {self.trials}")
        check_seed(self.seed)


def _mix(value) -> float:
    mix = as_float(value, "a number mix")
    if not 0.0 <= mix <= 1.0:
        raise InvalidArgumentError(f"mix must be in [0, 1], got {mix}")
    return mix


def default_domain(config: BenchConfig) -> DomainSpec:
    """Synthesize label vocabularies of the configured sizes."""
    return DomainSpec(
        object_vocab=tuple(f"obj{i:02d}" for i in range(config.object_vocab_size)),
        src_attr_vocab=tuple(f"src{i:02d}" for i in range(config.attr_vocab_size)),
        tgt_attr_vocab=tuple(f"tgt{i:02d}" for i in range(config.attr_vocab_size)),
        dim=config.dim,
    )


def default_scene(config: BenchConfig) -> SceneSpec:
    """Pair the first k objects with the first k source attributes."""
    return SceneSpec(
        pairs=tuple((f"obj{i:02d}", f"src{i:02d}") for i in range(config.k)),
        domain="source",
    )


def materialize(domain: DomainSpec, rng: np.random.Generator) -> DomainSymbols:
    """Draw an independent bipolar hypervector per label from ``rng``, in a fixed label order.

    The vectors are row views of one symbol matrix, filled as ``measure_recovery``
    fills a trial's symbols.
    """
    symbols, (objects, src, tgt) = _symbol_matrix(domain)
    fill_bipolar(symbols, rng)
    return DomainSymbols(
        objects=dict(zip(domain.object_vocab, objects)),
        src_attrs=dict(zip(domain.src_attr_vocab, src)),
        tgt_attrs=dict(zip(domain.tgt_attr_vocab, tgt)),
    )


def encode_scene(symbols: DomainSymbols, scene: SceneSpec) -> np.ndarray:
    """Bundle bind(object, attribute) over the scene's pairs."""
    attrs = symbols.src_attrs if scene.domain == "source" else symbols.tgt_attrs
    for obj_label, attr_label in scene.pairs:
        if obj_label not in symbols.objects:
            raise InvalidArgumentError(f"unknown object label {obj_label!r}")
        if attr_label not in attrs:
            raise InvalidArgumentError(f"unknown {scene.domain} attribute label {attr_label!r}")
    terms = bind([symbols.objects[o] for o, _ in scene.pairs], [attrs[a] for _, a in scene.pairs])
    return bundle(terms)


def target_twin(domain: DomainSpec, scene: SceneSpec) -> SceneSpec:
    """The same objects carrying the index-corresponding target attributes."""
    if scene.domain != "source":
        raise InvalidArgumentError("target_twin expects a source-domain scene")
    src_index = {label: i for i, label in enumerate(domain.src_attr_vocab)}
    pairs = []
    for obj_label, attr_label in scene.pairs:
        if attr_label not in src_index:
            raise InvalidArgumentError(f"unknown source attribute label {attr_label!r}")
        pairs.append((obj_label, domain.tgt_attr_vocab[src_index[attr_label]]))
    return SceneSpec(pairs=tuple(pairs), domain="target")


def scene_mapping(domain: DomainSpec, symbols: DomainSymbols, scene: SceneSpec) -> np.ndarray:
    """Ground-truth mapping vector built from the scene's attribute pairs."""
    twin = target_twin(domain, scene)
    return build_ground_truth_mapping(
        [symbols.src_attrs[label] for _, label in scene.pairs],
        [symbols.tgt_attrs[label] for _, label in twin.pairs],
    )


def _symbol_matrix(domain: DomainSpec) -> tuple[np.ndarray, list[np.ndarray]]:
    """Uninitialized rows for every symbol, and views of its object,
    source-attribute and target-attribute rows, each in vocabulary order."""
    n_obj, n_attr = len(domain.object_vocab), len(domain.src_attr_vocab)
    symbols = np.empty((n_obj + 2 * n_attr, domain.dim))
    return symbols, np.split(symbols, [n_obj, n_obj + n_attr])


def _scene_rows(domain: DomainSpec, scene: SceneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Object and attribute vocabulary indices of a source scene's pairs.

    Target attribute i translates source attribute i, so the attribute
    indices serve the scene and its target twin alike.
    """
    if scene.domain != "source":
        raise InvalidArgumentError("measure_recovery expects a source-domain scene")
    obj_index = {label: i for i, label in enumerate(domain.object_vocab)}
    attr_index = {label: i for i, label in enumerate(domain.src_attr_vocab)}
    for obj_label, attr_label in scene.pairs:
        if obj_label not in obj_index:
            raise InvalidArgumentError(f"unknown object label {obj_label!r}")
        if attr_label not in attr_index:
            raise InvalidArgumentError(f"unknown source attribute label {attr_label!r}")
    objs = np.array([obj_index[o] for o, _ in scene.pairs], dtype=np.intp)
    attrs = np.array([attr_index[a] for _, a in scene.pairs], dtype=np.intp)
    return objs, attrs


def measure_recovery(
    domain: DomainSpec,
    scene: SceneSpec,
    mapping: str = "ground_truth",
    trials: int = 100,
    seed: int = 0,
    mix: float = 1.0,
) -> BenchReport:
    """Run seeded trials with fresh symbol draws and report recovery statistics.

    Trial t draws from ``SeedSequence(seed, spawn_key=(0, t))``. Each trial
    fills one symbol matrix (object, source-attribute and target-attribute rows
    in vocabulary order) from the trial's generator, reusing one buffer across
    trials. The scene's pairs are resolved once to row indices. A trial encodes
    the source scene and its target twin as bundles of bound rows, builds the
    requested mapping kind ('mixed' weights the ground-truth and a random
    mapping by ``mix``, which is not an energy fraction; see ``BenchConfig``),
    translates the source scene, and then recovers every object at once: it
    unbinds each pair's target attribute and cleans the stack of queries up in
    one scan of an item memory over the object rows, built once per call.
    """
    if mapping not in MAPPING_KINDS:
        raise InvalidArgumentError(f"mapping must be one of {MAPPING_KINDS}, got {mapping!r}")
    trials = as_int(trials, "an integer trial count")
    if trials < 1:
        raise InvalidArgumentError(f"trials must be >= 1, got {trials}")
    check_seed(seed)
    mix = _mix(mix)
    obj, attr = _scene_rows(domain, scene)
    symbols, (objects, src_attrs, tgt_attrs) = _symbol_matrix(domain)
    objects.fill(1.0)
    # The memory adopts the object rows without a copy and caches their squared
    # norms once. Every trial refills those rows in place with +-1 entries, so
    # each cached norm stays exactly dim and the memory stays valid.
    memory = ItemMemory.from_matrix(range(len(objects)), objects)

    cosines = np.empty(trials)
    correct = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, t)))
        fill_bipolar(symbols, rng)
        scene_objects = objects[obj]
        v_src = np.sum(scene_objects * src_attrs[attr], axis=0)
        v_tgt = np.sum(scene_objects * tgt_attrs[attr], axis=0)

        if mapping == "random":
            u = sample_hypervector(domain.dim, rng)
        else:
            u = build_ground_truth_mapping(src_attrs[attr], tgt_attrs[attr])
            if mapping == "mixed":
                u = mix * u + (1.0 - mix) * sample_hypervector(domain.dim, rng)

        translated = bind(v_src, u)
        cosines[t] = cosine_similarity(translated, v_tgt)

        tops = memory.cleanup(translated * tgt_attrs[attr])
        correct += sum(int(top[0][0] == i) for top, i in zip(tops, obj))

    sem = float(np.std(cosines, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return BenchReport(
        recovery_cosine=float(np.mean(cosines)),
        cleanup_accuracy=correct / (trials * scene.k),
        dim=domain.dim,
        k=scene.k,
        mapping=mapping,
        trials=trials,
        seed=seed,
        recovery_cosine_sem=sem,
    )


def run_config(config: BenchConfig) -> BenchReport:
    """measure_recovery on the config's default domain and scene."""
    return measure_recovery(
        default_domain(config),
        default_scene(config),
        mapping=config.mapping,
        trials=config.trials,
        seed=config.seed,
        mix=config.mix,
    )


def run_sweep(axis: str, grid, base: BenchConfig) -> list[tuple[object, BenchReport]]:
    """One report per grid point along the named axis; returns (value, report) pairs.

    Every point draws its trials from the same seeded streams, so a point's
    report depends only on its own config and seed, not on where it sits in
    the grid."""
    if axis not in SWEEP_AXES:
        raise InvalidArgumentError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    grid = list(grid)
    if not grid:
        raise InvalidArgumentError("sweep grid must be nonempty")

    results = []
    for value in grid:
        try:
            if axis in ("dim", "k"):
                point = {axis: as_int(value, "integers")}
            elif axis == "mapping_kind":
                point = {"mapping": str(value)}
            else:
                point = {"mapping": "mixed", "mix": as_float(value, "numbers")}
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"{axis} grid values {exc}") from exc
        results.append((value, run_config(replace(base, **point))))
    return results


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
