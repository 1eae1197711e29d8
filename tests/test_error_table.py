"""The exception class each public function of ``hv``, ``mapping``, ``memory`` and
``losses`` raises on each kind of bad input, or ``None`` where it accepts the input.

The table pins behaviour, not wording: a refactor that moves a check from one
pass to another must keep every row. Messages are pinned where the tests of
each module name rows or labels. The one exception is the count rule,
``hv.as_count``: every count parameter of the package states a count below 1
in its one wording, which the second table pins.
"""

import numpy as np
import pytest

from vsabench.bench import BenchConfig
from vsabench.errors import DegenerateInputError, InvalidArgumentError
from vsabench.hv import (
    as_count,
    as_float,
    as_float64,
    as_hypervectors,
    as_int,
    as_tuple,
    bind,
    bundle,
    check_seed,
    cosine_similarity,
    sample_hypervector,
)
from vsabench.losses import (
    LossConfig,
    check_no_zero_vectors,
    gan_loss,
    total_loss,
    vsa_cyclic_loss,
)
from vsabench.mapping import (
    HypervectorMapping,
    apply_mapping,
    build_ground_truth_mapping,
    estimate_mapping_paired,
    random_mapping,
)
from vsabench.lsh import LshProjector
from vsabench.memory import ItemMemory
from vsabench.patches import PatchFeatureSet, PatchSpec, normalize_blocks

IAE, DIE = InvalidArgumentError, DegenerateInputError
COUNT, DIM = 3, 8


def good():
    return np.linspace(1.0, 2.0, COUNT * DIM).reshape(COUNT, DIM)


def with_entry(value):
    stack = good()
    stack[1, 4] = value
    return stack


def zero_row():
    stack = good()
    stack[1] = 0.0
    return stack


# Each kind of bad input, as a (count, dim) stack next to a good (3, 8) one.
STACKS = {
    "nan": with_entry(np.nan),
    "inf": with_entry(np.inf),
    "-inf": with_entry(-np.inf),
    "empty": [],
    "ragged": [[1.0] * DIM, [1.0] * (DIM - 1), [1.0] * DIM],
    "dim mismatch": good()[:, :-1],
    "zero row": zero_row(),
    "text": good().astype(str),
    "complex": good() + 0j,
}
NOT_ZERO = ("nan", "inf", "-inf", "empty", "ragged", "dim mismatch", "text", "complex")


def scores(kind):
    """The score-batch form of a bad input: one batch of three scores in (0, 1)."""
    return {
        "nan": [0.5, np.nan, 0.5],
        "inf": [0.5, np.inf, 0.5],
        "-inf": [0.5, -np.inf, 0.5],
        "empty": [],
        "ragged": [[0.5], [0.5, 0.5]],
        "zero row": [0.5, 0.0, 0.5],
        "bool entry": [0.5, True, 0.5],
        "bool array": np.array([True, False, True]),
        "text entry": ["0.5", 0.5, 0.5],
        "sum overflow": [1e308, 1e308],
    }[kind]


def memory():
    return ItemMemory(range(COUNT), good())


def float32_memory():
    return ItemMemory(range(COUNT), good().astype(np.float32))


# The adversarial variant rows are ``gan_loss`` under each variant's ``LossConfig``; they and the
# constructor rows ("ItemMemory.from_matrix") keep their labels, which name them in the test ids.
NLL, HINGE = LossConfig(variant="nll"), LossConfig(variant="hinge")


def cases():
    """(function, bad input, call, expected exception class or None)."""
    every = {kind: IAE for kind in NOT_ZERO}
    one = {kind: IAE for kind in NOT_ZERO if kind != "dim mismatch"}  # for a function of one array
    table = [
        # hv: binding and bundling accept zero rows; the cosine does not
        ("bind(bad, good)", lambda s: bind(s, good()), {**every, "zero row": None}),
        ("bind(good, bad)", lambda s: bind(good(), s), {**every, "zero row": None}),
        ("bind(vector)", lambda s: bind(row_of(s), good()[0]), {**every, "zero row": None}),
        ("bundle", bundle, {**one, "zero row": None}),
        ("cosine_similarity(bad, good)", lambda s: cosine_similarity(s, good()), {**every, "zero row": DIE}),
        ("cosine_similarity(good, bad)", lambda s: cosine_similarity(good(), s), {**every, "zero row": DIE}),
        ("cosine_similarity(vector)", lambda s: cosine_similarity(good()[0], row_of(s)), {**every, "zero row": DIE}),
        # mapping: a zero mapping or stack is a valid, if useless, input
        ("apply_mapping(bad, u)", lambda s: apply_mapping(s, HypervectorMapping(per_patch=good())),
         {**every, "zero row": None}),
        ("apply_mapping(stack, bad u)", lambda s: apply_mapping(good(), HypervectorMapping(per_patch=s)),
         {**every, "zero row": None}),
        ("build_ground_truth_mapping(bad, good)", lambda s: build_ground_truth_mapping(s, good()),
         {**every, "zero row": None}),
        ("build_ground_truth_mapping(good, bad)", lambda s: build_ground_truth_mapping(good(), s),
         {**every, "zero row": None}),
        ("estimate_mapping_paired(bad, good)", lambda s: estimate_mapping_paired(s, good()),
         {**every, "zero row": None}),
        ("estimate_mapping_paired(good, bad, sign)", lambda s: estimate_mapping_paired(good(), s, "sign"),
         {**every, "zero row": None}),
        # memory: every stored row and every query needs a nonzero, finite norm
        ("ItemMemory.from_matrix", lambda s: ItemMemory(range(len(s)), s), {**one, "zero row": DIE}),
        ("ItemMemory.add", lambda s: memory().add("new", row_of(s)), {**every, "zero row": DIE}),
        ("ItemMemory.cleanup(stack)", lambda s: memory().cleanup(s), {**every, "zero row": DIE}),
        ("ItemMemory.cleanup(vector)", lambda s: memory().cleanup(row_of(s)), {**every, "zero row": DIE}),
        ("float32 ItemMemory.cleanup", lambda s: float32_memory().cleanup(s), {**every, "zero row": DIE}),
        # losses
        ("vsa_cyclic_loss(bad, good)", lambda s: vsa_cyclic_loss(s, good()), {**every, "zero row": DIE}),
        ("vsa_cyclic_loss(good, bad)", lambda s: vsa_cyclic_loss(good(), s), {**every, "zero row": DIE}),
        # only zero rows are this check's business; finiteness is the cosine's
        ("check_no_zero_vectors", lambda s: check_no_zero_vectors(s, "x"),
         {"nan": None, "inf": None, "-inf": None, "empty": IAE, "ragged": IAE, "zero row": DIE,
          "text": IAE, "complex": IAE}),
    ]
    for label, call, expected in table:
        for kind, want in expected.items():
            yield label, kind, call, STACKS[kind], want

    batches = {kind: IAE for kind in ("nan", "inf", "-inf", "empty", "ragged", "bool entry", "bool array",
                                      "text entry", "sum overflow")}
    for label, call, expected in (
        ("gan_loss_nll", lambda *b: gan_loss(*b, NLL), {**batches, "zero row": IAE}),
        ("gan_loss_hinge", lambda *b: gan_loss(*b, HINGE), {**batches, "zero row": None}),
        ("gan_loss", gan_loss, {**batches, "zero row": None}),
    ):
        for kind, want in expected.items():
            yield f"{label}(bad, good, good)", kind, lambda b, call=call: call(b, [0.5], [0.5]), scores(kind), want
            yield f"{label}(good, good, bad)", kind, lambda b, call=call: call([0.5], [0.5], b), scores(kind), want

    for kind, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
        yield "total_loss(gan)", kind, lambda v: total_loss(v, 0.5), value, IAE
        yield "total_loss(vsa)", kind, lambda v: total_loss(0.5, v), value, IAE
        yield "LossConfig(lam)", kind, lambda v: LossConfig(lam=v), value, IAE
        yield "LossConfig(w1)", kind, lambda v: LossConfig(w1=v), value, IAE
        yield "LossConfig(w2)", kind, lambda v: LossConfig(w2=v), value, IAE
        yield "random_mapping(patch_count)", kind, lambda v: random_mapping(v, DIM, seed=0), value, IAE
        yield "sample_hypervector(dim)", kind, lambda v: sample_hypervector(v, np.random.default_rng(0)), value, IAE
        yield "random_mapping(seed)", kind, lambda v: random_mapping(1, DIM, seed=v), value, IAE
        yield "check_seed", kind, check_seed, value, IAE
        yield "as_int", kind, as_int, value, IAE
        yield "as_float", kind, as_float, value, IAE
    for kind, value in (("text", "a"), ("None", None), ("numpy bool", np.True_)):
        yield "total_loss(gan)", kind, lambda v: total_loss(v, 0.1), value, IAE
        yield "total_loss(vsa)", kind, lambda v: total_loss(0.1, v), value, IAE
    # finite inputs whose loss overflows float64
    def huge(variant):
        return LossConfig(w1=1e308, w2=1e308, variant=variant)

    yield "gan_loss_hinge", "overflow", lambda b: gan_loss(b, b, b, huge("hinge")), [0.1], IAE
    yield "gan_loss_nll", "overflow", lambda b: gan_loss([0.5], b, b, huge("nll")), [0.999], IAE
    yield "total_loss", "overflow", lambda v: total_loss(0.0, v, LossConfig(lam=1e308)), 2.0, IAE
    for kind in ("empty", "ragged"):
        yield "LossConfig(w2)", kind, lambda v: LossConfig(w2=v), STACKS[kind], IAE
        yield "HypervectorMapping", kind, lambda s: HypervectorMapping(per_patch=s), STACKS[kind], IAE
        yield "as_hypervectors", kind, as_hypervectors, STACKS[kind], IAE
    yield "as_float64", "ragged", as_float64, STACKS["ragged"], IAE
    yield "as_tuple", "string", as_tuple, "ab", IAE
    yield "as_float", "numpy bool", as_float, np.True_, IAE
    yield "BenchConfig(mix)", "numpy bool", lambda v: BenchConfig(mapping="mixed", mix=v), np.True_, IAE
    yield "LossConfig(lam)", "numpy bool", lambda v: LossConfig(lam=v), np.False_, IAE
    yield "ItemMemory.from_matrix", "label count", lambda s: ItemMemory(range(COUNT + 1), s), good(), IAE
    yield "ItemMemory.from_matrix", "zero rows", lambda s: ItemMemory([], s), np.empty((0, DIM)), IAE
    yield "check_no_zero_vectors", "zero rows", lambda s: check_no_zero_vectors(s, "x"), np.empty((0, DIM)), IAE
    yield "HypervectorMapping", "zero row", lambda s: HypervectorMapping(per_patch=s), STACKS["zero row"], None
    yield "HypervectorMapping", "1-D", lambda s: HypervectorMapping(per_patch=s), good()[0], IAE
    yield "check_no_zero_vectors", "1-D", lambda s: check_no_zero_vectors(s, "x"), good()[0], IAE
    # a pair of single vectors is rejected by rank before the cosine, zero or not
    yield "vsa_cyclic_loss", "1-D zero pair", lambda v: vsa_cyclic_loss(v, v), np.zeros(DIM), IAE
    yield "ItemMemory.from_matrix", "unhashable label", lambda s: ItemMemory([[1]], s), good()[:1], IAE
    # a one-row float32 memory, which add would widen, and a three-row float64 one
    row32 = good()[0].astype(np.float32)
    yield "ItemMemory.add", "unhashable label", lambda v: ItemMemory([0], v[np.newaxis]).add([1], v), row32, IAE
    yield "ItemMemory.add", "unhashable label, nonempty memory", lambda v: memory().add({}, v), good()[0], IAE


def row_of(stack):
    """A stack's bad row as one vector; an empty or ragged list as it is."""
    return stack if isinstance(stack, list) else stack[1]


CASES = list(cases())


@pytest.mark.parametrize(
    "call,arg,expected", [case[2:] for case in CASES], ids=[f"{case[0]}-{case[1]}" for case in CASES]
)
def test_error_class(call, arg, expected):
    if expected is None:
        call(arg)
        return
    with pytest.raises(Exception) as info:
        call(arg)
    assert type(info.value) is expected


# Each count parameter at 0, and the noun the count rule names it by.
COUNTS = [
    ("as_count", "count", lambda: as_count(0, "count")),
    ("sample_hypervector(dim)", "dim", lambda: sample_hypervector(0, np.random.default_rng(0))),
    ("BenchConfig(dim)", "dim", lambda: BenchConfig(dim=0)),
    ("BenchConfig(k)", "k", lambda: BenchConfig(k=0)),
    ("BenchConfig(object_vocab_size)", "object_vocab_size", lambda: BenchConfig(object_vocab_size=0)),
    ("BenchConfig(attr_vocab_size)", "attr_vocab_size", lambda: BenchConfig(attr_vocab_size=0)),
    ("BenchConfig(trials)", "trials", lambda: BenchConfig(trials=0)),
    ("LshProjector(m)", "m", lambda: LshProjector(m=0, n=4, seed=0)),
    ("LshProjector(n)", "n", lambda: LshProjector(m=4, n=0, seed=0)),
    ("random_mapping(patch_count)", "patch_count", lambda: random_mapping(0, DIM, seed=0)),
    ("random_mapping(dim)", "dim", lambda: random_mapping(COUNT, 0, seed=0)),
    ("ItemMemory.cleanup(k)", "k", lambda: memory().cleanup(good()[0], k=0)),
    ("PatchSpec(sides)", "patch side", lambda: PatchSpec(sides=(2, 0))),
    ("PatchSpec(dilation)", "dilation", lambda: PatchSpec(sides=(2,), dilation=0)),
    ("normalize_blocks(lengths)", "block length", lambda: normalize_blocks(PatchFeatureSet(vectors=good()), [DIM, 0])),
]


@pytest.mark.parametrize("call,noun", [(call, noun) for _, noun, call in COUNTS], ids=[case[0] for case in COUNTS])
def test_count_below_one(call, noun):
    with pytest.raises(InvalidArgumentError, match=f"^{noun} must be >= 1, got 0$"):
        call()
