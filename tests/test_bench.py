import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from vsabench.bench import (
    CSV_HEADER,
    BenchConfig,
    BenchReport,
    encode_scene,
    materialize,
    measure_recovery,
    reports_to_csv,
    run_sweep,
    scene_mapping,
    sweep_configs,
)
from vsabench import bench
from vsabench.errors import DegenerateInputError, InvalidArgumentError
from vsabench.hv import bind, cosine_similarity, fill_bipolar, sample_hypervector
from vsabench.mapping import build_ground_truth_mapping
from vsabench.memory import ItemMemory

DIM = 4096


def small_config(dim=DIM, n_obj=8, n_attr=4, **fields):
    return BenchConfig(dim=dim, object_vocab_size=n_obj, attr_vocab_size=n_attr, **fields)


def symbol_matrix(config, rng):
    """One trial's symbols as measure_recovery draws them: object, source-attribute and target-attribute rows."""
    n_obj, n_attr = config.object_vocab_size, config.attr_vocab_size
    symbols = materialize(np.empty((n_obj + 2 * n_attr, config.dim)), rng)
    return np.split(symbols, [n_obj, n_obj + n_attr])


def per_row_symbols(config, rng):
    """Symbols drawn one sample_hypervector per row: objects, then source, then target attributes."""
    def draw(n):
        return [sample_hypervector(config.dim, rng) for _ in range(n)]

    return draw(config.object_vocab_size), draw(config.attr_vocab_size), draw(config.attr_vocab_size)


def reference_cleanup(vectors, query):
    """Index of the top-1 row by cosine over a stacked memory, ties to the earlier row."""
    stack = np.stack(vectors)
    sims = (stack @ query) / np.sqrt(np.sum(stack * stack, axis=1) * np.dot(query, query))
    return sorted(range(len(sims)), key=lambda i: (-sims[i], i))[0]


def reference_scenes(config, objects, src, tgt):
    """The source scene, its target twin and the ground-truth mapping, one bind per pair."""
    k = config.k
    v_src = sum(bind(objects[i], src[i]) for i in range(k))
    v_tgt = sum(bind(objects[i], tgt[i]) for i in range(k))
    return v_src, v_tgt, sum(bind(src[i], tgt[i]) for i in range(k))


def reference_mapping(config, u_gt, rng):
    """The config's mapping vector from the ground truth and, for random and mixed, a bipolar draw from rng."""
    if config.mapping == "ground_truth":
        return u_gt
    if config.mapping == "random":
        return sample_hypervector(config.dim, rng)
    return config.mix * u_gt + (1.0 - config.mix) * sample_hypervector(config.dim, rng)


def reference_recovery(config):
    """The per-row trial loop: symbols drawn one row at a time, one scene encoding and one cleanup query
    at a time. Object i carries source attribute i, for i < k, and target attribute i is its twin."""
    trials, k = config.trials, config.k
    cosines = np.empty(trials)
    correct = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0, t)))
        objects, src, tgt = per_row_symbols(config, rng)
        v_src, v_tgt, u_gt = reference_scenes(config, objects, src, tgt)
        translated = bind(v_src, reference_mapping(config, u_gt, rng))
        cosines[t] = cosine_similarity(translated, v_tgt)
        for i in range(k):
            correct += int(reference_cleanup(objects, bind(translated, tgt[i])) == i)
    return BenchReport(
        recovery_cosine=float(np.mean(cosines)),
        cleanup_accuracy=correct / (trials * k),
        dim=config.dim,
        k=k,
        mapping=config.mapping,
        trials=trials,
        seed=config.seed,
        recovery_cosine_sem=float(np.std(cosines, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
    )


def gated_recovery(config):
    """The trial loop built from the public gates alone: symbols of the dtype the bench picks, an
    ItemMemory over the object rows, and bind, build_ground_truth_mapping, cosine_similarity and
    ItemMemory.cleanup on them, each checking its input as it would for any caller."""
    n_obj, n_attr, k, trials = config.object_vocab_size, config.attr_vocab_size, config.k, config.trials
    cosines = np.empty(trials)
    correct = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0, t)))
        symbols = materialize(np.empty((n_obj + 2 * n_attr, config.dim), bench._symbol_dtype(config)), rng)
        objects, src, tgt = np.split(symbols, [n_obj, n_obj + n_attr])
        src, tgt = src[:k], tgt[:k]
        u = reference_mapping(config, build_ground_truth_mapping(src, tgt), rng)
        translated = bind(encode_scene(objects[:k], src), u)
        cosines[t] = cosine_similarity(translated, encode_scene(objects[:k], tgt))
        found, _ = ItemMemory(objects).cleanup(bind(np.broadcast_to(translated, tgt.shape), tgt))
        correct += np.count_nonzero(found[:, 0] == np.arange(k))
    return BenchReport(
        recovery_cosine=float(np.mean(cosines)),
        cleanup_accuracy=correct / (trials * k),
        dim=config.dim,
        k=k,
        mapping=config.mapping,
        trials=trials,
        seed=config.seed,
        recovery_cosine_sem=float(np.std(cosines, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
    )


class TestDomainAndScene:
    def test_materialize_matches_per_label_draws(self):
        cfg = small_config(dim=129, n_obj=11, n_attr=3)
        got = symbol_matrix(cfg, np.random.default_rng(7))
        want = per_row_symbols(cfg, np.random.default_rng(7))
        for rows, vectors in zip(got, want):
            np.testing.assert_array_equal(rows, np.stack(vectors))

    def test_materialize_deterministic(self):
        a, b = (materialize(np.empty((8, DIM)), np.random.default_rng(0)) for _ in range(2))
        np.testing.assert_array_equal(a, b)

    def test_symbols_are_bipolar_and_independent(self):
        objects, _, _ = symbol_matrix(small_config(dim=2048), np.random.default_rng(0))
        assert set(np.unique(objects)) <= {-1.0, 1.0}
        assert abs(cosine_similarity(objects[0], objects[1])) < 0.1


class TestEncodeScene:
    def test_single_pair_is_exact_bind(self):
        objects, src, _ = symbol_matrix(small_config(dim=512), np.random.default_rng(0))
        np.testing.assert_array_equal(encode_scene(objects[:1], src[:1]), bind(objects[0], src[0]))

    def test_pair_order_invariant(self):
        objects, src, _ = symbol_matrix(small_config(dim=512), np.random.default_rng(0))
        np.testing.assert_array_equal(encode_scene(objects[:2], src[:2]), encode_scene(objects[1::-1], src[1::-1]))

    def test_k2_component_similarity(self):
        # Monte-Carlo: cos(scene, one component) ~ 1/sqrt(2)
        sims = []
        for s in range(30):
            objects, src, _ = symbol_matrix(small_config(), np.random.default_rng(s))
            sims.append(cosine_similarity(encode_scene(objects[:2], src[:2]), bind(objects[0], src[0])))
        assert np.mean(sims) == pytest.approx(1 / math.sqrt(2), abs=0.02)


class TestTranslateScene:
    def test_ground_truth_recovery(self):
        sims = []
        cfg = small_config(k=2)
        for s in range(30):
            rng = np.random.default_rng(s)
            objects, src, tgt = symbol_matrix(cfg, rng)
            u = scene_mapping(cfg, src[:2], tgt[:2], rng)
            v_src, v_tgt = encode_scene(objects[:2], src[:2]), encode_scene(objects[:2], tgt[:2])
            sims.append(cosine_similarity(bind(v_src, u), v_tgt))
        assert np.mean(sims) == pytest.approx(1 / math.sqrt(2), abs=0.05)

    def test_single_pair_double_translate_is_identity(self):
        cfg = small_config(dim=512, k=1)
        rng = np.random.default_rng(0)
        objects, src, tgt = symbol_matrix(cfg, rng)
        u = scene_mapping(cfg, src[:1], tgt[:1], rng)  # single bipolar pair: u itself bipolar
        v = encode_scene(objects[:1], src[:1])
        np.testing.assert_array_equal(bind(bind(v, u), u), v)


class TestMeasureRecovery:
    def test_ground_truth_high_accuracy(self):
        cfg = BenchConfig(k=2, trials=30, seed=11)
        r = measure_recovery(cfg)
        assert r.cleanup_accuracy >= 0.99
        assert r.flip_rate == pytest.approx(1.0 - r.cleanup_accuracy)

    def test_random_mapping_near_chance(self):
        cfg = BenchConfig(k=2, trials=50, seed=12, mapping="random")
        r = measure_recovery(cfg)
        chance = 1 / 32
        se = math.sqrt(chance * (1 - chance) / r.attempts)
        assert abs(r.cleanup_accuracy - chance) <= 3 * se
        assert abs(r.recovery_cosine) < 0.1

    def test_k1_exact(self):
        r = measure_recovery(BenchConfig(k=1, trials=10, seed=13))
        assert r.recovery_cosine == 1.0
        assert r.cleanup_accuracy == 1.0

    def test_deterministic(self):
        cfg = BenchConfig(k=2, trials=10, seed=14)
        assert measure_recovery(cfg) == measure_recovery(cfg)

    def test_each_trial_runs_the_stages(self, monkeypatch):
        calls = []

        def counted(name, stage):
            def call(*args):
                calls.append(name)
                return stage(*args)
            return call

        for name in ("materialize", "encode_scene", "scene_mapping"):
            monkeypatch.setattr(bench, name, counted(name, getattr(bench, name)))
        measure_recovery(small_config(dim=64, k=2, trials=3))
        assert calls == ["materialize", "encode_scene", "encode_scene", "scene_mapping"] * 3

    def test_invalid_mapping_kind(self):
        with pytest.raises(InvalidArgumentError, match="mapping"):
            small_config(mapping="learned")

    @pytest.mark.parametrize("field,value", [
        ("trials", 2.5),
        ("trials", True),
        ("dim", 96.5),
        ("k", True),
        ("k", 1.5),
        ("object_vocab_size", 8.5),
        ("attr_vocab_size", "four"),
    ])
    def test_non_integer_config_field_rejected(self, field, value):
        with pytest.raises(InvalidArgumentError, match=field):
            BenchConfig(**{field: value})

    def test_integral_float_config_fields_become_ints(self):
        cfg = BenchConfig(dim=96.0, k=2.0, object_vocab_size=8.0, attr_vocab_size=4.0, trials=3.0, seed=2)
        assert (cfg.dim, cfg.k, cfg.object_vocab_size, cfg.attr_vocab_size, cfg.trials) == (96, 2, 8, 4, 3)
        assert all(type(v) is int for v in (cfg.dim, cfg.k, cfg.trials))
        ints = BenchConfig(dim=96, k=2, object_vocab_size=8, attr_vocab_size=4, trials=3, seed=2)
        assert cfg == ints and measure_recovery(cfg) == measure_recovery(ints)

    @pytest.mark.parametrize("mix", [True, "half", None, 1.5, -0.25, float("nan")])
    def test_bad_mix_rejected(self, mix):
        with pytest.raises(InvalidArgumentError, match="mix"):
            BenchConfig(mix=mix)

    def test_number_mix_becomes_float(self):
        assert [type(BenchConfig(mix=m).mix) for m in (1, "0.5", np.float32(0.25))] == [float] * 3
        assert BenchConfig(mix="0.5") == BenchConfig(mix=0.5)

    # measure_recovery reads its options only from a BenchConfig, so a bad
    # value is rejected on its way in, by the config that would carry it.
    @pytest.mark.parametrize("mix", [True, 5.0, float("nan")])
    def test_bad_mix_rejected_by_measure_recovery(self, mix):
        with pytest.raises(InvalidArgumentError, match="mix"):
            measure_recovery(replace(small_config(dim=64, mapping="mixed", trials=1), mix=mix))

    @pytest.mark.parametrize("trials", [2.5, True])
    def test_non_integer_trials_rejected_by_measure_recovery(self, trials):
        with pytest.raises(InvalidArgumentError, match="trials"):
            measure_recovery(replace(small_config(dim=64), trials=trials))

    @pytest.mark.parametrize("dim", [96.5, True, "many"])
    def test_non_integer_domain_dim_rejected(self, dim):
        with pytest.raises(InvalidArgumentError, match="dim"):
            small_config(dim=dim)

    @pytest.mark.parametrize("dim", [0, -1, -4096])
    def test_dim_below_one_rejected(self, dim):
        with pytest.raises(InvalidArgumentError, match=re.escape(f"dim must be >= 1, got {dim}")):
            small_config(dim=dim)

    def test_symbol_matrix_capped(self):
        # 8 objects and 2 * 4 attributes make 16 rows: the cap allows dim 2^27 and no more.
        assert small_config(dim=2**27).dim == 2**27  # a config allocates nothing
        with pytest.raises(InvalidArgumentError, match=r"16 rows by dim=134217729 .*\(cap 2147483648\)"):
            small_config(dim=2**27 + 1)
        with pytest.raises(InvalidArgumentError, match="cap"):
            small_config(dim=10**300)


class TestMatchesPerLabelLoop:
    """measure_recovery on a symbol matrix reproduces the per-row trial loop exactly."""

    CASES = [
        ("ground_truth", 1.0),
        ("random", 1.0),
        ("mixed", 0.3),
    ]

    @pytest.mark.parametrize("k", [1, 3, 64])
    @pytest.mark.parametrize("mapping,mix", CASES)
    def test_equal_reports(self, mapping, mix, k):
        # odd dim, and more objects than attributes
        cfg = BenchConfig(dim=129, k=k, object_vocab_size=k + 10, attr_vocab_size=k + 2,
                          mapping=mapping, mix=mix, trials=6, seed=21)
        assert measure_recovery(cfg) == reference_recovery(cfg)

    def test_equal_csv_bytes(self):
        base = small_config(dim=129, n_obj=13, n_attr=5, k=3, trials=8, seed=3)
        got, want = [], []
        for mapping, mix in self.CASES:
            cfg = replace(base, mapping=mapping, mix=mix)
            got.append((mapping, measure_recovery(cfg)))
            want.append((mapping, reference_recovery(cfg)))
        assert reports_to_csv("mapping_kind", got).encode() == reports_to_csv("mapping_kind", want).encode()

    @pytest.mark.parametrize("dim", [4096, 4097])  # k^2 dim = 2^24, the float32 bound, and just past it
    @pytest.mark.parametrize("mapping", ["ground_truth", "random"])
    def test_equal_reports_at_the_float32_bound(self, mapping, dim):
        cfg = small_config(dim=dim, n_obj=64, n_attr=64, k=64, mapping=mapping, trials=2, seed=22)
        assert measure_recovery(cfg) == reference_recovery(cfg)

    def test_unknown_object_label_rejected(self):
        # The scene names object rows 0..k-1, so a scene of more objects than the
        # vocabulary holds would name an object it does not have.
        with pytest.raises(InvalidArgumentError, match="k must be in"):
            small_config(dim=64, n_obj=3, n_attr=4, k=4)


def symbol_fills(monkeypatch):
    """The dtype of each array the bench fills with symbols, in the order of the fills."""
    seen = []

    def spy(out, rng):
        seen.append(out.dtype)
        return fill_bipolar(out, rng)

    monkeypatch.setattr(bench, "fill_bipolar", spy)
    return seen


def symbol_dtypes(monkeypatch, config):
    """The dtypes of the arrays measure_recovery fills with symbols."""
    seen = symbol_fills(monkeypatch)
    measure_recovery(replace(config, trials=2, seed=1, mix=0.5))
    return set(seen)


class TestFloat32Symbols:
    """Symbols are float32 exactly while every scan value is an integer of at most 2^24."""

    @pytest.mark.parametrize("mapping", ["ground_truth", "random"])
    def test_float32_up_to_the_bound(self, monkeypatch, mapping):
        cfg = small_config(dim=4096, n_obj=64, n_attr=64, k=64, mapping=mapping)  # 64^2 * 4096 == 2^24
        assert symbol_dtypes(monkeypatch, cfg) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("mapping", ["ground_truth", "random"])
    def test_float64_past_the_bound(self, monkeypatch, mapping):
        cfg = small_config(dim=4097, n_obj=64, n_attr=64, k=64, mapping=mapping)
        assert symbol_dtypes(monkeypatch, cfg) == {np.dtype(np.float64)}

    @pytest.mark.parametrize("dim,k", [(8, 1), (64, 2), (4096, 64)])
    def test_mixed_is_float64(self, monkeypatch, dim, k):
        cfg = small_config(dim=dim, n_obj=64, n_attr=64, k=k, mapping="mixed")
        assert symbol_dtypes(monkeypatch, cfg) == {np.dtype(np.float64)}


def first_zero_norm_trial(config):
    """The first trial whose translated scene or target twin is zero, from per-row draws,
    and which of the two is zero."""
    for t in itertools.count():
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0, t)))
        v_src, v_tgt, u_gt = reference_scenes(config, *per_row_symbols(config, rng))
        translated = bind(v_src, reference_mapping(config, u_gt, rng))
        if not np.any(translated) or not np.any(v_tgt):
            return t, "translated" if np.any(v_tgt) else "twin"


class TestZeroNormScene:
    # at dim 1 and k = 4 the translated scene or the target twin is often 0
    CONFIG = small_config(dim=1, k=4)

    @pytest.mark.parametrize("seed,zero", [(0, "twin"), (15, "translated")])
    def test_error_names_the_trial(self, seed, zero):
        t, kind = first_zero_norm_trial(replace(self.CONFIG, seed=seed))
        assert t > 0 and kind == zero
        message = f"zero-norm translated or target scene in trial {t}"
        with pytest.raises(DegenerateInputError, match=re.escape(message) + "$"):
            measure_recovery(replace(self.CONFIG, trials=t + 5, seed=seed))

    @pytest.mark.parametrize("seed", [15, 29])
    def test_sweep_error_names_the_first_trial_of_any_point(self, seed):
        grid = ["mixed", "random", "ground_truth"]
        base = replace(self.CONFIG, mix=0.5, seed=seed)
        firsts = [first_zero_norm_trial(replace(base, mapping=m))[0] for m in grid]
        t = min(firsts)
        assert 0 < t < firsts[0]  # a later point, in the other dtype group, degenerates first
        message = f"zero-norm translated or target scene in trial {t}"
        with pytest.raises(DegenerateInputError, match=re.escape(message) + "$"):
            run_sweep("mapping_kind", grid, replace(base, trials=max(firsts) + 5))


class TestSweep:
    def test_singleton_grid_matches_measure_recovery(self):
        base = BenchConfig(k=2, trials=10, seed=15)
        [(value, report)] = run_sweep("dim", [4096], base)
        assert value == 4096
        assert report == measure_recovery(base)

    def test_recovery_law_over_k(self):
        base = BenchConfig(trials=30, seed=16, attr_vocab_size=8)
        for k, r in run_sweep("k", [1, 2, 4, 8], base):
            expected = 1 / math.sqrt(k)
            tol = max(3 * r.recovery_cosine_sem, 1e-12)
            assert abs(r.recovery_cosine - expected) <= tol

    def test_lambda_proxy_monotone_endpoints(self):
        base = BenchConfig(k=4, dim=512, trials=30, seed=17)
        results = dict(run_sweep("lambda_proxy", [0.0, 1.0], base))
        assert results[1.0].cleanup_accuracy > results[0.0].cleanup_accuracy

    def test_point_independent_of_grid_position(self):
        base = BenchConfig(dim=256, trials=5, seed=9, attr_vocab_size=8)
        forward, backward = dict(run_sweep("k", [1, 4], base)), dict(run_sweep("k", [4, 1], base))
        assert forward[4] == backward[4] == measure_recovery(replace(base, k=4))

    @pytest.mark.parametrize("base", [
        small_config(dim=129, k=3, trials=6, seed=23, mix=0.3),
        # past the float32 bound, so the random and mixed points share a float64 group
        small_config(dim=4097, n_obj=64, n_attr=64, k=64, trials=2, seed=24, mix=0.3),
    ])
    @pytest.mark.parametrize("axis,grid", [
        ("mapping_kind", ["ground_truth", "random", "mixed"]),
        ("mapping_kind", ["mixed", "random", "ground_truth"]),
        ("lambda_proxy", [0.0, 0.3, 1.0]),
        ("lambda_proxy", [1.0, 0.3, 0.0]),
    ])
    def test_points_that_draw_after_the_fill_match_measure_recovery(self, axis, grid, base):
        for value, report in run_sweep(axis, grid, base):
            point = {"mapping": value} if axis == "mapping_kind" else {"mapping": "mixed", "mix": value}
            assert report == measure_recovery(replace(base, **point))

    def test_k_sweep_fills_once_a_trial(self, monkeypatch):
        fills = symbol_fills(monkeypatch)
        run_sweep("k", [1, 2, 4], small_config(dim=64, trials=3))
        assert len(fills) == 3

    def test_dim_sweep_fills_once_a_trial_per_point(self, monkeypatch):
        fills = symbol_fills(monkeypatch)
        run_sweep("dim", [16, 64, 128, 256], small_config(trials=3))
        assert len(fills) == 4 * 3

    def test_k_sweep_across_the_float32_bound_fills_once_a_trial_per_dtype(self, monkeypatch):
        base = small_config(dim=4096, n_obj=65, n_attr=65, trials=2, seed=25)
        fills = symbol_fills(monkeypatch)
        results = run_sweep("k", [1, 64, 65, 2], base)  # 65^2 * 4096 > 2^24
        assert fills == [np.dtype(np.float32), np.dtype(np.float64)] * 2
        for k, report in results:
            assert report == measure_recovery(replace(base, k=k))

    def test_bad_axis_rejected(self):
        with pytest.raises(InvalidArgumentError):
            run_sweep("epochs", [1], BenchConfig())

    @pytest.mark.parametrize("axis,value", [
        ("k", 1.5), ("dim", 128.25), ("k", "two"), ("dim", True),
        ("lambda_proxy", "a"), ("lambda_proxy", None), ("lambda_proxy", True),
    ])
    def test_non_integral_grid_value_rejected(self, axis, value):
        with pytest.raises(InvalidArgumentError):
            run_sweep(axis, [value], BenchConfig(dim=128, trials=1))

    def test_integral_float_grid_value_accepted(self):
        base = BenchConfig(dim=128, k=1, trials=2, seed=4)
        [(_, report)] = run_sweep("k", [2.0], base)
        assert report == measure_recovery(BenchConfig(dim=128, k=2, trials=2, seed=4))

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            run_sweep("dim", [], BenchConfig())

    def test_sweep_configs_checks_the_grid_without_running_a_trial(self, monkeypatch):
        monkeypatch.setattr(bench, "_measure", None)
        base = BenchConfig(dim=128, trials=1, seed=4)
        configs = bench.sweep_configs("lambda_proxy", iter([0, 0.5]), base)
        assert configs == [replace(base, mapping="mixed", mix=mix) for mix in (0.0, 0.5)]
        for grid in ([], [0, "a"]):
            with pytest.raises(InvalidArgumentError):
                bench.sweep_configs("lambda_proxy", grid, base)


class TestMatchesGatedLoop:
    """run_sweep, whose trial loop translates and takes the recovery cosine without re-checking the
    arrays it fills, reports field for field what the gated loop reports, on every axis, at both
    symbol dtypes."""

    @pytest.mark.parametrize("seed", [1, 30])
    @pytest.mark.parametrize("axis,grid,base", [
        # k^2 dim <= 2^24 up to dim 4096 at k = 64, so the grid spans a float32 and a float64 group
        ("dim", [64, 4096, 4097], small_config(n_obj=64, n_attr=64, k=64, trials=2)),
        ("k", [1, 3, 64], small_config(dim=4097, n_obj=64, n_attr=64, trials=2)),
        ("mapping_kind", ["ground_truth", "random", "mixed"], small_config(dim=129, n_obj=13, k=3, mix=0.3, trials=6)),
        ("lambda_proxy", [0.0, 0.3, 1.0], small_config(dim=129, n_obj=13, k=3, trials=6)),
    ])
    def test_equal_reports(self, axis, grid, base, seed):
        base = replace(base, seed=seed)
        assert run_sweep(axis, grid, base) == list(zip(grid, map(gated_recovery, sweep_configs(axis, grid, base))))


class TestCsv:
    def test_header_and_rows(self):
        base = BenchConfig(k=2, dim=256, trials=5, seed=18)
        results = run_sweep("dim", [128, 256], base)
        text = reports_to_csv("dim", results)
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4 and lines[-1] == ""
        assert lines[1].startswith("dim,128,128,2,ground_truth,5,")

    def test_deterministic_bytes(self):
        base = BenchConfig(k=2, dim=256, trials=5, seed=19)
        a = reports_to_csv("dim", run_sweep("dim", [128, 256], base))
        b = reports_to_csv("dim", run_sweep("dim", [128, 256], base))
        assert a == b

    def test_boolean_axis_value_rejected(self):
        # True would print as 1 or True, neither of which the axis meant
        report = BenchReport(recovery_cosine=1.0, cleanup_accuracy=1.0, dim=8, k=1, mapping="ground_truth",
                             trials=1, seed=0)
        assert reports_to_csv("k", [(1, report)]).split("\n")[1].startswith("k,1,")
        with pytest.raises(InvalidArgumentError, match="boolean axis values are not supported"):
            reports_to_csv("k", [(True, report)])
