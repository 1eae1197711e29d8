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
    DomainSpec,
    DomainSymbols,
    SceneSpec,
    default_domain,
    default_scene,
    encode_scene,
    materialize,
    measure_recovery,
    reports_to_csv,
    run_config,
    run_sweep,
    scene_mapping,
    target_twin,
)
from vsabench import bench
from vsabench.errors import DegenerateInputError, InvalidArgumentError
from vsabench.hv import bind, cosine_similarity, fill_bipolar, sample_hypervector

DIM = 4096


def small_domain(dim=DIM, n_obj=8, n_attr=4):
    return DomainSpec(
        object_vocab=tuple(f"obj{i:02d}" for i in range(n_obj)),
        src_attr_vocab=tuple(f"src{i:02d}" for i in range(n_attr)),
        tgt_attr_vocab=tuple(f"tgt{i:02d}" for i in range(n_attr)),
        dim=dim,
    )


def per_label_symbols(domain, rng):
    """Symbols drawn one sample_hypervector per label: objects, then source, then target attributes."""
    def draw(vocab):
        return {label: sample_hypervector(domain.dim, rng) for label in vocab}

    objects = draw(domain.object_vocab)
    src = draw(domain.src_attr_vocab)
    tgt = draw(domain.tgt_attr_vocab)
    return DomainSymbols(objects=objects, src_attrs=src, tgt_attrs=tgt)


def reference_cleanup(labels, vectors, query):
    """Top-1 label by cosine over a stacked memory, ties to the earlier entry."""
    stack = np.stack(vectors)
    sims = (stack @ query) / np.sqrt(np.sum(stack * stack, axis=1) * np.dot(query, query))
    best = sorted(range(len(sims)), key=lambda i: (-sims[i], i))[0]
    return labels[best]


def reference_recovery(domain, scene, mapping, trials, seed, mix=1.0):
    """The per-label trial loop: dicts of symbols, one scene encoding and one cleanup query at a time."""
    twin = target_twin(domain, scene)
    cosines = np.empty(trials)
    correct = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, t)))
        symbols = per_label_symbols(domain, rng)
        v_src = encode_scene(symbols, scene)
        v_tgt = encode_scene(symbols, twin)
        u_gt = scene_mapping(domain, symbols, scene)
        if mapping == "ground_truth":
            u = u_gt
        elif mapping == "random":
            u = sample_hypervector(domain.dim, rng)
        else:
            u = mix * u_gt + (1.0 - mix) * sample_hypervector(domain.dim, rng)
        translated = bind(v_src, u)
        cosines[t] = cosine_similarity(translated, v_tgt)
        labels = list(domain.object_vocab)
        vectors = [symbols.objects[label] for label in labels]
        for obj_label, tgt_label in twin.pairs:
            query = bind(translated, symbols.tgt_attrs[tgt_label])
            correct += int(reference_cleanup(labels, vectors, query) == obj_label)
    return BenchReport(
        recovery_cosine=float(np.mean(cosines)),
        cleanup_accuracy=correct / (trials * scene.k),
        dim=domain.dim,
        k=scene.k,
        mapping=mapping,
        trials=trials,
        seed=seed,
        recovery_cosine_sem=float(np.std(cosines, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
    )


class TestDomainAndScene:
    def test_materialize_matches_per_label_draws(self):
        d = small_domain(dim=129, n_obj=11, n_attr=3)
        sym = materialize(d, np.random.default_rng(7))
        ref = per_label_symbols(d, np.random.default_rng(7))
        for field in ("objects", "src_attrs", "tgt_attrs"):
            got, want = getattr(sym, field), getattr(ref, field)
            assert list(got) == list(want)
            for label in want:
                np.testing.assert_array_equal(got[label], want[label])

    def test_materialize_deterministic(self):
        d = small_domain()
        a, b = materialize(d, np.random.default_rng(0)), materialize(d, np.random.default_rng(0))
        for label in d.object_vocab:
            np.testing.assert_array_equal(a.objects[label], b.objects[label])

    def test_symbols_are_bipolar_and_independent(self):
        sym = materialize(small_domain(dim=2048), np.random.default_rng(0))
        vs = list(sym.objects.values())
        assert all(set(np.unique(v)) <= {-1.0, 1.0} for v in vs)
        assert abs(cosine_similarity(vs[0], vs[1])) < 0.1

    def test_unequal_attr_vocabs_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DomainSpec(("o",), ("a", "b"), ("c",), dim=16)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DomainSpec(("o", "o"), ("a",), ("b",), dim=16)

    @pytest.mark.parametrize("vocab", ["ab", None, 3])
    def test_vocab_that_is_not_a_sequence_rejected(self, vocab):
        # a string would read as one-character labels
        with pytest.raises(InvalidArgumentError, match="sequence of object_vocab labels"):
            DomainSpec(vocab, ("a",), ("b",), dim=16)
        with pytest.raises(InvalidArgumentError, match="sequence of tgt_attr_vocab labels"):
            DomainSpec(("o",), ("a",), vocab, dim=16)

    def test_vocab_and_pairs_are_stored_as_tuples(self):
        d = DomainSpec(["o", "p"], iter(["a"]), ["b"], dim=16)
        assert (d.object_vocab, d.src_attr_vocab, d.tgt_attr_vocab) == (("o", "p"), ("a",), ("b",))
        assert SceneSpec(pairs=[["o", "a"]]).pairs == (("o", "a"),)

    @pytest.mark.parametrize("pairs,match", [
        ("ab", "sequence of pairs"),
        (5, "sequence of pairs"),
        (["ab"], r"\(object, attribute\) pair"),
        ((("obj00",),), r"must be \(object, attribute\)"),
        ((("obj00", "src00", "src01"),), r"must be \(object, attribute\)"),
    ])
    def test_malformed_pairs_rejected(self, pairs, match):
        with pytest.raises(InvalidArgumentError, match=match):
            SceneSpec(pairs=pairs)


class TestEncodeScene:
    def test_single_pair_is_exact_bind(self):
        d = small_domain(dim=512)
        sym = materialize(d, np.random.default_rng(0))
        scene = SceneSpec(pairs=(("obj00", "src00"),))
        np.testing.assert_array_equal(
            encode_scene(sym, scene), bind(sym.objects["obj00"], sym.src_attrs["src00"])
        )

    def test_pair_order_invariant(self):
        d = small_domain(dim=512)
        sym = materialize(d, np.random.default_rng(0))
        a = encode_scene(sym, SceneSpec(pairs=(("obj00", "src00"), ("obj01", "src01"))))
        b = encode_scene(sym, SceneSpec(pairs=(("obj01", "src01"), ("obj00", "src00"))))
        np.testing.assert_array_equal(a, b)

    def test_unknown_label_rejected(self):
        sym = materialize(small_domain(dim=64), np.random.default_rng(0))
        with pytest.raises(InvalidArgumentError):
            encode_scene(sym, SceneSpec(pairs=(("ghost", "src00"),)))

    def test_k2_component_similarity(self):
        # Monte-Carlo: cos(scene, one component) ~ 1/sqrt(2)
        sims = []
        for s in range(30):
            sym = materialize(small_domain(), np.random.default_rng(s))
            scene = SceneSpec(pairs=(("obj00", "src00"), ("obj01", "src01")))
            v = encode_scene(sym, scene)
            sims.append(cosine_similarity(v, bind(sym.objects["obj00"], sym.src_attrs["src00"])))
        assert np.mean(sims) == pytest.approx(1 / math.sqrt(2), abs=0.02)


class TestTranslateScene:
    def test_ground_truth_recovery(self):
        sims = []
        for s in range(30):
            d = small_domain()
            sym = materialize(d, np.random.default_rng(s))
            scene = SceneSpec(pairs=(("obj00", "src00"), ("obj01", "src01")))
            u = scene_mapping(d, sym, scene)
            v_src = encode_scene(sym, scene)
            v_tgt = encode_scene(sym, target_twin(d, scene))
            sims.append(cosine_similarity(bind(v_src, u), v_tgt))
        assert np.mean(sims) == pytest.approx(1 / math.sqrt(2), abs=0.05)

    def test_single_pair_double_translate_is_identity(self):
        d = small_domain(dim=512)
        sym = materialize(d, np.random.default_rng(0))
        scene = SceneSpec(pairs=(("obj00", "src00"),))
        u = scene_mapping(d, sym, scene)  # single bipolar pair: u itself bipolar
        v = encode_scene(sym, scene)
        np.testing.assert_array_equal(bind(bind(v, u), u), v)


class TestMeasureRecovery:
    def test_ground_truth_high_accuracy(self):
        cfg = BenchConfig(k=2, trials=30, seed=11)
        r = run_config(cfg)
        assert r.cleanup_accuracy >= 0.99
        assert r.flip_rate == pytest.approx(1.0 - r.cleanup_accuracy)

    def test_random_mapping_near_chance(self):
        cfg = BenchConfig(k=2, trials=50, seed=12, mapping="random")
        r = run_config(cfg)
        chance = 1 / 32
        se = math.sqrt(chance * (1 - chance) / r.attempts)
        assert abs(r.cleanup_accuracy - chance) <= 3 * se
        assert abs(r.recovery_cosine) < 0.1

    def test_k1_exact(self):
        r = run_config(BenchConfig(k=1, trials=10, seed=13))
        assert r.recovery_cosine == 1.0
        assert r.cleanup_accuracy == 1.0

    def test_deterministic(self):
        cfg = BenchConfig(k=2, trials=10, seed=14)
        assert run_config(cfg) == run_config(cfg)

    def test_invalid_mapping_kind(self):
        d = small_domain()
        with pytest.raises(InvalidArgumentError):
            measure_recovery(d, SceneSpec(pairs=(("obj00", "src00"),)), mapping="learned")

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
        assert cfg == ints and run_config(cfg) == run_config(ints)

    @pytest.mark.parametrize("mix", [True, "half", None, 1.5, -0.25, float("nan")])
    def test_bad_mix_rejected(self, mix):
        with pytest.raises(InvalidArgumentError, match="mix"):
            BenchConfig(mix=mix)

    def test_number_mix_becomes_float(self):
        assert [type(BenchConfig(mix=m).mix) for m in (1, "0.5", np.float32(0.25))] == [float] * 3
        assert BenchConfig(mix="0.5") == BenchConfig(mix=0.5)

    @pytest.mark.parametrize("mix", [True, 5.0, float("nan")])
    def test_bad_mix_rejected_by_measure_recovery(self, mix):
        scene = SceneSpec(pairs=(("obj00", "src00"),))
        with pytest.raises(InvalidArgumentError, match="mix"):
            measure_recovery(small_domain(dim=64), scene, mapping="mixed", trials=1, mix=mix)

    @pytest.mark.parametrize("trials", [2.5, True])
    def test_non_integer_trials_rejected_by_measure_recovery(self, trials):
        with pytest.raises(InvalidArgumentError):
            measure_recovery(small_domain(dim=64), SceneSpec(pairs=(("obj00", "src00"),)), trials=trials)

    @pytest.mark.parametrize("dim", [96.5, True, "many"])
    def test_non_integer_domain_dim_rejected(self, dim):
        with pytest.raises(InvalidArgumentError, match="dim"):
            small_domain(dim=dim)


class TestMatchesPerLabelLoop:
    """measure_recovery on a symbol matrix reproduces the per-label trial loop exactly."""

    CASES = [
        ("ground_truth", 1.0),
        ("random", 1.0),
        ("mixed", 0.3),
    ]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("mapping,mix", CASES)
    def test_equal_reports(self, mapping, mix, k):
        # odd dim, more objects than attributes, and a scene that skips vocabulary rows
        d = small_domain(dim=129, n_obj=13, n_attr=5)
        scene = SceneSpec(pairs=tuple((f"obj{2 * i + 1:02d}", f"src{4 - i:02d}") for i in range(k)))
        got = measure_recovery(d, scene, mapping=mapping, trials=6, seed=21, mix=mix)
        want = reference_recovery(d, scene, mapping, trials=6, seed=21, mix=mix)
        assert got == want

    def test_equal_csv_bytes(self):
        d = small_domain(dim=129, n_obj=13, n_attr=5)
        scene = SceneSpec(pairs=(("obj00", "src00"), ("obj05", "src01"), ("obj12", "src04")))
        got, want = [], []
        for mapping, mix in self.CASES:
            got.append((mapping, measure_recovery(d, scene, mapping, 8, seed=3, mix=mix)))
            want.append((mapping, reference_recovery(d, scene, mapping, 8, seed=3, mix=mix)))
        assert reports_to_csv("mapping_kind", got).encode() == reports_to_csv("mapping_kind", want).encode()

    @pytest.mark.parametrize("dim", [4096, 4097])  # k^2 dim = 2^24, the float32 bound, and just past it
    @pytest.mark.parametrize("mapping", ["ground_truth", "random"])
    def test_equal_reports_at_the_float32_bound(self, mapping, dim):
        d = small_domain(dim=dim, n_obj=64, n_attr=64)
        scene = SceneSpec(pairs=tuple((f"obj{63 - i:02d}", f"src{i:02d}") for i in range(64)))
        got = measure_recovery(d, scene, mapping=mapping, trials=2, seed=22)
        assert got == reference_recovery(d, scene, mapping, trials=2, seed=22)

    def test_unknown_object_label_rejected(self):
        with pytest.raises(InvalidArgumentError):
            measure_recovery(small_domain(dim=64), SceneSpec(pairs=(("ghost", "src00"),)), trials=1)


def symbol_dtypes(monkeypatch, domain, scene, mapping):
    """The dtypes of the arrays measure_recovery fills with symbols."""
    seen = set()

    def spy(out, rng):
        seen.add(out.dtype)
        return fill_bipolar(out, rng)

    monkeypatch.setattr(bench, "fill_bipolar", spy)
    measure_recovery(domain, scene, mapping=mapping, trials=2, seed=1, mix=0.5)
    return seen


class TestFloat32Symbols:
    """Symbols are float32 exactly while every scan value is an integer of at most 2^24."""

    K64 = SceneSpec(pairs=tuple((f"obj{i:02d}", f"src{i:02d}") for i in range(64)))

    @pytest.mark.parametrize("mapping", ["ground_truth", "random"])
    def test_float32_up_to_the_bound(self, monkeypatch, mapping):
        domain = small_domain(dim=4096, n_obj=64, n_attr=64)  # 64^2 * 4096 == 2^24
        assert symbol_dtypes(monkeypatch, domain, self.K64, mapping) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("mapping", ["ground_truth", "random"])
    def test_float64_past_the_bound(self, monkeypatch, mapping):
        domain = small_domain(dim=4097, n_obj=64, n_attr=64)
        assert symbol_dtypes(monkeypatch, domain, self.K64, mapping) == {np.dtype(np.float64)}

    @pytest.mark.parametrize("dim,k", [(8, 1), (64, 2), (4096, 64)])
    def test_mixed_is_float64(self, monkeypatch, dim, k):
        domain = small_domain(dim=dim, n_obj=64, n_attr=64)
        scene = SceneSpec(pairs=self.K64.pairs[:k])
        assert symbol_dtypes(monkeypatch, domain, scene, "mixed") == {np.dtype(np.float64)}


def first_zero_norm_trial(domain, scene, seed):
    """The first trial whose translated scene or target twin is zero, from per-label draws,
    and which of the two is zero."""
    for t in itertools.count():
        symbols = per_label_symbols(domain, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, t))))
        v_src = encode_scene(symbols, scene)
        v_tgt = encode_scene(symbols, target_twin(domain, scene))
        translated = bind(v_src, scene_mapping(domain, symbols, scene))
        if not np.any(translated) or not np.any(v_tgt):
            return t, "translated" if np.any(v_tgt) else "twin"


class TestZeroNormScene:
    # at dim 1 and k = 4 the translated scene or the target twin is often 0
    DOMAIN = small_domain(dim=1)
    SCENE = SceneSpec(pairs=tuple((f"obj{i:02d}", f"src{i:02d}") for i in range(4)))

    @pytest.mark.parametrize("seed,zero", [(0, "twin"), (15, "translated")])
    def test_error_names_the_trial(self, seed, zero):
        t, kind = first_zero_norm_trial(self.DOMAIN, self.SCENE, seed)
        assert t > 0 and kind == zero
        message = f"zero-norm translated or target scene in trial {t}"
        with pytest.raises(DegenerateInputError, match=re.escape(message) + "$"):
            measure_recovery(self.DOMAIN, self.SCENE, trials=t + 5, seed=seed)


class TestSweep:
    def test_singleton_grid_matches_measure_recovery(self):
        base = BenchConfig(k=2, trials=10, seed=15)
        [(value, report)] = run_sweep("dim", [4096], base)
        assert value == 4096
        assert report == run_config(base)

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
        assert forward[4] == backward[4] == run_config(replace(base, k=4))

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
        assert report == run_config(BenchConfig(dim=128, k=2, trials=2, seed=4))

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            run_sweep("dim", [], BenchConfig())


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
