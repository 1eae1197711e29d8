import dataclasses
import errno
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from vsabench import cli
from vsabench.bench import CSV_HEADER, SWEEPS, BenchConfig
from vsabench.cli import JSON_CAP, OPTIONS, main
from vsabench.vsaf import feature_map_set, read_hypervectors, write_feature_file, write_hypervectors


@pytest.fixture()
def feature_file(tmp_path):
    rng = np.random.default_rng(0)
    fm = feature_map_set([
        ("conv1", rng.standard_normal((8, 8, 4))),
        ("conv2", rng.standard_normal((4, 4, 8))),
    ])
    path = tmp_path / "features.vsaf"
    write_feature_file(fm, path)
    return path


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncode:
    def test_encode_round(self, feature_file, tmp_path, capsys):
        out = tmp_path / "hv.vsaf"
        code, stdout, _ = run_cli([
            "encode", "--features-in", str(feature_file), "--out", str(out),
            "--patch-sizes", "4,2", "--dim", "128", "--seed", "3",
        ], capsys)
        assert code == 0
        info = json.loads(stdout)
        assert info == {"patch_count": 4, "m": 96, "n": 128, "seed": 3}
        assert read_hypervectors(out).shape == (4, 128)

    def test_encode_deterministic(self, feature_file, tmp_path, capsys):
        outs = []
        for name in ("a.vsaf", "b.vsaf"):
            out = tmp_path / name
            code, _, _ = run_cli([
                "encode", "--features-in", str(feature_file), "--out", str(out),
                "--patch-sizes", "4,2", "--dim", "64", "--seed", "5",
            ], capsys)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_per_layer_norm_scope(self, feature_file, tmp_path, capsys):
        outs = {}
        for scope in ("vector", "per_layer"):
            out = tmp_path / f"{scope}.vsaf"
            code, _, _ = run_cli([
                "encode", "--features-in", str(feature_file), "--out", str(out),
                "--patch-sizes", "4,2", "--dim", "64", "--seed", "5",
                "--norm-scope", scope,
            ], capsys)
            assert code == 0
            outs[scope] = read_hypervectors(out)
        assert not np.array_equal(outs["vector"], outs["per_layer"])
        assert np.all(np.abs(outs["per_layer"]) <= 1.0)

    def test_mismatched_patch_spec_exit_2(self, feature_file, tmp_path, capsys):
        out = tmp_path / "hv.vsaf"
        code, stdout, stderr = run_cli([
            "encode", "--features-in", str(feature_file), "--out", str(out),
            "--patch-sizes", "4,4", "--dim", "64",
        ], capsys)
        assert code == 2
        assert "conv2" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("cfg", [
        {"dilation": 1.5}, {"dim": "wide"}, {"seed": "abc"},
        {"sides": [2.5]}, {"sides": ["x"]}, {"sides": 4}, {"features_in": 5}, {"out": 7},
    ])
    def test_mistyped_config_value_exit_3(self, cfg, feature_file, tmp_path, capsys):
        out = tmp_path / "hv.vsaf"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, stdout, stderr = run_cli([
            "encode", "--features-in", str(feature_file), "--out", str(out),
            "--patch-sizes", "4,2", "--config", str(path),
        ], capsys)
        assert (code, stdout) == (3, "")
        assert stderr.startswith(f"config error: {next(iter(cfg))} ")  # the value rule, not the unknown-key rule
        assert not out.exists()

    @pytest.mark.parametrize("flags,cfg", [
        (["--dim", "1000000000000000"], {}), ([], {"dim": 1e15}),
        (["--dim", "3000000000", "--features-in", "/nonexistent/missing.vsaf"], {}),
    ])
    def test_oversized_projector_exit_3(self, flags, cfg, feature_file, tmp_path, capsys):
        out = tmp_path / "hv.vsaf"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        tracemalloc.start()
        try:
            code, stdout, stderr = run_cli([
                "encode", "--features-in", str(feature_file), "--out", str(out),
                "--patch-sizes", "4,2", "--config", str(path), *flags,
            ], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, stdout) == (3, "")
        assert stderr.startswith("config error: ") and "cap 2147483648" in stderr
        assert "Traceback" not in stderr
        assert peak < 1 << 20
        assert not out.exists()

    @pytest.mark.parametrize("cfg", [{"quantize": "sgn"}, {"norm_scope": "per-layer"}])
    def test_bad_mode_rejected_before_any_work(self, cfg, feature_file, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("encode did work before validating its config")

        monkeypatch.setattr("vsabench.vsaf.read_feature_file", fail)
        monkeypatch.setattr("vsabench.lsh.new_projector", fail)
        out = tmp_path / "hv.vsaf"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, stdout, stderr = run_cli([
            "encode", "--features-in", str(feature_file), "--out", str(out),
            "--patch-sizes", "4,2", "--config", str(path),
        ], capsys)
        assert (code, stdout) == (3, "")
        assert stderr.startswith("config error: ")
        assert not out.exists()

    def test_unknown_config_key_exit_3(self, feature_file, tmp_path, capsys):
        out = tmp_path / "hv.vsaf"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dimm": 5}))
        code, stdout, stderr = run_cli([
            "encode", "--features-in", str(feature_file), "--out", str(out),
            "--patch-sizes", "4,2", "--config", str(path),
        ], capsys)
        assert (code, stdout) == (3, "")
        assert "'dimm'" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--dim", "x"), ("--patch-sizes", "4,x"), ("--seed", "1.5")])
    def test_malformed_flag_exit_1_names_flag(self, flag, value, feature_file, tmp_path, capsys):
        out = tmp_path / "hv.vsaf"
        code, stdout, stderr = run_cli([
            "encode", "--features-in", str(feature_file), "--out", str(out), "--patch-sizes", "4,2", flag, value,
        ], capsys)
        assert (code, stdout) == (1, "")
        assert stderr.startswith(f"usage error: argument {flag}: must be ")
        assert repr(value.split(",")[-1]) in stderr
        assert not out.exists()

    @pytest.mark.parametrize("value", ["4,,2", "4,2,", ",4", ""])
    def test_empty_patch_size_token_rejected(self, value, feature_file, tmp_path, capsys):
        out = tmp_path / "hv.vsaf"
        base = ["encode", "--features-in", str(feature_file), "--out", str(out)]
        code, stdout, stderr = run_cli([*base, "--patch-sizes", value], capsys)
        assert (code, stdout) == (1, "")
        assert stderr.startswith("usage error: argument --patch-sizes: ") and "none empty" in stderr
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sides": value}))
        code, stdout, stderr = run_cli([*base, "--config", str(path)], capsys)
        assert (code, stdout) == (3, "")
        assert stderr.startswith("config error: sides ") and "none empty" in stderr
        assert not out.exists()

    def test_bad_magic_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.vsaf"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code, _, _ = run_cli([
            "encode", "--features-in", str(bad), "--out", str(tmp_path / "o.vsaf"),
            "--patch-sizes", "4",
        ], capsys)
        assert code == 2

    def test_missing_args_exit_1(self, capsys):
        code, _, _ = run_cli(["encode"], capsys)
        assert code == 1


class TestMap:
    def test_paired_identity_mapping(self, tmp_path, capsys):
        hvs = np.random.default_rng(1).integers(0, 2, size=(3, 64)).astype(np.float64) * 2 - 1
        src = tmp_path / "src.vsaf"
        write_hypervectors(hvs, src)
        out = tmp_path / "u.vsaf"
        code, stdout, _ = run_cli([
            "map", "--src", str(src), "--tgt", str(src), "--out", str(out),
            "--mode", "paired",
        ], capsys)
        assert code == 0
        assert json.loads(stdout)["patch_count"] == 3
        np.testing.assert_array_equal(read_hypervectors(out), np.ones((3, 64)))

    def test_paired_bipolar_reproduces_target(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        src = rng.integers(0, 2, size=(4, 128)).astype(np.float64) * 2 - 1
        tgt = rng.integers(0, 2, size=(4, 128)).astype(np.float64) * 2 - 1
        sp, tp, up = tmp_path / "s.vsaf", tmp_path / "t.vsaf", tmp_path / "u.vsaf"
        write_hypervectors(src, sp)
        write_hypervectors(tgt, tp)
        code, _, _ = run_cli(["map", "--src", str(sp), "--tgt", str(tp), "--out", str(up)], capsys)
        assert code == 0
        u = read_hypervectors(up)
        np.testing.assert_array_equal(src * u, tgt)

    def test_random_mode_deterministic(self, tmp_path, capsys):
        src = tmp_path / "s.vsaf"
        write_hypervectors(np.ones((2, 32)), src)
        blobs = []
        for name in ("u1.vsaf", "u2.vsaf"):
            out = tmp_path / name
            code, _, _ = run_cli([
                "map", "--src", str(src), "--out", str(out), "--mode", "random", "--seed", "9",
            ], capsys)
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


    def test_unknown_config_key_exit_3(self, tmp_path, capsys):
        src = tmp_path / "s.vsaf"
        write_hypervectors(np.ones((2, 32)), src)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "random", "quantise": "sign"}))
        out = tmp_path / "u.vsaf"
        code, stdout, stderr = run_cli(["map", "--src", str(src), "--out", str(out), "--config", str(path)], capsys)
        assert (code, stdout) == (3, "")
        assert "'quantise'" in stderr
        assert not out.exists()

    def test_bad_quantize_rejected_in_random_mode_exit_3(self, tmp_path, capsys):
        src = tmp_path / "s.vsaf"
        write_hypervectors(np.ones((2, 32)), src)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"quantize": "bogus"}))
        out = tmp_path / "u.vsaf"
        code, stdout, stderr = run_cli([
            "map", "--src", str(src), "--out", str(out), "--mode", "random", "--config", str(path),
        ], capsys)
        assert (code, stdout) == (3, "")
        assert stderr.startswith("config error: quantize ") and "'bogus'" in stderr
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_product_beyond_float32_exit_2(self, tmp_path, capsys):
        sp, up = tmp_path / "s.vsaf", tmp_path / "u.vsaf"
        write_hypervectors(np.full((2, 8), 1e30), sp)
        code, stdout, stderr = run_cli(["map", "--src", str(sp), "--tgt", str(sp), "--out", str(up)], capsys)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("data error: ") and "float32" in stderr
        assert not up.exists()
        # one product past float32 (1e20 * 1e20): the float64 product is kept, and the write rejects it
        hvs = np.ones((3, 16))
        hvs[1, 7] = 1e20
        write_hypervectors(hvs, sp)
        code, stdout, stderr = run_cli(["map", "--src", str(sp), "--tgt", str(sp), "--out", str(up)], capsys)
        assert (code, stdout) == (2, "")
        assert stderr == "data error: layer 'mapping' has entries beyond the float32 limit of 3.40282e+38\n"
        assert not up.exists()

    @pytest.mark.parametrize("flags,env", [(["--seed", "-1"], "0"), ([], str(2**64))], ids=["flag", "VSAIT_SEED"])
    def test_paired_out_of_range_seed_exit_3(self, flags, env, tmp_path, capsys, monkeypatch):
        src, out = tmp_path / "s.vsaf", tmp_path / "u.vsaf"
        write_hypervectors(np.ones((2, 32)), src)
        monkeypatch.setenv("VSAIT_SEED", env)
        code, stdout, stderr = run_cli(["map", "--src", str(src), "--tgt", str(src), "--out", str(out), *flags],
                                       capsys)
        assert (code, stdout) == (3, "")
        assert stderr.startswith("config error: ") and stderr.count("\n") == 1
        assert "seed must be in [0, 2^64)" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("flags,cfg", [
        (["--tgt", "/nonexistent.vsaf"], {}), (["--quantize", "sign"], {}), (["--quantize", "none"], {}),
        ([], {"tgt": "/nonexistent.vsaf"}), ([], {"quantize": "sign"}),
    ])
    def test_option_random_mode_does_not_read_rejected(self, flags, cfg, tmp_path, capsys):
        src, out, path = tmp_path / "s.vsaf", tmp_path / "u.vsaf", tmp_path / "cfg.json"
        write_hypervectors(np.ones((2, 32)), src)
        path.write_text(json.dumps(cfg))
        code, stdout, stderr = run_cli([
            "map", "--src", str(src), "--out", str(out), "--mode", "random", "--config", str(path), *flags,
        ], capsys)
        name = flags[0] if flags else next(iter(cfg))
        assert (code, stdout) == ((1, "") if flags else (3, ""))
        assert stderr == f"{'usage' if flags else 'config'} error: {name} is not read in random mode\n"
        assert not out.exists()


class TestLoss:
    def test_identical_files_zero_vsa(self, tmp_path, capsys):
        hvs = np.random.default_rng(3).standard_normal((3, 64))
        p = tmp_path / "x.vsaf"
        write_hypervectors(hvs, p)
        code, stdout, _ = run_cli(["loss", "--x", str(p), "--cycled", str(p)], capsys)
        assert code == 0
        metrics = json.loads(stdout)
        assert metrics["vsa"] == pytest.approx(0.0, abs=1e-6)
        assert metrics["config"]["lambda"] == 10.0

    @pytest.mark.parametrize("cfg", [{"lam": "ten"}, {"w1": [1]}])
    def test_mistyped_config_value_exit_3(self, cfg, tmp_path, capsys):
        p = tmp_path / "x.vsaf"
        write_hypervectors(np.ones((2, 8)), p)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, stdout, err = run_cli(["loss", "--x", str(p), "--cycled", str(p), "--config", str(path)], capsys)
        assert (code, stdout) == (3, "")
        assert err.startswith(f"config error: {next(iter(cfg))} ")

    @pytest.mark.parametrize("flag", ["--lambda", "--w1", "--w2"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    def test_non_finite_weight_flag_exit_1(self, flag, value, tmp_path, capsys):
        p = tmp_path / "x.vsaf"
        write_hypervectors(np.ones((2, 8)), p)
        code, stdout, err = run_cli(["loss", "--x", str(p), "--cycled", str(p), flag, value], capsys)
        assert (code, stdout) == (1, "")
        assert f"argument {flag}: must be a finite number" in err

    @pytest.mark.parametrize("text", ['{"lam": NaN}', '{"w1": Infinity}', '{"w2": -Infinity}'])
    def test_non_finite_weight_config_exit_3(self, text, tmp_path, capsys):
        p = tmp_path / "x.vsaf"
        write_hypervectors(np.ones((2, 8)), p)
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, stdout, err = run_cli(["loss", "--x", str(p), "--cycled", str(p), "--config", str(path)], capsys)
        assert (code, stdout) == (3, "")
        assert err.startswith("config error: ") and "must be a finite number" in err

    def test_unknown_config_key_exit_3(self, tmp_path, capsys):
        p = tmp_path / "x.vsaf"
        write_hypervectors(np.ones((2, 8)), p)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda": 5.0}))
        code, stdout, err = run_cli(["loss", "--x", str(p), "--cycled", str(p), "--config", str(path)], capsys)
        assert (code, stdout) == (3, "")
        assert "'lambda'" in err

    def test_lambda_zero_total_equals_gan(self, tmp_path, capsys):
        hvs = np.random.default_rng(4).standard_normal((2, 32))
        xp, cp = tmp_path / "x.vsaf", tmp_path / "c.vsaf"
        write_hypervectors(hvs, xp)
        write_hypervectors(-hvs, cp)
        scores = {}
        for name, vals in (("r", [0.5, 1.5]), ("ft", [-0.5]), ("fm", [0.2])):
            sp = tmp_path / f"{name}.json"
            sp.write_text(json.dumps(vals))
            scores[name] = str(sp)
        code, stdout, _ = run_cli([
            "loss", "--x", str(xp), "--cycled", str(cp), "--lambda", "0",
            "--scores-real", scores["r"], "--scores-fake-translated", scores["ft"],
            "--scores-fake-mapped", scores["fm"], "--variant", "hinge",
        ], capsys)
        assert code == 0
        metrics = json.loads(stdout)
        assert metrics["total"] == pytest.approx(metrics["gan_g"])
        assert metrics["vsa"] == pytest.approx(2.0)

    @pytest.mark.parametrize("content", [
        '["x", 1]', '{"a": 1}', '[[1, 2], [3]]', '[[1, 2]]', '[true, false]', '[0.5, true]', 'null', '"0.5"',
        '0.5', '[]', '[NaN]', '[1e999]', "[" + "9" * 400 + "]",
    ])
    def test_malformed_score_file_exit_2(self, content, tmp_path, capsys):
        p = tmp_path / "x.vsaf"
        write_hypervectors(np.ones((2, 8)), p)
        files = {}
        for name, text in (("real", content), ("ft", "[0.5]"), ("fm", "[0.5]")):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(text)
        code, stdout, err = run_cli([
            "loss", "--x", str(p), "--cycled", str(p), "--scores-real", str(files["real"]),
            "--scores-fake-translated", str(files["ft"]), "--scores-fake-mapped", str(files["fm"]),
        ], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("data error: ") and str(files["real"]) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("content", [b'["0.5"]', b"\xff\xfe[0.5]", b"[" * 100_000, b"[" + b"9" * 5000 + b"]"],
                             ids=["text entry", "not UTF-8", "nested too deeply", "5000-digit integer"])
    def test_text_or_unparsable_score_file_exit_2(self, content, tmp_path, capsys):
        p = tmp_path / "x.vsaf"
        write_hypervectors(np.ones((2, 8)), p)
        files = {name: tmp_path / f"{name}.json" for name in ("real", "ft", "fm")}
        files["real"].write_bytes(content)
        files["ft"].write_text("[0.5]")
        files["fm"].write_text("[0.5]")
        code, stdout, err = run_cli([
            "loss", "--x", str(p), "--cycled", str(p), "--scores-real", str(files["real"]),
            "--scores-fake-translated", str(files["ft"]), "--scores-fake-mapped", str(files["fm"]),
        ], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("data error: ") and str(files["real"]) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_zero_vector_exit_2_with_index(self, tmp_path, capsys):
        hvs = np.ones((2, 16))
        hvs[1] = 0.0
        p = tmp_path / "x.vsaf"
        write_hypervectors(hvs, p)
        code, _, stderr = run_cli(["loss", "--x", str(p), "--cycled", str(p)], capsys)
        assert code == 2
        assert "[1]" in stderr

    @pytest.mark.parametrize("flags,cfg", [
        (["--variant", "nll"], {}), (["--w1", "5"], {}), (["--w2", "0"], {}), (["--variant", "hinge"], {}),
        ([], {"variant": "nll"}), ([], {"w1": 5}), ([], {"w2": 1.0}),
    ])
    def test_option_unread_without_scores_rejected(self, flags, cfg, tmp_path, capsys):
        p, path = tmp_path / "x.vsaf", tmp_path / "cfg.json"
        write_hypervectors(np.ones((2, 8)), p)
        path.write_text(json.dumps(cfg))
        code, stdout, stderr = run_cli(["loss", "--x", str(p), "--cycled", str(p), "--config", str(path), *flags],
                                       capsys)
        name = flags[0] if flags else next(iter(cfg))
        assert (code, stdout) == ((1, "") if flags else (3, ""))
        assert stderr == f"{'usage' if flags else 'config'} error: {name} is not read without score batches\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags,scores", [
        (["--lambda", "1e308"], None), (["--w1", "1e308", "--w2", "1e308"], "[0.1]"),
    ], ids=["lambda", "weights"])
    def test_infinite_loss_exit_2(self, flags, scores, tmp_path, capsys):
        xp, cp, sp = tmp_path / "x.vsaf", tmp_path / "neg.vsaf", tmp_path / "s.json"
        write_hypervectors(np.eye(2), xp)
        write_hypervectors(-np.eye(2), cp)
        argv = ["loss", "--x", str(xp), "--cycled", str(cp), *flags]
        if scores is not None:
            sp.write_text(scores)
            argv += [arg for flag in ("--scores-real", "--scores-fake-translated", "--scores-fake-mapped")
                     for arg in (flag, str(sp))]
        code, stdout, stderr = run_cli(argv, capsys)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("data error: must be a finite ") and stderr.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_score_file_exit_2(self, tmp_path, capsys):
        xp, cp, sp = tmp_path / "x.vsaf", tmp_path / "neg.vsaf", tmp_path / "big.json"
        write_hypervectors(np.eye(2), xp)
        write_hypervectors(-np.eye(2), cp)
        sp.write_text("[1e308, 1e308]")
        code, stdout, stderr = run_cli(["loss", "--x", str(xp), "--cycled", str(cp), *[
            arg for flag in ("--scores-real", "--scores-fake-translated", "--scores-fake-mapped")
            for arg in (flag, str(sp))]], capsys)
        assert (code, stdout) == (2, "")
        assert stderr == (f"data error: real score file {sp} does not hold a list of scores: "
                          "must be a finite sum of real scores, got np.float64(inf)\n")

    def test_lambda_alone_is_read_without_scores(self, tmp_path, capsys):
        p = tmp_path / "x.vsaf"
        write_hypervectors(np.ones((2, 8)), p)
        code, stdout, _ = run_cli(["loss", "--x", str(p), "--cycled", str(p), "--lambda", "3"], capsys)
        assert code == 0 and json.loads(stdout)["config"]["lambda"] == 3.0


class TestBench:
    def test_two_rows(self, capsys):
        code, stdout, _ = run_cli([
            "bench", "--axis", "dim", "--grid", "128,512", "--trials", "5", "--seed", "1",
        ], capsys)
        assert code == 0
        lines = stdout.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("axis,value,dim,k,mapping,")

    def test_same_seed_identical_csv_bytes(self, tmp_path, capsys):
        blobs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run_cli([
                "bench", "--axis", "dim", "--grid", "128,512", "--trials", "5",
                "--seed", "2", "--out", str(out),
            ], capsys)
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"axis": "k", "grid": "1,2", "trials": 5, "seed": 3, "dim": 256}))
        code, stdout, _ = run_cli(["bench", "--config", str(cfg), "--trials", "4"], capsys)
        assert code == 0
        rows = stdout.strip().split("\n")[1:]
        assert all(row.split(",")[0] == "k" for row in rows)
        assert all(row.split(",")[5] == "4" for row in rows)

    def test_fractional_k_grid_exit_3(self, capsys):
        code, stdout, err = run_cli([
            "bench", "--axis", "k", "--grid", "1.5", "--trials", "2", "--dim", "64", "--seed", "0",
        ], capsys)
        assert code == 3
        assert stdout == ""
        assert "k grid values must be integers" in err

    @pytest.mark.parametrize("cfg", [
        {"seed": "abc"}, {"trials": "x"}, {"trials": 2.5}, {"dim": True}, {"grid": 5}, {"out": 5},
    ])
    def test_mistyped_config_value_exit_3(self, cfg, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": "64", "trials": 2, **cfg}))
        code, stdout, err = run_cli(["bench", "--config", str(path)], capsys)
        assert code == 3
        assert stdout == ""
        assert err.startswith(f"config error: {next(iter(cfg))} ")

    @pytest.mark.parametrize("grid", ["64,,128", "64,", " ,64", ""])
    def test_empty_grid_token_rejected(self, grid, tmp_path, capsys):
        code, stdout, err = run_cli(["bench", "--grid", grid, "--trials", "2"], capsys)
        assert (code, stdout) == (1, "")
        assert err.startswith("usage error: argument --grid: ") and "none empty" in err
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": grid, "trials": 2}))
        code, stdout, err = run_cli(["bench", "--config", str(path)], capsys)
        assert (code, stdout) == (3, "")
        assert err.startswith("config error: grid ") and "none empty" in err

    def test_degenerate_scene_exit_2(self, capsys):
        code, stdout, err = run_cli(["bench", "--axis", "dim", "--grid", "1", "--trials", "2"], capsys)
        assert (code, stdout) == (2, "")
        assert err.splitlines()[-1] == "data error: zero-norm translated or target scene in trial 0"

    def test_non_numeric_lambda_proxy_grid_exit_3(self, capsys):
        code, stdout, err = run_cli([
            "bench", "--axis", "lambda_proxy", "--grid", "0.5,a", "--trials", "2", "--dim", "64",
        ], capsys)
        assert (code, stdout) == (3, "")
        assert "lambda_proxy grid values must be numbers, got 'a'" in err

    @pytest.mark.parametrize("grid,named", [("-inf", "got -inf"), ("-0.5,1", "got -0.5")])
    def test_flag_value_starting_with_a_dash_exit_3(self, grid, named, capsys):
        # argparse alone takes "-inf" for a flag; the value reads as "--grid=-inf" does
        errs = []
        for argv in (["--grid", grid], [f"--grid={grid}"]):
            code, stdout, err = run_cli(["bench", "--axis", "lambda_proxy", *argv, "--dim", "64", "--trials", "2"], capsys)
            assert (code, stdout) == (3, "")
            assert err.startswith("config error: ") and named in err
            errs.append(err)
        assert errs[0] == errs[1]

    def test_out_value_starting_with_a_dash_is_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run_cli(["bench", "--axis", "k", "--grid", "1,2", "--dim", "64", "--trials", "2",
                                   "--out", "-x.csv"], capsys)
        assert (code, stdout) == (0, "")
        assert (tmp_path / "-x.csv").read_text().startswith(CSV_HEADER)

    @pytest.mark.parametrize("argv", [["--gri", "-inf"], ["--gri=-inf"], ["--gri", "1,2"]])
    def test_abbreviated_flag_is_a_usage_error(self, argv, capsys):
        # a flag is its full name, so the rule above holds for every flag a user can give
        code, stdout, err = run_cli(["bench", "--axis", "k", *argv, "--dim", "64", "--trials", "2"], capsys)
        assert (code, stdout) == (1, "")
        assert err == f"usage error: unrecognized arguments: {' '.join(argv)}\n"

    @pytest.mark.parametrize("argv", [["--grid", "--dim", "64"], ["--dim", "64", "--grid"], ["--grid", "-h"]])
    def test_flag_without_a_value_stays_a_usage_error(self, argv, capsys):
        code, stdout, err = run_cli(["bench", *argv], capsys)
        assert (code, stdout) == (1, "")
        assert err == "usage error: argument --grid: expected one argument\n"

    @pytest.mark.parametrize("flags,cfg", [
        (["--grid", "1e300", "--trials", "1"], {}),
        (["--axis", "k", "--grid", "1", "--dim", "100000000", "--trials", "1"], {}),
        ([], {"grid": [1e300], "trials": 1}),
        ([], {"axis": "k", "grid": [1], "dim": 100000000, "trials": 1}),
    ])
    def test_oversized_symbol_matrix_exit_3(self, flags, cfg, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        tracemalloc.start()
        try:
            code, stdout, stderr = run_cli(["bench", "--config", str(path), *flags], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, stdout) == (3, "")
        assert stderr.splitlines()[-1].startswith("config error: symbol matrix ") and "cap 2147483648" in stderr
        assert "Traceback" not in stderr
        assert peak < 1 << 20

    @pytest.mark.parametrize("axis,grid,name,value,reason", [
        ("dim", "64", "dim", "64", "under --axis dim"),
        ("k", "1,2", "k", "2", "under --axis k"),
        ("mapping_kind", "ground_truth,random", "mapping", "random", "under --axis mapping_kind"),
        ("lambda_proxy", "0,1", "mapping", "mixed", "under --axis lambda_proxy"),
        ("lambda_proxy", "0,1", "mix", "0.5", "under --axis lambda_proxy"),
        ("mapping_kind", "ground_truth,random", "mix", "0.5", "without a mixed mapping"),
        ("dim", "64", "mix", "1", "without a mixed mapping"),
        ("k", "1,2", "mix", "0.5", "without a mixed mapping"),
    ])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_option_the_sweep_does_not_read_rejected(self, axis, grid, name, value, reason, route, tmp_path, capsys):
        argv = ["bench", "--axis", axis, "--grid", grid, "--trials", "2"]
        if route == "flag":
            code, stdout, stderr = run_cli(argv + [f"--{name}", value], capsys)
            assert (code, stdout) == (1, "")
            assert stderr == f"usage error: --{name} is not read {reason}\n"
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({name: value}))
            code, stdout, stderr = run_cli(argv + ["--config", str(path)], capsys)
            assert (code, stdout) == (3, "")
            assert stderr == f"config error: {name} is not read {reason}\n"

    @pytest.mark.parametrize("argv", [
        ["--axis", "dim", "--grid", "64", "--k", "2", "--mapping", "mixed", "--mix", "0.5"],
        ["--axis", "k", "--grid", "1,2", "--dim", "64", "--mapping", "random"],
        ["--axis", "mapping_kind", "--grid", "ground_truth,mixed", "--dim", "64", "--k", "2", "--mix", "0.5"],
        ["--axis", "lambda_proxy", "--grid", "0,1", "--dim", "64", "--k", "2"],
    ])
    def test_options_the_sweep_reads_accepted(self, argv, capsys):
        code, stdout, stderr = run_cli(["bench", *argv, "--trials", "2"], capsys)
        assert code == 0, stderr
        assert stdout.startswith(CSV_HEADER)

    def test_unknown_config_key_exit_3(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": "64", "trials": 2, "dimm": 5}))
        code, stdout, err = run_cli(["bench", "--config", str(path)], capsys)
        assert (code, stdout) == (3, "")
        assert "'dimm'" in err

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"grid": "64", "trials": 2, "out": "a\\u0000b"}',
                                         b"[" * 100_000, b'{"dim": ' + b"9" * 5000 + b"}"],
                             ids=["not UTF-8", "NUL in path", "nested too deeply", "5000-digit integer"])
    def test_unparsable_config_file_or_nul_path_exit_3(self, content, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        code, stdout, err = run_cli(["bench", "--config", str(path)], capsys)
        assert (code, stdout) == (3, "")
        assert err.startswith("config error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_config_keys_are_the_config_fields(self):
        # so the fields a sweep sets on every point name the options it never reads
        keys = {opt.key for opt in OPTIONS["bench"]}
        assert {f.name for f in dataclasses.fields(BenchConfig)} <= keys
        assert {name for names, _ in SWEEPS.values() for name in names} <= keys

    def test_vocab_sizes_read_from_the_config_file(self, tmp_path, capsys):
        argv = ["bench", "--axis", "k", "--grid", "1,2", "--dim", "64", "--trials", "2"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"object_vocab_size": 8, "attr_vocab_size": 4}))
        code, from_file, stderr = run_cli([*argv, "--config", str(path)], capsys)
        assert code == 0, stderr
        assert "object_vocab_size=8, attr_vocab_size=4," in stderr
        assert run_cli([*argv, "--objects", "8", "--attrs", "4"], capsys)[:2] == (0, from_file)

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("VSAIT_SEED", "17")
        code, stdout, _ = run_cli([
            "bench", "--axis", "dim", "--grid", "128", "--trials", "3",
        ], capsys)
        assert code == 0
        assert stdout.strip().split("\n")[1].endswith(",17")


class TestUnwritableOutput:
    """An output that cannot be written is a one-line data error that leaves no partial file."""

    @pytest.fixture()
    def argv(self, feature_file, tmp_path):
        src = tmp_path / "s.vsaf"
        write_hypervectors(np.ones((2, 32)), src)
        return {
            "encode": ["encode", "--features-in", str(feature_file), "--patch-sizes", "4,2", "--dim", "64"],
            "map": ["map", "--src", str(src), "--tgt", str(src)],
            "bench": ["bench", "--grid", "64", "--trials", "2"],
        }

    @pytest.mark.parametrize("command", ["encode", "map", "bench"])
    def test_missing_directory_exit_2(self, command, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "x"
        code, stdout, stderr = run_cli(argv[command] + ["--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert stderr.splitlines()[-1].startswith(f"data error: cannot write {out}: ")
        assert "Traceback" not in stderr
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["encode", "map", "bench"])
    def test_failed_write_removes_partial_file(self, command, argv, tmp_path, capsys, monkeypatch):
        def fill_disk(path):
            with open(path, "wb") as f:
                f.write(b"VSAF")
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("vsabench.vsaf.write_hypervectors", lambda hvs, path, **kwargs: fill_disk(path))
        monkeypatch.setattr("pathlib.Path.write_text", lambda path, *args, **kwargs: fill_disk(path))
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(argv[command] + ["--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert "No space left on device" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("command,work", [
        ("encode", "vsabench.lsh.project_batch"),
        ("map", "vsabench.mapping.estimate_mapping_paired"),
        ("bench", "vsabench.bench.run_sweep"),
    ])
    @pytest.mark.parametrize("out", ["missing/x.csv", "."])
    def test_unwritable_out_fails_before_the_work(self, command, work, out, argv, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the work ran before --out was checked")

        monkeypatch.setattr(work, refuse)
        path = tmp_path / out
        code, stdout, stderr = run_cli(argv[command] + ["--out", str(path)], capsys)
        assert (code, stdout) == (2, "")
        assert stderr.splitlines()[-1].startswith(f"data error: cannot write {path}: ")

    def test_unwritable_directory_exit_2(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("os.access", lambda path, mode: False)
        monkeypatch.setattr("vsabench.bench.run_sweep", None)
        code, stdout, stderr = run_cli(argv["bench"] + ["--out", str(tmp_path / "x.csv")], capsys)
        assert (code, stdout) == (2, "")
        assert stderr.splitlines()[-1] == f"data error: cannot write {tmp_path / 'x.csv'}: directory {tmp_path} is not writable"

    def test_out_check_neither_creates_nor_truncates(self, tmp_path, capsys):
        existing, fresh = tmp_path / "existing", tmp_path / "fresh"
        existing.write_bytes(b"earlier result")
        for out in (existing, fresh):
            code, _, stderr = run_cli(["map", "--src", str(tmp_path / "absent.vsaf"), "--mode", "random",
                                       "--out", str(out)], capsys)
            assert code == 2 and str(tmp_path / "absent.vsaf") in stderr and "No such file" in stderr
        assert existing.read_bytes() == b"earlier result"
        assert not fresh.exists()

    def test_failed_open_keeps_existing_file(self, argv, tmp_path, capsys, monkeypatch):
        def refuse(hvs, path, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))

        monkeypatch.setattr("vsabench.vsaf.write_hypervectors", refuse)
        out = tmp_path / "out"
        out.write_bytes(b"earlier result")
        code, _, stderr = run_cli(argv["map"] + ["--out", str(out)], capsys)
        assert code == 2 and "Permission denied" in stderr
        assert out.read_bytes() == b"earlier result"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "vsabench.cli", "bench", "--axis", "dim",
         "--grid", "128", "--trials", "2", "--seed", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("axis,value,dim,")


def test_no_subcommand_exit_1(capsys):
    assert main([]) == 1


# A missing option and an unreadable input at once: the usage rule is decided
# before any file is read, so the command exits 1, not 2. A command names every
# required option that neither a flag nor the config file gives, in the table's
# order, once its flags have been converted and the unread rule has passed.
@pytest.mark.parametrize("argv,message", [
    (["map", "--src", "{tmp}/missing.vsaf", "--out", "{tmp}/u.vsaf"], "map --mode paired requires --tgt"),
    (["loss", "--x", "{tmp}/missing.vsaf", "--cycled", "{tmp}/missing.vsaf", "--scores-real", "{tmp}/missing.json"],
     "loss needs all three score batches or none"),
    (["encode"], "encode requires --features-in, --out, --patch-sizes"),
    (["encode", "--features-in", "{tmp}/missing.vsaf", "--out", "{tmp}/o.vsaf"], "encode requires --patch-sizes"),
    (["encode", "--patch-sizes", "2", "--dim", "64"], "encode requires --features-in, --out"),
    (["map", "--mode", "random"], "map requires --src, --out"),
    (["map", "--src", "{tmp}/missing.vsaf", "--tgt", "{tmp}/missing.vsaf"], "map requires --out"),
    (["loss"], "loss requires --x, --cycled"),
    (["loss", "--x", "{tmp}/missing.vsaf", "--lambda", "2"], "loss requires --cycled"),
    (["encode", "--dim", "x"], "argument --dim: must be an integer, got 'x'"),
    (["map", "--mode", "random", "--tgt", "{tmp}/missing.vsaf"], "--tgt is not read in random mode"),
], ids=["map without --tgt", "loss with one score batch", "encode", "encode without --patch-sizes",
        "encode without paths", "map", "map without --out", "loss", "loss without --cycled",
        "a bad flag before a missing option", "an unread flag before a missing option"])
def test_usage_error_before_any_file_is_read(argv, message, tmp_path, capsys):
    code, stdout, stderr = run_cli([arg.replace("{tmp}", str(tmp_path)) for arg in argv], capsys)
    assert (code, stdout) == (1, "")
    assert stderr == f"usage error: {message}\n"
    assert "Traceback" not in stderr


# A value rule that needs no file and an unreadable input or unwritable --out at
# once: the value rule is decided before any file is touched, so the command
# exits 3, not 2.
ENCODE_MISSING = ["encode", "--features-in", "{tmp}/missing.vsaf", "--out", "{tmp}/o.vsaf"]
LOSS_MISSING = ["loss", "--x", "{tmp}/missing.vsaf", "--cycled", "{tmp}/missing.vsaf"]
SCORES_MISSING = [arg for flag in ("--scores-real", "--scores-fake-translated", "--scores-fake-mapped")
                  for arg in (flag, "{tmp}/missing.json")]


@pytest.mark.parametrize("argv,message", [
    ([*LOSS_MISSING, "--lambda", "-1"], "lam must be finite and >= 0, got -1.0"),
    ([*LOSS_MISSING, *SCORES_MISSING, "--w1", "-1"], "w1 must be finite and >= 0, got -1.0"),
    ([*ENCODE_MISSING, "--patch-sizes", "0"], "patch side must be >= 1, got 0"),
    ([*ENCODE_MISSING, "--patch-sizes", "4,2", "--dilation", "0"], "dilation must be >= 1, got 0"),
    ([*ENCODE_MISSING, "--patch-sizes", "4,2", "--dim", "0"], "dim must be >= 1, got 0"),
    ([*ENCODE_MISSING, "--patch-sizes", "4,2", "--seed", "-1"], "seed must be in [0, 2^64), got -1"),
    (["map", "--src", "{tmp}/missing.vsaf", "--out", "{tmp}/u.vsaf", "--mode", "random", "--seed", "-1"],
     "seed must be in [0, 2^64), got -1"),
    (["bench", "--axis", "k", "--grid", "0", "--out", "{tmp}/missing/x.csv"], "k must be >= 1, got 0"),
], ids=["loss --lambda", "loss --w1", "encode --patch-sizes", "encode --dilation", "encode --dim", "encode --seed",
        "map --seed", "bench --grid"])
def test_value_rule_before_any_file_is_read(argv, message, tmp_path, capsys):
    code, stdout, stderr = run_cli([arg.replace("{tmp}", str(tmp_path)) for arg in argv], capsys)
    assert (code, stdout) == (3, "")
    assert stderr == f"config error: {message}\n"


# A rule that only the contents of the input files break is a data error, whatever
# class the library raises: the files are at fault, not a flag or a config value.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,message", [
    (["map", "--src", "{tmp}/a.vsaf", "--tgt", "{tmp}/b.vsaf", "--out", "{tmp}/u.vsaf"],
     "dimension mismatch: (4, 8) vs (3, 8)"),
    (["loss", "--x", "{tmp}/a.vsaf", "--cycled", "{tmp}/b.vsaf"], "dimension mismatch: (4, 8) vs (3, 8)"),
    (["loss", "--x", "{tmp}/x.vsaf", "--cycled", "{tmp}/neg.vsaf", "--scores-real", "{tmp}/small.json",
      "--scores-fake-translated", "{tmp}/big.json", "--scores-fake-mapped", "{tmp}/big.json"],
     "must be a finite discriminator loss, got np.float64(inf)"),
], ids=["map shapes", "loss shapes", "loss scores"])
def test_data_rule_after_the_files_are_read(argv, message, tmp_path, capsys):
    write_hypervectors(np.ones((4, 8)), tmp_path / "a.vsaf")
    write_hypervectors(np.ones((3, 8)), tmp_path / "b.vsaf")
    write_hypervectors(np.eye(2), tmp_path / "x.vsaf")
    write_hypervectors(-np.eye(2), tmp_path / "neg.vsaf")
    (tmp_path / "small.json").write_text("[0.1]")
    (tmp_path / "big.json").write_text("[1e308]")
    code, stdout, stderr = run_cli([arg.replace("{tmp}", str(tmp_path)) for arg in argv], capsys)
    assert (code, stdout) == (2, "")
    assert stderr == f"data error: {message}\n"
    assert not (tmp_path / "u.vsaf").exists()


def test_required_option_from_the_config_file_is_given(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"x": str(tmp_path / "missing.vsaf"), "cycled": str(tmp_path / "missing.vsaf")}))
    code, stdout, stderr = run_cli(["loss", "--config", str(path)], capsys)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("data error: ") and "missing.vsaf" in stderr


def test_repeated_config_key_exit_3(tmp_path, capsys):
    # JSON would keep the last value; the config file is rejected rather than read in part
    path = tmp_path / "cfg.json"
    path.write_text('{"dim": 64, "trials": 2, "dim": 128}')
    code, stdout, stderr = run_cli(["bench", "--axis", "k", "--grid", "1,2", "--config", str(path)], capsys)
    assert (code, stdout) == (3, "")
    assert stderr == f"config error: cannot read config file {path} as UTF-8 JSON: repeated key(s) 'dim'\n"


def test_bad_flag_is_decided_before_the_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{")
    code, stdout, stderr = run_cli(["bench", "--trials", "x", "--config", str(path)], capsys)
    assert (code, stdout) == (1, "")
    assert stderr == "usage error: argument --trials: must be an integer, got 'x'\n"


@pytest.fixture()
def stdout_argv(feature_file, tmp_path):
    """Arguments with which each command succeeds and writes its result on stdout."""
    hvs = tmp_path / "hvs.vsaf"
    write_hypervectors(np.eye(4), hvs)
    return {
        "encode": ["encode", "--features-in", str(feature_file), "--patch-sizes", "4,2", "--dim", "64",
                   "--out", str(tmp_path / "hv.vsaf")],
        "map": ["map", "--src", str(hvs), "--tgt", str(hvs), "--out", str(tmp_path / "u.vsaf")],
        "loss": ["loss", "--x", str(hvs), "--cycled", str(hvs)],
        "bench": ["bench", "--axis", "k", "--grid", "1,2", "--dim", "64", "--trials", "2"],
    }


def run_with_stdout(argv, stdout, preexec_fn=None):
    proc = subprocess.run([sys.executable, "-m", "vsabench.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120, preexec_fn=preexec_fn)
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr, proc.stderr
    return proc.returncode, proc.stderr.splitlines()[-1]


# A result that cannot reach stdout is a files-stage fault like any other failed write.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["encode", "map", "loss", "bench"])
def test_full_stdout_exit_2(command, stdout_argv):
    with open("/dev/full", "wb") as full:
        assert run_with_stdout(stdout_argv[command], full) == (2, "data error: [Errno 28] No space left on device")


@pytest.mark.parametrize("command", ["loss", "bench"])
def test_closed_stdout_pipe_exit_2(command, stdout_argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        assert run_with_stdout(stdout_argv[command], write_end) == (2, "data error: [Errno 32] Broken pipe")
    finally:
        os.close(write_end)


def run_capped(argv):
    """The CLI run in a child whose address space is capped at 512 MiB, so that a reader that
    takes an endless device whole fails quickly instead of filling memory."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

    return subprocess.run([sys.executable, "-m", "vsabench.cli", *argv], capture_output=True, text=True, timeout=60,
                          preexec_fn=cap, env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_input_device_exit_2_at_once(tmp_path):
    # /dev/zero never ends, so it must be read only as far as its magic
    proc = run_capped(["encode", "--features-in", "/dev/zero", "--patch-sizes", "1", "--dim", "64",
                       "--out", str(tmp_path / "hv.vsaf")])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "data error: expected magic b'VSAF', got b'\\x00\\x00\\x00\\x00'\n"


def test_allocation_failure_exit_2(tmp_path):
    # one 1 x 1 x 2^19 layer: a projection holds a full-height 256 x 2^19 float32 panel, 512 MiB,
    # which the capped child cannot allocate; numpy's MemoryError is a files-stage fault
    write_feature_file(feature_map_set([("wide", np.ones((1, 1, 1 << 19)))]), tmp_path / "wide.vsaf")
    out = tmp_path / "hv.vsaf"
    proc = run_capped(["encode", "--features-in", str(tmp_path / "wide.vsaf"), "--patch-sizes", "1", "--dim", "1",
                       "--out", str(out)])
    assert (proc.returncode, proc.stdout, out.exists()) == (2, "", False)
    assert proc.stderr.startswith("data error: Unable to allocate 512. MiB") and proc.stderr.count("\n") == 1


def file_size_cap(limit):
    """A child setup that caps the size of a file the child writes at ``limit`` bytes."""
    import resource

    return lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))


# Faults the operating system raises, each exiting by the stage that meets it: a write past
# RLIMIT_FSIZE, and a directory where a file is read or written. Permission bits do not stop
# root, so rlimits and directories stand for them. {out} must not be left behind.
SMALL_BENCH = ["bench", "--axis", "k", "--grid", "1,2", "--dim", "64", "--trials", "2"]
OS_FAULTS = {
    "encode past RLIMIT_FSIZE": (["encode", "--features-in", "{features}", "--patch-sizes", "2,1", "--dim", "32768",
                                  "--out", "{out}"], 1 << 20, 2, "[Errno 27] File too large"),
    "map past RLIMIT_FSIZE": (["map", "--src", "{big}", "--tgt", "{big}", "--out", "{out}"], 1 << 20, 2,
                              "[Errno 27] File too large"),
    "bench --out past RLIMIT_FSIZE": ([*SMALL_BENCH, "--out", "{out}"], 0, 2, "[Errno 27] File too large"),
    "directory as --features-in": (["encode", "--features-in", "{dir}", "--patch-sizes", "2,1", "--dim", "64",
                                    "--out", "{out}"], None, 2, "[Errno 21] Is a directory"),
    "directory as --src": (["map", "--src", "{dir}", "--tgt", "{hvs}", "--out", "{out}"], None, 2,
                           "[Errno 21] Is a directory"),
    "directory as --tgt": (["map", "--src", "{hvs}", "--tgt", "{dir}", "--out", "{out}"], None, 2,
                           "[Errno 21] Is a directory"),
    "directory as --x": (["loss", "--x", "{dir}", "--cycled", "{hvs}"], None, 2, "[Errno 21] Is a directory"),
    "directory as --cycled": (["loss", "--x", "{hvs}", "--cycled", "{dir}"], None, 2, "[Errno 21] Is a directory"),
    "directory as a score file": (["loss", "--x", "{hvs}", "--cycled", "{hvs}", "--scores-real", "{dir}",
                                   "--scores-fake-translated", "{scores}", "--scores-fake-mapped", "{scores}"], None, 2,
                                  "[Errno 21] Is a directory"),
    "directory as --config": ([*SMALL_BENCH, "--config", "{dir}"], None, 3, "[Errno 21] Is a directory"),
    "directory as encode --out": (["encode", "--features-in", "{features}", "--patch-sizes", "2,1", "--dim", "64",
                                   "--out", "{dir}"], None, 2, "it is a directory"),
    "directory as map --out": (["map", "--src", "{hvs}", "--tgt", "{hvs}", "--out", "{dir}"], None, 2,
                               "it is a directory"),
    "directory as bench --out": ([*SMALL_BENCH, "--out", "{dir}"], None, 2, "it is a directory"),
}


@pytest.mark.parametrize("argv,limit,code,message", OS_FAULTS.values(), ids=OS_FAULTS)
def test_os_fault_exit_code(argv, limit, code, message, feature_file, tmp_path):
    paths = {"features": feature_file, "out": tmp_path / "out", "dir": tmp_path / "dir", "hvs": tmp_path / "hvs.vsaf",
             "big": tmp_path / "big.vsaf", "scores": tmp_path / "scores.json"}
    paths["dir"].mkdir()
    write_hypervectors(np.eye(4), paths["hvs"])
    write_hypervectors(np.ones((64, 8192), np.float32), paths["big"])  # 2 MiB
    paths["scores"].write_text("[0.5]")
    argv = [arg.format(**paths) for arg in argv]
    got, last = run_with_stdout(argv, subprocess.PIPE, None if limit is None else file_size_cap(limit))
    assert (got, message in last, paths["out"].exists()) == (code, True, False), last
    assert last.startswith("data error: " if code == 2 else "config error: ")


# A config-file key is the name of the library field it fills; a key a command does not
# define is rejected with the command's keys, so an old name or a typo finds the right one.
@pytest.mark.parametrize("argv,key,new", [
    (["bench", "--axis", "k", "--grid", "1,2"], "objects", "object_vocab_size"),
    (["bench", "--axis", "k", "--grid", "1,2"], "attrs", "attr_vocab_size"),
    (["encode", "--features-in", "{tmp}/missing.vsaf", "--out", "{tmp}/o.vsaf"], "patch_sizes", "sides"),
])
def test_unknown_config_key_lists_the_keys(argv, key, new, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: 8}))
    code, stdout, stderr = run_cli([arg.replace("{tmp}", str(tmp_path)) for arg in argv] + ["--config", str(path)],
                                   capsys)
    assert (code, stdout) == (3, "")
    keys = [opt.key for opt in OPTIONS[argv[0]]]
    assert stderr == f"config error: unknown config key(s) {[key]} for {argv[0]}; its keys are {keys}\n"
    assert new in keys


# With fd 1 closed when it starts (`>&-`), Python sets sys.stdout to None.
@pytest.mark.parametrize("command", ["encode", "map", "loss", "bench"])
def test_closed_stdout_exit_2(command, stdout_argv):
    assert run_with_stdout(stdout_argv[command], None, lambda: os.close(1)) == (2, "data error: stdout is closed")


# With fd 2 closed when it starts (`2>&-`), a diagnostic cannot be written: it is dropped,
# and the command keeps its result and its exit code.
@pytest.mark.parametrize("argv,code", [
    (["bench", "--axis", "k", "--grid", "1,2", "--dim", "64", "--trials", "2"], 0),
    (["bench", "--axis", "k", "--grid", "0", "--dim", "64"], 3),
    (["bench", "--axis", "k", "--grid", "1", "--dim", "64", "--trials", "2", "--bogus"], 1),
], ids=["result", "config-error", "usage-error"])
def test_closed_stderr_keeps_result_and_exit_code(argv, code):
    def run(preexec_fn=None):
        return subprocess.run([sys.executable, "-m", "vsabench.cli", *argv], stdout=subprocess.PIPE,
                              stderr=None if preexec_fn else subprocess.DEVNULL, text=True, timeout=120,
                              preexec_fn=preexec_fn)

    closed, open_ = run(lambda: os.close(2)), run()
    assert (closed.returncode, closed.stdout) == (open_.returncode, open_.stdout)
    assert open_.returncode == code and bool(open_.stdout) == (code == 0)


def test_json_file_longer_than_the_cap_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "JSON_CAP", 8)
    path = tmp_path / "cfg.json"
    argv = ["bench", "--axis", "dim", "--grid", "64", "--trials", "2", "--config", str(path)]
    path.write_text('{"k": 2}')
    assert run_cli(argv, capsys)[0] == 0
    path.write_text('{"k": 2} ')
    code, stdout, stderr = run_cli(argv, capsys)
    assert (code, stdout) == (3, "")
    assert stderr == f"config error: cannot read config file {path} as UTF-8 JSON: longer than the cap of 8 bytes\n"


# /dev/zero never ends: a config or score file on it is read to JSON_CAP bytes and
# rejected there, at the stage that reads it.
@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("argv,code,what", [
    (["bench", "--config", "/dev/zero"], 3, "config error: cannot read config file"),
    (["loss", "--x", "{x}", "--cycled", "{x}", "--scores-real", "/dev/zero", "--scores-fake-translated", "/dev/zero",
      "--scores-fake-mapped", "/dev/zero"], 2, "data error: cannot read real score file"),
], ids=["config", "scores"])
def test_endless_json_file_rejected_at_the_cap(argv, code, what, tmp_path):
    x = tmp_path / "x.vsaf"
    write_hypervectors(np.eye(2), x)
    proc = run_capped([arg.replace("{x}", str(x)) for arg in argv])
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr == f"{what} /dev/zero as UTF-8 JSON: longer than the cap of {JSON_CAP} bytes\n"
