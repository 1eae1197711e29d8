import contextlib
import dataclasses
import errno
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from vsabench import cli
from vsabench.bench import CSV_HEADER, SWEEPS, BenchConfig
from vsabench.cli import JSON_CAP, OPTIONS, main
from vsabench.vsaf import FeatureMapSet, feature_map_set, read_hypervectors, write_feature_file, write_hypervectors


_rng = np.random.default_rng(0)
FEATURES = feature_map_set([("conv1", _rng.standard_normal((8, 8, 4))), ("conv2", _rng.standard_normal((4, 4, 8)))])


@pytest.fixture()
def feature_file(tmp_path):
    path = tmp_path / "features.vsaf"
    write_feature_file(FEATURES, path)
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


def test_required_option_from_the_config_file_is_given(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"x": str(tmp_path / "missing.vsaf"), "cycled": str(tmp_path / "missing.vsaf")}))
    code, stdout, stderr = run_cli(["loss", "--config", str(path)], capsys)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("data error: ") and "missing.vsaf" in stderr


# A config-file key is the name of the library field it fills; a key a command does not
# define is rejected with the command's keys, so an old name or a typo finds the right one.
@pytest.mark.parametrize("argv,key,new", [
    (["bench", "--axis", "k", "--grid", "1,2", "--dim", "64", "--trials", "2"], "objects", "object_vocab_size"),
    (["bench", "--axis", "k", "--grid", "1,2", "--dim", "64", "--trials", "2"], "attrs", "attr_vocab_size"),
    (["encode", "--features-in", "{tmp}/missing.vsaf", "--out", "{tmp}/o.vsaf"], "patch_sizes", "sides"),
    (["encode", "--features-in", "{tmp}/missing.vsaf", "--out", "{tmp}/o.vsaf", "--patch-sizes", "4,2"], "dimm", "dim"),
    (["map", "--src", "{tmp}/missing.vsaf", "--out", "{tmp}/u.vsaf", "--mode", "random"], "quantise", "quantize"),
    (["loss", "--x", "{tmp}/missing.vsaf", "--cycled", "{tmp}/missing.vsaf"], "lambda", "lam"),
    (["bench", "--grid", "64", "--trials", "2"], "dimm", "dim"),
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
    assert not (tmp_path / "o.vsaf").exists() and not (tmp_path / "u.vsaf").exists()


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


# The exit-code contract, one row a case. Each key of CASES is a rule and the name of the test
# that runs its rows; a rule of one row under the id None is a plain test.
class Case(NamedTuple):
    """A command and what it must do. ``argv`` and the expected texts name files as ``{tmp}/name``,
    and ``files`` makes the inputs there. A case with a process ``setup`` (an rlimit, a closed fd,
    stdout on /dev/full or on a broken pipe) runs ``python -m vsabench.cli`` in a child process;
    any other calls ``main`` in-process."""

    argv: list
    code: int
    stderr: str | None  # stderr's last line, or a Prefix of it (None: stderr is closed)
    files: dict = {}  # name -> text, bytes, a hypervector stack, a FeatureMapSet, DIR or a Fifo
    setup: dict = {}  # "stdout": "/dev/full" or "broken pipe", "close": an fd, or "RLIMIT_*": a limit
    stdout: str = ""  # the whole of stdout, or a Prefix of it
    absent: tuple = ()  # names the command must not leave behind
    left: tuple = ()  # names it must leave


class Prefix(str):
    """An expected text that the output need only start with."""


class Fifo(NamedTuple):
    """A FIFO that a writer thread feeds with ``content`` once a reader opens it."""

    content: object


DIR = object()  # an input that is a directory
TIMEOUT = 60  # seconds a case may run, so that an open that blocks fails its test instead of hanging it

SMALL_BENCH = ["bench", "--axis", "k", "--grid", "1,2", "--dim", "64", "--trials", "2"]
BENCH_CSV = (f"{CSV_HEADER}\nk,1,64,1,ground_truth,2,1.000000,1.000000,0.000000,0\n"
             "k,2,64,2,ground_truth,2,0.579030,1.000000,0.000000,0\n")
FULL, PIPE, NO_STDOUT, NO_STDERR = {"stdout": "/dev/full"}, {"stdout": "broken pipe"}, {"close": 1}, {"close": 2}
AS_CAP = {"RLIMIT_AS": 1 << 29}  # 512 MiB of address space: a reader that takes a device whole fails quickly
ENCODE_MISSING = ["encode", "--features-in", "{tmp}/missing.vsaf", "--out", "{tmp}/o.vsaf"]
LOSS_MISSING = ["loss", "--x", "{tmp}/missing.vsaf", "--cycled", "{tmp}/missing.vsaf"]


def scores(path):
    """The three score-file flags, each given ``path``."""
    return [arg for flag in ("--scores-real", "--scores-fake-translated", "--scores-fake-mapped")
            for arg in (flag, path)]


# arguments with which each command succeeds and writes its result on stdout
RESULTS = {
    "encode": dict(argv=["encode", "--features-in", "{tmp}/features.vsaf", "--patch-sizes", "4,2", "--dim", "64",
                         "--out", "{tmp}/hv.vsaf"], files={"features.vsaf": FEATURES}),
    "map": dict(argv=["map", "--src", "{tmp}/hvs.vsaf", "--tgt", "{tmp}/hvs.vsaf", "--out", "{tmp}/u.vsaf"],
                files={"hvs.vsaf": np.eye(4)}),
    "loss": dict(argv=["loss", "--x", "{tmp}/hvs.vsaf", "--cycled", "{tmp}/hvs.vsaf"], files={"hvs.vsaf": np.eye(4)}),
    "bench": dict(argv=SMALL_BENCH),
}
ENOSPC, EPIPE = "data error: [Errno 28] No space left on device", "data error: [Errno 32] Broken pipe"
CLOSED = "data error: stdout is closed"
ISDIR = "data error: [Errno 21] Is a directory: '{tmp}/dir'"
FBIG = "data error: cannot write {tmp}/out: [Errno 27] File too large"
CSV = Prefix(CSV_HEADER)
BENCH_DIAG = Prefix("bench axis=")

CASES = {
    # A missing option and an unreadable input at once: the usage rule is decided before any file
    # is read, so the command exits 1, not 2. A command names every required option that neither a
    # flag nor the config file gives, in the table's order, once its flags have been converted and
    # the unread rule has passed. A bad flag is decided before the config file is read.
    "test_usage_error_before_any_file_is_read": {
        "map without --tgt": Case(["map", "--src", "{tmp}/missing.vsaf", "--out", "{tmp}/u.vsaf"], 1,
                                  "usage error: map --mode paired requires --tgt"),
        "loss with one score batch": Case([*LOSS_MISSING, "--scores-real", "{tmp}/missing.json"], 1,
                                          "usage error: loss needs all three score batches or none"),
        "encode": Case(["encode"], 1, "usage error: encode requires --features-in, --out, --patch-sizes"),
        "encode without --patch-sizes": Case(ENCODE_MISSING, 1, "usage error: encode requires --patch-sizes"),
        "encode without paths": Case(["encode", "--patch-sizes", "2", "--dim", "64"], 1,
                                     "usage error: encode requires --features-in, --out"),
        "encode with only --dim": Case(["encode", "--dim", "64"], 1,
                                       "usage error: encode requires --features-in, --out, --patch-sizes"),
        "map": Case(["map", "--mode", "random"], 1, "usage error: map requires --src, --out"),
        "map without --out": Case(["map", "--src", "{tmp}/missing.vsaf", "--tgt", "{tmp}/missing.vsaf"], 1,
                                  "usage error: map requires --out"),
        "loss": Case(["loss"], 1, "usage error: loss requires --x, --cycled"),
        "loss without --cycled": Case(["loss", "--x", "{tmp}/missing.vsaf", "--lambda", "2"], 1,
                                      "usage error: loss requires --cycled"),
        "a bad flag before a missing option": Case(["encode", "--dim", "x"], 1,
                                                   "usage error: argument --dim: must be an integer, got 'x'"),
        "an unread flag before a missing option": Case(["map", "--mode", "random", "--tgt", "{tmp}/missing.vsaf"], 1,
                                                       "usage error: --tgt is not read in random mode"),
        "a bad flag before the config file": Case(["bench", "--trials", "x", "--config", "{tmp}/cfg.json"], 1,
                                                  "usage error: argument --trials: must be an integer, got 'x'",
                                                  {"cfg.json": "{"}),
        "an unknown flag": Case(["bench", "--axis", "k", "--grid", "1", "--dim", "64", "--trials", "2", "--bogus"], 1,
                                "usage error: unrecognized arguments: --bogus"),
        "no subcommand": Case([], 1, "usage error: a subcommand is required (encode, map, loss, bench)"),
    },
    # A value rule that needs no file, or a config file that cannot be read, and an unreadable input
    # or unwritable --out at once: the rules stage is decided before any input file is touched, so the
    # command exits 3, not 2. JSON would keep a repeated key's last value; the file is rejected instead.
    "test_value_rule_before_any_file_is_read": {
        "loss --lambda": Case([*LOSS_MISSING, "--lambda", "-1"], 3,
                              "config error: lam must be finite and >= 0, got -1.0"),
        "loss --w1": Case([*LOSS_MISSING, *scores("{tmp}/missing.json"), "--w1", "-1"], 3,
                          "config error: w1 must be finite and >= 0, got -1.0"),
        "encode --patch-sizes": Case([*ENCODE_MISSING, "--patch-sizes", "0"], 3,
                                     "config error: patch side must be >= 1, got 0"),
        "encode --dilation": Case([*ENCODE_MISSING, "--patch-sizes", "4,2", "--dilation", "0"], 3,
                                  "config error: dilation must be >= 1, got 0"),
        "encode --dim": Case([*ENCODE_MISSING, "--patch-sizes", "4,2", "--dim", "0"], 3,
                             "config error: dim must be >= 1, got 0"),
        "encode --seed": Case([*ENCODE_MISSING, "--patch-sizes", "4,2", "--seed", "-1"], 3,
                              "config error: seed must be in [0, 2^64), got -1"),
        "map --seed": Case(["map", "--src", "{tmp}/missing.vsaf", "--out", "{tmp}/u.vsaf", "--mode", "random",
                            "--seed", "-1"], 3, "config error: seed must be in [0, 2^64), got -1"),
        "bench --grid": Case(["bench", "--axis", "k", "--grid", "0", "--out", "{tmp}/missing/x.csv"], 3,
                             "config error: k must be >= 1, got 0"),
        "bench --grid without --out": Case(["bench", "--axis", "k", "--grid", "0", "--dim", "64"], 3,
                                           "config error: k must be >= 1, got 0"),
        "repeated config key": Case(["bench", "--axis", "k", "--grid", "1,2", "--trials", "2", "--config",
                                     "{tmp}/cfg.json"], 3, "config error: cannot read config file {tmp}/cfg.json as "
                                    "UTF-8 JSON: repeated key(s) 'dim'", {"cfg.json": '{"dim": 64, "dim": 128}'}),
        "a config file that is not UTF-8": Case(["bench", "--config", "{tmp}/cfg.json"], 3, "config error: cannot read "
                                                "config file {tmp}/cfg.json as UTF-8 JSON: 'utf-8' codec can't decode "
                                                "byte 0xff in position 0: invalid start byte", {"cfg.json": b"\xff"}),
    },
    # A rule that only the contents of the input files break is a data error, whatever class the
    # library raises: the files are at fault, not a flag or a config value.
    "test_data_rule_after_the_files_are_read": {
        "map shapes": Case(["map", "--src", "{tmp}/a.vsaf", "--tgt", "{tmp}/b.vsaf", "--out", "{tmp}/u.vsaf"], 2,
                           "data error: dimension mismatch: (4, 8) vs (3, 8)",
                           {"a.vsaf": np.ones((4, 8)), "b.vsaf": np.ones((3, 8))}, absent=("u.vsaf",)),
        "map shapes of two rows and three": Case(
            ["map", "--src", "{tmp}/a.vsaf", "--tgt", "{tmp}/b.vsaf", "--out", "{tmp}/u.vsaf"], 2,
            "data error: dimension mismatch: (2, 2) vs (3, 2)", {"a.vsaf": np.eye(2), "b.vsaf": np.ones((3, 2))},
            absent=("u.vsaf",)),
        "loss shapes": Case(["loss", "--x", "{tmp}/a.vsaf", "--cycled", "{tmp}/b.vsaf"], 2,
                            "data error: dimension mismatch: (4, 8) vs (3, 8)",
                            {"a.vsaf": np.ones((4, 8)), "b.vsaf": np.ones((3, 8))}),
        "loss scores": Case(["loss", "--x", "{tmp}/x.vsaf", "--cycled", "{tmp}/neg.vsaf", "--scores-real",
                             "{tmp}/small.json", "--scores-fake-translated", "{tmp}/big.json",
                             "--scores-fake-mapped", "{tmp}/big.json"], 2,
                            "data error: must be a finite discriminator loss, got np.float64(inf)",
                            {"x.vsaf": np.eye(2), "neg.vsaf": -np.eye(2), "small.json": "[0.1]",
                             "big.json": "[1e308]"}),
    },
    # A FIFO opens once a writer comes and streams like a pipe: its bytes are read as a file's.
    "test_fifo_as_an_input_path": {
        "bad magic": Case(["encode", "--features-in", "{tmp}/fifo", "--patch-sizes", "4", "--out", "{tmp}/hv.vsaf"], 2,
                          "data error: expected magic b'VSAF', got b'JUNK'", {"fifo": Fifo(b"JUNKJUNKJUNK")},
                          absent=("hv.vsaf",)),
        "features": Case(["encode", "--features-in", "{tmp}/fifo", "--patch-sizes", "4,2", "--dim", "64", "--out",
                          "{tmp}/hv.vsaf"], 0, "", {"fifo": Fifo(FEATURES)},
                         stdout='{"m": 96, "n": 64, "patch_count": 4, "seed": 0}\n', left=("hv.vsaf",)),
        "config": Case(["bench", "--config", "{tmp}/fifo"], 3, "config error: cannot read config file {tmp}/fifo as "
                       "UTF-8 JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
                       {"fifo": Fifo("{")}),
    },
    # What a command writes on success; -h writes the parser's help, byte for byte.
    "test_result_exit_0": {
        "bench --axis k": Case(SMALL_BENCH, 0, BENCH_DIAG, stdout=BENCH_CSV),
        "bench --axis mapping_kind with a mixed point": Case(
            ["bench", "--axis", "mapping_kind", "--grid", "ground_truth,random,mixed", "--dim", "64", "--trials", "2"],
            0, BENCH_DIAG, stdout=CSV),
        "bench --axis dim": Case(["bench", "--axis", "dim", "--grid", "64,128", "--trials", "2"], 0, BENCH_DIAG,
                                 stdout=CSV),
        "bench --axis lambda_proxy": Case(["bench", "--axis", "lambda_proxy", "--grid", "0,0.5,1", "--dim", "64",
                                           "--trials", "2"], 0, BENCH_DIAG, stdout=CSV),
        "a field name as config key": Case([*SMALL_BENCH, "--config", "{tmp}/cfg.json"], 0,
                                           Prefix("bench axis=k grid=[1, 2] base=BenchConfig(dim=64, k=2, "
                                                  "object_vocab_size=8,"), {"cfg.json": '{"object_vocab_size": 8}'},
                                           stdout=CSV),
        "help": Case(["-h"], 0, "", stdout=cli.build_parser().format_help()),
        "bench help": Case(["bench", "-h"], 0, "", stdout=Prefix("usage: vsabench bench [-h] ")),
    },
    # A result that cannot reach stdout is a files-stage fault like any other failed write, and so is
    # -h's help. With fd 1 closed when it starts (`>&-`), Python sets sys.stdout to None.
    "test_full_stdout_exit_2": {name: Case(**run, code=2, stderr=ENOSPC, setup=FULL) for name, run in RESULTS.items()}
    | {"help": Case(["-h"], 2, ENOSPC, setup=FULL), "bench help": Case(["bench", "-h"], 2, ENOSPC, setup=FULL)},
    "test_closed_stdout_pipe_exit_2": {name: Case(**RESULTS[name], code=2, stderr=EPIPE, setup=PIPE)
                                       for name in ("loss", "bench")} | {"help": Case(["-h"], 2, EPIPE, setup=PIPE)},
    "test_closed_stdout_exit_2": {name: Case(**run, code=2, stderr=CLOSED, setup=NO_STDOUT)
                                  for name, run in RESULTS.items()}
    | {"help": Case(["-h"], 2, CLOSED, setup=NO_STDOUT)},
    # With fd 2 closed when it starts (`2>&-`), a diagnostic cannot be written: it is dropped, and
    # the command keeps its result and its exit code, as in its rows above.
    "test_closed_stderr_keeps_result_and_exit_code": {
        "result": Case(SMALL_BENCH, 0, None, setup=NO_STDERR, stdout=BENCH_CSV),
        "config-error": Case(["bench", "--axis", "k", "--grid", "0", "--dim", "64"], 3, None, setup=NO_STDERR),
        "usage-error": Case(["bench", "--axis", "k", "--grid", "1", "--dim", "64", "--trials", "2", "--bogus"], 1,
                            None, setup=NO_STDERR),
    },
    # /dev/zero never ends, so it must be read only as far as its magic.
    "test_endless_input_device_exit_2_at_once": {None: Case(
        ["encode", "--features-in", "/dev/zero", "--patch-sizes", "1", "--dim", "64", "--out", "{tmp}/hv.vsaf"], 2,
        "data error: expected magic b'VSAF', got b'\\x00\\x00\\x00\\x00'", setup=AS_CAP)},
    # A config or score file on /dev/zero is read to JSON_CAP bytes and rejected there, at the stage that reads it.
    "test_endless_json_file_rejected_at_the_cap": {
        "config": Case(["bench", "--config", "/dev/zero"], 3, "config error: cannot read config file /dev/zero as "
                       f"UTF-8 JSON: longer than the cap of {JSON_CAP} bytes", setup=AS_CAP),
        "scores": Case([*RESULTS["loss"]["argv"], *scores("/dev/zero")], 2, "data error: cannot read real score file "
                       f"/dev/zero as UTF-8 JSON: longer than the cap of {JSON_CAP} bytes", RESULTS["loss"]["files"],
                       AS_CAP),
    },
    # One 1 x 1 x 2^19 layer: a projection holds a full-height 256 x 2^19 float32 panel, 512 MiB,
    # which the capped child cannot allocate; numpy's MemoryError is a files-stage fault.
    "test_allocation_failure_exit_2": {None: Case(
        ["encode", "--features-in", "{tmp}/wide.vsaf", "--patch-sizes", "1", "--dim", "1", "--out", "{tmp}/hv.vsaf"],
        2, Prefix("data error: Unable to allocate 512. MiB"),
        {"wide.vsaf": feature_map_set([("wide", np.ones((1, 1, 1 << 19)))])}, AS_CAP, absent=("hv.vsaf",))},
    # Faults the operating system raises, each exiting by the stage that meets it: a write past
    # RLIMIT_FSIZE, and a directory where a file is read or written. Permission bits do not stop
    # root, so rlimits and directories stand for them.
    "test_os_fault_exit_code": {
        "encode past RLIMIT_FSIZE": Case(["encode", "--features-in", "{tmp}/features.vsaf", "--patch-sizes", "2,1",
                                          "--dim", "32768", "--out", "{tmp}/out"], 2, FBIG,
                                         {"features.vsaf": FEATURES}, {"RLIMIT_FSIZE": 1 << 20}, absent=("out",)),
        "encode past RLIMIT_FSIZE at the default dim": Case(
            ["encode", "--features-in", "{tmp}/ones.vsaf", "--patch-sizes", "1", "--out", "{tmp}/out"], 2, FBIG,
            {"ones.vsaf": feature_map_set([("conv", np.ones((16, 16, 4)))])}, {"RLIMIT_FSIZE": 1 << 20},
            absent=("out",)),
        "map past RLIMIT_FSIZE": Case(["map", "--src", "{tmp}/big.vsaf", "--tgt", "{tmp}/big.vsaf", "--out",
                                       "{tmp}/out"], 2, FBIG, {"big.vsaf": np.ones((64, 8192), np.float32)},  # 2 MiB
                                      {"RLIMIT_FSIZE": 1 << 20}, absent=("out",)),
        "bench --out past RLIMIT_FSIZE": Case([*SMALL_BENCH, "--out", "{tmp}/out"], 2, FBIG,
                                              setup={"RLIMIT_FSIZE": 0}, absent=("out",)),
        "directory as --features-in": Case(["encode", "--features-in", "{tmp}/dir", "--patch-sizes", "2,1", "--dim",
                                            "64", "--out", "{tmp}/out"], 2, ISDIR, {"dir": DIR}, absent=("out",)),
        "directory as --src": Case(["map", "--src", "{tmp}/dir", "--tgt", "{tmp}/hvs.vsaf", "--out", "{tmp}/out"], 2,
                                   ISDIR, {"dir": DIR, "hvs.vsaf": np.eye(4)}, absent=("out",)),
        "directory as --tgt": Case(["map", "--src", "{tmp}/hvs.vsaf", "--tgt", "{tmp}/dir", "--out", "{tmp}/out"], 2,
                                   ISDIR, {"dir": DIR, "hvs.vsaf": np.eye(4)}, absent=("out",)),
        "directory as --x": Case(["loss", "--x", "{tmp}/dir", "--cycled", "{tmp}/hvs.vsaf"], 2, ISDIR,
                                 {"dir": DIR, "hvs.vsaf": np.eye(4)}),
        "directory as --cycled": Case(["loss", "--x", "{tmp}/hvs.vsaf", "--cycled", "{tmp}/dir"], 2, ISDIR,
                                      {"dir": DIR, "hvs.vsaf": np.eye(4)}),
        "directory as a score file": Case(
            [*RESULTS["loss"]["argv"], "--scores-real", "{tmp}/dir", "--scores-fake-translated", "{tmp}/scores.json",
             "--scores-fake-mapped", "{tmp}/scores.json"], 2,
            "data error: cannot read real score file {tmp}/dir as UTF-8 JSON: [Errno 21] Is a directory: '{tmp}/dir'",
            {"dir": DIR, "hvs.vsaf": np.eye(4), "scores.json": "[0.5]"}),
        "directory as --config": Case([*SMALL_BENCH, "--config", "{tmp}/dir"], 3, "config error: cannot read config "
                                      "file {tmp}/dir as UTF-8 JSON: [Errno 21] Is a directory: '{tmp}/dir'",
                                      {"dir": DIR}),
        "directory as encode --out": Case(["encode", "--features-in", "{tmp}/features.vsaf", "--patch-sizes", "4,2",
                                           "--dim", "64", "--out", "{tmp}/dir"], 2,
                                          "data error: cannot write {tmp}/dir: it is a directory",
                                          {"dir": DIR, "features.vsaf": FEATURES}),
        "directory as map --out": Case(["map", "--src", "{tmp}/hvs.vsaf", "--tgt", "{tmp}/hvs.vsaf", "--out",
                                        "{tmp}/dir"], 2,
                                       "data error: cannot write {tmp}/dir: it is a directory",
                                       {"dir": DIR, "hvs.vsaf": np.eye(4)}),
        "directory as bench --out": Case([*SMALL_BENCH, "--out", "{tmp}/dir"], 2,
                                         "data error: cannot write {tmp}/dir: it is a directory", {"dir": DIR}),
    },
}


def make(path, content):
    """Make the input ``path`` from ``content``. A FIFO gets a writer thread, which is returned."""
    if isinstance(content, Fifo):
        os.mkfifo(path)
        writer = threading.Thread(target=make, args=(path, content.content), daemon=True)
        writer.start()
        return writer
    if content is DIR:
        path.mkdir()
    elif isinstance(content, FeatureMapSet):
        write_feature_file(content, path)
    elif isinstance(content, np.ndarray):
        write_hypervectors(content, path)
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


def run_main(argv, capsys):
    """``main(argv)``'s exit code, stdout and stderr; a call that outlives TIMEOUT fails the test."""
    def hang(signum, frame):
        pytest.fail(f"main did not return within {TIMEOUT} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(TIMEOUT)
    try:
        code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(argv, setup):
    """The exit code, stdout and stderr of ``python -m vsabench.cli argv`` in a child process under ``setup``."""
    with contextlib.ExitStack() as stack:
        stdout = subprocess.PIPE
        if setup.get("stdout") == "/dev/full":
            stdout = stack.enter_context(open("/dev/full", "wb"))
        elif setup.get("stdout") == "broken pipe":
            read_end, stdout = os.pipe()
            os.close(read_end)
            stack.callback(os.close, stdout)

        def prepare():
            if "close" in setup:
                os.close(setup["close"])
            for name, limit in setup.items():
                if name.startswith("RLIMIT_"):
                    resource.setrlimit(getattr(resource, name), (limit, limit))

        # one BLAS thread, so that thread stacks do not count against RLIMIT_AS
        proc = subprocess.run([sys.executable, "-m", "vsabench.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
                              text=True, timeout=TIMEOUT, preexec_fn=prepare,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))
    return proc.returncode, proc.stdout or "", proc.stderr


def run_case(case, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("VSAIT_SEED", raising=False)  # so that every case resolves its seed to 0

    def filled(text):
        return type(text)(text.replace("{tmp}", str(tmp_path)))

    def matches(text, expected):
        return text.startswith(expected) if isinstance(expected, Prefix) else text == expected

    writers = [make(tmp_path / name, content) for name, content in case.files.items()]
    argv = [filled(arg) for arg in case.argv]
    code, stdout, stderr = run_child(argv, case.setup) if case.setup else run_main(argv, capsys)
    for writer in filter(None, writers):
        writer.join(TIMEOUT)
        assert not writer.is_alive(), "the command did not read its FIFO"
    assert code == case.code, stderr
    assert matches(stdout, filled(case.stdout)), stdout
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr
    if case.stderr is not None:
        *before, last = stderr.splitlines() or [""]
        assert all(line.startswith("bench axis=") for line in before), stderr  # bench's one diagnostic line
        assert matches(last, filled(case.stderr)), stderr
    assert [name for name in case.absent if (tmp_path / name).exists()] == []
    assert [name for name in case.left if not (tmp_path / name).exists()] == []


def rule_test(rows):
    """A test that runs each of a rule's rows."""
    if list(rows) == [None]:
        def test(tmp_path, capsys, monkeypatch):
            run_case(rows[None], tmp_path, capsys, monkeypatch)
        return test

    @pytest.mark.parametrize("case", rows.values(), ids=rows)
    def test(case, tmp_path, capsys, monkeypatch):
        run_case(case, tmp_path, capsys, monkeypatch)
    return test


for _rule, _rows in CASES.items():
    globals()[_rule] = rule_test(_rows)


def test_console_entry_point_runs(monkeypatch):
    """``python -m vsabench.cli`` runs ``main`` and passes its exit code and result through."""
    monkeypatch.delenv("VSAIT_SEED", raising=False)
    code, stdout, stderr = run_child(SMALL_BENCH, {})
    assert (code, stdout) == (0, BENCH_CSV), stderr
