import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gclrec.cli import (
    ABLATION_VARIANTS,
    THREAD_VARIABLES,
    _format_table,
    _parse_config_file,
    main,
)
from gclrec.model import init_params
from gclrec.trainer import ConfigError, TrainConfig

from conftest import process_env, random_interactions, write_config


@pytest.fixture
def dataset_file(tmp_path):
    data = random_interactions(12, 15, density=0.3, seed=11, min_per_user=3)
    lines = [f"{u} {i}" for u, i in data.pairs.tolist()]
    path = tmp_path / "ratings.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def config_file(tmp_path, dataset_file):
    cfg = TrainConfig()
    cfg.data_path = str(dataset_file)
    cfg.d = 4
    cfg.h = 4
    cfg.L = 2
    cfg.gamma = 1.0
    cfg.batch_size = 16
    cfg.epochs_max = 3
    cfg.eval_interval = 2
    cfg.folds = 3
    path = tmp_path / "toy.cfg"
    write_config(path, cfg)
    return path


def run_cli(*argv):
    # main pins the BLAS thread variables when none is set; keep that
    # from leaking into the processes later tests start
    with mock.patch.dict(os.environ):
        return main(list(argv))


class TestConfigFile:
    def test_round_trip_identity(self, tmp_path):
        cfg = TrainConfig()
        cfg.gamma = 2.0
        cfg.noise_mode = "random"
        path = tmp_path / "a.cfg"
        write_config(path, cfg)
        reparsed = TrainConfig.from_strings(_parse_config_file(str(path)))
        assert reparsed.to_strings() == cfg.to_strings()

    def test_byte_order_mark_is_not_part_of_a_key(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_bytes("\ufeffd = 8\ntau = 0.5\n".encode("utf-8"))
        table = _parse_config_file(str(path))
        assert table == {"d": "8", "tau": "0.5"}

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("# comment\n\n  d = 8 \n# more\ntau = 0.5\n")
        table = _parse_config_file(str(path))
        assert table == {"d": "8", "tau": "0.5"}

    def test_garbled_line_reports_location(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("d = 8\nnot a setting\n")
        with pytest.raises(ConfigError, match=":2"):
            _parse_config_file(str(path))

    def test_shipped_config_is_the_defaults(self):
        # the shipped file documents the published settings, which are the
        # defaults; every key it sets must still be in the schema
        path = Path(__file__).resolve().parents[1] / "configs" / "ciaodvd.cfg"
        table = _parse_config_file(str(path))
        shipped = TrainConfig.from_strings(table).to_strings()
        defaults = TrainConfig().to_strings()
        del table["data.path"]
        assert {k: shipped[k] for k in table} == {k: defaults[k] for k in table}

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run_cli("prepare", "--config", str(tmp_path / "absent.cfg"),
                       "--out", str(tmp_path / "out"))
        assert code == 3


class TestExitCodes:
    def test_unknown_set_key_names_it(self, config_file, tmp_path, capsys):
        code = run_cli("train", "--config", str(config_file),
                       "--set", "nois.mode=none",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert "nois.mode" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", ["neg_per_pos=3", "noise.s_fixed=0.2",
                                      "cl.normalize=false",
                                      "eval.noise=mean", "noise.scale=stddev",
                                      "kl.formula=paper", "mmd.bandwidth=1.3",
                                      "ddl=kl", "filter.enabled=false"])
    def test_retired_key_is_unknown(self, config_file, tmp_path, capsys, pair):
        code = run_cli("train", "--config", str(config_file), "--set", pair,
                       "--out", str(tmp_path / "out"))
        assert code == 2
        key = pair.partition("=")[0]
        assert f"unknown config key: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["noise.scale = variance",
                                      "kl.formula = standard",
                                      "mmd.bandwidth = 0.0", "ddl = kl",
                                      "filter.enabled = false"])
    def test_retired_key_in_config_file_is_unknown(self, config_file,
                                                   tmp_path, capsys, line):
        config_file.write_text(config_file.read_text() + line + "\n")
        code = run_cli("train", "--config", str(config_file),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        key = line.partition(" =")[0]
        assert f"unknown config key: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", [
        key for key, (_, parse) in TrainConfig.KEYS.items() if parse is float])
    def test_non_finite_float_names_its_key(self, config_file, tmp_path,
                                            capsys, key, value):
        code = run_cli("train", "--config", str(config_file),
                       "--set", f"{key}={value}",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{key} must be finite" in err
        assert "Warning" not in err
        cfg = TrainConfig()
        setattr(cfg, TrainConfig.KEYS[key][0], float(value))
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            cfg.validate()

    @pytest.mark.parametrize("args, fragment", [
        (("--set", "seed=-3"), "seed must be >= 0, got -3"),
        (("--out", "{file}"), "--out {file}: not a directory"),
    ], ids=["seed-key", "out-is-a-file"])
    def test_rejected_setting_names_it(self, config_file, tmp_path, capsys,
                                       args, fragment):
        taken = tmp_path / "taken"
        taken.write_text("")
        args = [arg.format(file=taken) for arg in args]
        if "--out" not in args:
            args += ["--out", str(tmp_path / "out")]
        code = run_cli("train", "--config", str(config_file), *args)
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: {fragment.format(file=taken)}" in err
        assert "Traceback" not in err

    def test_out_of_memory_names_the_sizes(self, config_file, tmp_path,
                                           capsys, monkeypatch):
        import gclrec.trainer as tr

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(tr, "init_params", out_of_memory)
        code = run_cli("train", "--config", str(config_file),
                       "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert ("config error: out of memory at d=4, h=4, batch_size=16; "
                "lower one of them") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["prepare", "train", "evaluate",
                                         "crossval", "ablate", "diagnose"])
    def test_help_names_no_retired_option(self, capsys, command):
        assert run_cli(command, "--help") == 0
        usage = capsys.readouterr().out
        assert "--threads" not in usage and "--seed" not in usage

    @pytest.mark.parametrize("option", ["--threads", "--seed"])
    def test_retired_option_is_unknown(self, config_file, tmp_path, capsys,
                                       option):
        code = run_cli("train", "--config", str(config_file), option, "1",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert f"unrecognized arguments: {option} 1" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_set_syntax(self, config_file, tmp_path, capsys):
        code = run_cli("train", "--config", str(config_file),
                       "--set", "noise.mode", "--out", str(tmp_path / "out"))
        assert code == 2

    def test_missing_dataset(self, tmp_path, capsys):
        code = run_cli("train", "--set", "data.path=/nonexistent/x.txt",
                       "--out", str(tmp_path / "out"))
        assert code == 3

    def test_unset_data_path_is_config_error(self, tmp_path, capsys):
        code = run_cli("train", "--out", str(tmp_path / "out"))
        assert code == 2

    def test_unknown_variant(self, config_file, tmp_path, capsys):
        code = run_cli("ablate", "w/o-everything",
                       "--config", str(config_file),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert "w/o-everything" in capsys.readouterr().err

    def test_bad_fold_index(self, config_file, tmp_path, capsys):
        code = run_cli("train", "--config", str(config_file), "--fold", "9",
                       "--out", str(tmp_path / "out"))
        assert code == 2

    def test_fewer_pairs_than_folds_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "tiny.txt"
        data.write_text("u1 i1\nu2 i2\n")
        code = run_cli("prepare", "--set", f"data.path={data}",
                       "--set", "folds=5", "--out", str(tmp_path / "out"))
        assert code == 3
        assert str(data) in capsys.readouterr().err

    def test_non_utf8_dataset_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "latin1.txt"
        data.write_bytes(b"u1 i1\nu\xe9 i2\nu3 i3\n")
        code = run_cli("prepare", "--set", f"data.path={data}",
                       "--set", "folds=2", "--out", str(tmp_path / "out"))
        assert code == 3
        assert str(data) in capsys.readouterr().err

    def test_non_utf8_config_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# r\xe9glages\nd = 8\n")
        code = run_cli("prepare", "--config", str(cfg),
                       "--out", str(tmp_path / "out"))
        assert code == 3
        assert str(cfg) in capsys.readouterr().err

    def test_usage_error_is_2(self, capsys):
        assert run_cli("no-such-command") == 2

    def test_help_is_0(self, capsys):
        assert run_cli("--help") == 0


class TestThreads:
    PROBE = """
import json, os, sys
import gclrec.cli
assert "numpy" not in sys.modules
assert gclrec.cli.main(sys.argv[1:]) == 0
print(json.dumps({var: os.environ.get(var)
                  for var in gclrec.cli.THREAD_VARIABLES}))
"""

    @pytest.mark.parametrize("given", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                             ids=["none-set", "one-set"])
    def test_one_blas_thread_unless_the_caller_sets_one(self, dataset_file,
                                                        tmp_path, given):
        """In a fresh process, main pins every thread variable to 1 before
        numpy loads when none is set, and leaves the environment as
        given when one is."""
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, "prepare",
             "--set", f"data.path={dataset_file}",
             "--out", str(tmp_path / "out")],
            env=process_env(given), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        seen = json.loads(proc.stdout.splitlines()[-1])
        expected = given or dict.fromkeys(THREAD_VARIABLES, "1")
        assert seen == {var: expected.get(var) for var in THREAD_VARIABLES}


class TestPrepare:
    def test_writes_fold_summary(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("prepare", "--config", str(config_file),
                       "--out", str(out)) == 0
        summary = json.loads((out / "folds.json").read_text())
        assert summary["num_folds"] == 3
        assert summary["num_users"] == 12
        total = sum(f["train_pairs"] + f["test_pairs"]
                    for f in summary["folds"]) // 3
        assert total == summary["num_pairs"]
        assert (out / "manifest.json").exists()


class TestTrain:
    def test_writes_four_artifacts(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("train", "--config", str(config_file),
                       "--out", str(out)) == 0
        for name in ("checkpoint.npz", "history.csv", "metrics.csv",
                     "manifest.json"):
            assert (out / name).exists(), name

        history = (out / "history.csv").read_text().strip().split("\n")
        assert history[0].startswith("epoch,rec,cl,")
        assert len(history) == 1 + 3  # header + epochs_max rows
        for row in history[1:]:
            for cell in row.split(",")[1:]:
                if cell:  # eval columns are empty off-interval
                    float(cell)

        metrics = (out / "metrics.csv").read_text().strip().split("\n")
        assert metrics[0].startswith("fold,k,")
        assert len(metrics) == 1 + 3  # one row per cutoff, single fold
        for row in metrics[1:]:
            for cell in row.split(","):
                float(cell)

    def test_manifest_records_override_and_checksum(self, config_file,
                                                    dataset_file, tmp_path,
                                                    capsys):
        out = tmp_path / "out"
        assert run_cli("train", "--config", str(config_file),
                       "--set", "noise.mode=none", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["noise.mode"] == "none"
        assert "noise.mode=none" in manifest["overrides"]
        assert manifest["dataset"]["path"] == str(dataset_file)
        assert len(manifest["dataset"]["sha256"]) == 64
        assert manifest["version"]
        assert any(p.endswith("checkpoint.npz") for p in manifest["outputs"])

    def test_set_seed_overrides_config(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("train", "--config", str(config_file),
                       "--set", "seed=99", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["config"]["seed"] == "99"

    def test_reruns_are_bit_identical(self, config_file, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("train", "--config", str(config_file),
                           "--out", str(out)) == 0
        for name in ("checkpoint.npz", "history.csv", "metrics.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_divergence_keeps_finished_epochs(self, config_file, tmp_path,
                                              capsys, monkeypatch):
        import gclrec.trainer as tr
        from gclrec.dataset import load_interactions, make_folds
        from gclrec.diffcore import DiffError

        full = tmp_path / "full"
        assert run_cli("train", "--config", str(config_file),
                       "--out", str(full)) == 0
        expected = (full / "history.csv").read_text().split("\n")[:2]

        cfg = TrainConfig.from_strings(_parse_config_file(str(config_file)))
        train = make_folds(load_interactions(cfg.data_path), cfg.folds,
                           cfg.seed)[0].train
        epoch_steps = -(-len(train) // cfg.batch_size)
        original = tr.adam_step

        def diverge_in_epoch_2(params, grads, state, **kwargs):
            if state.t == epoch_steps:
                raise DiffError("non-finite gradient; training diverged")
            original(params, grads, state, **kwargs)

        monkeypatch.setattr(tr, "adam_step", diverge_in_epoch_2)
        out = tmp_path / "out"
        assert run_cli("train", "--config", str(config_file),
                       "--out", str(out)) == 4
        assert "diverged" in capsys.readouterr().err
        history = (out / "history.csv").read_text()
        assert history == "\n".join(expected) + "\n"
        assert expected[1].startswith("1,")

    def test_overflowing_adam_moment_is_numeric_error(self, config_file,
                                                      tmp_path, capsys):
        # a finite but huge gradient exits 4 at Adam, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("train", "--config", str(config_file),
                           "--set", "lambda=1e300",
                           "--out", str(tmp_path / "out"))
        assert code == 4
        assert "second moment for 'base_embedding'" in capsys.readouterr().err

    def test_out_defaults_to_runs(self, config_file, tmp_path, capsys,
                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("train", "--config", str(config_file)) == 0
        assert (tmp_path / "runs" / "checkpoint.npz").exists()


class TestEvaluate:
    def test_checkpoint_round_trip(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("train", "--config", str(config_file),
                       "--out", str(out)) == 0
        trained = (out / "metrics.csv").read_text()
        out2 = tmp_path / "eval"
        assert run_cli("evaluate", str(out / "checkpoint.npz"),
                       "--config", str(config_file), "--out", str(out2)) == 0
        assert (out2 / "metrics.csv").read_text() == trained

    def test_missing_checkpoint(self, config_file, tmp_path, capsys):
        code = run_cli("evaluate", str(tmp_path / "nope.npz"),
                       "--config", str(config_file),
                       "--out", str(tmp_path / "out"))
        assert code == 3

    @pytest.mark.parametrize("override", ["d=8", "h=8"])
    def test_dimension_mismatch_is_config_error(self, config_file, tmp_path,
                                                capsys, override):
        out = tmp_path / "out"
        assert run_cli("train", "--config", str(config_file),
                       "--out", str(out)) == 0
        capsys.readouterr()
        code = run_cli("evaluate", str(out / "checkpoint.npz"),
                       "--config", str(config_file), "--set", override,
                       "--out", str(tmp_path / "eval"))
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "manifest.json").exists()


    @pytest.mark.parametrize("content, named", [
        ("text", None), ("no_embedding", "base_embedding")])
    def test_not_a_checkpoint_is_data_error(self, config_file, tmp_path,
                                            capsys, content, named):
        path = tmp_path / "model.npz"
        if content == "text":
            path.write_text("not a checkpoint\n")
        else:
            table = dict(init_params(12, 15, 4, 4, seed=0).param_arrays())
            del table["base_embedding"]
            np.savez(path, meta=np.array([12, 15, 4, 4, 0]), **table)
        code = run_cli("evaluate", str(path), "--config", str(config_file),
                       "--out", str(tmp_path / "out"))
        assert code == 3
        err = capsys.readouterr().err
        assert str(path) in err and (named is None or named in err)


    @pytest.mark.parametrize("name, bad", [
        ("base_embedding", "nan"), ("gen.b1", "inf"), ("gen.w1", "float32")])
    def test_non_finite_or_non_float64_array_is_data_error(
            self, config_file, tmp_path, capsys, name, bad):
        table = dict(init_params(12, 15, 4, 4, seed=0).param_arrays())
        if bad == "float32":
            table[name] = table[name].astype(np.float32)
        else:
            table[name][0, ...] = float(bad)
        path = tmp_path / "model.npz"
        np.savez(path, meta=np.array([12, 15, 4, 4, 0]), **table)
        code = run_cli("evaluate", str(path), "--config", str(config_file),
                       "--out", str(tmp_path / "out"))
        assert code == 3
        err = capsys.readouterr().err
        assert str(path) in err and name in err
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_non_finite_embeddings_are_numeric_error(self, config_file,
                                                     tmp_path, capsys):
        # finite parameters whose propagated embeddings overflow
        table = dict(init_params(12, 15, 4, 4, seed=0).param_arrays())
        table["base_embedding"][:] = np.finfo(np.float64).max
        path = tmp_path / "model.npz"
        np.savez(path, meta=np.array([12, 15, 4, 4, 0]), **table)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning comes first
            code = run_cli("evaluate", str(path), "--config",
                           str(config_file), "--out", str(tmp_path / "out"))
        assert code == 4
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.csv").exists()


class TestCrossval:
    def test_fold_rows_and_exact_mean(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("crossval", "--config", str(config_file),
                       "--out", str(out)) == 0
        lines = (out / "crossval.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 3 * (3 + 1)  # header + (folds + mean) per k
        rows = [line.split(",") for line in lines[1:]]
        for k in ("5", "10", "20"):
            block = [r for r in rows if r[1] == k]
            folds = [r for r in block if r[0] != "mean"]
            mean = [r for r in block if r[0] == "mean"][0]
            for col in (2, 3, 4):
                expected = sum(float(r[col]) for r in folds) / len(folds)
                assert abs(float(mean[col]) - expected) < 1e-12
        assert (out / "crossval.txt").exists()


class TestAblate:
    def test_two_variant_table(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("ablate", "full", "w/o-g",
                       "--config", str(config_file),
                       "--set", "folds=2", "--out", str(out)) == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert lines[0] == "metric,full,w/o-g"
        assert len(lines) == 1 + 9  # 3 metrics x 3 cutoffs
        names = [line.split(",")[0] for line in lines[1:]]
        assert "recall@20" in names
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["variants"] == ["full", "w/o-g"]

    def test_variant_overrides_are_well_formed(self):
        base = TrainConfig()
        resolved = {name: base.copy().apply_strings(overrides)  # no raise
                    for name, overrides in ABLATION_VARIANTS.items()}
        assert resolved["w/-un"].noise_distribution == "uniform"
        assert resolved["w/o-f"].gamma == 0.0
        # an override that became a no-op would leave a variant equal to
        # full or to another variant
        tables = {name: tuple(cfg.to_strings().items())
                  for name, cfg in resolved.items()}
        assert len(set(tables.values())) == len(tables), tables


class TestDiagnose:
    def test_layer_grid_shape(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("diagnose", "layers", "--config", str(config_file),
                       "--set", "epochs_max=1", "--out", str(out)) == 0
        lines = (out / "layer_grid.csv").read_text().strip().split("\n")
        assert lines[0] == "view_a,view_b,ndcg20"
        assert len(lines) == 1 + 9  # (L=2 layers + avg)^2 cells

    def test_trajectory_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("diagnose", "trajectory", "--config", str(config_file),
                       "--out", str(out)) == 0
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,align,uniform"
        assert len(lines) == 1 + 3

    def test_failed_trajectory_keeps_finished_epochs(self, config_file,
                                                     tmp_path, capsys,
                                                     monkeypatch):
        import gclrec.trainer as tr
        from gclrec.diffcore import DiffError

        full = tmp_path / "full"
        assert run_cli("diagnose", "trajectory", "--config", str(config_file),
                       "--out", str(full)) == 0
        expected = (full / "trajectory.csv").read_text().split("\n")

        def diverge(*args, **kwargs):  # first called at epoch 2
            raise DiffError("non-finite gradient; training diverged")

        monkeypatch.setattr(tr, "evaluate_model", diverge)
        out = tmp_path / "out"
        assert run_cli("diagnose", "trajectory", "--config", str(config_file),
                       "--out", str(out)) == 4
        assert (out / "trajectory.csv").read_text() == \
            "\n".join(expected[:2]) + "\n"

    def test_gamma_sweep_values(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("diagnose", "gamma", "1", "2",
                       "--config", str(config_file),
                       "--set", "epochs_max=1", "--out", str(out)) == 0
        lines = (out / "gamma_sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "gamma,precision20,recall20,ndcg20"
        assert [line.split(",")[0] for line in lines[1:]] == ["1.0", "2.0"]

    def test_values_rejected_outside_gamma_mode(self, config_file, tmp_path,
                                                capsys):
        code = run_cli("diagnose", "layers", "2",
                       "--config", str(config_file),
                       "--out", str(tmp_path / "out"))
        assert code == 2


class TestTrialRunner:
    def test_commands_run_the_same_trial(self, config_file, tmp_path,
                                         capsys):
        def rows(command, name, *argv):
            out = tmp_path / command
            assert run_cli(*argv, "--config", str(config_file),
                           "--out", str(out)) == 0
            text = (out / name).read_text().strip().split("\n")
            return [line.split(",") for line in text[1:]]

        crossval = rows("crossval", "crossval.csv", "crossval")
        ablation = rows("ablate", "ablation.csv", "ablate", "full")
        gamma = rows("gamma", "gamma_sweep.csv", "diagnose", "gamma", "1")
        grid = rows("layers", "layer_grid.csv", "diagnose", "layers")

        by_key = {(r[0], r[1]): r[2:5] for r in crossval}
        for metric, value in ablation:
            name, k = metric.split("@")
            column = ("precision", "recall", "ndcg").index(name)
            assert value == by_key[("mean", k)][column]
        assert gamma == [["1.0"] + by_key[("0", "20")]]
        assert [r[2] for r in grid if r[:2] == ["avg", "1"]] == [
            by_key[("0", "20")][2]]


    def test_failed_sweep_keeps_finished_trials(self, config_file, tmp_path,
                                                capsys, monkeypatch):
        import gclrec.trainer as tr
        from gclrec.diffcore import DiffError

        full = tmp_path / "full"
        assert run_cli("crossval", "--config", str(config_file),
                       "--out", str(full)) == 0
        expected = (full / "trials.csv").read_text().split("\n")

        original, calls = tr.fit, []

        def diverge_in_trial_3(cfg, fold, on_epoch=None):
            calls.append(fold.fold_index)
            if len(calls) == 3:
                raise DiffError("non-finite gradient; training diverged")
            return original(cfg, fold, on_epoch=on_epoch)

        monkeypatch.setattr(tr, "fit", diverge_in_trial_3)
        out = tmp_path / "out"
        assert run_cli("crossval", "--config", str(config_file),
                       "--out", str(out)) == 4
        kept = expected[:1 + 2 * 3]  # header + 2 trials x 3 cutoffs
        assert (out / "trials.csv").read_text() == "\n".join(kept) + "\n"
        assert [row.split(",")[1] for row in kept[1:]] == ["0"] * 3 + ["1"] * 3
        # the manifest written before the first trial records what the
        # kept rows were trained with
        got, want = (json.loads((d / "manifest.json").read_text())
                     for d in (out, full))
        for key in ("config", "overrides", "dataset"):
            assert got[key] == want[key]

    @pytest.mark.parametrize("argv, message", [
        (("diagnose", "gamma", "1", "-1"), "gamma must be >= 0"),
        (("ablate", "full", "full"), "repeated trial: full"),
    ], ids=["negative-gamma", "repeated-variant"])
    def test_bad_trial_rejected_before_training(self, config_file, tmp_path,
                                                capsys, monkeypatch, argv,
                                                message):
        import gclrec.trainer as tr

        calls = []
        monkeypatch.setattr(tr, "fit", lambda *a, **kw: calls.append(a))
        assert run_cli(*argv, "--config", str(config_file),
                       "--out", str(tmp_path / "out")) == 2
        assert message in capsys.readouterr().err
        assert calls == []


class TestFormatTable:
    def test_alignment(self):
        text = _format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.strip().split("\n")
        assert lines[0] == "a    bb"
        assert lines[1] == "1    2"
        assert lines[2] == "333  4"
