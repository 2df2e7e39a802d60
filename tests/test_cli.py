"""Command-line contract: subcommands, artifacts, exit-code taxonomy."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slimgraph
from conftest import container, split_container, uneven_weighted_graph
from slimgraph import cli, depgraph, fakequant, metrics, pipeline
from slimgraph.cli import run
from slimgraph.graph import infer_shapes
from slimgraph.modelio import load, save
from slimgraph.pruner import read_plan, write_plan


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "model.twnm"
    assert run(["build", "--preset", "y11_mini", "--classes", "3",
                "--seed", "0", "--out", str(path)]) == 0
    return path


class TestBuildTrainPrune:
    def test_build_creates_loadable_model(self, model_path):
        g, bits = load(model_path)
        assert bits == 32 and g.meta["preset"] == "y11_mini"

    def test_resolved_config_echoed(self, model_path, capsys):
        run(["inspect", "--model", str(model_path)])
        out = capsys.readouterr().out
        assert out.startswith("[slimgraph] inspect:")
        assert "model=" in out.splitlines()[0]

    def test_train_writes_log_and_model(self, model_path, tmp_path):
        out = tmp_path / "trained.twnm"
        log = tmp_path / "log.csv"
        code = run(["train", "--model", str(model_path), "--epochs", "2",
                    "--seed", "1", "--log", str(log), "--out", str(out)])
        assert code == 0
        assert log.read_text().startswith("epoch,train_loss,val_acc,phase")
        load(out)

    def test_prune_fraction_zero_byte_identical(self, model_path, tmp_path):
        out = tmp_path / "slim.twnm"
        assert run(["prune", "--model", str(model_path), "--fraction", "0",
                    "--out", str(out)]) == 0
        assert out.read_bytes() == model_path.read_bytes()

    def test_prune_writes_plan_and_smaller_model(self, model_path, tmp_path):
        out = tmp_path / "slim.twnm"
        plan_path = tmp_path / "plan.txt"
        assert run(["prune", "--model", str(model_path), "--fraction", "0.3",
                    "--plan-out", str(plan_path), "--out", str(out)]) == 0
        plan = read_plan(plan_path)
        assert plan.removals
        assert out.stat().st_size < model_path.stat().st_size

    def test_prune_of_a_nan_weight_exits_2(self, model_path, tmp_path, capsys):
        g, bits = load(model_path)
        next(n for n in g.nodes.values() if n.kind == "conv").params["weight"][0, 0] = np.nan
        save(g, bits, tmp_path / "nan.twnm")
        out = tmp_path / "slim.twnm"
        assert run(["prune", "--model", str(tmp_path / "nan.twnm"), "--fraction", "0.5",
                    "--out", str(out)]) == 2
        assert "NaN importance score" in capsys.readouterr().err and not out.exists()

    def test_rerun_is_byte_identical(self, model_path, tmp_path):
        a, b = tmp_path / "a.twnm", tmp_path / "b.twnm"
        for out in (a, b):
            assert run(["prune", "--model", str(model_path), "--fraction", "0.2",
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCalibrateQat:
    def test_calibrate_writes_sidecar(self, model_path, tmp_path):
        out = tmp_path / "calib.twnm"
        sidecar = tmp_path / "calib.txt"
        assert run(["calibrate", "--model", str(model_path), "--batches", "1",
                    "--seed", "0", "--calib-out", str(sidecar), "--out", str(out)]) == 0
        lines = sidecar.read_text().splitlines()
        assert lines[0].startswith("#")
        assert all("amax" in ln and "scale" in ln and "samples" in ln for ln in lines[1:])

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_activations_exit_2(self, model_path, tmp_path, capsys):
        g, _ = load(model_path)
        g.node("s0.conv").params["weight"][0, 0, 0, 0] = np.inf
        save(g, 32, model_path)
        assert run(["calibrate", "--model", str(model_path), "--batches", "1", "--seed", "0",
                    "--calib-out", str(tmp_path / "c.txt"), "--out", str(tmp_path / "c.twnm")]) == 2
        assert "non-finite activation" in capsys.readouterr().err

    @pytest.mark.parametrize("amax", [np.nan, np.inf])
    def test_train_on_non_finite_amax_exits_2_naming_the_quantizer(self, model_path, tmp_path,
                                                                    capsys, amax):
        calibrated = tmp_path / "calib.twnm"
        assert run(["calibrate", "--model", str(model_path), "--batches", "1", "--seed", "0",
                    "--out", str(calibrated)]) == 0
        g, bits = load(calibrated)
        from slimgraph.fakequant import quantizer_ids
        qid = quantizer_ids(g)[0]
        g.node(qid).params["amax"][0] = amax
        save(g, bits, calibrated)
        out = tmp_path / "t.twnm"
        assert run(["train", "--model", str(calibrated), "--epochs", "1", "--out", str(out)]) == 2
        assert f"quantizer '{qid}' is active but its amax" in capsys.readouterr().err
        assert not out.exists()

    def test_qat_runs(self, model_path, tmp_path):
        out = tmp_path / "qat.twnm"
        assert run(["qat", "--model", str(model_path), "--epochs", "2",
                    "--batches", "1", "--seed", "0", "--out", str(out)]) == 0
        g, _ = load(out)
        from slimgraph.fakequant import quantizer_ids
        assert quantizer_ids(g)

    @pytest.mark.parametrize("cmd", [["train"], ["qat", "--batches", "1"]], ids=["train", "qat"])
    def test_classifier_narrower_than_the_task_exits_2_before_training(self, tmp_path, capsys,
                                                                       cmd):
        path = tmp_path / "two.twnm"
        assert run(["build", "--preset", "y11_mini", "--classes", "2", "--out", str(path)]) == 0
        doc, blob = split_container(path.read_bytes())
        doc["meta"]["n_classes"] = 3
        path.write_bytes(container(doc, blob))
        out, log = tmp_path / "t.twnm", tmp_path / "t.csv"
        assert run(cmd + ["--model", str(path), "--epochs", "1",
                          "--log", str(log), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "classifier 'cls' has 2 outputs, fewer than the task's 3 classes" in err
        assert not out.exists() and not log.exists()


class TestVerify:
    def make_pair(self, model_path, tmp_path, fraction="0.3"):
        slim = tmp_path / f"slim{fraction}.twnm"
        plan = tmp_path / f"plan{fraction}.txt"
        run(["prune", "--model", str(model_path), "--fraction", fraction,
             "--plan-out", str(plan), "--out", str(slim)])
        return slim, plan

    def test_verify_passes_on_consistent_pair(self, model_path, tmp_path):
        slim, plan = self.make_pair(model_path, tmp_path)
        assert run(["verify", "--dense", str(model_path), "--slim", str(slim),
                    "--plan", str(plan), "--trials", "5", "--tol", "1e-5"]) == 0

    def test_out_of_range_plan_exits_2_with_group_id(self, model_path, tmp_path, capsys):
        slim, plan_path = self.make_pair(model_path, tmp_path)
        plan = read_plan(plan_path)
        gid = next(iter(plan.removals))
        plan.removals[gid] = (9999,)
        write_plan(plan, plan_path)
        assert run(["verify", "--dense", str(model_path), "--slim", str(slim),
                    "--plan", str(plan_path), "--trials", "2", "--tol", "1e-5"]) == 2
        assert gid in capsys.readouterr().err

    def test_unordered_plan_exits_2_with_group_id(self, model_path, tmp_path, capsys):
        slim, plan_path = self.make_pair(model_path, tmp_path)
        plan = read_plan(plan_path)
        gid = next(gid for gid, idxs in plan.removals.items() if len(idxs) > 1)
        plan.removals[gid] = plan.removals[gid][::-1]
        write_plan(plan, plan_path)
        assert run(["verify", "--dense", str(model_path), "--slim", str(slim),
                    "--plan", str(plan_path), "--trials", "2", "--tol", "1e-5"]) == 2
        err = capsys.readouterr().err
        assert gid in err and "not in increasing order" in err

    def test_malformed_plan_exits_2_naming_the_line(self, model_path, tmp_path, capsys):
        slim, plan_path = self.make_pair(model_path, tmp_path)
        plan_path.write_text(plan_path.read_text() + "group g001.s0 remove 1,a\n")
        assert run(["verify", "--dense", str(model_path), "--slim", str(slim),
                    "--plan", str(plan_path), "--trials", "2", "--tol", "1e-5"]) == 2
        assert "remove 1,a" in capsys.readouterr().err

    def test_mismatched_slim_exits_2(self, model_path, tmp_path):
        _, plan = self.make_pair(model_path, tmp_path, fraction="0.3")
        other, _ = self.make_pair(model_path, tmp_path, fraction="0.1")
        assert run(["verify", "--dense", str(model_path), "--slim", str(other),
                    "--plan", str(plan), "--trials", "2", "--tol", "1e-5"]) == 2

    def test_renamed_slim_output_exits_2_naming_it(self, model_path, tmp_path, capsys):
        slim, plan = self.make_pair(model_path, tmp_path)
        g, bits = load(slim)
        cls = g.nodes.pop("cls")
        cls.id = "logits"
        g.nodes["logits"] = cls
        save(g, bits, slim)
        assert run(["verify", "--dense", str(model_path), "--slim", str(slim),
                    "--plan", str(plan), "--trials", "2", "--tol", "1e-5"]) == 2
        assert "output 'cls' does not match: dense shape (1, 3), slim missing" in \
            capsys.readouterr().err

    def test_reshaped_slim_output_exits_2_naming_it(self, model_path, tmp_path, capsys):
        slim, plan = self.make_pair(model_path, tmp_path)
        g, bits = load(slim)
        g.node(g.node("det0").inputs[0][0]).attrs["stride"] = 2
        save(g, bits, slim)
        assert run(["verify", "--dense", str(model_path), "--slim", str(slim),
                    "--plan", str(plan), "--trials", "2", "--tol", "1e-5"]) == 2
        err = capsys.readouterr().err
        assert "output 'det0' does not match: dense shape" in err and "slim shape" in err

    def test_non_finite_slim_outputs_exit_2_naming_the_output(self, model_path, tmp_path,
                                                               capsys):
        slim, plan = self.make_pair(model_path, tmp_path, fraction="0.5")
        g, bits = load(slim)
        for n in g.nodes.values():
            if n.kind == "conv":
                n.params["weight"][...] = np.nan
        save(g, bits, slim)
        with np.errstate(invalid="ignore"):
            code = run(["verify", "--dense", str(model_path), "--slim", str(slim),
                        "--plan", str(plan), "--trials", "2", "--tol", "1e-5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "is not finite" in err and "output" in err

    def test_non_finite_weight_on_a_small_map_exits_2(self, model_path, tmp_path, capsys):
        slim, plan = self.make_pair(model_path, tmp_path, fraction="0.5")
        g, bits = load(slim)
        shapes = infer_shapes(g)
        conv = next(n for n in g.nodes.values() if n.kind == "conv"
                    and n.params["weight"].shape[2] == 3 and np.prod(shapes[n.inputs[0]][2:]) <= 64)
        conv.params["weight"][0, 0, 1, 1] = np.inf  # later convs read non-finite small maps
        save(g, bits, slim)
        with np.errstate(invalid="ignore", over="ignore"):
            code = run(["verify", "--dense", str(model_path), "--slim", str(slim),
                        "--plan", str(plan), "--trials", "2", "--tol", "1e-5"])
        assert code == 2
        assert "is not finite" in capsys.readouterr().err


class TestReportInspect:
    def test_report_table(self, model_path, tmp_path, capsys):
        slim = tmp_path / "slim.twnm"
        run(["prune", "--model", str(model_path), "--fraction", "0.4", "--out", str(slim)])
        csv_path = tmp_path / "report.csv"
        assert run(["report", "--models", str(model_path), str(slim),
                    "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "ratio_pct" in out and "pruned" in out
        assert csv_path.read_text().count("\n") >= 3
        graphs = [load(p)[0] for p in (model_path, slim)]
        csv_text, table = metrics.emit_report([metrics.build_report(
            g, dense_params=metrics.count_params(graphs[0]), precision_bits=32) for g in graphs])
        assert csv_path.read_bytes() == csv_text.encode("utf-8") and out.endswith(table)

    def test_report_csv_to_stdout_on_a_regular_file(self, model_path, tmp_path):
        """``--csv /dev/stdout`` with stdout on a file: the echo, the CSV, then the table,
        all in the file the shell opened."""
        src = Path(slimgraph.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = tmp_path / "out.txt"
        with open(out, "wb") as f:
            inode = os.fstat(f.fileno()).st_ino
            proc = subprocess.run([sys.executable, "-m", "slimgraph.cli", "report", "--models",
                                   str(model_path), "--csv", "/dev/stdout"],
                                  env=env, stdout=f, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 0, proc.stderr
        csv_text, table = metrics.emit_report([metrics.build_report(
            load(model_path)[0], dense_params=None, precision_bits=32)])
        echo = f"[slimgraph] report: cmd='report' csv='/dev/stdout' models=[{str(model_path)!r}]\n"
        assert out.read_text() == echo + csv_text + table
        assert os.stat(out).st_ino == inode and sorted(os.listdir(tmp_path)) == [
            "model.twnm", "out.txt"]

    def test_report_labels_the_built_input_size(self, tmp_path, capsys):
        path = tmp_path / "m128.twnm"
        assert run(["build", "--preset", "y11_mini", "--input-size", "128",
                    "--out", str(path)]) == 0
        capsys.readouterr()
        assert run(["report", "--models", str(path)]) == 0
        table = capsys.readouterr().out
        assert "128x128" in table and "64x64" not in table

    def test_inspect_dumps_groups(self, model_path, capsys):
        assert run(["inspect", "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "protected" in out and "params/ch=" in out

    def test_inspect_prints_the_cost_range_of_uneven_classes(self, tmp_path, capsys):
        path = tmp_path / "uneven.twnm"
        save(uneven_weighted_graph(), 32, path)
        assert run(["inspect", "--model", str(path)]) == 0
        assert " len=2 free params/ch=17..18\n" in capsys.readouterr().out


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        assert run(["build", "--preset", "y11_mini", "--bogus", "1"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_usage_error_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_io_error_missing_model(self, tmp_path):
        assert run(["inspect", "--model", str(tmp_path / "nope.twnm")]) == 3

    def test_format_error_corrupt_file(self, tmp_path, model_path):
        bad = tmp_path / "bad.twnm"
        data = bytearray(model_path.read_bytes())
        data[-2] ^= 0xFF
        bad.write_bytes(bytes(data))
        assert run(["inspect", "--model", str(bad)]) == 3

    def test_format_error_malformed_topology(self, tmp_path, model_path, capsys):
        doc, blob = split_container(model_path.read_bytes())
        doc["nodes"][1]["kind"] = "deconv"
        bad = tmp_path / "bad.twnm"
        bad.write_bytes(container(doc, blob))
        assert run(["inspect", "--model", str(bad)]) == 3
        assert "unknown node kind 'deconv'" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, kind, attr, value", [
        ("report", "activation", "fn", "relu"),
        ("inspect", "split", "sizes", [8.0, 8]),
    ])
    def test_format_error_bad_attr(self, tmp_path, model_path, capsys, cmd, kind, attr, value):
        doc, blob = split_container(model_path.read_bytes())
        next(nd for nd in doc["nodes"] if nd["kind"] == kind)["attrs"][attr] = value
        bad = tmp_path / "bad.twnm"
        bad.write_bytes(container(doc, blob))
        args = ["--models", str(bad)] if cmd == "report" else ["--model", str(bad)]
        assert run([cmd] + args) == 3
        assert f"attr {attr!r} = {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, key, value", [
        ("train", "n_classes", "3"), ("train", "cls_output", ["cls"]), ("report", "stage", 5),
    ])
    def test_format_error_meta_of_the_wrong_type(self, tmp_path, model_path, capsys,
                                                 cmd, key, value):
        doc, blob = split_container(model_path.read_bytes())
        doc["meta"][key] = value
        bad = tmp_path / "bad.twnm"
        bad.write_bytes(container(doc, blob))
        args = ["--models", str(bad)] if cmd == "report" else ["--model", str(bad), "--epochs", "1"]
        assert run([cmd] + args) == 3
        assert f"meta field {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["inspect", "report"])
    def test_format_error_pool_padding_beyond_half_the_window(self, tmp_path, model_path,
                                                              capsys, cmd):
        doc, blob = split_container(model_path.read_bytes())
        pool = next(nd for nd in doc["nodes"] if nd["kind"] == "maxpool")
        pool["attrs"]["padding"] = pool["attrs"]["k"] // 2 + 1
        bad = tmp_path / "bad.twnm"
        bad.write_bytes(container(doc, blob))
        args = ["--models", str(bad)] if cmd == "report" else ["--model", str(bad)]
        assert run([cmd] + args) == 3
        assert f"padding {pool['attrs']['padding']} exceeds k // 2" in capsys.readouterr().err

    @pytest.mark.parametrize("env, argv, code, message", [
        ({}, "build --preset y11_mini --input-size 60 --out {out}", 2, "divisible by 32"),
        ({}, "build --preset y11_mini --classes 5 --out {out}", 2, "2 or 3 classes"),
        ({}, "prune --model {model} --fraction 1.5 --out {out}", 2, "got 1.5"),
        ({}, "prune --model {model} --fraction -0.1 --out {out}", 2, "got -0.1"),
        ({}, "prune --model {model} --fraction nan --out {out}", 2, "got nan"),
        ({}, "train --model {model} --epochs 0", 2, "epochs must be >= 1"),
        ({}, "train --model {model} --epochs 1 --batch-size 0", 2, "batch_size must be >= 1"),
        ({}, "train --model {model} --epochs 1 --batch-size -4", 2, "batch_size must be >= 1"),
        ({}, "calibrate --model {model} --batches 0 --out {out}", 2, "at least one batch"),
        ({}, "qat --model {model} --epochs 1 --batch-size 0 --out {out}", 2,
         "batch_size must be >= 1"),
        ({}, "verify --dense {model} --slim {slim} --plan {plan} --trials 0", 2,
         "--trials must be >= 1"),
        ({}, "pipeline --preset y11_mini --epochs 2 --prune-epoch 5 --out-dir {out}", 2,
         "prune_epoch 5"),
        ({}, "pipeline --preset y11_mini --epochs 1 --qat --calibration-batches 0 "
             "--out-dir {out}", 2, "calibration batch"),
        ({"SLIMGRAPH_SEED": "abc"}, "build --preset y11_mini --out {out}", 1, "SLIMGRAPH_SEED"),
        ({}, "train --model {model} --epochs 1 --lr -0.5 --out {out}", 2,
         "lr must be finite and >= 0, got -0.5"),
        ({}, "train --model {model} --epochs 1 --lr nan --out {out}", 2, "got nan"),
        ({}, "train --model {model} --epochs 1 --momentum 1.5 --out {out}", 2,
         "momentum must be in [0, 1), got 1.5"),
        ({}, "qat --model {model} --epochs 1 --lr -0.5 --out {out}", 2, "got -0.5"),
        ({}, "qat --model {model} --epochs 1 --lr nan --out {out}", 2, "got nan"),
        ({}, "qat --model {model} --epochs 1 --momentum 1.5 --out {out}", 2, "got 1.5"),
        ({}, "pipeline --preset y11_mini --epochs 1 --lr -0.5 --out-dir {out}", 2, "got -0.5"),
        ({}, "pipeline --preset y11_mini --epochs 1 --lr nan --out-dir {out}", 2, "got nan"),
        ({}, "verify --dense {model} --slim {slim} --plan {plan} --tol nan", 2,
         "--tol must be finite and >= 0, got nan"),
        ({}, "verify --dense {model} --slim {slim} --plan {plan} --tol -0.5", 2, "got -0.5"),
        ({}, "verify --dense {model} --slim {slim} --plan {plan} --tol inf", 2, "got inf"),
        ({}, "pipeline --preset y11_mini --fraction 0.5 --epochs 1 --out-dir {out}", 2,
         "needs a prune_epoch"),
        ({}, "pipeline --preset y11_mini --classes 5 --epochs 1 --out-dir {out}", 2,
         "supports 2..3 classes, got 5"),
    ])
    def test_out_of_range_value_exit_code(self, model_path, tmp_path, monkeypatch, capsys,
                                          env, argv, code, message):
        for k, v in env.items():
            monkeypatch.setenv(k, v)
        slim, plan = tmp_path / "slim.twnm", tmp_path / "plan.txt"
        if "{slim}" in argv:
            assert run(["prune", "--model", str(model_path), "--fraction", "0.3",
                        "--plan-out", str(plan), "--out", str(slim)]) == 0
        out = tmp_path / "out"
        assert run(argv.format(model=model_path, slim=slim, plan=plan, out=out).split()) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "build --preset y11_mini {seed} --out {out}",
        "train --model {model} --epochs 1 {seed} --out {out}",
        "qat --model {model} --epochs 1 {seed} --out {out}",
        "calibrate --model {model} {seed} --out {out}",
        "pipeline --preset y11_mini --epochs 1 {seed} --out-dir {out}",
        "verify --dense {model} --slim {model} --plan {out} {seed}",
    ], ids=lambda argv: argv.split()[0])
    @pytest.mark.parametrize("env, seed, message", [
        ({}, "--seed -3", "usage error: argument --seed: must be >= 0, got -3"),
        ({"SLIMGRAPH_SEED": "-5"}, "", "usage error: SLIMGRAPH_SEED must be an integer >= 0, got '-5'"),
    ], ids=["flag", "env"])
    def test_negative_seed_is_a_usage_error(self, model_path, tmp_path, monkeypatch, capsys,
                                            argv, env, seed, message):
        for k, v in env.items():
            monkeypatch.setenv(k, v)
        out = tmp_path / "out"
        assert run(argv.format(model=model_path, out=out, seed=seed).split()) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_1_without_a_traceback(self, tmp_path):
        src = Path(slimgraph.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "slimgraph.cli", "build", "--preset", "y11_mini",
                               "--seed", "-3", "--out", str(tmp_path / "m.twnm")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert "--seed: must be >= 0" in proc.stderr

    OUTPUT_FLAGS = [pytest.param(cmd, flag, id=f"{flag}-{cmd}") for cmd, flag in [
        ("train", "--log"), ("qat", "--log"), ("train", "--out"), ("qat", "--out"),
        ("build", "--out"), ("calibrate", "--calib-out"), ("calibrate", "--out"),
        ("prune", "--plan-out"), ("prune", "--out"), ("report", "--csv")]]

    @staticmethod
    def _no_work_argv(monkeypatch, model_path, out, cmd, flag):
        """``cmd``'s argv, but for ``flag``, with every body's first work made to raise."""
        def no_work(*args, **kwargs):
            raise AssertionError("work started")
        monkeypatch.setattr(pipeline.Trainer, "run_epochs", no_work)
        monkeypatch.setattr(fakequant, "calibrate", no_work)
        monkeypatch.setattr(cli, "build_mini_net", no_work)
        monkeypatch.setattr(depgraph, "resolve_groups", no_work)
        monkeypatch.setattr(metrics, "build_report", no_work)
        monkeypatch.setattr(pipeline, "ToyTask", no_work)
        argv = {"build": ["--preset", "y11_mini"], "report": ["--models", str(model_path)],
                "calibrate": [], "prune": ["--fraction", "0.5"],
                "train": ["--epochs", "1"], "qat": ["--epochs", "1"],
                "pipeline": ["--preset", "y11_mini", "--epochs", "1"]}[cmd]
        if cmd not in ("build", "report", "pipeline"):
            argv += ["--model", str(model_path)]
        if flag != "--out" and cmd not in ("report", "pipeline"):
            argv += ["--out", str(out)]
        return [cmd] + argv

    @pytest.mark.parametrize("cmd, flag", OUTPUT_FLAGS)
    def test_missing_output_directory_fails_before_any_work(self, model_path, tmp_path, monkeypatch,
                                                            capsys, cmd, flag):
        missing = tmp_path / "nodir" / "x"
        out = tmp_path / "m.twnm"
        argv = self._no_work_argv(monkeypatch, model_path, out, cmd, flag)
        assert run(argv + [flag, str(missing)]) == 3
        assert f"i/o error: no directory to write {str(missing)!r} into" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd, flag", OUTPUT_FLAGS)
    def test_link_into_a_missing_directory_fails_before_any_work(self, model_path, tmp_path,
                                                                 monkeypatch, capsys, cmd, flag):
        # the link's own directory exists; the check once passed, and the write failed
        # after the work, naming its temp file
        link, target = tmp_path / "l.twnm", tmp_path / "nodir" / "x.twnm"
        link.symlink_to(target)
        before = sorted(os.listdir(tmp_path))
        argv = self._no_work_argv(monkeypatch, model_path, tmp_path / "m.twnm", cmd, flag)
        assert run(argv + [flag, str(link)]) == 3
        assert (f"i/o error: no directory to write {str(link)!r} (a link to {str(target)!r})"
                in capsys.readouterr().err)
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("cmd, flag", OUTPUT_FLAGS + [
        pytest.param("pipeline", "--out-dir", id="--out-dir-pipeline")])
    def test_empty_output_path_fails_before_any_work(self, model_path, tmp_path, monkeypatch,
                                                     capsys, cmd, flag):
        # an empty --out once built, then made its temp file in the parent of the working
        # directory and failed; an empty --log wrote nothing and exited 0
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        before = {d: sorted(os.listdir(d)) for d in (work, tmp_path)}
        argv = self._no_work_argv(monkeypatch, model_path, work / "m.twnm", cmd, flag)
        assert run(argv + [flag, ""]) == 3
        assert f"i/o error: {flag} is empty" in capsys.readouterr().err
        assert {d: sorted(os.listdir(d)) for d in (work, tmp_path)} == before

    @pytest.mark.parametrize("cmd, flag", OUTPUT_FLAGS)
    def test_output_path_naming_a_directory_fails_before_any_work(self, model_path, tmp_path,
                                                                  monkeypatch, capsys, cmd, flag):
        # caught before any work: each body would fail only when it writes
        work = tmp_path / "work"
        (work / "sub").mkdir(parents=True)
        monkeypatch.chdir(work)
        before = {d: sorted(os.listdir(d)) for d in (work, work / "sub", tmp_path)}
        argv = self._no_work_argv(monkeypatch, model_path, work / "m.twnm", cmd, flag)
        assert run(argv + [flag, "sub"]) == 3
        assert f"i/o error: {flag} 'sub' is a directory" in capsys.readouterr().err
        assert {d: sorted(os.listdir(d)) for d in (work, work / "sub", tmp_path)} == before

    @pytest.mark.parametrize("argv", [
        "inspect --model {model}",
        "report --models {model}",
        "prune --model {model} --fraction 0.5 --out {out}",
        "build --preset y11_mini --seed 3 --out {out}",
    ], ids=lambda argv: argv.split()[0])
    def test_env_seed_is_read_only_where_a_seed_is_taken_and_not_given(
            self, model_path, tmp_path, monkeypatch, capsys, argv):
        # only a subcommand that takes --seed, and is not given one, reads the variable
        monkeypatch.setenv("SLIMGRAPH_SEED", "abc")
        assert run(argv.format(model=model_path, out=tmp_path / "out.twnm").split()) == 0
        echo = capsys.readouterr().out.splitlines()[0]
        assert ("seed=3" in echo) == ("--seed" in argv) and "seed=0" not in echo

    def test_env_seed_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SLIMGRAPH_SEED", "7")
        path = tmp_path / "m.twnm"
        assert run(["build", "--preset", "y11_mini", "--out", str(path)]) == 0
        assert "seed=7" in capsys.readouterr().out


GOLDEN = Path(__file__).parent / "golden"

ECHO = {  # argv that fails right after the echo, and the echoed line
    "build": ("build --preset y11_mini --classes 5 --out m.twnm", 2,
              "build: classes=5 cmd='build' input_size=64 out='m.twnm' preset='y11_mini' seed=0"),
    "train": ("train --model missing.twnm --epochs 1 --log t.csv --out t.twnm", 3,
              "train: batch_size=16 cmd='train' epochs=1 log='t.csv' lr=0.015 "
              "model='missing.twnm' momentum=0.9 out='t.twnm' seed=0"),
    "prune": ("prune --model missing.twnm --fraction 0.5 --plan-out p.txt --out s.twnm", 3,
              "prune: cmd='prune' fraction=0.5 model='missing.twnm' out='s.twnm' plan_out='p.txt'"),
    "calibrate": ("calibrate --model missing.twnm --calib-out c.txt --out c.twnm", 3,
                  "calibrate: batches=2 calib_out='c.txt' cmd='calibrate' model='missing.twnm' "
                  "out='c.twnm' seed=0"),
    "qat": ("qat --model missing.twnm --epochs 1 --batches 1 --log q.csv --out q.twnm", 3,
            "qat: batch_size=16 batches=1 cmd='qat' epochs=1 log='q.csv' lr=0.015 "
            "model='missing.twnm' momentum=0.9 out='q.twnm' seed=0"),
    "pipeline": ("pipeline --preset y11_mini --classes 5 --epochs 2 --qat --out-dir run", 2,
                 "pipeline: batch_size=16 calibration_batches=2 classes=5 cmd='pipeline' epochs=2 "
                 "fraction=0.0 lr=0.015 out_dir='run' preset='y11_mini' prune_epoch=None "
                 "qat=True seed=0"),
    "verify": ("verify --dense missing.twnm --slim s.twnm --plan p.txt --trials 3", 3,
               "verify: cmd='verify' dense='missing.twnm' plan='p.txt' seed=0 slim='s.twnm' "
               "tol=1e-05 trials=3"),
    "report": ("report --models missing.twnm s.twnm --csv r.csv", 3,
               "report: cmd='report' csv='r.csv' models=['missing.twnm', 's.twnm']"),
    "inspect": ("inspect --model missing.twnm", 3, "inspect: cmd='inspect' model='missing.twnm'"),
}


class TestSurface:
    """The help texts and the echoed configuration line, pinned byte for byte."""

    @pytest.mark.parametrize("cmd", ["slimgraph", *ECHO])
    def test_help_matches_the_golden(self, monkeypatch, capsys, cmd):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_:
            run(([] if cmd == "slimgraph" else [cmd]) + ["--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == (GOLDEN / f"{cmd}.help.txt").read_text()

    @pytest.mark.parametrize("cmd", ECHO)
    def test_echoed_line_matches_the_golden(self, tmp_path, monkeypatch, capsys, cmd):
        monkeypatch.delenv("SLIMGRAPH_SEED", raising=False)
        monkeypatch.chdir(tmp_path)
        argv, code, line = ECHO[cmd]
        assert run(argv.split()) == code
        assert capsys.readouterr().out.splitlines()[0] == f"[slimgraph] {line}"
        assert not list(tmp_path.iterdir())


# A valid argv per subcommand. Sizes stay small whatever is drawn: epochs and batch
# counts <= 2, --batch-size <= 64, --trials <= 3 (calibration materialises every batch).
FUZZ = {
    "build": "--preset y11_mini --classes 3 --input-size 64 --seed 0 --out m.twnm",
    "train": "--model {dense} --epochs 1 --seed 0 --lr 0.015 --momentum 0.9 --batch-size 16 "
             "--log t.csv --out t.twnm",
    "prune": "--model {dense} --fraction 0.5 --plan-out p.txt --out s.twnm",
    "calibrate": "--model {dense} --batches 1 --seed 0 --calib-out c.txt --out c.twnm",
    "qat": "--model {dense} --epochs 1 --batches 2 --seed 0 --lr 0.015 --momentum 0.9 "
           "--batch-size 64 --log q.csv --out q.twnm",
    "pipeline": "--qat --preset y11_mini --classes 3 --fraction 0.5 --prune-epoch 0 --epochs 1 "
                "--calibration-batches 1 --seed 0 --lr 0.015 --batch-size 16 --out-dir run",
    "verify": "--dense {dense} --slim {slim} --plan {plan} --trials 3 --tol 1e-5 --seed 0",
    "report": "--models {dense} {slim} --csv r.csv",
    "inspect": "--model {dense}",
}
# negative, zero, non-finite, empty, a missing file (or directory), a directory; None drops the flag
BOUNDARY = ["-1", "0", "nan", "inf", "", "nodir/missing", "sub", None]


@pytest.fixture(scope="module")
def fuzz_models(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    paths = {"dense": d / "m.twnm", "slim": d / "s.twnm", "plan": d / "p.txt"}
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["build", "--preset", "y11_mini", "--out", str(paths["dense"])]) == 0
        assert run(["prune", "--model", str(paths["dense"]), "--fraction", "0.5",
                    "--plan-out", str(paths["plan"]), "--out", str(paths["slim"])]) == 0
    return paths


class TestFlagFuzz:
    """Every flag at its boundary: each run ends in a documented exit code, never a traceback."""

    @pytest.mark.parametrize("cmd", FUZZ)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_boundary_values_exit_with_a_code(self, fuzz_models, cmd, data):
        flags = {}  # flag -> its values (none for a switch)
        for tok in FUZZ[cmd].format(**fuzz_models).split():
            if tok.startswith("--"):
                flag = tok
                flags[flag] = []
            else:
                flags[flag].append(tok)
        drawn = data.draw(st.dictionaries(st.sampled_from([f for f, v in flags.items() if v]),
                                          st.sampled_from(BOUNDARY), max_size=3))
        for flag, value in drawn.items():
            flags[flag] = None if value is None else [value]
        argv = [cmd] + [tok for flag, values in flags.items() if values is not None
                        for tok in [flag, *values]]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory(dir=fuzz_models["dense"].parent) as d:
            os.mkdir(os.path.join(d, "sub"))
            cwd = os.getcwd()
            os.chdir(d)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(argv)
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 2, 3), argv
        # a failure says why: on stderr, or in verify's tolerance verdict on stdout
        assert code == 0 or err.getvalue() or "worst relative deviation" in out.getvalue(), argv
        assert "Traceback" not in err.getvalue(), argv


class TestPipelineCommand:
    def test_artifact_set_and_determinism(self, tmp_path):
        outdir = tmp_path / "run1"
        args = ["pipeline", "--preset", "y11_mini", "--fraction", "0.25",
                "--prune-epoch", "1", "--epochs", "2", "--qat",
                "--calibration-batches", "1", "--seed", "0"]
        assert run(args + ["--out-dir", str(outdir)]) == 0
        names = {"model_fp32.twnm", "model_fp16.twnm", "plan.txt", "calib.txt",
                 "metrics.csv", "report.csv", "report.txt"}
        assert names <= {p.name for p in outdir.iterdir()}
        outdir2 = tmp_path / "run2"
        assert run(args + ["--out-dir", str(outdir2)]) == 0
        for name in ("model_fp32.twnm", "model_fp16.twnm", "plan.txt",
                     "metrics.csv", "report.csv"):
            assert (outdir / name).read_bytes() == (outdir2 / name).read_bytes(), name

    def test_report_ratio_matches_param_arithmetic(self, tmp_path):
        outdir = tmp_path / "run"
        assert run(["pipeline", "--preset", "y11_mini", "--fraction", "0.3",
                    "--prune-epoch", "1", "--epochs", "2", "--qat",
                    "--calibration-batches", "1", "--seed", "0",
                    "--out-dir", str(outdir)]) == 0
        lines = (outdir / "report.csv").read_text().splitlines()
        header = lines[1].split(",")
        dense = dict(zip(header, lines[2].split(",")))
        slim = dict(zip(header, lines[3].split(",")))
        expect = round(100 * (1 - int(slim["params"]) / int(dense["params"])), 1)
        assert float(slim["ratio_pct"]) == expect
