"""Command-line contract: subcommands, artifacts, exit-code taxonomy."""

import numpy as np
import pytest

from conftest import container, split_container
from slimgraph.cli import run
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

    def test_qat_runs(self, model_path, tmp_path):
        out = tmp_path / "qat.twnm"
        assert run(["qat", "--model", str(model_path), "--epochs", "2",
                    "--batches", "1", "--seed", "0", "--out", str(out)]) == 0
        g, _ = load(out)
        from slimgraph.fakequant import quantizer_ids
        assert quantizer_ids(g)


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

    def test_env_seed_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SLIMGRAPH_SEED", "7")
        path = tmp_path / "m.twnm"
        assert run(["build", "--preset", "y11_mini", "--out", str(path)]) == 0
        assert "seed=7" in capsys.readouterr().out


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
