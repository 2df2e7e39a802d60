"""Toy task, trainer determinism, and the integrated pipeline (short runs)."""

import numpy as np
import pytest

from slimgraph import build_mini_net, depgraph, pipeline, pruner
from slimgraph.errors import SlimgraphError, TrainingError
from slimgraph.pipeline import (ToyTask, TrainConfig, Trainer, evaluate, prune_recovery_study,
                                run_compression_pipeline, train, write_metric_log)


class TestToyTask:
    def test_same_seed_identical_bytes(self):
        a, b = ToyTask(seed=3), ToyTask(seed=3)
        assert a.train_images.tobytes() == b.train_images.tobytes()
        assert a.val_images.tobytes() == b.val_images.tobytes()
        assert np.array_equal(a.train_labels, b.train_labels)

    def test_different_seed_differs(self):
        assert ToyTask(seed=1).train_images.tobytes() != ToyTask(seed=2).train_images.tobytes()

    def test_classes_balanced_within_one(self):
        t = ToyTask(seed=0, n_train=50, n_val=25)
        for labels, n in ((t.train_labels, 50), (t.val_labels, 25)):
            counts = np.bincount(labels, minlength=3)
            assert counts.max() - counts.min() <= 1 and counts.sum() == n

    def test_images_in_unit_range(self):
        t = ToyTask(seed=0, n_train=8, n_val=4)
        for img in (t.train_images, t.val_images):
            assert img.dtype == np.float32
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_batches_deterministic_per_epoch(self):
        t = ToyTask(seed=0, n_train=16, n_val=4)
        a = [yb.tolist() for _, yb in t.batches(epoch=5, batch_size=4, seed=9)]
        b = [yb.tolist() for _, yb in t.batches(epoch=5, batch_size=4, seed=9)]
        c = [yb.tolist() for _, yb in t.batches(epoch=6, batch_size=4, seed=9)]
        assert a == b and a != c

    def test_class_count_bounds(self):
        with pytest.raises(TrainingError):
            ToyTask(n_classes=5)

    @pytest.mark.parametrize("split", [{"n_train": 0}, {"n_val": 0}], ids=["no-train", "no-val"])
    def test_empty_split_rejected(self, split):
        with pytest.raises(TrainingError, match="n_train and n_val >= 1"):
            ToyTask(**split)

    @pytest.mark.parametrize("size", [1, 40, 44])
    def test_image_too_small_for_the_largest_shape_rejected(self, size):
        with pytest.raises(TrainingError, match=f"size >= 45, got {size}"):
            ToyTask(size=size)

    def test_negative_seed_rejected(self):
        with pytest.raises(TrainingError, match="seed >= 0, got -1"):
            ToyTask(seed=-1)

    def test_smallest_legal_size_renders_every_seed(self):
        for seed in range(20):
            assert ToyTask(seed=seed, n_train=6, n_val=3, size=45).train_images.shape[-1] == 45


class TestTrainer:
    def small(self, seed=0):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=seed)
        task = ToyTask(seed=seed, n_train=16, n_val=8)
        return g, task

    def test_zero_lr_leaves_parameters_unchanged(self):
        g, task = self.small()
        cfg = TrainConfig(epochs=3, seed=0, lr=0.0)
        trained, _ = train(g, task, cfg)
        for nid, n in g.nodes.items():
            for pname in ("weight", "bias", "gamma", "beta", "scale"):
                if pname in n.params:
                    assert n.params[pname].tobytes() == trained.node(nid).params[pname].tobytes()

    def test_detection_heads_untouched_by_training(self):
        # the heads are not upstream of the classification loss: no gradient,
        # so the step skips them and they keep their initial bytes
        g, task = self.small()
        trained, _ = train(g, task, TrainConfig(epochs=2, seed=0, lr=0.05))
        moved = [nid for nid in g.nodes if nid.startswith("detect.") and any(
            arr.tobytes() != trained.node(nid).params[name].tobytes()
            for name, arr in g.node(nid).params.items())]
        assert any(nid.startswith("detect.") and g.node(nid).params for nid in g.nodes)
        assert moved == []
        assert g.node("s0.conv").params["weight"].tobytes() != \
            trained.node("s0.conv").params["weight"].tobytes()

    def test_same_seed_bit_identical_weights(self):
        g, task = self.small(seed=1)
        cfg = TrainConfig(epochs=4, seed=1)
        a, _ = train(g, task, cfg)
        b, _ = train(g, task, cfg)
        for nid, n in a.nodes.items():
            for pname, arr in n.params.items():
                assert arr.tobytes() == b.node(nid).params[pname].tobytes()

    def test_log_rows_cover_every_epoch(self, tmp_path):
        g, task = self.small()
        _, rows = train(g, task, TrainConfig(epochs=5, seed=0))
        assert [r[0] for r in rows] == list(range(5))
        assert all(r[3] == "dense" for r in rows)
        path = tmp_path / "log.csv"
        write_metric_log(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_acc,phase"
        assert len(lines) == 6

    def test_divergence_aborts_with_epoch(self):
        # batch-statistics normalization hides exploding weights from the
        # loss, so poison a weight directly to exercise the abort path
        g, task = self.small()
        g.node("s0.conv").params["weight"][0, 0, 0, 0] = np.nan
        with pytest.raises(TrainingError, match="epoch 0"):
            train(g, task, TrainConfig(epochs=8, seed=0))


class TestConfigValidation:
    def test_prune_epoch_bounds(self):
        with pytest.raises(TrainingError):
            TrainConfig(epochs=10, prune_epoch=10)
        with pytest.raises(TrainingError):
            TrainConfig(epochs=0)
        with pytest.raises(TrainingError):
            TrainConfig(epochs=10, channel_fraction=1.0)
        with pytest.raises(TrainingError):
            TrainConfig(epochs=10, qat_enabled=True, calibration_batches=0)
        with pytest.raises(TrainingError, match="batch_size must be >= 1"):
            TrainConfig(epochs=10, batch_size=0)
        with pytest.raises(TrainingError, match="channel_fraction 0.5 needs a prune_epoch"):
            TrainConfig(epochs=10, channel_fraction=0.5)

    @pytest.mark.parametrize("field, value", [
        ("lr", -0.5), ("lr", float("nan")), ("lr", float("inf")),
        ("momentum", 1.0), ("momentum", 1.5), ("momentum", -1.0), ("momentum", float("nan")),
    ])
    def test_optimizer_bounds(self, field, value):
        with pytest.raises(TrainingError, match=f"{field} must be"):
            TrainConfig(epochs=10, **{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(TrainingError, match="seed must be >= 0, got -1"):
            TrainConfig(epochs=10, seed=-1)
        TrainConfig(epochs=10, seed=0)

    def test_optimizer_edges_are_legal(self):
        TrainConfig(epochs=10, lr=0.0, momentum=0.0)


class TestPipeline:
    def test_degenerate_config_is_plain_training(self):
        task = ToyTask(seed=0, n_train=16, n_val=8)
        cfg = TrainConfig(epochs=3, seed=0)
        res = run_compression_pipeline("y11_mini", task, cfg)
        assert res.plan is None
        assert res.dense_report.params == res.slim_report.params
        assert res.slim_report.ratio_pct == 0.0

    def test_full_stage_order_and_artifacts(self):
        task = ToyTask(seed=0, n_train=16, n_val=8)
        cfg = TrainConfig(epochs=4, prune_epoch=2, channel_fraction=0.25,
                          qat_enabled=True, calibration_batches=1, seed=0)
        res = run_compression_pipeline("ecoweed_mini", task, cfg)
        # quantizers re-calibrated on the slim graph before fine-tuning
        from slimgraph.fakequant import quantizer_ids
        assert quantizer_ids(res.slim_graph)
        for qid in quantizer_ids(res.slim_graph):
            assert res.slim_graph.node(qid).attrs["phase"] == "active"
        phases = [r[3] for r in res.log]
        assert phases == ["dense", "dense", "pruned", "pruned"]
        assert res.slim_report.params < res.dense_report.params
        assert res.fp32_bytes[:4] == b"TWNM" and res.fp16_bytes[:4] == b"TWNM"
        assert 0.0 <= res.fp16_accuracy <= 1.0

    def test_pipeline_deterministic(self):
        task = ToyTask(seed=2, n_train=16, n_val=8)
        cfg = TrainConfig(epochs=3, prune_epoch=1, channel_fraction=0.2,
                          qat_enabled=True, calibration_batches=1, seed=2)
        a = run_compression_pipeline("y11_mini", task, cfg)
        b = run_compression_pipeline("y11_mini", task, cfg)
        assert a.fp32_bytes == b.fp32_bytes
        assert a.fp16_bytes == b.fp16_bytes

    def test_prune_resolves_the_groups_once(self, monkeypatch):
        calls = []

        def counting(graph):
            calls.append(graph)
            return depgraph.resolve_groups(graph)

        monkeypatch.setattr(pipeline, "resolve_groups", counting)
        monkeypatch.setattr(pruner, "resolve_groups", counting)
        task = ToyTask(seed=0, n_train=16, n_val=8)
        cfg = TrainConfig(epochs=2, prune_epoch=1, channel_fraction=0.5, seed=0)
        res = run_compression_pipeline("y11_mini", task, cfg)
        assert len(calls) == 1 and res.plan.removals

    def test_stage_boundary_recorded_in_failure(self):
        task = ToyTask(seed=0, n_train=16, n_val=8)
        cfg = TrainConfig(epochs=3, prune_epoch=1, channel_fraction=0.2,
                          qat_enabled=True, calibration_batches=1, seed=0)
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        g.node("s0.conv").params["weight"][0, 0, 0, 0] = np.nan
        with pytest.raises(SlimgraphError, match=r"\[stage "):
            run_compression_pipeline(g, task, cfg)

    def test_classifier_narrower_than_the_task_fails_before_training(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("training started")
        monkeypatch.setattr(Trainer, "_step", no_step)
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 2, seed=0)
        with pytest.raises(TrainingError, match="'cls' has 2 outputs, fewer than the task's 3"):
            run_compression_pipeline(g, ToyTask(seed=0, n_train=8, n_val=4), TrainConfig(epochs=1))

    def test_study_arms_equal_standalone_pipeline_runs(self, monkeypatch):
        # each arm branches off the shared QAT trunk; it must end exactly where a
        # standalone pipeline run pruning at the same epoch ends
        trainers = []

        class Recording(Trainer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                trainers.append(self)

        task_kwargs = {"n_train": 32, "n_val": 12}
        with monkeypatch.context() as m:
            m.setattr(pipeline, "Trainer", Recording)
            res = prune_recovery_study("ecoweed_mini", (3,), epochs=4, prune_epoch=2,
                                       fractions=(0.5,), early_epoch=1, late_epoch=3,
                                       base_fraction=0.5, task_kwargs=task_kwargs)
        arms = trainers[2:]  # after the plain baseline and the QAT trunk
        accs = (res.finetuned_acc[(3, 0.5)], res.early_acc[3], res.late_acc[3])
        assert len(arms) == 3
        for arm, acc, epoch in zip(arms, accs, (2, 1, 3)):
            solo = run_compression_pipeline(
                "ecoweed_mini", ToyTask(seed=3, **task_kwargs),
                TrainConfig(epochs=4, prune_epoch=epoch, channel_fraction=0.5,
                            qat_enabled=True, seed=3))
            final = arm.to_graph()
            assert acc == solo.final_accuracy
            assert list(final.nodes) == list(solo.slim_graph.nodes)
            for nid, n in solo.slim_graph.nodes.items():
                assert final.node(nid).attrs == n.attrs
                assert final.node(nid).params.keys() == n.params.keys()
                for name, arr in n.params.items():
                    got = final.node(nid).params[name]
                    assert got.dtype == arr.dtype and got.tobytes() == arr.tobytes(), (nid, name)

    def test_study_evaluates_only_the_base_arm_before_fine_tuning(self, monkeypatch):
        before = []  # accuracies read from a trainer that has not run an epoch yet

        class Counting(Trainer):
            tuned = False

            def run_epochs(self, *args):
                self.tuned = True
                return super().run_epochs(*args)

            def evaluate(self):
                acc = super().evaluate()
                if not self.tuned:
                    before.append(acc)
                return acc

        monkeypatch.setattr(pipeline, "Trainer", Counting)
        res = prune_recovery_study("ecoweed_mini", (3, 4), epochs=2, prune_epoch=1,
                                   fractions=(0.25, 0.5), early_epoch=0, late_epoch=1,
                                   base_fraction=0.5, task_kwargs={"n_train": 8, "n_val": 4})
        assert before == [res.nofinetune_acc[3], res.nofinetune_acc[4]]

    def test_each_accuracy_is_evaluated_once(self, monkeypatch):
        # an epoch's val_acc is the accuracy of the state it ends in, so a run
        # evaluates once per epoch, and again only where no epoch ran
        counts = {"epochs": 0, "evaluate": 0}
        run_epochs, evaluate_ = Trainer.run_epochs, Trainer.evaluate

        def counting_epochs(self, start, end, phase):
            counts["epochs"] += end - start
            return run_epochs(self, start, end, phase)

        def counting_evaluate(self):
            counts["evaluate"] += 1
            return evaluate_(self)

        monkeypatch.setattr(Trainer, "run_epochs", counting_epochs)
        monkeypatch.setattr(Trainer, "evaluate", counting_evaluate)
        task = ToyTask(seed=0, n_train=8, n_val=4)
        for prune_epoch, extra in ((1, 0), (0, 1)):  # no dense epoch: the dense graph is evaluated
            counts.update(epochs=0, evaluate=0)
            res = run_compression_pipeline("y11_mini", task, TrainConfig(
                epochs=2, prune_epoch=prune_epoch, channel_fraction=0.5, seed=0))
            assert counts == {"epochs": 2, "evaluate": 2 + extra}
            assert res.final_accuracy == res.slim_report.val_accuracy == res.log[-1][2]
            if prune_epoch:
                assert res.dense_report.val_accuracy == res.log[prune_epoch - 1][2]
        counts.update(epochs=0, evaluate=0)
        prune_recovery_study("ecoweed_mini", (3,), epochs=2, prune_epoch=1, fractions=(0.25, 0.5),
                             early_epoch=0, late_epoch=1, base_fraction=0.5,
                             task_kwargs={"n_train": 8, "n_val": 4})
        # one evaluation per epoch, and the base arm's before fine-tuning
        assert counts == {"epochs": 8, "evaluate": 9}

    @pytest.mark.parametrize("kwargs, match", [
        ({"epochs": 2, "prune_epoch": 3, "late_epoch": 4}, "prune_epoch 3 must lie inside"),
        ({"epochs": 4, "late_epoch": 4}, "late_epoch 4 must lie inside"),
        ({"epochs": 4, "early_epoch": -1}, "early_epoch -1 must lie inside"),
        ({"fractions": (0.25, 0.5), "base_fraction": 0.3}, "base_fraction 0.3 is not among"),
        ({"fractions": (0.3, 1.0)}, "fraction 1.0 must be in"),
        ({"task_kwargs": {"seed": 5}}, r"task_kwargs \['seed'\] are not ToyTask options"),
        ({"task_kwargs": {"n_tran": 5, "n_val": 4}}, r"task_kwargs \['n_tran'\]"),
        ({"task_kwargs": {"size": 44}}, "size >= 45, got 44"),
    ], ids=["prune-after-end", "late-at-end", "negative-early", "base-not-run", "whole-fraction",
            "task-seed", "task-misspelt", "task-too-small"])
    def test_study_rejects_what_it_cannot_run_before_training(self, monkeypatch, kwargs, match):
        def no_training(*args, **kw):
            raise AssertionError("training started")
        monkeypatch.setattr(pipeline, "Trainer", no_training)
        marks = {"epochs": 4, "prune_epoch": 2, "early_epoch": 1, "late_epoch": 3}
        with pytest.raises(TrainingError, match=match):
            prune_recovery_study("ecoweed_mini", (0,), **{**marks, **kwargs})

    def test_evaluate_standalone(self):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        task = ToyTask(seed=0, n_train=16, n_val=8)
        acc = evaluate(g, task)
        assert 0.0 <= acc <= 1.0
