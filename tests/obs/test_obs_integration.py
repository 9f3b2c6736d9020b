"""End-to-end telemetry: one run covering attack training through eval,
plus a same-seed two-run diff with zero deterministic deltas."""

import os
import subprocess
import sys

import pytest

from repro.attack.config import AttackConfig
from repro.attack.trainer import train_patch_attack
from repro.detection.config import reduced_config
from repro.detection.model import TinyYolo
from repro.eval.protocol import run_challenge
from repro.obs import Metrics, Run, build_tree, diff_runs, load_run, render_run
from repro.runtime import DivergenceError, DivergenceGuard
from repro.scene.video import AttackScenario
from repro.utils.logging import TrainLog

pytestmark = pytest.mark.obs

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

TINY_ATTACK = dict(steps=2, warmup_steps=1, batch_frames=3, frame_pool=3,
                   gan_batch=4, k=20)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny attack + detector shared by every test in this module."""
    model = TinyYolo(reduced_config(input_size=64, width_multiplier=0.25), seed=0)
    scenario = AttackScenario(image_size=64)
    config = AttackConfig(**TINY_ATTACK)
    directory = str(tmp_path_factory.mktemp("train_run"))
    with Run(directory, name="attack-eval", config=config,
             seeds={"attack": config.seed}) as run:
        artifact = train_patch_attack(model, scenario, config, obs=run)
        run_challenge(model, scenario, "rotation/fix", artifact=artifact,
                      n_runs=1, seed=0, obs=run)
    return model, scenario, artifact, directory


class TestFullTrace:
    def test_span_tree_covers_train_render_eval(self, trained):
        _, _, _, directory = trained
        loaded = load_run(directory)
        names = {span.name for span in loaded.spans}
        assert {"attack.train", "attack.warmup", "gan.train", "attack.steps",
                "eval.challenge", "eval.render", "detect.batched",
                "eval.score"} <= names
        roots = build_tree(loaded.spans)
        assert [r.name for r in roots] == ["attack.train", "eval.challenge"]
        attack = roots[0]
        assert "attack.warmup" in [c.name for c in attack.children]
        warmup = next(c for c in attack.children if c.name == "attack.warmup")
        assert [c.name for c in warmup.children] == ["gan.train"]
        eval_root = roots[1]
        child_names = [c.name for c in eval_root.children]
        assert child_names == ["eval.render", "detect.batched", "eval.score"]

    def test_manifest_records_counters_and_status(self, trained):
        _, _, _, directory = trained
        loaded = load_run(directory)
        assert loaded.status == "completed"
        counters = loaded.metrics()["counters"]
        assert counters["attack.steps_run"] == TINY_ATTACK["steps"]
        assert counters["gan.steps_run"] == TINY_ATTACK["warmup_steps"]
        assert counters["eval.challenges_run"] == 1
        assert counters["detect.frames"] > 0
        gauges = loaded.metrics()["gauges"]
        assert "eval.rotation/fix.pwc" in gauges
        assert "attack.g_loss" in gauges

    def test_render_mentions_all_stages(self, trained):
        _, _, _, directory = trained
        text = render_run(load_run(directory))
        for stage in ("attack.train", "eval.challenge", "eval.render"):
            assert stage in text

    def test_span_times_monotone_within_parents(self, trained):
        _, _, _, directory = trained
        loaded = load_run(directory)
        for root in build_tree(loaded.spans):
            for node in root.walk():
                for child in node.children:
                    assert child.record.start_s >= node.record.start_s
                    assert child.record.end_s <= node.record.end_s + 1e-6


class TestSameSeedDiff:
    def test_two_eval_runs_same_seed_zero_metric_deltas(self, trained, tmp_path):
        model, scenario, artifact, _ = trained
        directories = []
        for tag in ("a", "b"):
            directory = str(tmp_path / tag)
            with Run(directory, name="eval", config={"seed": 0},
                     seeds={"eval": 0}) as run:
                run_challenge(model, scenario, "rotation/fix",
                              artifact=artifact, n_runs=1, seed=0, obs=run)
            directories.append(directory)
        diff = diff_runs(load_run(directories[0]), load_run(directories[1]))
        assert diff["config_equal"] and diff["status_equal"]
        assert diff["metrics"]["deterministic_equal"], diff["metrics"]

    def test_obs_report_cli_diff(self, trained, tmp_path):
        model, scenario, artifact, _ = trained
        directories = []
        for tag in ("a", "b"):
            directory = str(tmp_path / tag)
            with Run(directory, name="eval", seeds={"eval": 0}) as run:
                run_challenge(model, scenario, "rotation/fix",
                              artifact=artifact, n_runs=1, seed=0, obs=run)
            directories.append(directory)
        script = os.path.join(REPO_ROOT, "scripts", "obs_report.py")
        env = {**os.environ,
               "PYTHONPATH": os.path.join(REPO_ROOT, "src")}
        render = subprocess.run(
            [sys.executable, script, directories[0]],
            capture_output=True, text=True, env=env, timeout=120)
        assert render.returncode == 0, render.stderr
        assert "eval.challenge" in render.stdout
        diffed = subprocess.run(
            [sys.executable, script, "--diff", *directories],
            capture_output=True, text=True, env=env, timeout=120)
        assert diffed.returncode == 0, diffed.stderr
        assert "zero deltas" in diffed.stdout


class TestProducersPublish:
    def test_trainlog_binds_gauges_and_event_counters(self):
        metrics = Metrics()
        log = TrainLog("unit").bind_metrics(metrics)
        log.log(0, loss=2.0)
        log.log(1, loss=1.0)
        log.event(1, "divergence_recovery", reason="non-finite")
        snap = metrics.snapshot()
        assert snap["gauges"]["unit.loss"] == 1.0
        assert snap["counters"]["unit.records"] == 2.0
        assert snap["counters"]["events.divergence_recovery"] == 1.0

    def test_guard_publishes_divergence_counters(self):
        metrics = Metrics()
        guard = DivergenceGuard(metrics=metrics)
        with pytest.raises(DivergenceError):
            guard.check(3, loss=float("nan"))
        counters = metrics.snapshot()["counters"]
        assert counters["guard.divergence"] == 1.0
        assert counters["guard.divergence.loss"] == 1.0

    def test_guard_without_metrics_still_raises(self):
        with pytest.raises(DivergenceError):
            DivergenceGuard().check(0, loss=float("inf"))
