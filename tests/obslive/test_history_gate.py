"""BENCH_history.jsonl trend analysis + the bench harness's gate rows.

Every row of the three bench scripts' gate tables must be able to fail:
a payload pushed past any one row's limit, or missing the row's field,
makes ``main`` exit 1, and a failed report row writes no report. The
committed reports keep their verdicts, and the committed history vetoes
none of them.
"""

import copy
import importlib.util
import json
import os
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import config_digest, span_scope, write_report
from repro.obs.bench import Gate, judge
from repro.obs.history import (
    MIN_POINTS,
    check_trend,
    detect_regression,
    field_value,
    load_history,
    metric_series,
    trend_summary,
)

pytestmark = pytest.mark.obslive

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
COMMITTED_HISTORY = os.path.join(REPO_ROOT, "BENCH_history.jsonl")


def load_script(name):
    path = os.path.join(REPO_ROOT, "scripts", name)
    spec = importlib.util.spec_from_file_location(name.replace(".py", ""), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHES = {name: load_script(f"bench_{name}.py")
           for name in ("hotpath", "serve", "train")}
#: The flags of CI's --check steps: their config digests are the
#: committed reports'.
CI_FLAGS = {"hotpath": [], "serve": ["--chaos"], "train": []}
ROWS = [(name, index) for name, script in BENCHES.items()
        for index in range(len(script.GATES))]


def write_history(path, benchmark, metric, values, digest="d"):
    with open(path, "w") as handle:
        for value in values:
            handle.write(json.dumps({"benchmark": benchmark,
                                     "config_digest": digest,
                                     metric: value}) + "\n")


def committed_report(name):
    with open(os.path.join(REPO_ROOT, f"BENCH_{name}.json")) as handle:
        return json.load(handle)


def passing_payload(name):
    """The committed report, moved so that every row binds and passes."""
    payload = committed_report(name)
    if name == "hotpath":   # the committed run misses both forward floors
        payload["lowered"]["forward_speedup"] = 2.0
        payload["quant"]["forward_speedup_vs_lowered"] = 2.0
    if name == "train":     # committed on 1 CPU, where speedup is not gated
        payload["speedup"] = 2.0
        payload["speedup_gate"]["enforced"] = True
    return payload


def set_field(payload, path, value=None, delete=False):
    *parents, key = path.split(".")
    node = payload
    for part in parents:
        node = node[part]
    if delete:
        del node[key]
    else:
        node[key] = value


def pushed_past(gate, value):
    """A value just beyond what ``gate`` allows (``value`` passes it)."""
    if gate.kind == "is":
        return not gate.limit
    if gate.kind == ">=":
        return gate.limit / 2
    if gate.kind == "<=":
        return gate.limit * 2 + 1
    if gate.kind == "committed":
        return value * ((1 - gate.limit) * 0.9 if gate.better == "higher"
                        else (1 + gate.limit) * 1.1)
    return value * (0.5 if gate.better == "higher" else 2.0)   # trend


def trend_history(path, name, payload):
    """MIN_POINTS lines at the payload's trend fields, under its digest."""
    script = BENCHES[name]
    line = {"benchmark": payload["benchmark"],
            "config_digest": payload["manifest"]["config_digest"]}
    for gate in script.GATES:
        if gate.kind == "trend":
            line[gate.field] = field_value(payload, gate.field)
    with open(path, "w") as handle:
        for _ in range(MIN_POINTS):
            handle.write(json.dumps(line) + "\n")
    return str(path)


def printed_rows(out):
    """``{row label: (verdict, detail)}`` from the harness's row lines."""
    rows = {}
    for line in out.splitlines():
        parts = line.split(None, 2)
        if (len(parts) == 3 and parts[0] in ("OK", "FAIL", "SKIP")
                and parts[1] in ("report", "check")):
            label, detail = parts[2].split(": ", 1)
            rows[label] = (parts[0], detail)
    return rows


def run_main(monkeypatch, capsys, name, payload, argv, details=False):
    """``main`` with ``run_benchmark`` returning ``payload`` and CI's
    flags before ``argv``; returns the exit status and ``{row label:
    verdict}`` (``(verdict, detail)`` with ``details``)."""
    script = BENCHES[name]
    monkeypatch.setattr(script, "run_benchmark",
                        lambda args, obs: copy.deepcopy(payload))
    capsys.readouterr()
    status = script.main(CI_FLAGS[name] + argv)
    rows = printed_rows(capsys.readouterr().out)
    if details:
        return status, rows
    return status, {label: verdict for label, (verdict, _) in rows.items()}


class TestLoader:
    def test_torn_and_garbage_lines_are_counted_not_raised(self, tmp_path):
        path = os.path.join(tmp_path, "h.jsonl")
        with open(path, "w") as handle:
            handle.write('{"benchmark": "b", "fps": 10.0}\n')
            handle.write("not json at all\n")
            handle.write('[1, 2, 3]\n')          # JSON but not an object
            handle.write("\n")                    # blank: ignored silently
            handle.write('{"benchmark": "b", "fps": 11.0}\n')
            handle.write('{"benchmark": "b", "fps": 12.')  # torn tail
        result = load_history(path)
        assert len(result.records) == 2
        assert result.bad_lines == 3
        assert metric_series(result, "b", "fps") == [10.0, 11.0]

    def test_benchmark_filter(self, tmp_path):
        path = os.path.join(tmp_path, "h.jsonl")
        with open(path, "w") as handle:
            handle.write('{"benchmark": "a", "fps": 1.0}\n')
            handle.write('{"benchmark": "b", "fps": 2.0}\n')
        result = load_history(path, benchmark="b")
        assert [r["fps"] for r in result.records] == [2.0]


class TestDetector:
    def test_insufficient_history_passes(self):
        verdict = detect_regression([1.0, 2.0, 3.0], 0.0)
        assert verdict.status == "insufficient"
        assert verdict.ok

    def test_clear_regression_fails(self):
        trailing = [100.0, 101.0, 99.0, 100.5, 100.0, 99.5]
        verdict = detect_regression(trailing, 50.0, direction="higher")
        assert verdict.status == "regression"
        assert not verdict.ok

    def test_value_inside_band_passes(self):
        trailing = [100.0, 101.0, 99.0, 100.5, 100.0, 99.5]
        verdict = detect_regression(trailing, 98.0, direction="higher")
        assert verdict.status == "ok"

    def test_lower_is_better_direction(self):
        trailing = [10.0, 11.0, 9.0, 10.5, 10.0]
        assert detect_regression(trailing, 30.0,
                                 direction="lower").status == "regression"
        assert detect_regression(trailing, 10.2,
                                 direction="lower").status == "ok"

    def test_single_outlier_in_window_does_not_poison_baseline(self):
        # One loaded-CI-box outlier: median/MAD shrug it off where a
        # mean/sigma band would balloon.
        trailing = [100.0, 100.5, 99.5, 1000.0, 100.0, 100.2]
        verdict = detect_regression(trailing, 99.0, direction="higher")
        assert verdict.status == "ok"

    def test_identical_window_tolerates_rounding_wobble(self):
        trailing = [100.0] * 6  # MAD = 0: the relative floor must kick in
        assert detect_regression(trailing, 99.0,
                                 direction="higher").status == "ok"
        assert detect_regression(trailing, 50.0,
                                 direction="higher").status == "regression"

    def test_bad_direction_raises(self):
        with pytest.raises(ValueError):
            detect_regression([1.0] * 5, 1.0, direction="sideways")

    def test_trend_compares_only_the_same_config(self, tmp_path):
        """A `--workers 2` run is not judged against `--workers 4` lines:
        six lines at 200 under another digest leave a fresh 60 nothing to
        be judged against; the same lines under its own digest fail it."""
        path = os.path.join(tmp_path, "h.jsonl")
        write_history(path, "parallel_train_engine", "steps",
                      [200.0, 201.0, 199.0, 200.5, 200.0, 199.5],
                      digest="workers4")
        other = check_trend(path, "parallel_train_engine", "workers2",
                            "steps", 60.0)
        assert other.status == "insufficient" and other.points == 0
        same = check_trend(path, "parallel_train_engine", "workers4",
                           "steps", 60.0)
        assert same.status == "regression" and same.points == 6


class TestBenchGates:
    """The harness (`repro.obs.bench`) over the three scripts' gate tables,
    driven through each script's `main` with `run_benchmark` stubbed."""

    def test_gate_tables_hold_every_row(self):
        """No row dropped or loosened: each table, phase and limit."""
        tables = {name: [f"{gate.phase} {gate}" for gate in script.GATES]
                  for name, script in BENCHES.items()}
        assert tables == {
            "hotpath": [
                "report trace_identical is True",
                "report lowered.trace_identical is True",
                "report quant.accuracy.pwc_delta <= 0.05",
                "report quant.accuracy.cwc_match is True",
                "check batched_fps committed -20%",
                "check lowered.forward_speedup >= 1.3",
                "check quant.forward_speedup_vs_lowered >= 1.15",
                "check batched_fps trend",
                "check quant.fps trend"],
            "serve": [
                "report phases.overload.max_queue_depth <= 8",
                "report phases.overload.shed >= 1",
                "report phases.chaos.respawns >= 1",
                "check sustained_fps committed -35%",
                "check latency_p99_ms committed +35%",
                "check open_loop_p50_over_detect <= 4.0",
                "check sustained_fps trend",
                "check latency_p99_ms trend"],
            "train": [
                "report bit_identical is True",
                "report resume_parity is True",
                "report speedup >= 1.5",
                "check parallel_steps_per_sec committed -20%",
                "check parallel_steps_per_sec trend"]}
        assert [gate.better for gate in BENCHES["serve"].GATES
                if gate.field == "latency_p99_ms"] == ["lower", "lower"]

    def test_only_the_exact_value_or_a_finite_number_passes(self, tmp_path):
        """`is True` takes True alone, not a truthy stand-in; NaN, inf or
        None in a numeric row is a FAIL, also against a trend band, where
        NaN would compare as inside it."""
        args = SimpleNamespace(check=True, history=str(tmp_path / "h.jsonl"))
        write_history(args.history, "b", "fps", [10.0] * MIN_POINTS)
        payload = {"benchmark": "b", "manifest": {"config_digest": "d"}}
        for gate, value in [(Gate("fps", "report", "is", True), 1),
                            (Gate("fps", "report", "is", True), "True"),
                            (Gate("fps", "report", ">=", 1.0), None),
                            (Gate("fps", "report", "<=", 1.0), float("nan")),
                            (Gate("fps", "check", "trend"), float("nan")),
                            (Gate("fps", "check", "trend", better="lower"),
                             float("inf"))]:
            verdict, _ = judge(gate, args, dict(payload, fps=value),
                               (None, None))
            assert verdict == "FAIL", (gate, value)
        assert judge(Gate("fps", "check", "trend"), args,
                     dict(payload, fps=10.0), (None, None))[0] == "OK"

    @pytest.mark.parametrize("name", sorted(BENCHES))
    def test_passing_payload_binds_every_row(self, tmp_path, monkeypatch,
                                             capsys, name):
        payload = passing_payload(name)
        committed = str(tmp_path / "committed.json")
        shutil.copy(os.path.join(REPO_ROOT, f"BENCH_{name}.json"), committed)
        history = trend_history(tmp_path / "h.jsonl", name, payload)
        status, rows = run_main(monkeypatch, capsys, name, payload,
                                ["--check", "--output", committed,
                                 "--history", history])
        assert status == 0
        assert rows == {str(gate): "OK" for gate in BENCHES[name].GATES}
        fresh = str(tmp_path / "fresh.json")
        status, rows = run_main(monkeypatch, capsys, name, payload,
                                ["--output", fresh, "--history", history])
        assert status == 0 and os.path.exists(fresh)
        assert {gate.phase for gate in BENCHES[name].GATES
                if rows[str(gate)] == "SKIP"} == {"check"}
        lines = load_history(history).records
        assert len(lines) == MIN_POINTS + 2
        assert lines[-1]["mode"] == "write" and lines[-1]["status"] == 0
        for gate in BENCHES[name].GATES:
            assert lines[-1][gate.field] == field_value(payload, gate.field)

    @pytest.mark.parametrize(
        "name, index", ROWS,
        ids=[f"{name}-{BENCHES[name].GATES[index].field}-"
             f"{BENCHES[name].GATES[index].kind}" for name, index in ROWS])
    def test_row_fails(self, tmp_path, monkeypatch, capsys, name, index):
        """Push one row's field past its limit, then remove it: exit 1 and
        that row FAILs. A failed report row writes no report and no
        history line; a committed row also fails when the committed report
        lacks the field."""
        gate = BENCHES[name].GATES[index]
        label = str(gate)
        payload = passing_payload(name)
        committed = str(tmp_path / "committed.json")
        shutil.copy(os.path.join(REPO_ROOT, f"BENCH_{name}.json"), committed)
        history = trend_history(tmp_path / "h.jsonl", name, payload)
        check = ["--check", "--output", committed, "--history", history]

        pushed = copy.deepcopy(payload)
        set_field(pushed, gate.field,
                  pushed_past(gate, field_value(payload, gate.field)))
        if gate.phase == "report":
            fresh = str(tmp_path / "fresh.json")
            status, rows = run_main(monkeypatch, capsys, name, pushed,
                                    ["--output", fresh, "--history", history])
            assert not os.path.exists(fresh)
            assert len(load_history(history).records) == MIN_POINTS
        else:
            status, rows = run_main(monkeypatch, capsys, name, pushed, check)
        assert (status, rows[label]) == (1, "FAIL")

        # The printout reads most gated fields too; here the harness, not a
        # KeyError in a print, must answer for the missing one.
        monkeypatch.setattr(BENCHES[name], "print_summary",
                            lambda args, payload: None)
        history = trend_history(tmp_path / "h.jsonl", name, payload)
        missing = copy.deepcopy(payload)
        set_field(missing, gate.field, delete=True)
        status, rows = run_main(monkeypatch, capsys, name, missing, check)
        assert (status, rows[label]) == (1, "FAIL")

        if gate.kind == "committed":
            stale = committed_report(name)
            set_field(stale, gate.field, delete=True)
            with open(committed, "w") as handle:
                json.dump(stale, handle)
            status, rows = run_main(monkeypatch, capsys, name, payload, check)
            assert (status, rows[label]) == (1, "FAIL")

    def test_committed_history_passes_all_three_gates(self, tmp_path,
                                                      monkeypatch, capsys):
        """Each committed report keeps its verdicts under --check, with the
        history off and with (a copy of) the committed history: hotpath
        fails only its two same-run forward floors, serve and train pass,
        and no trend row fails."""
        floors = {"lowered.forward_speedup >= 1.3",
                  "quant.forward_speedup_vs_lowered >= 1.15"}
        for name in sorted(BENCHES):
            history = str(tmp_path / f"{name}.jsonl")
            shutil.copy(COMMITTED_HISTORY, history)
            for flag in ("", history):
                status, rows = run_main(monkeypatch, capsys, name,
                                        committed_report(name),
                                        ["--check", "--history", flag])
                failed = {label for label, verdict in rows.items()
                          if verdict == "FAIL"}
                assert failed == (floors if name == "hotpath" else set())
                assert status == (1 if name == "hotpath" else 0)
                assert all(rows[str(gate)] == "SKIP"
                           for gate in BENCHES[name].GATES
                           if gate.kind == "trend")

    def test_committed_train_report_prints(self, capsys):
        """The train printout reads the committed report as written: its
        stage table has `stage_table`'s columns and it times the batched
        schedule."""
        report = committed_report("train")
        BENCHES["train"].print_summary(SimpleNamespace(**report["config"]), report)
        out = capsys.readouterr().out
        assert "batched(workers=None)" in out and "self ms" in out

    def test_committed_row_fails_on_another_config(self, tmp_path,
                                                   monkeypatch, capsys):
        """`--workers 2` is not held to the `workers=4` report: the row
        fails and names both digests."""
        payload = committed_report("train")
        label = "parallel_steps_per_sec committed -20%"
        status, rows = run_main(monkeypatch, capsys, "train", payload,
                                ["--check", "--history", ""])
        assert (status, rows[label]) == (0, "OK")
        status, rows = run_main(monkeypatch, capsys, "train", payload,
                                ["--check", "--workers", "2",
                                 "--history", ""], details=True)
        ours = config_digest(dict(payload["config"], workers=2))
        theirs = payload["manifest"]["config_digest"]
        assert (status, rows[label]) == (1, (
            "FAIL", f"run config {ours} is not the committed report's "
            f"{theirs}; compare like with like"))

    def test_missing_history_file_passes(self, tmp_path, monkeypatch, capsys):
        """No history file: the trend rows SKIP (never OK), the rest pass."""
        missing = str(tmp_path / "nope.jsonl")
        status, rows = run_main(monkeypatch, capsys, "train",
                                passing_payload("train"),
                                ["--check", "--history", missing])
        assert status == 0
        assert rows["parallel_steps_per_sec trend"] == "SKIP"
        assert rows["parallel_steps_per_sec committed -20%"] == "OK"

    @pytest.mark.parametrize("workers, speedup, fatal", [
        (0, 1.05, False),   # serial against serial: no parallel target
        (2, 1.2, True),     # under the floor on enough CPUs
        (2, 1.6, False),
    ])
    def test_train_speedup_floor_binds_two_or_more_workers(
            self, tmp_path, monkeypatch, workers, speedup, fatal):
        train = BENCHES["train"]
        patch = SimpleNamespace(patch=np.zeros((1, 1, 4, 4), np.float32))

        def timed_run(args, n_workers, runtime=None, obs=None, live=None):
            with span_scope(obs, "attack.train"):  # the stage table's trace
                return patch, 10.0 if n_workers == 0 else 10.0 / speedup

        monkeypatch.setattr(train, "run_training", timed_run)
        monkeypatch.setattr(train.os, "cpu_count", lambda: 2)
        report = os.path.join(tmp_path, "BENCH_train.json")
        argv = ["--workers", str(workers), "--steps", "4",
                "--skip-resume-gate", "--history", "", "--output", report]
        if fatal:
            assert train.main(argv) == 1
            assert not os.path.exists(report)
        else:
            assert train.main(argv) == 0
            with open(report) as handle:
                gate = json.load(handle)["speedup_gate"]
            assert gate["enforced"] == (workers >= 2)

    def test_train_times_only_warm_runs(self, tmp_path, monkeypatch):
        """The process's first training run pays its cold start, so it
        runs untimed and every reported steps/s is a warm run's."""
        train = BENCHES["train"]
        patch = SimpleNamespace(patch=np.zeros((1, 1, 4, 4), np.float32))
        calls = []

        def timed_run(args, n_workers, runtime=None, obs=None, live=None):
            calls.append(n_workers)
            with span_scope(obs, "attack.train"):
                return patch, 20.0 if len(calls) == 1 else 10.0

        monkeypatch.setattr(train, "run_training", timed_run)
        report = os.path.join(tmp_path, "BENCH_train.json")
        assert train.main(["--workers", "1", "--steps", "4",
                           "--skip-resume-gate", "--history", "",
                           "--output", report]) == 0
        assert calls == [0, 0, None, 1]
        with open(report) as handle:
            payload = json.load(handle)
        assert payload["serial_steps_per_sec"] == 0.4
        assert payload["batched_steps_per_sec"] == 0.4
        assert payload["speedup"] == 1.0

    def test_window_only_batch_cut_fails_the_open_loop_gate(
            self, monkeypatch):
        """The same-run gate must fail once a lone frame waits out its
        batch window again. An 8 ms window leaves the old rule over the
        bound for any detect under 2.5 ms, and stays well under the
        ~13 ms each frame finds the server idle, so the idle-window cut
        still serves every frame at once. The base is the fastest of
        detects timed before and after both open loops, as in the bench."""
        from repro.serve import DetectionServer, batch_cut, next_wake
        from repro.serve import server as server_module

        serve = BENCHES["serve"]
        monkeypatch.setattr(serve, "OPEN_LOOP_SECONDS", 0.5)
        args = serve.parse_args(["--check", "--workers", "0",
                                 "--batch-window-s", "0.008",
                                 "--history", ""])
        detector = serve.build_detector(args)
        detect_ms = serve.detect_batch1_ms(args, detector)

        def open_loop():
            server = DetectionServer(detector, serve.serve_config(args))
            try:
                return serve.run_open_loop(args, server)
            finally:
                server.close()

        # The window-only rule runs first: the first phase in a fresh
        # process can run several times slower, which may only make the
        # rule that must fail slower still.
        with monkeypatch.context() as window_only_rule:
            # Put back the window-only rule: no idle-window cut or wake.
            window_only_rule.setattr(
                server_module, "batch_cut",
                lambda queue, now, max_batch, window, draining=False,
                idle_since=None: batch_cut(queue, now, max_batch, window,
                                           draining))
            window_only_rule.setattr(
                server_module, "next_wake",
                lambda queue, now, window, idle_since=None: next_wake(
                    queue, now, window))
            window_only = open_loop()
        idle_cut = open_loop()
        detect_ms = min(detect_ms, serve.detect_batch1_ms(args, detector))
        row = next(gate for gate in serve.GATES
                   if gate.field == "open_loop_p50_over_detect")
        ratio = {"open_loop_p50_over_detect":
                 window_only["latency_p50_ms"] / detect_ms}
        assert judge(row, args, ratio, (None, None))[0] == "FAIL"
        # Same host, same detect base: only the policy moved the ratio.
        assert idle_cut["latency_p50_ms"] < window_only["latency_p50_ms"]

    def test_cold_first_detects_do_not_loosen_the_open_loop_gate(
            self, tmp_path, monkeypatch, capsys):
        """A first set of detects read 7 ms in a fresh process while later
        sets read ~1.2 ms; against that cold base the window-only rule's
        11.2 ms p50 passed the 4.0 bound. The bench's base is the fastest
        of a set before and a set after the open loop, so it still fails."""
        serve = BENCHES["serve"]
        detect_sets = iter([7.0, 1.2])
        steady = {"requests": 8, "sustained_fps": 100.0,
                  "latency_p50_ms": 5.0, "latency_p99_ms": 9.0,
                  "stages_ms": {}}
        window_only = {"requests": 60, "cameras": 2, "fps_per_camera": 30.0,
                       "latency_p50_ms": 11.2, "latency_p99_ms": 14.0,
                       "stages_ms": {}}
        overload = committed_report("serve")["phases"]["overload"]
        monkeypatch.setattr(serve, "detect_batch1_ms",
                            lambda args, detector: next(detect_sets))
        monkeypatch.setattr(serve, "warm_up", lambda args, server: None)
        monkeypatch.setattr(serve, "run_closed_loop",
                            lambda args, server: dict(steady))
        monkeypatch.setattr(serve, "run_open_loop",
                            lambda args, server: dict(window_only))
        monkeypatch.setattr(serve, "run_overload", lambda args: overload)
        argv = ["--check", "--workers", "0", "--history", "",
                "--output", str(tmp_path / "committed.json")]
        write_report(argv[-1], {
            "manifest": {"config_digest": config_digest(
                serve.bench_config(serve.parse_args(argv)))},
            "sustained_fps": 100.0, "latency_p99_ms": 9.0})
        capsys.readouterr()
        assert serve.main(argv) == 1
        rows = printed_rows(capsys.readouterr().out)
        assert rows.pop("open_loop_p50_over_detect <= 4.0") == ("FAIL",
                                                                "9.333")
        assert "FAIL" not in {verdict for verdict, _ in rows.values()}


class TestTrendSummary:
    def test_summary_over_committed_history(self):
        summary = trend_summary(COMMITTED_HISTORY)
        assert summary["bad_lines"] == 0
        assert "detection_serve" in summary["benchmarks"]
        serve = summary["benchmarks"]["detection_serve"]
        # The committed history holds one serve line per config: without
        # and with --chaos. Each digest reads its own value, never the
        # pooled median of both (389.5).
        assert {digest: metrics["sustained_fps"]["median"]
                for digest, metrics in serve.items()} == {
            "bb8cd549772c5127": 446.32, "2dbbb46b9b8678f4": 332.71}
        assert all(metrics["sustained_fps"]["points"] == 1
                   for metrics in serve.values())

    def test_summary_keeps_configs_apart(self, tmp_path):
        path = os.path.join(tmp_path, "h.jsonl")
        with open(path, "w") as handle:
            for digest, fps in (("a", 10.0), ("b", 100.0), ("a", 12.0),
                                ("b", 104.0), ("a", 14.0)):
                handle.write(json.dumps({"benchmark": "bench", "config_digest": digest,
                                         "fps": fps, "ok": True}) + "\n")
        summary = trend_summary(path)["benchmarks"]["bench"]
        assert summary["a"]["fps"]["median"] == 12.0
        assert (summary["a"]["fps"]["latest"], summary["a"]["fps"]["points"]) == (14.0, 3)
        assert summary["b"]["fps"]["median"] == 102.0
        assert "ok" not in summary["a"]

    def test_check_trend_reports_bad_lines(self, tmp_path):
        path = os.path.join(tmp_path, "h.jsonl")
        write_history(path, "b", "fps", [10.0, 10.1, 9.9, 10.0])
        with open(path, "a") as handle:
            handle.write("torn garba")
        verdict = check_trend(path, "b", "d", "fps", 10.0)
        assert verdict.ok
        assert verdict.bad_lines == 1
