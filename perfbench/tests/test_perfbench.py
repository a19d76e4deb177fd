"""Tests of the benchmark itself: short smoke passes of every workload,
metric names against BENCHMARK.json, and tolerance of missing hooks.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import one_pass  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from program import ROOT, import_platoonsec  # noqa: E402
from workloads import GENERATORS, scenario_files  # noqa: E402

# Long enough for the forecasters to refit after the 12-step warm-up.
SMOKE_STEPS = 60
ARTIFACTS = run.ARTIFACT_FILES


def _smoke_files(workload, tmp_path, seed=3):
    return scenario_files(workload, ROOT, seed, tmp_path / "scenarios", steps=SMOKE_STEPS)


def _pass(files, out_dir, trace, hooks=one_pass.HOOKS):
    job = {"scenarios": [str(p) for p in files], "out_dir": str(out_dir),
           "trace": trace, "acceptance": False}
    return one_pass.run_pass(job, hooks)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(GENERATORS)


def test_layer_metric_names_match_per_layer_table(tmp_path):
    measured = _pass(_smoke_files("cruise_replay", tmp_path), tmp_path / "out", trace=True)
    assert set(measured["layers"]) | {"trace.overhead_s"} == set(run.PER_LAYER)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_smoke_pass_is_checked_and_traced_identically(workload, tmp_path):
    files = _smoke_files(workload, tmp_path)
    plain = _pass(files, tmp_path / "plain", trace=False)
    traced = _pass(files, tmp_path / "traced", trace=True)
    passes = [(False, plain), (True, traced)]

    attempted, failed, reasons = run.failures(passes)
    assert (attempted, failed, reasons) == (4 * len(files), 0, [])
    for a, b in zip(plain["scenarios"], traced["scenarios"]):
        assert a["fingerprint"] == b["fingerprint"]
        assert all(a["fingerprint"][name] for name in ARTIFACTS)
    layers = traced["layers"]
    assert traced["missing_hooks"] == []
    assert [name for name, value in layers.items() if value is None] == []
    assert layers["mpc_controller.rounds"] == sum(s["fingerprint"]["rounds"] for s in plain["scenarios"])
    assert layers["mpc_controller.cap_steps"] == sum(s["fingerprint"]["cap_steps"] for s in plain["scenarios"])
    assert layers["detection.elm_fits"] > 0
    values, absent = run.per_layer(passes)
    assert absent == [] and set(values) == set(run.PER_LAYER)


def test_untraced_passes_time_setup_and_every_replay(tmp_path):
    files = _smoke_files("shipped_suite", tmp_path)
    plain = _pass(files, tmp_path / "plain", trace=False)
    traced = _pass(files, tmp_path / "traced", trace=True)
    # A probe after the first load, after each run and after each replay round.
    rounds = len(plain["replay_s"][files[0].stem])
    assert len(plain["setup_s"]) >= 1 + len(files) + rounds
    assert set(plain["replay_s"]) == {p.stem for p in files}
    assert len(plain["setup_wall_s"]) == len(plain["setup_s"])
    assert traced["setup_s"] == [] and traced["replay_s"] == {} and traced["run_s"] is None
    assert all(len(times) == 1 for times in traced["replay_wall_s"].values())
    values, _ = run.end_to_end([(False, plain)])
    assert list(values) == list(run.END_TO_END)
    assert values["setup_s"] == statistics.median(plain["setup_s"])
    assert values["run_s"] == plain["run_s"] > 0
    assert values["replay_s"] == sum(statistics.median(t) for t in plain["replay_s"].values())


def test_scaled_time_follows_the_probe_and_leaves_it_out():
    probe = speed.SpeedProbe()
    probe.samples = [(10.0, 10.001, speed.REFERENCE_S), (10.5, 10.501, 2 * speed.REFERENCE_S)]
    # Wall time drops the probes taken inside the region.
    assert probe.wall(9.9, 11.0) == pytest.approx(1.1 - 0.002)
    # At the reference speed a second stays a second; at half speed the
    # work of a wall second is half a reference second.
    assert probe.scaled(9.98, 10.02) == pytest.approx(0.04 - 0.001)
    assert probe.scaled(10.48, 10.52) == pytest.approx((0.04 - 0.001) / 2)
    assert probe.scaled(9.9, 11.0) == pytest.approx((1.1 - 0.002) * 0.75)
    # With no probe within a tick, the nearest one gives the speed.
    assert probe.scaled(12.0, 12.1) == pytest.approx(0.1 / 2)


def test_speed_probe_samples_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.start()
    try:
        end = time.perf_counter() + 4 * speed.TICK_S
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_pass_limits_follow_the_passes_not_the_clock(monkeypatch, tmp_path):
    limits = []

    def fake_pass(job, work, index, timeout):
        limits.append(timeout)
        return {}

    monkeypatch.setattr(run, "run_one_pass", fake_pass)
    passes = run.run_passes([], tmp_path, 0.0, False, (False, True))
    assert len(passes) == 2
    assert limits == [run.FIRST_PASS_LIMIT_S, run.MIN_PASS_LIMIT_S]


def test_hooks_are_removed_after_a_traced_pass(tmp_path):
    cli = import_platoonsec().cli_runner
    before = {name: getattr(cli, name) for name in ("run_control_step", "detect_step", "simulate")}
    corrupt = cli.V2VChannel.corrupt
    _pass(_smoke_files("wide_platoon", tmp_path), tmp_path / "out", trace=True)
    assert {name: getattr(cli, name) for name in before} == before
    assert cli.V2VChannel.corrupt is corrupt


def test_missing_hooks_make_their_metrics_absent(tmp_path):
    hooks = {
        **one_pass.HOOKS,
        "corrupt": "platoonsec.v2v_channel:IterationChannel.corrupt",
        "elm_fit": "platoonsec.no_such_module:elm_fit",
    }
    files = _smoke_files("cruise_replay", tmp_path)
    traced = _pass(files, tmp_path / "out", trace=True, hooks=hooks)
    plain = _pass(files, tmp_path / "plain", trace=False)

    assert traced["missing_hooks"] == [hooks["corrupt"], hooks["elm_fit"]]
    absent = {name for name, value in traced["layers"].items() if value is None}
    assert absent == {
        "v2v_channel.messages", "v2v_channel.dropped", "v2v_channel.busy_s",
        "detection.elm_fits", "detection.elm_fit_s", "detection.us_per_fit",
        "detection.fit_ratio",
    }
    values, absent_names = run.per_layer([(False, plain), (True, traced)])
    assert set(absent_names) == absent
    assert set(values) == set(run.PER_LAYER) - absent
    assert run.failures([(False, plain), (True, traced)])[1] == 0


def test_failures_catch_a_traced_artifact_that_differs(tmp_path):
    files = _smoke_files("wide_platoon", tmp_path)
    plain = _pass(files, tmp_path / "plain", trace=False)
    traced = json.loads(json.dumps(plain))
    traced["scenarios"][0]["fingerprint"]["trace.csv"] = "0" * 64
    attempted, failed, reasons = run.failures([(False, plain), (True, traced)])
    assert (attempted, failed) == (4, 1)
    assert "traced trace.csv differs from pass 0" in reasons[0]


def test_workload_documents_depend_only_on_the_seed(tmp_path):
    for workload in ("cruise_replay", "wide_platoon"):
        a = [p.read_bytes() for p in scenario_files(workload, ROOT, 5, tmp_path / "a")]
        b = [p.read_bytes() for p in scenario_files(workload, ROOT, 5, tmp_path / "b")]
        c = [p.read_bytes() for p in scenario_files(workload, ROOT, 6, tmp_path / "c")]
        assert a == b and a != c


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cruise_replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no platoonsec sources" in proc.stderr
