import csv
import os
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from platoonsec.attack_engine import ATTACK_LIST_KEYS
from platoonsec import cli_runner, detection
from platoonsec.cli_runner import (
    _INPUT_ERRORS,
    MAX_BIAS_CELLS,
    MAX_CONTROL_STEPS,
    MAX_DETECTION_CELLS,
    LeaderProfile,
    TRACE_COLUMNS,
    generate_bias_files,
    load_scenario,
    main,
    replay_detection,
    run_scenario,
    scenario_from_dict,
    simulate,
    write_anomaly_csv,
)
from platoonsec.detection import (
    ANOMALY_CSV_COLUMNS,
    POS_ANOM,
    VEL_ANOM,
    DetectionConfig,
    DetectionError,
    NumericalFitError,
    detect_vehicle,
)
from platoonsec.platoon_model import ConfigError, SimConfig

from conftest import make_scenario, single_channel_case

GOLDEN_DIR = Path(__file__).parent / "golden"
SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


def scenario_doc(**overrides):
    doc = {
        "sim": {"total_control_steps": 40},
        "leader": {"speed": 30.0},
        "seed": 3,
    }
    doc.update(overrides)
    return doc


# Documents that write a key twice, with the line of the second and the key:
# at the top level, in sim, in detection (twice on one line) and in a drop rule.
REPEATED_KEYS = {
    "top-level": ("detection: {enabled: false}\ndetection: {pos_threshold: 9.0}\n", 2, "detection"),
    "sim": ("sim:\n  n: 6\n  total_control_steps: 40\n  n: 3\n", 4, "n"),
    "detection": ("detection: {pos_threshold: 9.0, lag: 2, pos_threshold: 3.0}\n", 1, "pos_threshold"),
    "drop-rule": ("sim: {n: 3}\ndrops:\n- {direction: forward, sender: 2, sender: 1}\n", 3, "sender"),
}


def _two_constant_slots(first, second):
    """Two Constant slots on follower 2's x_ite over control steps [0, 4]."""
    return {
        "iter_victim_list": [2],
        "control_attackperiod_list": [[[0, 4]]],
        "iter_malichannel_list": [[["x_ite", "x_ite"]]],
        "iter_freq_type_list": [[["Continuous", "Continuous"]]],
        "iter_freqparavalue_list": [[[[0], [0]]]],
        "iter_biastype_list": [[["Constant", "Constant"]]],
        "iter_biasparavalue_list": [[[[first], [second]]]],
    }


def _one_channel_attack(*bias, bias_kind="Constant", freq_kind="Continuous", freq_params=(0,)):
    return {
        "iter_victim_list": [2],
        "control_attackperiod_list": [[[5, 9]]],
        "iter_malichannel_list": [[["v_ite"]]],
        "iter_freq_type_list": [[[freq_kind]]],
        "iter_freqparavalue_list": [[[list(freq_params)]]],
        "iter_biastype_list": [[[bias_kind]]],
        "iter_biasparavalue_list": [[[list(bias)]]],
    }


class TestScenarioLoading:
    def test_minimal_document(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(scenario_doc()))
        scenario = load_scenario(path)
        assert scenario.sim.total_control_steps == 40
        assert not scenario.attack
        assert scenario.detection == DetectionConfig(seed=3)

    def test_detection_section_read(self):
        # Every key set away from its default; the keys are exactly the
        # DetectionConfig fields other than seed.
        section = {
            "enabled": False, "comparator_threshold": 3, "nominal_diff": 1, "pos_threshold": 3,
            "vel_threshold": 2.5, "hidden_count": 20, "ridge": 1.0e-4, "lag": 3,
            "step_forward": 2, "norm_window": 100, "warmup_steps": 5,
        }
        defaults = DetectionConfig()
        assert set(section) == {f.name for f in fields(DetectionConfig)} - {"seed"}
        assert all(value != getattr(defaults, key) for key, value in section.items())
        detection = scenario_from_dict(scenario_doc(detection=section)).detection
        assert detection == DetectionConfig(**section, seed=3)
        for key in ("comparator_threshold", "nominal_diff", "pos_threshold"):
            assert isinstance(getattr(detection, key), float)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario keys"):
            scenario_from_dict(scenario_doc(bogus={}))

    def test_leader_profile_velocity_validated(self):
        # -9 m/s^2 sustained from step 5 drives the leader below v_min well
        # inside the 40-step horizon.
        doc = scenario_doc(leader={"speed": 30.0, "profile": [[5, -9.0]]})
        with pytest.raises(ConfigError, match="leader profile"):
            scenario_from_dict(doc)

    def test_attack_section_mirrors_seven_lists(self):
        doc = scenario_doc(attack=_one_channel_attack(2.0))
        scenario = scenario_from_dict(doc)
        assert [slot.victim for slot in scenario.attack] == [2]

    def test_leader_accel_lookup(self):
        accels = LeaderProfile(30.0, phases=((10, -1.0), (20, 0.5))).accelerations(30)
        assert len(accels) == 30
        assert accels[5] == 0.0
        assert accels[10] == -1.0
        assert accels[19] == -1.0
        assert accels[25] == 0.5

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        phases=st.dictionaries(st.integers(0, 60), st.floats(-3.0, 3.0), max_size=8),
        steps=st.integers(0, 50),
    )
    @example(phases={}, steps=20)
    @example(phases={0: -1.0, 5: 0.5}, steps=10)
    @example(phases={3: 1.0, 40: -2.0, 41: 2.0}, steps=30)
    def test_accelerations_match_a_linear_scan(self, phases, steps):
        """Each step's acceleration is the last phase started by then, 0.0
        before the first; phases past the end of the run change nothing."""
        profile = LeaderProfile(30.0, phases=tuple(sorted(phases.items())))

        def scan(k):
            accel = 0.0
            for start, value in profile.phases:
                if start <= k:
                    accel = value
            return accel

        assert profile.accelerations(steps) == [scan(k) for k in range(steps)]


class TestRunScenario:
    def test_artifacts_written(self, tmp_path):
        scenario = make_scenario(sim=replace(make_scenario().sim, total_control_steps=30))
        paths = run_scenario(scenario, tmp_path)
        assert set(paths) == {"trace", "anomalies", "impact", "impact_csv"}
        with open(paths["trace"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(TRACE_COLUMNS)
        assert len(rows) == 1 + 30 * scenario.sim.n

    def test_deterministic_outputs_byte_identical(self, tmp_path):
        attack = single_channel_case(6, victim=3, window=(15, 20), channel="x_ite", bias_params=[6.0])
        scenario = make_scenario(
            sim=replace(make_scenario().sim, total_control_steps=35), attack=attack
        )
        paths_a = run_scenario(scenario, tmp_path / "a")
        paths_b = run_scenario(scenario, tmp_path / "b")
        for name in paths_a:
            assert paths_a[name].read_bytes() == paths_b[name].read_bytes()

    def test_int_and_float_spellings_write_the_same_artifacts(self, tmp_path):
        # a_min: -3 reads as -3.0, so the followers that brake at a_min
        # write -3.0 in both documents' traces.
        for name, a_min in (("int", "-3"), ("float", "-3.0")):
            doc = tmp_path / f"{name}.yaml"
            doc.write_text(f"sim: {{total_control_steps: 40, a_min: {a_min}, a_max: 3}}\n"
                           "leader: {speed: 30.0, profile: [[5, -5.0], [15, 0.0]]}\nseed: 1\n")
            assert main(["run", "--scenario", str(doc), "--out", str(tmp_path / name)]) == 0
        for artifact in ("trace.csv", "anomalies.csv", "impact.txt", "impact.csv"):
            float_bytes = (tmp_path / "float" / artifact).read_bytes()
            assert (tmp_path / "int" / artifact).read_bytes() == float_bytes, artifact
        assert b",-3.0," in (tmp_path / "int" / "trace.csv").read_bytes()

    def test_benign_run_classifies_none(self, tmp_path):
        scenario = make_scenario(sim=replace(make_scenario().sim, total_control_steps=40))
        result = simulate(scenario)
        assert all(
            v.classification.value == "None" for v in result.impact.per_vehicle
        )


class TestGenerateBias:
    def _case_file(self, tmp_path):
        from test_attack_engine import running_example_doc

        path = tmp_path / "case.yaml"
        path.write_text(
            yaml.safe_dump({"n": 6, "max_iterations": 300, "attack": running_example_doc()})
        )
        return path

    def test_step_25_only_fv1_v_channel(self, tmp_path):
        path = self._case_file(tmp_path)
        out = generate_bias_files(path, 25, tmp_path / "out")
        with open(out["v_ite"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [f"fv{i}" for i in range(1, 7)]
        data = [[float(x) for x in row] for row in rows[1:]]
        assert len(data) == 300
        assert any(row[0] != 0.0 for row in data)  # fv1 column active
        assert all(row[j] == 0.0 for row in data for j in range(1, 6))
        with open(out["x_ite"], newline="") as fh:
            xrows = list(csv.reader(fh))
        assert all(float(x) == 0.0 for row in xrows[1:] for x in row)

    def test_step_outside_periods_all_zero(self, tmp_path):
        path = self._case_file(tmp_path)
        out = generate_bias_files(path, 100, tmp_path / "out")
        for name in ("x_ite", "v_ite", "zx_ite", "zv_ite"):
            with open(out[name], newline="") as fh:
                rows = list(csv.reader(fh))
            assert all(float(x) == 0.0 for row in rows[1:] for x in row)

    @pytest.mark.parametrize(
        "case_dir", sorted(p.name for p in GOLDEN_DIR.iterdir() if p.is_dir())
    )
    def test_golden_files(self, case_dir, tmp_path):
        folder = GOLDEN_DIR / case_dir
        with open(folder / "case.yaml") as fh:
            doc = yaml.safe_load(fh)
        out = generate_bias_files(folder / "case.yaml", doc["golden_k"], tmp_path)
        for name in ("x_ite", "v_ite", "zx_ite", "zv_ite"):
            expected = (folder / f"{name}_bias.csv").read_bytes()
            assert out[name].read_bytes() == expected, f"{case_dir}/{name}"


class TestReplayDetect:
    def test_replay_reproduces_live_anomalies(self, tmp_path):
        attack = single_channel_case(6, victim=4, window=(20, 24), channel="x_ite", bias_params=[8.0])
        scenario = make_scenario(
            sim=replace(make_scenario().sim, total_control_steps=40), attack=attack
        )
        paths = run_scenario(scenario, tmp_path)
        events = replay_detection(paths["trace"], scenario.detection)
        replay_path = tmp_path / "replay.csv"
        write_anomaly_csv(events, replay_path)
        assert replay_path.read_bytes() == paths["anomalies"].read_bytes()

    def test_disabled_detection_replays_like_the_live_run(self, tmp_path):
        doc = yaml.safe_load((SCENARIO_DIR / "single_target.yaml").read_text())
        doc["detection"] = {**(doc.get("detection") or {}), "enabled": False}
        path = tmp_path / "disabled.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        trace = str(tmp_path / "out" / "trace.csv")
        argv = ["replay-detect", "--trace", trace, "--config", str(path), "--out", str(tmp_path / "replay")]
        assert main(argv) == 0
        live = (tmp_path / "out" / "anomalies.csv").read_bytes()
        assert (tmp_path / "replay" / "anomalies.csv").read_bytes() == live
        assert live.decode().splitlines() == [",".join(ANOMALY_CSV_COLUMNS)]
        # No stage runs: no comparator flag, prediction or anomaly in the trace.
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        columns = ("comparator_flag", "elm_pos_pred", "elm_vel_pred", "pos_anom", "vel_anom")
        assert len(rows) == 100 * 6
        assert {tuple(row[c] for c in columns) for row in rows} == {("0", "", "", "0", "0")}

    def test_empty_trace_gives_empty_events(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n")
        assert replay_detection(path, DetectionConfig(seed=0)) == []

    def test_missing_columns_rejected(self, tmp_path):
        from platoonsec.cli_runner import TraceFormatError

        path = tmp_path / "trace.csv"
        path.write_text("control_step,vehicle_id\n")
        with pytest.raises(TraceFormatError, match="missing columns"):
            replay_detection(path, DetectionConfig(seed=0))

    def test_threshold_monotonicity(self, tmp_path):
        attack = single_channel_case(6, victim=4, window=(20, 24), channel="x_ite", bias_params=[8.0])
        scenario = make_scenario(
            sim=replace(make_scenario().sim, total_control_steps=40), attack=attack
        )
        paths = run_scenario(scenario, tmp_path)
        base = replay_detection(paths["trace"], scenario.detection)
        loose = replay_detection(
            paths["trace"],
            replace(scenario.detection, pos_threshold=50.0, vel_threshold=50.0),
        )
        base_keys = {(e.kind, e.control_step, e.vehicle) for e in base}
        loose_keys = {(e.kind, e.control_step, e.vehicle) for e in loose}
        assert loose_keys <= base_keys


@pytest.fixture(scope="module")
def live_trace_lines(tmp_path_factory):
    """The lines of a live 40-step n=6 trace: a header, then 240 rows."""
    out = tmp_path_factory.mktemp("live")
    paths = run_scenario(scenario_from_dict(scenario_doc()), out)
    return paths["trace"].read_text().splitlines(keepends=True)


def _cut_mid_row(lines):
    return lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]


def _drop_vehicle_1_of_step_5(lines):
    return [line for line in lines if not line.startswith("5,1,")]


def _duplicate_step_0(lines):
    return lines + lines[1:4]


def _drop_step_7(lines):
    return [line for line in lines if not line.startswith("7,")]


def _edit_row(row, column, value):
    def edit(lines):
        fields = lines[row].rstrip("\n").split(",")
        fields[TRACE_COLUMNS.index(column)] = value
        return lines[:row] + [",".join(fields) + "\n"] + lines[row + 1 :]

    return edit


class TestReplayBadTrace:
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_cut_mid_row, "line 241 does not have the header's 12 fields"),
            (_drop_vehicle_1_of_step_5, "control step 5 lacks vehicle 1"),
            (_duplicate_step_0, "line 242 repeats vehicle 1 of control step 0"),
            (_drop_step_7, "has no rows for control step 7"),
            (lambda lines: lines[:3] + [lines[3].rstrip("\n") + ",1\n"] + lines[4:],
             "line 4 does not have the header's 12 fields"),
            (_edit_row(9, "x", "abc"), "line 10: could not convert string to float"),
            (_edit_row(9, "control_step", "1.5"), "line 10: invalid literal for int()"),
            (_edit_row(9, "v", "nan"), "line 10: x, v and gap_front must be finite"),
            (_edit_row(9, "vehicle_id", "0"), "line 10: need control_step >= 0 and vehicle_id >= 1"),
            (_edit_row(9, "comparator_flag", "2"), "line 10: comparator_flag must be 0 or 1"),
        ],
        ids=[
            "cut-mid-row", "missing-vehicle", "duplicated-rows", "missing-step", "extra-field",
            "text-x", "float-step", "nan-v", "vehicle-0", "flag-2",
        ],
    )
    def test_exit_code_names_line_or_step(self, tmp_path, capsys, live_trace_lines, corrupt, message):
        trace = tmp_path / "trace.csv"
        trace.write_text("".join(corrupt(live_trace_lines)))
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(scenario_doc()))
        argv = ["replay-detect", "--trace", str(trace), "--config", str(config),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {trace}") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_rows_in_any_order_replay_like_the_live_order(self, tmp_path, live_trace_lines):
        scenario = scenario_from_dict(scenario_doc())
        live, shuffled = tmp_path / "live.csv", tmp_path / "shuffled.csv"
        live.write_text("".join(live_trace_lines))
        shuffled.write_text("".join(live_trace_lines[:1] + live_trace_lines[:0:-1]))
        assert replay_detection(shuffled, scenario.detection) == replay_detection(
            live, scenario.detection
        )


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.yaml"
        scenario_path.write_text(yaml.safe_dump(scenario_doc()))
        rc = main(["run", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "trace.csv").exists()
        assert "trace" in capsys.readouterr().out

    def test_run_with_seed_and_steps_overrides(self, tmp_path):
        scenario_path = tmp_path / "scenario.yaml"
        scenario_path.write_text(yaml.safe_dump(scenario_doc()))
        rc = main([
            "run", "--scenario", str(scenario_path), "--out", str(tmp_path / "out"),
            "--seed", "9", "--steps", "25",
        ])
        assert rc == 0
        with open(tmp_path / "out" / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 25 * 6

    def test_seed_override_is_the_document_seed(self, tmp_path):
        # run --seed sets detection.seed and nothing else: the artifacts are
        # those of the same document with that seed.  The seed moves the
        # forecasts in the trace (single_target's anomalies do not move).
        shipped = SCENARIO_DIR / "single_target.yaml"
        doc = yaml.safe_load(shipped.read_text())
        assert doc["seed"] == 1
        copy = tmp_path / "seed9.yaml"
        copy.write_text(yaml.safe_dump({**doc, "seed": 9}))
        runs = {
            "override": ["--scenario", str(shipped), "--seed", "9"],
            "document": ["--scenario", str(copy)],
            "seed1": ["--scenario", str(shipped)],
        }
        for name, args in runs.items():
            assert main(["run", *args, "--out", str(tmp_path / name)]) == 0
        for artifact in ("trace.csv", "anomalies.csv", "impact.txt", "impact.csv"):
            override = (tmp_path / "override" / artifact).read_bytes()
            assert override == (tmp_path / "document" / artifact).read_bytes(), artifact
        trace = (tmp_path / "override" / "trace.csv").read_bytes()
        assert trace != (tmp_path / "seed1" / "trace.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(scenario_doc(sim={"n": 0})))
        rc = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rule, field",
        [
            ({"direction": "sideways", "sender": 2}, "drops[0].direction"),
            ({"direction": "forward"}, "drops[0].sender"),
            ({"direction": "forward", "sender": 2, "iterations": [5]}, "drops[0].iterations"),
            ({"direction": "forward", "sender": 99}, "drops[0].sender"),
            ({"direction": "forward", "sender": 2, "control_steps": [3, 1]}, "drops[0].control_steps"),
            ({"direction": "backward", "sender": 1}, "drops[0].sender"),
            ({"direction": "forward", "sender": 2, "iteration": [0, 3]}, "drops[0].iteration"),
            ({"direction": "forward", "sender": 2, 1: 0, "x": 0}, "drops[0].1"),
            ({"direction": "forward", "sender": 2, "iterations": [300, 301]}, "drops[0].iterations"),
            ({"direction": "forward", "sender": 0, "iterations": [3, 60]}, "drops[0].iterations"),
        ],
        ids=[
            "unknown-direction", "missing-sender", "short-interval", "sender-out-of-range",
            "reversed-interval", "backward-sender-1", "unknown-key", "mixed-type-keys",
            "iterations-past-cap", "leader-after-round-0",
        ],
    )
    def test_bad_drop_rule_exit_code(self, tmp_path, capsys, rule, field):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(scenario_doc(drops=[rule])))
        rc = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert "Traceback" not in err

    def test_drop_rule_past_the_run_is_accepted(self):
        rule = {"direction": "backward", "sender": 3, "control_steps": [90, 100]}
        scenario = scenario_from_dict(scenario_doc(drops=[rule]))
        assert scenario.drops[0].control_steps == (90, 100)

    @pytest.mark.parametrize("command", ["run", "replay-detect"])
    @pytest.mark.parametrize(
        "section, field",
        [
            ({"pos_thresh": 3.0}, "detection.pos_thresh"),
            ({"hidden_count": 0}, "detection.hidden_count"),
            ({"lag": 0}, "detection.lag"),
            ({"step_forward": True}, "detection.step_forward"),
            ({"norm_window": 200.0}, "detection.norm_window"),
            ({"warmup_steps": -1}, "detection.warmup_steps"),
            ({"comparator_threshold": 0}, "detection.comparator_threshold"),
            ({"pos_threshold": float("inf")}, "detection.pos_threshold"),
            ({"vel_threshold": "2.0"}, "detection.vel_threshold"),
            ({"ridge": float("nan")}, "detection.ridge"),
            ({"nominal_diff": float("-inf")}, "detection.nominal_diff"),
            ({"enabled": 1}, "detection.enabled"),
            ([{"lag": 2}], "detection must be a mapping"),
            (0, "detection must be a mapping"),
            ({"ridge": 10**400}, "detection.ridge"),
            ({"hidden_count": 10**12}, "detection.hidden_count x detection.hidden_count"),
            ({"lag": 10**11}, "detection.norm_window x detection.lag"),
            ({"norm_window": 10**5}, "detection.norm_window x detection.hidden_count"),
            ({"norm_window": 4, "step_forward": 2}, "detection.norm_window must be at least"),
        ],
        ids=[
            "unknown-key", "zero-hidden", "zero-lag", "bool-step", "float-window",
            "negative-warmup", "zero-comparator", "infinite-threshold", "string-threshold",
            "nan-ridge", "infinite-nominal", "int-enabled", "list-section", "zero-section",
            "int-past-float-range", "huge-hidden", "huge-lag", "huge-window", "window-without-pairs",
        ],
    )
    def test_bad_detection_section_exit_code(self, tmp_path, capsys, command, section, field):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(scenario_doc(detection=section)))
        if command == "run":
            argv = ["run", "--scenario", str(bad), "--out", str(tmp_path / "out")]
        else:
            trace = tmp_path / "trace.csv"
            trace.write_text(",".join(TRACE_COLUMNS) + "\n")
            argv = ["replay-detect", "--trace", str(trace), "--config", str(bad),
                    "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert "Traceback" not in err

    @staticmethod
    def _argv(command, doc_path, tmp_path):
        if command == "run":
            return ["run", "--scenario", str(doc_path), "--out", str(tmp_path / "out")]
        if command == "generate-bias":
            return ["generate-bias", "--case", str(doc_path), "--k", "3", "--out", str(tmp_path / "out")]
        trace = tmp_path / "trace.csv"
        trace.write_text(",".join(TRACE_COLUMNS) + "\n")
        return ["replay-detect", "--trace", str(trace), "--config", str(doc_path),
                "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("command", ["run", "replay-detect"])
    @pytest.mark.parametrize(
        "seed", ["abc", 1.5, True, -1], ids=["string", "float", "bool", "negative"]
    )
    def test_bad_seed_exit_code(self, tmp_path, capsys, command, seed):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(scenario_doc(seed=seed)))
        assert main(self._argv(command, bad, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: seed must be an int >= 0")
        assert "Traceback" not in err

    def test_negative_seed_override_exit_code(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.yaml"
        scenario_path.write_text(yaml.safe_dump(scenario_doc()))
        argv = self._argv("run", scenario_path, tmp_path) + ["--seed", "-1"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "config error: seed must be an int >= 0, got -1\n"

    def test_steps_override_leaves_the_sim_section_to_the_loader(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(scenario_doc(sim=[])))
        assert main(self._argv("run", bad, tmp_path) + ["--steps", "5"]) == 1
        assert capsys.readouterr().err == "config error: sim must be a mapping, got []\n"
        bare = tmp_path / "bare.yaml"
        bare.write_text(yaml.safe_dump(scenario_doc(sim=None)))
        assert main(self._argv("run", bare, tmp_path) + ["--steps", "5"]) == 0
        assert len((tmp_path / "out" / "trace.csv").read_text().splitlines()) == 1 + 5 * 6

    @pytest.mark.parametrize("command", ["run", "replay-detect", "generate-bias"])
    @pytest.mark.parametrize("text, line, key", REPEATED_KEYS.values(), ids=list(REPEATED_KEYS))
    def test_repeated_key_exit_code(self, tmp_path, capsys, command, text, line, key):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        assert main(self._argv(command, bad, tmp_path)) == 1
        assert capsys.readouterr().err == f"config error: {bad} line {line}: key {key!r} is repeated\n"

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    def test_repeated_keys_under_either_yaml_loader(self, loader):
        if not hasattr(yaml, loader):
            pytest.skip(f"this PyYAML has no {loader}")
        check = {"construct_mapping": cli_runner._DocumentLoader.construct_mapping}
        loader = type("Loader", (getattr(yaml, loader),), check)
        for text, line, key in REPEATED_KEYS.values():
            with pytest.raises(ConfigError, match=f"line {line}: key '{key}' is repeated"):
                yaml.load(text, loader)
        with pytest.raises(yaml.YAMLError, match="found unhashable key"):
            yaml.load("{[1]: 2}", loader)
        merged = yaml.load("base: &base {n: 6, tau: 0.2}\nsim: {<<: *base, n: 3}\n", loader)
        assert merged["sim"] == {"n": 3, "tau": 0.2}

    def test_path_and_encoding_errors_exit_code(self, tmp_path, capsys):
        doc = tmp_path / "scenario.yaml"
        doc.write_text(yaml.safe_dump(scenario_doc()))
        taken = tmp_path / "taken"
        taken.write_text("")
        latin1 = tmp_path / "latin1.yaml"
        latin1.write_bytes("# caf\u00e9\nseed: 1\n".encode("latin-1"))
        header = (",".join(TRACE_COLUMNS) + "\n").encode()
        trace, bad_trace = tmp_path / "trace.csv", tmp_path / "latin1.csv"
        trace.write_bytes(header)
        bad_trace.write_bytes(header + b"0,1,\xff\n")
        out = str(tmp_path / "out")
        cases = [
            (["run", "--scenario", str(doc), "--out", str(taken)], str(taken)),
            (["generate-bias", "--case", str(doc), "--k", "0", "--out", str(taken)], str(taken)),
            (["replay-detect", "--trace", str(trace), "--config", str(doc), "--out", str(taken)],
             str(taken)),
            (["run", "--scenario", str(tmp_path), "--out", out], str(tmp_path)),
            (["run", "--scenario", str(tmp_path / "absent.yaml"), "--out", out], "absent.yaml"),
            (["run", "--scenario", str(latin1), "--out", out], f"{latin1} is not UTF-8 text"),
            (["generate-bias", "--case", str(latin1), "--k", "0", "--out", out],
             f"{latin1} is not UTF-8 text"),
            (["replay-detect", "--trace", str(trace), "--config", str(latin1), "--out", out],
             f"{latin1} is not UTF-8 text"),
            (["replay-detect", "--trace", str(bad_trace), "--config", str(doc), "--out", out],
             f"{bad_trace} is not UTF-8 text"),
        ]
        for argv, named in cases:
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and named in err, argv
            assert err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["run", "replay-detect"])
    def test_list_document_exit_code(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump([{"seed": 1}, {"detection": {}}]))
        assert main(self._argv(command, bad, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "document must be a mapping" in err

    def test_mixed_type_top_level_keys_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({1: 2, "x": 3}))
        assert main(self._argv("run", bad, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown scenario keys: [1, 'x']")

    @pytest.mark.parametrize(
        "sim, message",
        [
            ({"n": "3"}, "sim.n must be an int, got '3'"),
            ({"n": True}, "sim.n must be an int, got True"),
            ({"max_iterations": 300.0}, "sim.max_iterations must be an int, got 300.0"),
            ({"tau": float("nan")}, "sim.tau must be a finite number, got nan"),
            ({"dual_margin": float("nan")}, "sim.dual_margin must be a finite number, got nan"),
            ({"v_max": float("inf")}, "sim.v_max must be a finite number, got inf"),
            ({"L_veh": "5.0"}, "sim.L_veh must be a finite number, got '5.0'"),
            ({"dual_step": False}, "sim.dual_step must be a finite number, got False"),
            ({"tau": 0}, "sim.tau must be > 0, got 0.0"),
            ({"n": 0}, "sim.n must be >= 1, got 0"),
            ({"bogus": 1}, "sim.bogus is not a SimConfig field"),
            ({1: 2}, "sim.1 is not a SimConfig field"),
            (0, "sim must be a mapping, got 0"),
            ([6], "sim must be a mapping, got [6]"),
            ({"total_control_steps": 10**9},
             "sim.total_control_steps must be at most 1000000, got 1000000000"),
        ],
        ids=[
            "string-n", "bool-n", "float-iterations", "nan-tau", "nan-margin", "infinite-v-max",
            "string-length", "bool-step", "zero-tau", "zero-n", "unknown-key", "int-key",
            "zero-section", "list-section", "too-many-steps",
        ],
    )
    def test_bad_sim_section_exit_code(self, tmp_path, capsys, sim, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(scenario_doc(sim=sim)))
        assert main(self._argv("run", bad, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"

    def test_sim_section_takes_ints_for_float_fields(self):
        scenario = scenario_from_dict(scenario_doc(sim={"tau": 1, "v_max": 40, "n": 3}))
        assert (scenario.sim.tau, scenario.sim.v_max, scenario.sim.n) == (1, 40, 3)
        assert (type(scenario.sim.tau), type(scenario.sim.v_max)) == (float, float)

    @pytest.mark.parametrize(
        "case, message",
        [
            ({"n": "abc"}, "n must be an int >= 1, got 'abc'"),
            ({"n": 0}, "n must be an int >= 1, got 0"),
            ({"n": True}, "n must be an int >= 1, got True"),
            ({"sim": {"n": 6.0}}, "sim.n must be an int >= 1, got 6.0"),
            ({"max_iterations": "300"}, "max_iterations must be an int >= 1, got '300'"),
            ({"sim": {"max_iterations": 2.5}}, "sim.max_iterations must be an int >= 1, got 2.5"),
            ({"sim": 3}, "sim must be a mapping, got 3"),
            ([1, 2], "case document must be a mapping, got list"),
            ({"iter_victim_list": [1]},
             "iter_victim_list must be under attack:, not at the top level"),
            # 1e305 * 299 is finite, 1e305 * 2999 is not: the case's own
            # max_iterations bounds the waveform.
            ({"max_iterations": 3000, "attack": _one_channel_attack(1e305, 0, bias_kind="Linear")},
             "iter_biasparavalue_list[0][0][0]: Linear bias [1e+305, 0.0] overflows within "
             "3000 iterations"),
        ],
        ids=[
            "string-n", "zero-n", "bool-n", "float-sim-n", "string-iterations",
            "float-sim-iterations", "int-sim", "list-document", "top-level-lists",
            "overflowing-line",
        ],
    )
    def test_bad_generate_bias_case_exit_code(self, tmp_path, capsys, case, message):
        bad = tmp_path / "case.yaml"
        bad.write_text(yaml.safe_dump(case))
        argv = ["generate-bias", "--case", str(bad), "--k", "3", "--out", str(tmp_path / "bias")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "bias").exists()

    @pytest.mark.parametrize(
        "command, where, sizes, message",
        [
            ("run", "sim", {"n": 100_000_000_000}, "sim.n x sim.max_iterations must be at "
             "most 1000000 bias-matrix cells, got 100000000000 x 300"),
            ("run", "sim", {"n": 6, "max_iterations": 10**400},
             f"sim.n x sim.max_iterations must be at most 1000000 bias-matrix cells, "
             f"got 6 x {10**400}"),
            ("generate-bias", None, {"n": 100_000_000_000}, "n x max_iterations must be at "
             "most 1000000 bias-matrix cells, got 100000000000 x 300"),
            ("generate-bias", "sim", {"n": 3334, "max_iterations": 300}, "n x max_iterations "
             "must be at most 1000000 bias-matrix cells, got 3334 x 300"),
        ],
        ids=["run-n", "run-iterations", "case-n", "case-sim-n"],
    )
    def test_oversized_bias_matrices_exit_code(self, tmp_path, capsys, monkeypatch, command,
                                               where, sizes, message):
        # The check comes before the platoon or a bias matrix is built.
        def never(*args):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(cli_runner, "iter_attack_value_cal", never)
        monkeypatch.setattr(cli_runner, "initial_platoon", never)
        doc = scenario_doc(**{where: sizes}) if where else {**scenario_doc(), **sizes}
        bad = tmp_path / "big.yaml"
        bad.write_text(yaml.safe_dump(doc))
        if command == "run":
            argv = self._argv("run", bad, tmp_path)
        else:
            argv = ["generate-bias", "--case", str(bad), "--k", "3", "--out", str(tmp_path / "bias")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_run_length_limit(self, tmp_path, capsys):
        # The limit is inclusive, and run --steps is held to it too.
        sim = {"total_control_steps": MAX_CONTROL_STEPS}
        assert scenario_from_dict(scenario_doc(sim=sim)).sim.total_control_steps == MAX_CONTROL_STEPS
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(scenario_doc()))
        argv = self._argv("run", path, tmp_path) + ["--steps", str(MAX_CONTROL_STEPS + 1)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "config error: sim.total_control_steps must be at most 1000000, got 1000001\n"
        )
        assert not (tmp_path / "out").exists()

    def test_detection_size_limits_are_inclusive(self):
        side = int(MAX_DETECTION_CELLS**0.5)
        detection = {"hidden_count": side, "norm_window": side, "lag": side - 2, "step_forward": 1}
        read = scenario_from_dict(scenario_doc(detection=detection)).detection
        assert (read.hidden_count, read.norm_window) == (side, side)
        with pytest.raises(ConfigError, match="detection.hidden_count x detection.hidden_count"):
            scenario_from_dict(scenario_doc(detection={**detection, "hidden_count": side + 1}))
        with pytest.raises(ConfigError, match="detection.norm_window must be at least"):
            scenario_from_dict(scenario_doc(detection={**detection, "lag": side - 1}))

    def test_bias_size_limit_is_inclusive(self):
        sim = {"n": 1000, "max_iterations": MAX_BIAS_CELLS // 1000}
        assert scenario_from_dict(scenario_doc(sim=sim)).sim.n == 1000

    def test_negative_k_exit_code(self, tmp_path, capsys):
        case = Path(__file__).parent.parent / "scenarios" / "single_target.yaml"
        argv = ["generate-bias", "--case", str(case), "--k", "-1", "--out", str(tmp_path / "bias")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "config error: --k must be an int >= 0, got -1\n"
        assert not (tmp_path / "bias").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"leader": {"profile": [[1]]}}, "leader.profile must be a list of "
             "[start_step >= 0, acceleration] pairs, got [[1]]"),
            ({"leader": {"profile": [[1.5, 2]]}}, "leader.profile must be a list of "
             "[start_step >= 0, acceleration] pairs, got [[1.5, 2]]"),
            ({"leader": 5}, "leader must be a mapping, got 5"),
            ({"leader": {"speed": "fast"}}, "leader.speed must be a finite number, got 'fast'"),
            ({"leader": {"speeed": 20}}, "leader.speeed is not a leader key"),
            ({"output": 5}, "output must be a mapping, got 5"),
            ({"output": {"trace": "no"}}, "output.trace must be a bool, got 'no'"),
            ({"leader": {"profile": [[50, 1.0], [0, -1.0]]}}, "leader.profile[1] starts at "
             "step 0, not after leader.profile[0]'s 50: start steps must increase"),
            ({"leader": {"profile": [[10, 1.0], [10, -1.0]]}}, "leader.profile[1] starts at "
             "step 10, not after leader.profile[0]'s 10: start steps must increase"),
        ],
        ids=[
            "short-phase", "float-start", "int-leader", "string-speed", "unknown-leader-key",
            "int-output", "string-flag", "decreasing-start", "repeated-start",
        ],
    )
    def test_bad_leader_or_output_exit_code(self, tmp_path, capsys, overrides, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(scenario_doc(**overrides)))
        assert main(self._argv("run", bad, tmp_path)) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "attack, message",
        [
            (5, "attack must be a mapping, got 5"),
            ([], "attack must be a mapping, got []"),
            (True, "attack must be a mapping, got True"),
            ({1: [], "x": []}, "unknown attack case keys: [1, 'x']"),
            (_one_channel_attack("a"),
             "iter_biasparavalue_list[0][0][0][0]: expected a number, got 'a'"),
            (_one_channel_attack(10**400),
             "iter_biasparavalue_list[0][0][0][0]: an int too large for a float"),
            (_one_channel_attack(1.0, bias_kind="Square"),
             "iter_biasparavalue_list[0][0][0]: unknown bias kind 'Square'"),
            (_one_channel_attack(1.0, freq_kind="Burst"),
             "iter_freqparavalue_list[0][0][0]: unknown frequency kind 'Burst'"),
            (_one_channel_attack(1.0, freq_kind="Cluster", freq_params=(0, 5)),
             "iter_freqparavalue_list[0][0][0]: Cluster on-window must be >= 1, got 0"),
            (_one_channel_attack(1.0, freq_kind="Cluster", freq_params=(2, -1)),
             "iter_freqparavalue_list[0][0][0]: Cluster off-window must be >= 0, got -1"),
            (_one_channel_attack(float("nan")),
             "iter_biasparavalue_list[0][0][0]: non-finite bias parameters [nan]"),
            (_one_channel_attack(1, 1e308, 0, 0, bias_kind="Sinusoidal"),
             "iter_biasparavalue_list[0][0][0]: Sinusoidal bias [1.0, 1e+308, 0.0, 0.0] "
             "overflows within 300 iterations"),
            (_one_channel_attack(1e308, 0, bias_kind="Linear"),
             "iter_biasparavalue_list[0][0][0]: Linear bias [1e+308, 0.0] overflows within "
             "300 iterations"),
            (_two_constant_slots(1e308, 1e308),
             "victim 2: the 2 x_ite slots active at control step 0 overflow when summed"),
        ],
        ids=[
            "int-attack", "list-attack", "bool-attack", "mixed-type-keys", "text-bias-parameter",
            "int-past-float-range", "unknown-bias-kind", "unknown-frequency-kind",
            "zero-on-window", "negative-off-window", "nan-bias-parameter",
            "overflowing-sinusoid", "overflowing-line", "overflowing-sum",
        ],
    )
    def test_bad_attack_section_exit_code(self, tmp_path, capsys, attack, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(scenario_doc(attack=attack)))
        assert main(self._argv("run", bad, tmp_path)) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_cancelling_attack_slots_exit_code(self, tmp_path, capsys):
        # Summed in slot order, 1e308 and -1e308 cancel: the run goes ahead.
        doc = tmp_path / "cancel.yaml"
        doc.write_text(yaml.safe_dump(scenario_doc(attack=_two_constant_slots(1e308, -1e308))))
        assert main(self._argv("run", doc, tmp_path)) == 0
        assert capsys.readouterr().err == ""

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from platoonsec import cli_runner
        from platoonsec.mpc_controller import NumericalError

        def boom(scenario):
            raise NumericalError("follower 2, control step 7: degenerate Newton data")

        monkeypatch.setattr(cli_runner, "simulate", boom)
        scenario_path = tmp_path / "scenario.yaml"
        scenario_path.write_text(yaml.safe_dump(scenario_doc()))
        rc = main(["run", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "control step 7" in err

    def test_short_run_still_produces_report(self, tmp_path):
        scenario_path = tmp_path / "scenario.yaml"
        scenario_path.write_text(yaml.safe_dump(scenario_doc(sim={"total_control_steps": 5})))
        rc = main(["run", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "impact.txt").exists()

    def test_generate_bias_command(self, tmp_path):
        from test_attack_engine import running_example_doc

        case_path = tmp_path / "case.yaml"
        case_path.write_text(yaml.safe_dump({"n": 6, "attack": running_example_doc()}))
        rc = main(["generate-bias", "--case", str(case_path), "--k", "15", "--out", str(tmp_path / "bias")])
        assert rc == 0
        assert (tmp_path / "bias" / "x_ite_bias.csv").exists()

    def test_replay_detect_command(self, tmp_path):
        scenario_path = tmp_path / "scenario.yaml"
        scenario_path.write_text(yaml.safe_dump(scenario_doc()))
        assert main(["run", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")]) == 0
        rc = main([
            "replay-detect",
            "--trace", str(tmp_path / "out" / "trace.csv"),
            "--config", str(scenario_path),
            "--out", str(tmp_path / "replay"),
        ])
        assert rc == 0
        assert (
            (tmp_path / "replay" / "anomalies.csv").read_bytes()
            == (tmp_path / "out" / "anomalies.csv").read_bytes()
        )


# YAML-shaped documents whose keys are mostly ones the readers know, so that
# the values reach the per-key checks.  Ints stay small: a large
# total_control_steps, n or max_iterations is valid and only makes the work
# large.
_KNOWN_KEYS = sorted(
    {f.name for f in fields(SimConfig)}
    | {"speed", "profile", "trace", "anomalies", "impact", "enabled", "pos_threshold", "lag"}
    | {"ridge", "direction", "sender", "control_steps", "iterations", "n", "max_iterations"}
    | set(ATTACK_LIST_KEYS)
)
_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text("ab-_.1", max_size=4)
    | st.sampled_from(["forward", "backward", "x_ite", "Cluster", "Discrete", "Linear"])
)
_KEYS = st.sampled_from(_KNOWN_KEYS) | st.integers(-1, 2) | st.text("ab", max_size=2)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=16,
)
SCENARIO_KEYS = ("sim", "leader", "attack", "drops", "detection", "seed", "output")


def _documents(*top_level_keys):
    return st.dictionaries(st.sampled_from(top_level_keys), _VALUES, max_size=len(top_level_keys))


class TestAnyDocument:
    """Whatever a document holds, reading it loads or raises an error that
    main() reports as a config error (exit 1), never a traceback."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(doc=_documents(*SCENARIO_KEYS))
    def test_scenario_loads_or_is_a_config_error(self, doc):
        try:
            scenario_from_dict(doc)
        except _INPUT_ERRORS:
            pass

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(doc=_documents("n", "max_iterations", "sim", "attack", *ATTACK_LIST_KEYS[:2]))
    def test_generate_bias_case_exits_0_or_1(self, tmp_path_factory, doc):
        folder = tmp_path_factory.mktemp("case")
        case = folder / "case.yaml"
        case.write_text(yaml.safe_dump(doc))
        argv = ["generate-bias", "--case", str(case), "--k", "3", "--out", str(folder / "bias")]
        assert main(argv) in (0, 1)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(doc=_documents(*SCENARIO_KEYS))
    def test_replay_config_exits_0_or_1(self, tmp_path_factory, doc):
        folder = tmp_path_factory.mktemp("replay")
        config, trace = folder / "config.yaml", folder / "trace.csv"
        config.write_text(yaml.safe_dump(doc))
        trace.write_text(",".join(TRACE_COLUMNS) + "\n")
        argv = ["replay-detect", "--trace", str(trace), "--config", str(config),
                "--out", str(folder / "out")]
        assert main(argv) in (0, 1)


def _assert_no_child_left():
    """Every child this process started has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _failing_forecasters(failures):
    """detection.forecasters, except that the vehicles in ``failures`` raise
    the exception given for them.  The pass still forks with it bound: it is
    not one of the names that keep the pass in one process."""
    real = detection.forecasters

    def make(vehicle, cfg):
        if vehicle in failures:
            raise failures[vehicle]
        return real(vehicle, cfg)
    return make


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count the detection pass sees."""
    return lambda count: monkeypatch.setattr(cli_runner, "_usable_cpus", lambda: count)


class TestParallelDetection:
    """The detection pass deals the followers out to forked workers, one per
    usable CPU; its output must not depend on how many."""

    @pytest.mark.parametrize("path, flags, events", [
        (GOLDEN_DIR / "drop_rules.yaml", 54, 15),
        (SCENARIO_DIR / "string_instability.yaml", 216, 80),
    ], ids=["drop_rules", "string_instability"])
    def test_any_worker_count_gives_the_same_run(self, tmp_path, cpus, path, flags, events):
        scenario = load_scenario(path)
        cpus(1)
        one = simulate(scenario)
        assert sum(row.comparator_flag for row in one.rows) == flags
        assert len(one.events) == events
        trace = tmp_path / "trace.csv"
        cli_runner.write_trace_csv(one.rows, trace)
        for workers in (2, 3, scenario.sim.n + 5):
            cpus(workers)
            result = simulate(scenario)
            _assert_no_child_left()
            assert (result.rows, result.events, result.flags_by_step) == (
                one.rows, one.events, one.flags_by_step)
            assert replay_detection(trace, scenario.detection) == one.events
            _assert_no_child_left()

    def test_events_are_ordered_by_step_then_vehicle(self, cpus):
        cpus(2)
        events = simulate(load_scenario(SCENARIO_DIR / "string_instability.yaml")).events
        keys = [(e.control_step, e.vehicle) for e in events]
        assert keys == sorted(keys) and len(set(keys)) < len(keys)
        for first, second in zip(events, events[1:]):
            if (first.control_step, first.vehicle) == (second.control_step, second.vehicle):
                assert (first.kind, second.kind) == (POS_ANOM, VEL_ANOM)

    def test_header_only_trace_forks_nothing(self, tmp_path, monkeypatch, cpus):
        def no_fork():
            raise AssertionError("forked for an empty trace")

        monkeypatch.setattr(os, "fork", no_fork)
        cpus(4)
        path = tmp_path / "trace.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n")
        assert replay_detection(path, DetectionConfig(seed=0)) == []

    def test_without_fork_one_process_runs_every_vehicle(self, monkeypatch, cpus):
        scenario = load_scenario(GOLDEN_DIR / "drop_rules.yaml")
        cpus(1)
        expected = simulate(scenario)
        monkeypatch.delattr(os, "fork")
        cpus(3)
        result = simulate(scenario)
        assert (result.rows, result.events) == (expected.rows, expected.events)

    def test_a_wrapped_detect_step_sees_every_vehicle(self, monkeypatch, cpus):
        # A profiler's wrapper records in its own process only, so the pass
        # does not fork while one is bound.
        scenario = load_scenario(GOLDEN_DIR / "drop_rules.yaml")
        expected = simulate(scenario)
        seen = []

        def recording(*args):
            seen.append(args[3])
            return detect_vehicle(*args)

        monkeypatch.setattr(cli_runner, "detect_step", recording)
        cpus(3)
        result = simulate(scenario)
        assert seen == list(range(1, scenario.sim.n + 1))
        assert (result.rows, result.events) == (expected.rows, expected.events)

    @pytest.mark.parametrize("name", ["detect_step", "elm_fit", "elm_update"])
    def test_a_bound_wrapper_keeps_the_pass_in_one_process(self, monkeypatch, cpus, name):
        owner = cli_runner if name == "detect_step" else detection
        kernel = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: kernel(*args))
        cpus(3)
        assert cli_runner._workers() == 1
        monkeypatch.undo()
        cpus(3)
        assert cli_runner._workers() == 3

    @pytest.mark.parametrize("error", [
        NumericalFitError("non-finite output weights (ridge=1e-06, samples=9)"),
        DetectionError("non-finite anomaly inputs: nan, 1.0"),
    ], ids=["numerical-fit", "detection"])
    def test_a_child_error_reaches_the_caller(self, monkeypatch, cpus, error):
        # With two workers, vehicles 2, 4 and 6 run in the child.
        monkeypatch.setattr(detection, "forecasters", _failing_forecasters({4: error}))
        cpus(2)
        scenario = load_scenario(GOLDEN_DIR / "drop_rules.yaml")
        with pytest.raises(type(error)) as caught:
            simulate(scenario)
        assert str(caught.value) == str(error)
        _assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_lowest_failing_vehicle_names_the_error(self, monkeypatch, cpus, workers):
        failures = {vehicle: DetectionError(f"vehicle {vehicle}") for vehicle in (2, 3, 5)}
        monkeypatch.setattr(detection, "forecasters", _failing_forecasters(failures))
        cpus(workers)
        with pytest.raises(DetectionError, match="^vehicle 2$"):
            simulate(load_scenario(GOLDEN_DIR / "drop_rules.yaml"))
        _assert_no_child_left()

    def test_an_interrupted_parent_kills_its_children(self, monkeypatch, cpus):
        # Vehicle 1 runs in this process and is interrupted while the
        # children still work; they are killed, not waited for.
        parent = os.getpid()

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        scenario = load_scenario(GOLDEN_DIR / "drop_rules.yaml")
        monkeypatch.setattr(detection, "forecasters", interrupted)
        cpus(3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            simulate(scenario)
        assert time.monotonic() - start < 30
        _assert_no_child_left()

    def test_a_child_that_dies_is_an_error(self, monkeypatch, cpus):
        parent, real = os.getpid(), detection.forecasters

        def dies_in_the_child(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(detection, "forecasters", dies_in_the_child)
        cpus(2)
        with pytest.raises(RuntimeError, match="ended without sending its share"):
            simulate(load_scenario(GOLDEN_DIR / "drop_rules.yaml"))
        _assert_no_child_left()

    @pytest.mark.parametrize("error, code", [
        (NumericalFitError("non-finite output weights"), 2),
        (DetectionError("non-finite anomaly inputs: nan, 1.0"), 1),
    ], ids=["numerical-fit", "detection"])
    def test_main_exit_code_for_a_child_error(self, tmp_path, capsys, monkeypatch, cpus, error, code):
        cpus(2)
        monkeypatch.setattr(detection, "forecasters", _failing_forecasters({2: error}))
        out = tmp_path / "out"
        argv = ["run", "--scenario", str(GOLDEN_DIR / "drop_rules.yaml"), "--out", str(out)]
        assert main(argv) == code
        assert str(error) in capsys.readouterr().err
        _assert_no_child_left()
