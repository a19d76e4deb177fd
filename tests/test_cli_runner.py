import csv
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from platoonsec.attack_engine import ATTACK_LIST_KEYS
from platoonsec.cli_runner import (
    _INPUT_ERRORS,
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
from platoonsec.detection import ComparatorConfig, DetectionConfig
from platoonsec.platoon_model import ConfigError, SimConfig

from conftest import make_scenario, single_channel_case

GOLDEN_DIR = Path(__file__).parent / "golden"


def scenario_doc(**overrides):
    doc = {
        "sim": {"total_control_steps": 40},
        "leader": {"speed": 30.0},
        "seed": 3,
    }
    doc.update(overrides)
    return doc


def _constant_bias_attack(bias):
    return {
        "iter_victim_list": [2],
        "control_attackperiod_list": [[[5, 9]]],
        "iter_malichannel_list": [[["v_ite"]]],
        "iter_freq_type_list": [[["Continuous"]]],
        "iter_freqparavalue_list": [[[[0]]]],
        "iter_biastype_list": [[["Constant"]]],
        "iter_biasparavalue_list": [[[[bias]]]],
    }


class TestScenarioLoading:
    def test_minimal_document(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(scenario_doc()))
        scenario = load_scenario(path)
        assert scenario.sim.total_control_steps == 40
        assert scenario.attack.is_benign
        assert scenario.seed == 3
        assert scenario.detection.seed == 3
        assert scenario.detection == DetectionConfig(seed=3)
        assert scenario.detection_enabled

    def test_detection_section_read(self):
        section = {"enabled": False, "nominal_diff": 1, "pos_threshold": 3, "lag": 3}
        scenario = scenario_from_dict(scenario_doc(detection=section))
        assert not scenario.detection_enabled
        assert isinstance(scenario.detection.pos_threshold, float)
        assert scenario.detection == replace(
            DetectionConfig(seed=3),
            comparator=ComparatorConfig(nominal_diff=1.0),
            pos_threshold=3.0,
            lag=3,
        )

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
        doc = scenario_doc(attack=_constant_bias_attack(2.0))
        scenario = scenario_from_dict(doc)
        assert scenario.attack.iter_victim_list == (2,)

    def test_leader_accel_lookup(self):
        profile = LeaderProfile(30.0, phases=((10, -1.0), (20, 0.5)))
        assert profile.accel_at(5) == 0.0
        assert profile.accel_at(10) == -1.0
        assert profile.accel_at(19) == -1.0
        assert profile.accel_at(25) == 0.5


class TestRunScenario:
    def test_artifacts_written(self, tmp_path):
        scenario = make_scenario(sim=make_scenario().sim.with_overrides(total_control_steps=30))
        paths = run_scenario(scenario, tmp_path)
        assert set(paths) == {"trace", "anomalies", "impact", "impact_csv"}
        with open(paths["trace"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(TRACE_COLUMNS)
        assert len(rows) == 1 + 30 * scenario.sim.n

    def test_deterministic_outputs_byte_identical(self, tmp_path):
        attack = single_channel_case(6, victim=3, window=(15, 20), channel="x_ite", bias_params=[6.0])
        scenario = make_scenario(
            sim=make_scenario().sim.with_overrides(total_control_steps=35), attack=attack
        )
        paths_a = run_scenario(scenario, tmp_path / "a")
        paths_b = run_scenario(scenario, tmp_path / "b")
        for name in paths_a:
            assert paths_a[name].read_bytes() == paths_b[name].read_bytes()

    def test_benign_run_classifies_none(self, tmp_path):
        scenario = make_scenario(sim=make_scenario().sim.with_overrides(total_control_steps=40))
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
            sim=make_scenario().sim.with_overrides(total_control_steps=40), attack=attack
        )
        paths = run_scenario(scenario, tmp_path)
        events = replay_detection(paths["trace"], scenario.detection)
        replay_path = tmp_path / "replay.csv"
        write_anomaly_csv(events, replay_path)
        assert replay_path.read_bytes() == paths["anomalies"].read_bytes()

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
            sim=make_scenario().sim.with_overrides(total_control_steps=40), attack=attack
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
        ],
        ids=[
            "unknown-key", "zero-hidden", "zero-lag", "bool-step", "float-window",
            "negative-warmup", "zero-comparator", "infinite-threshold", "string-threshold",
            "nan-ridge", "infinite-nominal", "int-enabled", "list-section", "zero-section",
            "int-past-float-range",
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
        assert capsys.readouterr().err.startswith("config error: --seed must be an int >= 0")

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
            ({"tau": 0}, "sim.tau must be > 0, got 0"),
            ({"n": 0}, "sim.n must be >= 1, got 0"),
            ({"bogus": 1}, "sim.bogus is not a SimConfig field"),
            ({1: 2}, "sim.1 is not a SimConfig field"),
            (0, "sim must be a mapping, got 0"),
            ([6], "sim must be a mapping, got [6]"),
        ],
        ids=[
            "string-n", "bool-n", "float-iterations", "nan-tau", "nan-margin", "infinite-v-max",
            "string-length", "bool-step", "zero-tau", "zero-n", "unknown-key", "int-key",
            "zero-section", "list-section",
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
        ],
        ids=[
            "string-n", "zero-n", "bool-n", "float-sim-n", "string-iterations",
            "float-sim-iterations", "int-sim", "list-document", "top-level-lists",
        ],
    )
    def test_bad_generate_bias_case_exit_code(self, tmp_path, capsys, case, message):
        bad = tmp_path / "case.yaml"
        bad.write_text(yaml.safe_dump(case))
        argv = ["generate-bias", "--case", str(bad), "--k", "3", "--out", str(tmp_path / "bias")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "bias").exists()

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
        ],
        ids=[
            "short-phase", "float-start", "int-leader", "string-speed", "unknown-leader-key",
            "int-output", "string-flag",
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
            (_constant_bias_attack("a"),
             "iter_biasparavalue_list[0][0][0][0]: expected a number, got 'a'"),
            (_constant_bias_attack(10**400),
             "iter_biasparavalue_list[0][0][0][0]: an int too large for a float"),
        ],
        ids=[
            "int-attack", "list-attack", "bool-attack", "mixed-type-keys", "text-bias-parameter",
            "int-past-float-range",
        ],
    )
    def test_bad_attack_section_exit_code(self, tmp_path, capsys, attack, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(scenario_doc(attack=attack)))
        assert main(self._argv("run", bad, tmp_path)) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

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
