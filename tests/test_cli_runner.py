import copy
import csv
import ctypes
import math
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from platoonsec.attack_engine import ATTACK_LIST_KEYS, iter_attack_value_cal
from platoonsec import cli_runner, detection
from platoonsec.cli_runner import (
    _INPUT_ERRORS,
    MAX_BIAS_CELLS,
    MAX_CONTROL_STEPS,
    MAX_DETECTION_CELLS,
    LeaderProfile,
    OutputFlags,
    TRACE_COLUMNS,
    TraceRow,
    generate_bias_files,
    load_scenario,
    main,
    replay_detection,
    run_scenario,
    scenario_from_dict,
    simulate,
    write_anomaly_csv,
    write_trace_csv,
)
from platoonsec.detection import (
    ANOMALY_CSV_COLUMNS,
    POS_ANOM,
    VEL_ANOM,
    AnomalyEvent,
    DetectionConfig,
    DetectionError,
    NumericalFitError,
    detect_vehicle,
)
from platoonsec.mpc_controller import NumericalError
from platoonsec.platoon_model import ConfigError, SimConfig

from conftest import make_scenario, running_example_doc, single_channel_case

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


# Every YAML document in the repository.
YAML_DOCUMENTS = sorted(SCENARIO_DIR.glob("*.yaml")) + [GOLDEN_DIR / "drop_rules.yaml"] + sorted(
    GOLDEN_DIR.glob("case_*/case.yaml")
)


def _document_loader(base):
    """The document loader's repeated-key rule on PyYAML's loader ``base``
    (``SafeLoader`` or ``CSafeLoader``); a test skips where it is missing."""
    if not hasattr(yaml, base):
        pytest.skip(f"this PyYAML has no {base}")
    return type("Loader", (getattr(yaml, base),), {
        "construct_mapping": cli_runner._DocumentLoader.construct_mapping,
    })


@pytest.fixture(params=["SafeLoader", "CSafeLoader"])
def loader(request):
    return _document_loader(request.param)


def _typed(value):
    """``value`` with the type of every node beside it, so that 3 and 3.0, or
    1 and True, compare unequal."""
    if isinstance(value, dict):
        return dict, [(_typed(k), _typed(v)) for k, v in value.items()]
    if isinstance(value, list):
        return list, [_typed(v) for v in value]
    return type(value), value


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


def _leaves(value, path, keys):
    """(path, keys) of every scalar under ``value``, which sits at ``path``
    and which ``keys`` reach from the document, through lists and mappings."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}", key, item) for key, item in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{q}]", q, item) for q, item in enumerate(value)]
    else:
        return [(path, keys)]
    return [leaf for where, key, item in items for leaf in _leaves(item, where, (*keys, key))]


def _set_leaf(doc, keys, value):
    """Put ``value`` at the node that ``keys`` reach from ``doc``."""
    *parents, last = keys
    for key in parents:
        doc = doc[key]
    doc[last] = value


# Every leaf of every scenario section: each sim, detection and output key, the
# leader's speed and each phase's start and acceleration, the running-example
# attack case, a drop rule and the seed.
_LEAF_DOC = {
    "sim": {**{f.name: f.default for f in fields(SimConfig)}, "total_control_steps": 40},
    "leader": {"speed": 30.0, "profile": [[5, 0.1], [15, -0.1]]},
    "attack": running_example_doc(),
    "drops": [{"direction": "backward", "sender": 3, "control_steps": [10, 30], "iterations": [0, 50]}],
    "detection": {f.name: f.default for f in fields(DetectionConfig) if f.name != "seed"},
    "output": {f.name: f.default for f in fields(OutputFlags)},
    "seed": 3,
}
_LEAVES = [leaf for key, lists in _LEAF_DOC["attack"].items()
           for leaf in _leaves(lists, key, ("attack", key))]
_LEAVES += [leaf for section in ("drops", "sim", "leader", "detection", "output", "seed")
            for leaf in _leaves(_LEAF_DOC[section], section, (section,))]
# Every leaf of a replay config and of a generate-bias case, which main reads.
_CONFIG_DOCS = {
    "replay-detect": {"detection": _LEAF_DOC["detection"], "seed": 3},
    "generate-bias": {"n": 6, "max_iterations": 300, "sim": {"n": 6, "max_iterations": 300},
                      "attack": running_example_doc()},
}
_CONFIG_LEAVES = [(command, *leaf) for command, doc in _CONFIG_DOCS.items()
                  for key, value in doc.items() if key != "attack" for leaf in _leaves(value, key, (key,))]
_CONFIG_LEAVES += [("generate-bias", *leaf) for leaf in _LEAVES if leaf[1][0] == "attack"]


# 10**400 as a message shows it: its first 60 digits and its length.
_BIG = f"1{'0' * 59}... (401 characters)"


class TestScenarioLoading:
    def test_leaf_doc_loads(self):
        scenario = scenario_from_dict(scenario_doc(**copy.deepcopy(_LEAF_DOC)))
        assert (len(scenario.attack), len(scenario.drops)) == (5, 1)
        assert scenario.leader == LeaderProfile(30.0, ((5, 0.1), (15, -0.1)))

    @pytest.mark.parametrize("path, keys", _LEAVES, ids=[path for path, _ in _LEAVES])
    def test_every_bad_leaf_is_named(self, path, keys):
        # Each check on one value names that value's own path, in one form.
        doc = copy.deepcopy(_LEAF_DOC)
        _set_leaf(doc, keys, "bogus")
        with pytest.raises(ConfigError) as error:
            scenario_from_dict(scenario_doc(**doc))
        assert str(error.value).startswith(f"{path} must be "), str(error.value)

    @pytest.mark.parametrize("params, message", [
        ([5], "[0] must be an int in 0..0, got 5"),
        (["bogus"], "[0] must be an int in 0..0, got 'bogus'"),
        ([False], "[0] must be an int in 0..0, got False"),
        ([0.0], "[0] must be an int in 0..0, got 0.0"),
        ([], ": Continuous takes [0], got []"),
        ([0, 0], ": Continuous takes [0], got [0, 0]"),
    ], ids=["five", "string", "bool", "float", "empty", "two-entries"])
    def test_continuous_takes_exactly_zero(self, params, message):
        doc = scenario_doc(attack=_one_channel_attack(3.0, freq_params=params))
        with pytest.raises(ConfigError) as error:
            scenario_from_dict(doc)
        assert str(error.value) == f"iter_freqparavalue_list[0][0][0]{message}"

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
            "norm_window": 100, "warmup_steps": 5,
        }
        defaults = DetectionConfig()
        assert set(section) == {f.name for f in fields(DetectionConfig)} - {"seed"}
        assert all(value != getattr(defaults, key) for key, value in section.items())
        detection = scenario_from_dict(scenario_doc(detection=section)).detection
        assert detection == DetectionConfig(**section, seed=3)
        for key in ("comparator_threshold", "nominal_diff", "pos_threshold"):
            assert isinstance(getattr(detection, key), float)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="^bogus is not a scenario key$"):
            scenario_from_dict(scenario_doc(bogus={}))

    def test_an_unknown_key_past_the_digit_limit_is_a_config_error(self):
        # str() of such an int raises; YAML cannot write one, Python can.
        # The first unknown key in the document's order is named.
        with pytest.raises(ConfigError, match=r"^<int too long to print> is not a scenario key$"):
            scenario_from_dict({10**5000: 1})
        with pytest.raises(ConfigError, match=r"^1 is not a scenario key$"):
            scenario_from_dict({1: 1, "x": 2, 10**5000: 3})

    @pytest.mark.parametrize("doc, message", [
        (scenario_doc(drops=[{"direction": "forward", "sender": 2, "control_steps": [10**5000, 0]}]),
         "drops[0].control_steps: invalid interval [<int too long to print>, 0]"),
        (scenario_doc(drops=[{"direction": "forward", "sender": 2, "iterations": [10**5000, 10**5000]}]),
         "drops[0].iterations [<int too long to print>, <int too long to print>] starts at or past "
         "max_iterations=300, so the rule never fires"),
        (scenario_doc(attack={**_one_channel_attack(1.0), "control_attackperiod_list": [[[10**5000, 3]]]}),
         "control_attackperiod_list[0][0]: invalid interval [<int too long to print>, 3]"),
    ], ids=["control-steps", "iterations", "attack-period"])
    def test_an_interval_shows_each_bound_on_its_own(self, doc, message):
        # A bound past str's digit limit no longer hides the other bound.
        # YAML cannot write such an int; Python can.
        with pytest.raises(ConfigError) as error:
            scenario_from_dict(doc)
        assert str(error.value) == message

    def test_leader_profile_velocity_validated(self):
        # -9 m/s^2 sustained from step 5 drives the leader below v_min well
        # inside the 40-step horizon; the message names the phase in force.
        doc = scenario_doc(leader={"speed": 30.0, "profile": [[5, -9.0]]})
        with pytest.raises(ConfigError) as error:
            scenario_from_dict(doc)
        assert str(error.value) == (
            "leader.profile[0] drives the leader's velocity to -0.599999999999983 at step 39, "
            "outside [0.0, 40.0]")
        # The velocity is shown as computed: rounded to three decimals,
        # 28.999999999999986 would read 29.000, inside [29.0, 31.0].
        doc = scenario_doc(sim={"v_min": 29.0, "v_max": 31.0, "total_control_steps": 50},
                           leader={"speed": 30.0, "profile": [[0, 0.5], [10, -0.5]]})
        with pytest.raises(ConfigError) as error:
            scenario_from_dict(doc)
        assert str(error.value) == (
            "leader.profile[1] drives the leader's velocity to 28.999999999999986 at step 40, "
            "outside [29.0, 31.0]")

    def test_leader_speed_bounds(self):
        # The loader is where the leader's initial speed is checked.
        sim = SimConfig()
        assert scenario_from_dict(scenario_doc(leader={"speed": sim.v_max})).leader.speed == sim.v_max
        for speed in (sim.v_max + 1.0, sim.v_min - 0.1):
            with pytest.raises(ConfigError, match=r"^leader\.speed must be in \[0\.0, 40\.0\], got "):
                scenario_from_dict(scenario_doc(leader={"speed": speed}))

    @pytest.mark.parametrize("sim, leader", [
        ({"L_veh": 3.0e307}, {}), ({"delta": 1.0e308}, {}), ({"v_max": 1.5e308}, {"speed": 1.0e308}),
    ], ids=["L_veh", "delta", "speed"])
    def test_a_platoon_that_cannot_start_is_rejected(self, sim, leader):
        # The leader starts n nominal gaps ahead of the last follower.
        with pytest.raises(ConfigError, match=(
                r"^need a finite leader start, sim\.n \* \(sim\.L_veh \+ sim\.p \* sim\.tau "
                r"\* leader\.speed \+ sim\.delta\), got inf$")):
            scenario_from_dict(scenario_doc(sim=sim, leader=leader))
        assert scenario_from_dict(scenario_doc(sim={"L_veh": 2.9e307})).sim.L_veh == 2.9e307

    @pytest.mark.parametrize("sim, hessians", [
        ({"tau": 1.0e-320}, "0.0, 0.0"), ({"p": 1.0e300}, "inf, inf"),
        ({"Q_alpha": 1.0e308, "tau": 10.0}, "inf, inf"), ({"Q_beta": 1.0e308, "tau": 10.0}, "inf, inf"),
    ], ids=["tau", "p", "Q_alpha", "Q_beta"])
    def test_a_degenerate_newton_hessian_is_a_config_error(self, tmp_path, capsys, sim, hessians):
        # The sim alone fixes the controller's Hessians, so loading checks them.
        message = (f"need sim.tau, sim.p, sim.Q_alpha and sim.Q_beta that give finite Newton Hessians "
                   f"> 0: degenerate Newton Hessian {hessians}")
        with pytest.raises(ConfigError) as error:
            scenario_from_dict(scenario_doc(sim=sim))
        assert str(error.value) == message
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(scenario_doc(sim=sim)))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

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
        phases=st.dictionaries(st.integers(0, 60) | st.sampled_from([2**63, 2**70, 10**400]),
                               st.floats(-3.0, 3.0), max_size=8),
        steps=st.integers(0, 50),
    )
    @example(phases={}, steps=20)
    @example(phases={0: -1.0, 5: 0.5}, steps=10)
    @example(phases={3: 1.0, 40: -2.0, 41: 2.0}, steps=30)
    @example(phases={5: 0.1, 2**70: 1.0}, steps=40)
    @example(phases={2**70: 1.0}, steps=40)
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

    @pytest.mark.parametrize("doc, covered", [
        (SCENARIO_DIR / "benign.yaml", []),
        (SCENARIO_DIR / "single_target.yaml", list(range(40, 46))),
        (GOLDEN_DIR / "drop_rules.yaml", list(range(20, 31))),
    ], ids=["benign", "single_target", "drop_rules"])
    def test_bias_matrices_built_only_for_covered_steps(self, monkeypatch, doc, covered):
        # A step no slot or drop rule covers has no channel to build.
        steps = []

        def spy(n, k, max_iterations, slots):
            steps.append(k)
            return iter_attack_value_cal(n, k, max_iterations, slots)

        monkeypatch.setattr(cli_runner, "iter_attack_value_cal", spy)
        scenario = load_scenario(doc)
        assert len(simulate(scenario).step_outcomes) == scenario.sim.total_control_steps
        assert steps == covered

    def test_benign_run_classifies_none(self, tmp_path):
        scenario = make_scenario(sim=replace(make_scenario().sim, total_control_steps=40))
        result = simulate(scenario)
        assert all(
            v.classification.value == "None" for v in result.impact.per_vehicle
        )

    @pytest.mark.parametrize("flag, written", [
        ("trace", ["anomalies", "impact", "impact_csv"]),
        ("anomalies", ["impact", "impact_csv", "trace"]),
        ("impact", ["anomalies", "trace"]),
    ])
    def test_an_output_flag_leaves_out_its_artifacts(self, tmp_path, capsys, flag, written):
        # single_target's 60 steps hold the attack and its anomalies.
        doc = yaml.safe_load((SCENARIO_DIR / "single_target.yaml").read_text())
        doc["sim"]["total_control_steps"] = 60
        full = run_scenario(scenario_from_dict(doc), tmp_path / "full")
        assert (tmp_path / "full" / "anomalies.csv").read_text().count("\n") > 1
        doc["output"] = {flag: False}
        paths = run_scenario(scenario_from_dict(doc), tmp_path / "part")
        assert sorted(paths) == written
        assert sorted(path.name for path in (tmp_path / "part").iterdir()) == sorted(
            full[name].name for name in written)
        for name in written:
            assert paths[name].read_bytes() == full[name].read_bytes(), name
        (tmp_path / "doc.yaml").write_text(yaml.safe_dump(doc))
        assert main(["run", "--scenario", str(tmp_path / "doc.yaml"), "--out", str(tmp_path / "cli")]) == 0
        assert capsys.readouterr().out == "".join(
            f"{name}: {tmp_path / 'cli' / full[name].name}\n" for name in written)


_ROW = TraceRow(7, 2, 120.5, 25.0, -0.5, 19.75, 0.8, 0, None, None, 0, 0)


class TestCellFormats:
    # csv writes every cell: None as an empty cell, anything else through
    # str, so a float, numpy's too, in its shortest round-trip form.
    @pytest.mark.parametrize("write, record, line", [
        (write_trace_csv, _ROW, "7,2,120.5,25.0,-0.5,19.75,0.8,0,,,0,0"),
        (write_trace_csv, _ROW._replace(comparator_flag=1, elm_pos_pred=120.25, pos_anom=1, vel_anom=1),
         "7,2,120.5,25.0,-0.5,19.75,0.8,1,120.25,,1,1"),
        (write_trace_csv, _ROW._replace(x=-0.0, v=math.nan, u=math.inf, gap_front=1e-300),
         "7,2,-0.0,nan,inf,1e-300,0.8,0,,,0,0"),
        (write_trace_csv, _ROW._replace(headway=np.float64(0.1), elm_vel_pred=np.float64(-2.5e-08)),
         "7,2,120.5,25.0,-0.5,19.75,0.1,0,,-2.5e-08,0,0"),
        (write_anomaly_csv, AnomalyEvent(POS_ANOM, 12, 3, 41.0, -0.0), f"{POS_ANOM},12,3,41.0,-0.0"),
        (write_anomaly_csv, AnomalyEvent(VEL_ANOM, 0, 6, math.inf, np.float64(1e-300)),
         f"{VEL_ANOM},0,6,inf,1e-300"),
    ], ids=["none-and-0-flags", "1-flags", "signed-zero-nan-inf-tiny", "numpy-float64",
            "anomaly", "anomaly-numpy-float64"])
    def test_exact_text(self, tmp_path, write, record, line):
        path = tmp_path / "out.csv"
        write([record], path)
        header = TRACE_COLUMNS if write is write_trace_csv else ANOMALY_CSV_COLUMNS
        assert path.read_bytes() == f"{','.join(header)}\r\n{line}\r\n".encode()


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
        path = tmp_path / "trace.csv"
        path.write_text("control_step,vehicle_id\n")
        with pytest.raises(ConfigError, match="line 1: expected the header control_step,vehicle_id,x,v,u,"):
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


def _repeat_x_column(lines):
    """A second x column, of 999s, after the last: it would hide the first."""
    return [lines[0].rstrip("\n") + ",x\n"] + [line.rstrip("\n") + ",999\n" for line in lines[1:]]


def _edit_row(row, column, value):
    def edit(lines):
        fields = lines[row].rstrip("\n").split(",")
        fields[TRACE_COLUMNS.index(column)] = value
        return lines[:row] + [",".join(fields) + "\n"] + lines[row + 1 :]

    return edit


# What a replay says of a cell that int or float reads but run never writes.
_NOT_WRITTEN = "a cell is not in the form run writes, an int's str or a float's repr"


class TestReplayBadTrace:
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_cut_mid_row, "line 241 does not have the header's 12 fields"),
            (_drop_vehicle_1_of_step_5,
             "line 32: expected control step 5, vehicle 1, got control step 5, vehicle 2"),
            (_duplicate_step_0,
             "line 242: expected control step 40, vehicle 1, got control step 0, vehicle 1"),
            (_drop_step_7, "line 44: expected control step 7, vehicle 1, got control step 8, vehicle 1"),
            (lambda lines: lines[:3] + [lines[3].rstrip("\n") + ",1\n"] + lines[4:],
             "line 4 does not have the header's 12 fields"),
            (_edit_row(9, "x", "abc"), "line 10: could not convert string to float"),
            (_edit_row(9, "control_step", "1.5"), "line 10: invalid literal for int()"),
            (_edit_row(9, "v", "nan"), "line 10: x, v and gap_front must be finite"),
            (_edit_row(9, "vehicle_id", "0"),
             "line 10: expected control step 1, vehicle 3, got control step 1, vehicle 0"),
            (_edit_row(9, "comparator_flag", "2"), "line 10: comparator_flag must be 0 or 1"),
            (_edit_row(9, "u", "bogus"), "line 10: could not convert string to float: 'bogus'"),
            (_edit_row(9, "u", "inf"),
             "line 10: u must be finite, and elm_pos_pred and elm_vel_pred empty or finite"),
            (_edit_row(9, "headway", "bogus"), "line 10: could not convert string to float: 'bogus'"),
            (_edit_row(9, "elm_vel_pred", "nan"),
             "line 10: u must be finite, and elm_pos_pred and elm_vel_pred empty or finite"),
            (_edit_row(239, "elm_pos_pred", "1e400"),
             "line 240: u must be finite, and elm_pos_pred and elm_vel_pred empty or finite"),
            (_edit_row(9, "pos_anom", "2"), "line 10: pos_anom and vel_anom must be 0 or 1"),
            (_edit_row(9, "vel_anom", ""), "line 10: pos_anom and vel_anom must be 0 or 1"),
            (lambda lines: lines[:-1] + [lines[-1].rstrip("\n") + ",\n"],
             "line 241 does not have the header's 12 fields"),
            (lambda lines: lines[:5] + ["\n"] + _edit_row(5, "x", "abc")(lines)[5:],
             "line 6 does not have the header's 12 fields"),
            (_edit_row(9, "x", "1" * (csv.field_size_limit() + 1)),
             "line 10: field larger than field limit (131072)"),
            (_edit_row(1, "vehicle_id", str(10**12)),
             "line 2: expected control step 0, vehicle 1, got control step 0, vehicle 1000000000000"),
            # Only an incomplete last step is found after the last line.
            (lambda lines: lines[:-1], "trace.csv: control step 39 lacks vehicle 6"),
            # Step 0 fixes n: without its vehicle 6, step 1's vehicle 6 is out of place.
            (lambda lines: lines[:6] + lines[7:],
             "line 12: expected control step 2, vehicle 1, got control step 1, vehicle 6"),
            (_repeat_x_column, "line 1: expected the header control_step,vehicle_id,x,v,u,gap_front,"),
            # int and float take these forms, which run never writes.
            (_edit_row(1, "x", "1_23.0"), f"line 2: {_NOT_WRITTEN}"),
            (_edit_row(9, "control_step", " 1 "), f"line 10: {_NOT_WRITTEN}"),
            (_edit_row(9, "v", "\u0663\u0660.0"), f"line 10: {_NOT_WRITTEN}"),
            (_edit_row(1, "x", "+123.0"), f"line 2: {_NOT_WRITTEN}"),
            (_edit_row(1, "headway", "Infinity"), f"line 2: {_NOT_WRITTEN}"),
            (_edit_row(1, "headway", "NaN"), f"line 2: {_NOT_WRITTEN}"),
            (_edit_row(9, "u", ".5"), f"line 10: {_NOT_WRITTEN}"),
            (_edit_row(9, "gap_front", "5."), f"line 10: {_NOT_WRITTEN}"),
            (_edit_row(9, "v", "1E5"), f"line 10: {_NOT_WRITTEN}"),
            (_edit_row(9, "x", "5"), f"line 10: {_NOT_WRITTEN}"),
            (_edit_row(9, "vehicle_id", "003"), f"line 10: {_NOT_WRITTEN}"),
        ],
        ids=[
            "cut-mid-row", "missing-vehicle", "duplicated-rows", "missing-step", "extra-field",
            "text-x", "float-step", "nan-v", "vehicle-0", "flag-2", "text-u", "inf-u", "text-headway",
            "nan-vel-pred", "overflowing-pos-pred", "pos-anom-2", "empty-vel-anom", "extra-empty-field",
            "bad-row-after-a-blank-line", "oversized-field", "vehicle-10**12", "incomplete-last-step",
            "step-0-lacks-its-last-vehicle", "repeated-x-column", "underscored-x", "spaced-step",
            "arabic-indic-v", "plus-x", "infinity-headway", "capital-nan-headway", "bare-fraction-u",
            "bare-point-gap", "capital-exponent-v", "int-x", "leading-zero-vehicle",
        ],
    )
    def test_exit_code_names_line_or_step(self, tmp_path, capsys, live_trace_lines, corrupt, message):
        _assert_replay_names(tmp_path, capsys, corrupt(live_trace_lines), message)

    def test_rows_out_of_order_are_rejected(self, tmp_path, capsys, live_trace_lines):
        reversed_rows = live_trace_lines[:1] + live_trace_lines[:0:-1]
        _assert_replay_names(tmp_path, capsys, reversed_rows,
                             "line 2: expected control step 0, vehicle 1, got control step 39, vehicle 6")

    def test_columns_out_of_order_are_rejected(self, tmp_path, capsys, live_trace_lines):
        reversed_columns = [",".join(line.rstrip("\n").split(",")[::-1]) + "\n" for line in live_trace_lines]
        _assert_replay_names(tmp_path, capsys, reversed_columns,
                             "line 1: expected the header control_step,vehicle_id,x,v,u,gap_front,headway,"
                             "comparator_flag,elm_pos_pred,elm_vel_pred,pos_anom,vel_anom, got 'vel_anom,")

    def test_nan_headway_and_empty_predictions_are_read(self, tmp_path, live_trace_lines):
        # A live run writes NaN headway at v <= 0 and empty predictions in
        # the warmup; neither changes what a replay reads.
        live, edited = tmp_path / "live.csv", tmp_path / "edited.csv"
        live.write_text("".join(live_trace_lines))
        lines = _edit_row(240, "elm_pos_pred", "")(_edit_row(1, "headway", "nan")(live_trace_lines))
        edited.write_text("".join(lines))
        assert ",nan," in lines[1] and ",," in lines[240] and ",," not in live_trace_lines[240]
        assert cli_runner._read_trace(edited) == cli_runner._read_trace(live)

    def test_blank_lines_are_rejected(self, tmp_path, capsys, live_trace_lines):
        lines = live_trace_lines
        blank = lines[:1] + ["\n"] + lines[1:100] + ["\r\n", "\n"] + lines[100:] + ["\n"]
        _assert_replay_names(tmp_path, capsys, blank, "line 2 does not have the header's 12 fields")
        _assert_replay_names(tmp_path, capsys, lines + ["\n"],
                             "line 242 does not have the header's 12 fields")


def _assert_replay_names(tmp_path, capsys, lines, message):
    """Replaying the trace ``lines`` exits 1 with a config error that names
    the trace and holds ``message``, and writes nothing."""
    trace = tmp_path / "trace.csv"
    trace.write_text("".join(lines))
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(scenario_doc()))
    argv = ["replay-detect", "--trace", str(trace), "--config", str(config),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {trace}") and message in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("command", _CONFIG_DOCS)
    def test_config_leaf_docs_run(self, tmp_path, command):
        good = tmp_path / "good.yaml"
        good.write_text(yaml.safe_dump(_CONFIG_DOCS[command]))
        assert main(self._argv(command, good, tmp_path)) == 0

    @pytest.mark.parametrize("command, path, keys", _CONFIG_LEAVES,
                             ids=[f"{command}-{path}" for command, path, _ in _CONFIG_LEAVES])
    def test_every_bad_leaf_of_a_config_or_case_is_named(self, tmp_path, capsys, command, path, keys):
        # Through main, as for the scenario's leaves: the message names the
        # leaf's own path, in one form.
        doc = copy.deepcopy(_CONFIG_DOCS[command])
        _set_leaf(doc, keys, "bogus")
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert main(self._argv(command, bad, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path} must be "), err

    def test_a_phase_past_the_run_changes_nothing(self, tmp_path):
        # A phase that starts after the run, even 2**70 steps after it, is
        # accepted, as drop-rule steps past the run are, and leaves the run
        # as it was.
        profiles = {"huge": f"[[5, 0.1], [{2**70}, 1.0]]", "past": "[[5, 0.1], [40, 1.0], [41, -1.0]]",
                    "short": "[[5, 0.1]]"}
        for name, profile in profiles.items():
            doc = tmp_path / f"{name}.yaml"
            doc.write_text(f"sim: {{total_control_steps: 40}}\nleader: {{speed: 30.0, profile: {profile}}}\n")
            assert main(["run", "--scenario", str(doc), "--out", str(tmp_path / name)]) == 0
        for artifact in ("trace.csv", "anomalies.csv", "impact.txt", "impact.csv"):
            short = (tmp_path / "short" / artifact).read_bytes()
            assert (tmp_path / "huge" / artifact).read_bytes() == short, artifact
            assert (tmp_path / "past" / artifact).read_bytes() == short, artifact

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
            ({"lag": True}, "detection.lag"),
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
            ({"norm_window": 3}, "detection.norm_window must be at least lag + 2 = 4, got 3"),
            ({"step_forward": 1}, "detection.step_forward is not a detection key"),
        ],
        ids=[
            "unknown-key", "zero-hidden", "zero-lag", "bool-lag", "float-window",
            "negative-warmup", "zero-comparator", "infinite-threshold", "string-threshold",
            "nan-ridge", "infinite-nominal", "int-enabled", "list-section", "zero-section",
            "int-past-float-range", "huge-hidden", "huge-lag", "huge-window", "window-without-pairs",
            "removed-step-forward",
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

    def test_repeated_keys_under_either_yaml_loader(self, loader):
        for text, line, key in REPEATED_KEYS.values():
            with pytest.raises(ConfigError, match=f"line {line}: key '{key}' is repeated"):
                yaml.load(text, loader)
        with pytest.raises(yaml.YAMLError, match="found unhashable key"):
            yaml.load("{[1]: 2}", loader)
        merged = yaml.load("base: &base {n: 6, tau: 0.2}\nsim: {<<: *base, n: 3}\n", loader)
        assert merged["sim"] == {"n": 3, "tau": 0.2}

    @pytest.mark.parametrize("path", YAML_DOCUMENTS, ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_either_yaml_loader_reads_the_same_values(self, path):
        values = []
        for base in ("SafeLoader", "CSafeLoader"):
            with open(path, encoding="utf-8") as fh:
                values.append(_typed(yaml.load(fh, _document_loader(base))))
        assert values[0] == values[1]

    def test_either_yaml_loader_names_the_file_and_line(self, tmp_path, loader):
        unclosed, repeated = tmp_path / "unclosed.yaml", tmp_path / "repeated.yaml"
        unclosed.write_text("seed: 1\nsim: {n: 6}\nleader: {profile: [[0, 1.0], [5, 2.0]\noutput: {}\n")
        repeated.write_text(REPEATED_KEYS["sim"][0])
        with open(unclosed, encoding="utf-8") as fh, pytest.raises(yaml.YAMLError) as caught:
            yaml.load(fh, loader)
        assert f'in "{unclosed}", line 4' in str(caught.value)  # the wording is the parser's
        with open(repeated, encoding="utf-8") as fh, pytest.raises(ConfigError) as caught:
            yaml.load(fh, loader)
        assert str(caught.value) == f"{repeated} line 4: key 'n' is repeated"

    @pytest.mark.parametrize("command", ["run", "replay-detect", "generate-bias"])
    @pytest.mark.parametrize(
        "text, message",
        [
            (f"sim: {{n: {'9' * 5000}}}\n", "Exceeds the limit (4300 digits)"),
            ("seed: 2020-02-30\n", "day is out of range for month"),
        ],
        ids=["int-past-digit-limit", "no-such-date"],
    )
    def test_scalar_no_constructor_can_make_exit_code(self, tmp_path, capsys, command, text,
                                                       message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        assert main(self._argv(command, bad, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}: {message}") and err.count("\n") == 1

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
        assert err == "config error: 1 is not a scenario key\n"

    @pytest.mark.parametrize(
        "sim, message",
        [
            ({"n": "3"}, "sim.n must be an int >= 1, got '3'"),
            ({"n": True}, "sim.n must be an int >= 1, got True"),
            ({"max_iterations": 300.0}, "sim.max_iterations must be an int >= 1, got 300.0"),
            ({"tau": float("nan")}, "sim.tau must be a finite number > 0, got nan"),
            ({"dual_margin": float("nan")}, "sim.dual_margin must be a finite number, got nan"),
            ({"v_max": float("inf")}, "sim.v_max must be a finite number, got inf"),
            ({"L_veh": "5.0"}, "sim.L_veh must be a finite number > 0, got '5.0'"),
            ({"dual_step": False}, "sim.dual_step must be a finite number > 0, got False"),
            ({"dual_step": 0}, "sim.dual_step must be a finite number > 0, got 0"),
            ({"dual_step": -1.0}, "sim.dual_step must be a finite number > 0, got -1.0"),
            ({"dual_decay": 1.5}, "sim.dual_decay must be a number in [0, 1], got 1.5"),
            ({"dual_decay": -0.1}, "sim.dual_decay must be a number in [0, 1], got -0.1"),
            ({"dual_decay": 1e200}, "sim.dual_decay must be a number in [0, 1], got 1e+200"),
            ({"p": -1.0}, "sim.p must be a finite number >= 0, got -1.0"),
            ({"delta": -20.0}, "sim.delta must be a finite number >= 0, got -20.0"),
            ({"tau": 0}, "sim.tau must be a finite number > 0, got 0"),
            ({"n": 0}, "sim.n must be an int >= 1, got 0"),
            ({"bogus": 1}, "sim.bogus is not a SimConfig field"),
            ({1: 2}, "sim.1 is not a SimConfig field"),
            # A key that would not read as one step of the path is bracketed.
            ({"": 2}, "sim[''] is not a SimConfig field"),
            ({1.5: 2}, "sim[1.5] is not a SimConfig field"),
            ({"a.b": 2}, "sim['a.b'] is not a SimConfig field"),
            (0, "sim must be a mapping, got 0"),
            ([6], "sim must be a mapping, got [6]"),
            ({"total_control_steps": 10**9},
             "sim.total_control_steps must be at most 1000000, got 1000000000"),
        ],
        ids=[
            "string-n", "bool-n", "float-iterations", "nan-tau", "nan-margin", "infinite-v-max",
            "string-length", "bool-step", "zero-step", "negative-step", "big-decay",
            "negative-decay", "huge-decay", "negative-p", "negative-delta", "zero-tau", "zero-n",
            "unknown-key", "int-key", "empty-key", "float-key", "dotted-key", "zero-section", "list-section",
            "too-many-steps",
        ],
    )
    def test_bad_sim_section_exit_code(self, tmp_path, capsys, sim, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(scenario_doc(sim=sim)))
        assert main(self._argv("run", bad, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("decay", [0, 1])
    def test_dual_decay_takes_its_bounds(self, decay):
        scenario = scenario_from_dict(scenario_doc(sim={"dual_decay": decay}))
        assert scenario.sim.dual_decay == decay
        assert type(scenario.sim.dual_decay) is float

    @pytest.mark.parametrize("key", ["p", "delta"])
    def test_spacing_terms_take_zero(self, key):
        # p = 0 is constant spacing.
        scenario = scenario_from_dict(scenario_doc(sim={key: 0}))
        assert getattr(scenario.sim, key) == 0
        assert type(getattr(scenario.sim, key)) is float

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
            # The sim section is read as a scenario's is.
            ({"sim": {"bogus": 1}}, "sim.bogus is not a SimConfig field"),
            ({"sim": {"tau": 0}}, "sim.tau must be a finite number > 0, got 0"),
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
            "float-sim-iterations", "int-sim", "unknown-sim-key", "zero-sim-tau", "list-document",
            "top-level-lists", "overflowing-line",
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
             f"got 6 x 1{'0' * 59}... (401 characters)"),
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
        detection = {"hidden_count": side, "norm_window": side, "lag": side - 2}
        read = scenario_from_dict(scenario_doc(detection=detection)).detection
        assert (read.hidden_count, read.norm_window) == (side, side)
        with pytest.raises(ConfigError, match="detection.hidden_count x detection.hidden_count"):
            scenario_from_dict(scenario_doc(detection={**detection, "hidden_count": side + 1}))
        with pytest.raises(ConfigError, match="detection.norm_window must be at least"):
            scenario_from_dict(scenario_doc(detection={**detection, "lag": side - 1}))

    def test_shortest_detection_window_is_fitted(self, monkeypatch):
        # norm_window = lag + 2 increments hold two training pairs.
        fits = []
        fit = detection.elm_fit
        monkeypatch.setattr(detection, "elm_fit", lambda *args: fits.append(args) or fit(*args))
        leader = {"speed": 30.0, "profile": [[5, 1.0], [15, -1.0]]}
        simulate(scenario_from_dict(scenario_doc(leader=leader, detection={"lag": 2, "norm_window": 4})))
        assert fits

    def test_bias_size_limit_is_inclusive(self):
        sim = {"n": 1000, "max_iterations": MAX_BIAS_CELLS // 1000}
        assert scenario_from_dict(scenario_doc(sim=sim)).sim.n == 1000

    @pytest.mark.parametrize("overrides, message", [
        ({"sim": {"n": 10**400}}, f"sim.n x sim.max_iterations must be at most 1000000 bias-matrix "
         f"cells, got {_BIG} x 300"),
        ({"sim": {10**400: 1}}, f"sim.{_BIG} is not a SimConfig field"),
        ({"drops": [{"direction": "forward", "sender": 2, "iterations": [10**400, 10**400]}]},
         f"drops[0].iterations [{_BIG}, {_BIG}] starts at or past "
         "max_iterations=300, so the rule never fires"),
        ({"drops": [{"direction": "forward", "sender": 10**400}]},
         f"drops[0].sender must be an int in 0..5 for a forward rule with n=6, got {_BIG}"),
        ({"drops": [{"direction": "forward", "sender": 2, "control_steps": [10**400, 0]}]},
         f"drops[0].control_steps: invalid interval [{_BIG}, 0]"),
        ({"detection": {"hidden_count": 10**400}}, f"detection.hidden_count x detection.hidden_count "
         f"must be at most 1000000 cells, got {_BIG} x {_BIG}"),
        ({10**400: 1}, f"{_BIG} is not a scenario key"),
        ({"attack": _one_channel_attack(1.0, freq_kind="Cluster", freq_params=(1, 10**400))},
         f"iter_freqparavalue_list[0][0][0][1] must be a finite number, got {_BIG}"),
        ({"attack": {**_one_channel_attack(1.0), "iter_victim_list": [10**400]}},
         f"iter_victim_list[0] must be an int in 1..6, got {_BIG}"),
        ({"attack": {**_one_channel_attack(1.0), "x" * 100: []}},
         f"attack.{'x' * 60}... (100 characters) is not an attack-case key"),
        ({"attack": _one_channel_attack(1.0, freq_params=[0] * 100)},
         f"iter_freqparavalue_list[0][0][0]: Continuous takes [0], got [{'0, ' * 19}0,... "
         "(300 characters)"),
        ({"seed": -10**400}, f"seed must be an int >= 0, got -{_BIG[:59]}... (402 characters)"),
        ({"leader": {"profile": [[10**400, 0.1], [5, 0.1]]}},
         f"leader.profile[1][0] must be an int >= {_BIG}, got 5"),
        ({"leader": {"profile": [[0, 1e308]]}}, "leader.profile[0] drives the leader's velocity to "
         "1.0000000000000001e+307 at step 1, outside [0.0, 40.0]"),
    ], ids=["cells", "sim-key", "drop-iterations", "drop-sender", "interval", "detection-cells",
            "top-level-key", "cluster-window", "victim", "attack-key", "continuous-list", "seed",
            "phase-start", "velocity"])
    def test_a_long_value_is_shown_cut(self, tmp_path, capsys, overrides, message):
        # Whatever its size, a bad value is shown in about 80 characters.
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({**scenario_doc(), **overrides}))
        assert main(self._argv("run", bad, tmp_path)) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_a_long_key_or_trace_field_is_shown_cut(self, tmp_path, capsys):
        repeated = tmp_path / "repeated.yaml"
        repeated.write_text(f"sim: {{{'n' * 100}: 1, {'n' * 100}: 2}}\n")
        assert main(self._argv("run", repeated, tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"config error: {repeated} line 1: key '{'n' * 59}... (102 characters) is repeated\n")
        trace, config = tmp_path / "trace.csv", tmp_path / "config.yaml"
        trace.write_text(",".join(TRACE_COLUMNS) + "\n0,1," + "x" * 1000 + ",1,0,1,1,0,,,0,0\n")
        config.write_text("seed: 1\n")
        argv = ["replay-detect", "--trace", str(trace), "--config", str(config),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"config error: {trace} line 2: could not convert string to "
                                           f"float: '{'x' * 24}... (1037 characters)\n")
        trace.write_text(",".join(TRACE_COLUMNS) + "\n0," + "9" * 1000 + ",1,1,0,1,1,0,,,0,0\n")
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"config error: {trace} line 2: expected control step 0, "
                                           f"vehicle 1, got control step 0, vehicle {'9' * 60}... "
                                           "(1000 characters)\n")

    def test_negative_k_exit_code(self, tmp_path, capsys):
        case = Path(__file__).parent.parent / "scenarios" / "single_target.yaml"
        argv = ["generate-bias", "--case", str(case), "--k", "-1", "--out", str(tmp_path / "bias")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "config error: --k must be an int >= 0, got -1\n"
        assert not (tmp_path / "bias").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"leader": {"profile": [[1]]}},
             "leader.profile[0] must be a [start_step, acceleration] pair, got [1]"),
            ({"leader": {"profile": [[1.5, 2]]}}, "leader.profile[0][0] must be an int >= 0, got 1.5"),
            ({"leader": 5}, "leader must be a mapping, got 5"),
            ({"leader": {"speed": "fast"}}, "leader.speed must be a finite number, got 'fast'"),
            ({"leader": {"speed": 41}}, "leader.speed must be in [0.0, 40.0], got 41.0"),
            ({"leader": {"speeed": 20}}, "leader.speeed is not a leader key"),
            ({"output": 5}, "output must be a mapping, got 5"),
            ({"output": {"trace": "no"}}, "output.trace must be a bool, got 'no'"),
            ({"leader": {"profile": [[50, 1.0], [0, -1.0]]}},
             "leader.profile[1][0] must be an int >= 51, got 0"),
            ({"leader": {"profile": [[10, 1.0], [10, -1.0]]}},
             "leader.profile[1][0] must be an int >= 11, got 10"),
        ],
        ids=[
            "short-phase", "float-start", "int-leader", "string-speed", "fast-speed",
            "unknown-leader-key",
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
            ({1: [], "x": []}, "attack.1 is not an attack-case key"),
            (_one_channel_attack("a"),
             "iter_biasparavalue_list[0][0][0][0] must be a finite number, got 'a'"),
            (_one_channel_attack(10**400),
             f"iter_biasparavalue_list[0][0][0][0] must be a finite number, got 1{'0' * 59}... "
             "(401 characters)"),
            (_one_channel_attack(1.0, bias_kind="Square"),
             "iter_biastype_list[0][0][0] must be 'Constant', 'Linear' or 'Sinusoidal', got 'Square'"),
            (_one_channel_attack(1.0, freq_kind="Burst"),
             "iter_freq_type_list[0][0][0] must be 'Continuous', 'Cluster' or 'Discrete', got 'Burst'"),
            (_one_channel_attack(1.0, freq_kind="Cluster", freq_params=(0, 5)),
             "iter_freqparavalue_list[0][0][0][0] must be an int >= 1, got 0"),
            (_one_channel_attack(1.0, freq_kind="Cluster", freq_params=(2, -1)),
             "iter_freqparavalue_list[0][0][0][1] must be an int >= 0, got -1"),
            (_one_channel_attack(float("nan")),
             "iter_biasparavalue_list[0][0][0][0] must be a finite number, got nan"),
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

    @pytest.mark.parametrize("channel, victim, other, sent", [
        ("x_ite", 6, "zx_ite", "0..5 send forward"),
        ("v_ite", 6, "zv_ite", "0..5 send forward"),
        ("zx_ite", 1, "x_ite", "2..6 send backward"),
        ("zv_ite", 1, "v_ite", "2..6 send backward"),
    ], ids=["x_ite", "v_ite", "zx_ite", "zv_ite"])
    def test_attack_slot_that_reaches_no_receiver_exit_code(self, tmp_path, capsys, channel,
                                                            victim, other, sent):
        # The last follower sends nothing forward and fv1's backward messages
        # go to the leader, which takes none: such a slot could never change a
        # run.  The path names the second victim's second period's second
        # channel; its first channel and the first victim's reach a receiver.
        attack = {
            "iter_victim_list": [3, victim],
            "control_attackperiod_list": [[[0, 4]], [[0, 4], [5, 9]]],
            "iter_malichannel_list": [[["x_ite"]], [[other], [other, channel]]],
            "iter_freq_type_list": [[["Continuous"]], [["Continuous"], ["Continuous"] * 2]],
            "iter_freqparavalue_list": [[[[0]]], [[[0]], [[0], [0]]]],
            "iter_biastype_list": [[["Constant"]], [["Constant"], ["Constant"] * 2]],
            "iter_biasparavalue_list": [[[[1.0]]], [[[1.0]], [[1.0], [1.0]]]],
        }
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(scenario_doc(attack=attack)))
        assert main(self._argv("run", bad, tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"config error: iter_malichannel_list[1][1][1]: {channel} of victim {victim} "
            f"reaches no receiver: with n=6, only vehicles {sent}\n"
        )
        assert not (tmp_path / "out").exists()
        attack["iter_malichannel_list"][1][1][1] = other
        scenario_from_dict(scenario_doc(attack=attack))

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


# The mutation fuzzer's pools: a replaced int takes one of _INT_POOL, which
# holds valid ints past int64 and past the float range; anything else takes
# one of either pool.
_INT_POOL = (-1, 0, 1, 3, 40, 2**63, 2**70, 10**400)
_VALUE_POOL = (None, True, "bogus", -0.5, 0.1, 2.5, 1e308, math.nan, math.inf, [], {}, [0], [1, 2],
               [[0, 0.1]])
# A renamed key takes one of these: a known key, which may belong to another
# section, or an unknown one of any type YAML reads as a key.
_KEY_POOL = ("speed", "sim", "direction", "iter_victim_list", "Sim", "", "bogus", 0, -1, 2**70, None, True,
             1.5, "a.b", "x[0]")
# What a message may start with in place of a path: keys in relation, and
# victims that the document does not name one by one.
_CROSS_KEY_FORMS = ("need sim.a_min < sim.a_max", "need sim.v_min < sim.v_max",
                    "need sim.tau, sim.p, sim.Q_alpha and sim.Q_beta", "need a finite leader start",
                    "victim ")
# A step is a plain key, after a dot past the first, or a list index or a
# key's repr in brackets.
_BRACKETED = r"\[(?:'[^']*'|\"[^\"]*\"|[^\]\s]*)\]"
_MESSAGE_PATH = re.compile(rf"(?:[^\s.\[\]:]+|{_BRACKETED})(?:\.[^\s.\[\]:]+|{_BRACKETED})*(?=[\s:]|$)")


def _nodes(value, keys):
    """(keys, node) of ``value``, which ``keys`` reach, and of every node under it."""
    yield keys, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _nodes(item, (*keys, key))


def _mutated(doc, rng, profiles):
    """``doc`` after one to three seeded mutations: a node replaced from the
    pools, a key removed, an unknown key added, a key of any mapping (the
    document's own included) renamed from _KEY_POOL or, where ``profiles``,
    a leader profile set whose last start may come from _INT_POOL."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("replace", "replace", "remove", "add", "rename") + ("profile",) * profiles)
        if kind == "profile":
            starts = sorted(rng.sample(range(60), rng.randint(0, 2)))
            starts += [rng.choice(_INT_POOL)] * rng.randint(0, 1)
            leader = doc.get("leader") if isinstance(doc.get("leader"), dict) else {}
            doc["leader"] = {**leader, "profile": [[start, rng.choice((-0.5, 0.0, 0.3))] for start in starts]}
            continue
        section = rng.choice(sorted(doc, key=str))
        keys, node = rng.choice([((), doc)] * (kind == "rename") + list(_nodes(doc[section], (section,))))
        if kind == "replace":
            is_int = isinstance(node, int) and not isinstance(node, bool)
            pool = _INT_POOL if is_int else _VALUE_POOL + _INT_POOL
            _set_leaf(doc, keys, rng.choice(pool))
        elif kind == "add" and isinstance(node, dict):
            node["bogus"] = 1
        elif kind == "remove" and isinstance(node, dict) and node:
            del node[rng.choice(sorted(node, key=str))]
        elif kind == "rename" and isinstance(node, dict) and node:
            node[rng.choice(_KEY_POOL)] = node.pop(rng.choice(sorted(node, key=str)))
    return doc


def _names_a_path(message, doc, top_level_keys):
    """Whether ``message`` starts with a path into ``doc``: one of
    ``top_level_keys``, a key of ``doc`` itself (bracketed or not) or an
    attack list, then keys and in-range indices.  A key that a mapping leaves
    out, or a section left out, still resolves, since it reads as its
    default."""
    match = _MESSAGE_PATH.match(message)
    first, *steps = re.findall(rf"{_BRACKETED}|[^.\[\]]+", match.group()) if match else [None]
    if first not in (*top_level_keys, *map(str, doc), *(f"[{key!r}]" for key in doc)):
        return False
    node = doc.get("attack") if first in ATTACK_LIST_KEYS else doc
    for step in (first, *steps):
        if node is None:
            node = {}
        if isinstance(node, dict) and not step.startswith("["):
            node = next((value for key, value in node.items() if str(key) == step), None)
        elif isinstance(node, dict) and step in (bracketed := {f"[{key!r}]": key for key in node}):
            node = node[bracketed[step]]
        elif isinstance(node, list) and step[1:-1].isdigit() and int(step[1:-1]) < len(node):
            node = node[int(step[1:-1])]
        else:
            return False
    return True


def _assert_named(error, doc, top_level_keys):
    """``error`` is a ConfigError whose short message names a path into
    ``doc`` or keys in relation."""
    assert isinstance(error, ConfigError), (doc, error)
    message = str(error)
    assert len(message) <= 300, message
    assert _names_a_path(message, doc, top_level_keys) or message.startswith(_CROSS_KEY_FORMS), message


class TestAnyDocument:
    """Whatever a document holds, reading it loads or raises an error that
    main() reports as a config error (exit 1), never a traceback."""

    def test_mutated_documents_load_or_name_their_path(self, tmp_path):
        # Seeded mutations of every scenario in the repository and of the
        # golden bias cases.  A scenario that loads runs; a case that loads
        # writes its matrices.
        rng = random.Random(26)
        path = tmp_path / "doc.yaml"
        for source in YAML_DOCUMENTS:
            case = source.name == "case.yaml"
            original = yaml.safe_load(source.read_text())
            for _ in range(12 if case else 40):
                doc = _mutated(original, rng, profiles=not case)
                path.write_text(yaml.safe_dump(doc, sort_keys=False))  # keys of mixed types
                try:
                    if case:
                        generate_bias_files(path, 5, tmp_path / "bias")
                    else:
                        scenario_from_dict(doc)
                except Exception as error:
                    _assert_named(error, doc, ("n", "max_iterations", "sim", "attack", *ATTACK_LIST_KEYS)
                                  if case else (*SCENARIO_KEYS, *ATTACK_LIST_KEYS))
                    continue
                if not case:
                    argv = ["run", "--scenario", str(path), "--out", str(tmp_path / "out"), "--steps", "3"]
                    assert main(argv) in (0, 2), doc

    def test_mutated_replay_configs_exit_0_or_name_their_path(self, tmp_path, capsys):
        # Seeded mutations of every shipped scenario, its detection section
        # written out at the defaults, each read as a replay config over a
        # header-only trace.
        rng = random.Random(32)
        detection = {f.name: f.default for f in fields(DetectionConfig) if f.name != "seed"}
        config, trace = tmp_path / "config.yaml", tmp_path / "trace.csv"
        trace.write_text(",".join(TRACE_COLUMNS) + "\n")
        argv = ["replay-detect", "--trace", str(trace), "--config", str(config),
                "--out", str(tmp_path / "out")]
        for source in sorted(SCENARIO_DIR.glob("*.yaml")):
            original = {**yaml.safe_load(source.read_text()), "detection": detection}
            for _ in range(40):
                doc = _mutated(original, rng, profiles=False)
                config.write_text(yaml.safe_dump(doc, sort_keys=False))
                code = main(argv)
                err = capsys.readouterr().err
                if code == 0:
                    continue
                assert code == 1 and err.startswith("config error: "), (doc, err)
                assert _names_a_path(err.removeprefix("config error: "), doc, SCENARIO_KEYS), err

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


# The one trace column where a live run may write nan.
_HEADWAY = TRACE_COLUMNS.index("headway")


def _mutated_trace(lines, rng):
    """One seeded mutation of a trace's lines: the mutated text, and whether
    a replay must reject it.  Only nan in a data row's headway cell may
    leave the trace readable."""
    rows = [line.rstrip("\n").split(",") for line in lines]
    data = range(1, len(rows))
    kind = rng.choice(["swap", "drop", "duplicate", "reverse-columns", "repeat-column", "drop-column",
                       "blank", "text", "nan", "oversized", "cut-last"])
    must_fail = True
    if kind == "swap":
        i, j = rng.sample(data, 2)
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "drop":
        del rows[rng.choice(data)]
    elif kind == "duplicate":
        i = rng.choice(data)
        rows.insert(i, rows[i])
    elif kind == "reverse-columns":
        rows = [row[::-1] for row in rows]
    elif kind == "repeat-column":
        column, at = rng.randrange(len(TRACE_COLUMNS)), rng.randrange(len(TRACE_COLUMNS) + 1)
        rows = [row[:at] + [row[column]] + row[at:] for row in rows]
    elif kind == "drop-column":
        column = rng.randrange(len(TRACE_COLUMNS))
        rows = [row[:column] + row[column + 1:] for row in rows]
    elif kind == "blank":
        rows.insert(rng.randrange(len(rows) + 1), [])
    elif kind == "cut-last":  # somewhere before its last comma, so a field is lost
        last = ",".join(rows[-1])
        rows[-1] = last[:rng.randrange(last.rindex(","))].split(",")
    else:
        i, column = rng.randrange(len(rows)), rng.randrange(len(TRACE_COLUMNS))
        rows[i] = rows[i][:column] + [{"text": "bogus", "nan": "nan"}.get(
            kind, "1" * (csv.field_size_limit() + 1))] + rows[i][column + 1:]
        must_fail = i == 0 or column != _HEADWAY or kind != "nan"
    return "".join(",".join(row) + "\n" for row in rows), must_fail


@pytest.fixture(scope="module")
def attacked_run(tmp_path_factory):
    """single_target's first 50 steps: the trace's lines and anomalies.csv,
    which holds 2 events."""
    doc = yaml.safe_load((SCENARIO_DIR / "single_target.yaml").read_text())
    doc["sim"]["total_control_steps"] = 50
    paths = run_scenario(scenario_from_dict(doc), tmp_path_factory.mktemp("attacked"))
    return paths["trace"].read_text().splitlines(keepends=True), paths["anomalies"].read_bytes()


class TestAnyTrace:
    def test_mutated_traces_name_their_line_or_replay_the_live_run(self, tmp_path, capsys, attacked_run):
        # Seeded mutations of a live trace, replayed through main: each exits
        # 1 naming the line or the control step, or, if only a headway cell
        # became nan, exits 0 with the live run's events.
        lines, live = attacked_run
        assert len(live.splitlines()) == 3
        rng = random.Random(29)
        trace, out = tmp_path / "trace.csv", tmp_path / "out"
        argv = ["replay-detect", "--trace", str(trace), "--config", str(SCENARIO_DIR / "single_target.yaml"),
                "--out", str(out)]
        named = re.compile(rf"config error: {re.escape(str(trace))}( line \d+|: control step \d+ lacks)")
        for _ in range(150):
            text, must_fail = _mutated_trace(lines, rng)
            trace.write_text(text)
            code = main(argv)
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if code == 0:
                assert not must_fail and (out / "anomalies.csv").read_bytes() == live, text
            else:
                assert code == 1 and named.match(err), err


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


# A benign 260-step drive whose leader speeds up and slows down in turn.  Its
# forecasters fit up to 198 training pairs (norm_window 200, lag 2), past the
# 173 from which OpenBLAS threads a refit's 50x50 Gram product.
LONG_DRIVE = (
    "sim: {n: 4, total_control_steps: 260}\n"
    "leader: {speed: 30.0, profile: [[0, 0.2], [30, 0.0], [50, -0.2], [80, 0.0], [100, 0.2], "
    "[130, 0.0], [150, -0.2], [180, 0.0], [200, 0.2], [230, 0.0]]}\n"
    "seed: 3\n"
)


def _openblas() -> tuple[str, str]:
    """The path of an OpenBLAS this process has loaded and the name of its
    thread-count setter; the test is skipped where there is none."""
    maps = Path("/proc/self/maps")
    paths = {line.split(maxsplit=5)[5] for line in maps.read_text().splitlines()
             if "openblas" in line} if maps.exists() else set()
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for name in cli_runner._BLAS_SETTERS:
            if hasattr(library, name):
                return path, name
    pytest.skip("no OpenBLAS is loaded")


# In a new process: set OpenBLAS to two threads, run drop_rules.yaml's pass
# seeing the given usable CPUs, and print the thread count after.
_BLAS_PASS = """
import ctypes, sys
from pathlib import Path
from platoonsec import cli_runner
library, name, cpus = ctypes.CDLL(sys.argv[1]), sys.argv[2], int(sys.argv[3])
getattr(library, name)(2)
cli_runner._usable_cpus = lambda: cpus
cli_runner.simulate(cli_runner.load_scenario(Path(sys.argv[4])))
print(getattr(library, name.replace("set", "get", 1))())
"""


def _blas_threads_after_a_pass(cpus: int) -> int:
    path, name = _openblas()
    argv = [sys.executable, "-c", _BLAS_PASS, path, name, str(cpus), str(GOLDEN_DIR / "drop_rules.yaml")]
    env = {**os.environ, "PYTHONPATH": str(Path(cli_runner.__file__).parents[1])}
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return int(done.stdout)


class TestParallelDetection:
    """The detection pass deals the followers out to forked workers, one per
    usable CPU; its output must not depend on how many."""

    @pytest.mark.parametrize("document, flags, events", [
        (GOLDEN_DIR / "drop_rules.yaml", 54, 15),
        (SCENARIO_DIR / "string_instability.yaml", 216, 80),
        (LONG_DRIVE, 0, 0),
    ], ids=["drop_rules", "string_instability", "long_drive"])
    def test_any_worker_count_gives_the_same_run(self, tmp_path, cpus, document, flags, events):
        if not isinstance(document, Path):  # the document's text
            (tmp_path / "document.yaml").write_text(document)
            document = tmp_path / "document.yaml"
        scenario = load_scenario(document)
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

    def test_a_forked_pass_leaves_openblas_at_one_thread(self):
        # Set before the first fork and never restored, so that no process
        # restarts a thread pool that the fork shut down.
        assert _blas_threads_after_a_pass(cpus=2) == 1

    def test_a_one_cpu_pass_leaves_openblas_as_it_was(self):
        assert _blas_threads_after_a_pass(cpus=1) == 2

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

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_a_lower_numbered_follower_that_fails_later_names_the_error(self, tmp_path, monkeypatch, cpus,
                                                                        workers):
        # Vehicle 5 fails first, at step 15, then vehicle 2 at step 40 and
        # vehicle 3 at step 60: the error raised is vehicle 2's, whichever
        # shares they run in, in a live run and in a replay.
        doc = yaml.safe_load((GOLDEN_DIR / "drop_rules.yaml").read_text())
        doc["sim"]["total_control_steps"] = 80
        scenario = scenario_from_dict(doc)
        cpus(1)
        trace = tmp_path / "trace.csv"
        cli_runner.write_trace_csv(simulate(scenario).rows, trace)
        real = detection.detect_anomaly

        def fails(kind, control_step, vehicle, *args):
            if (vehicle, control_step) in {(5, 15), (2, 40), (3, 60)}:
                raise DetectionError(f"vehicle {vehicle} at {control_step}")
            return real(kind, control_step, vehicle, *args)

        monkeypatch.setattr(detection, "detect_anomaly", fails)
        cpus(workers)
        with pytest.raises(DetectionError, match="^vehicle 2 at 40$"):
            simulate(scenario)
        _assert_no_child_left()
        with pytest.raises(DetectionError, match="^vehicle 2 at 40$"):
            replay_detection(trace, scenario.detection)
        _assert_no_child_left()

    def test_an_interrupted_parent_kills_its_children(self, monkeypatch, cpus):
        # The control pass is interrupted at step 5 while the children still
        # build their forecasters; they are killed, not waited for.
        parent, real = os.getpid(), cli_runner.run_control_step
        calls = []

        def sleeps_in_the_child(*args):
            if os.getpid() != parent:
                time.sleep(60)

        def interrupted(*args):
            calls.append(args)
            if len(calls) == 6:
                raise KeyboardInterrupt
            return real(*args)

        scenario = load_scenario(GOLDEN_DIR / "drop_rules.yaml")
        monkeypatch.setattr(detection, "forecasters", sleeps_in_the_child)
        monkeypatch.setattr(cli_runner, "run_control_step", interrupted)
        cpus(3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            simulate(scenario)
        assert time.monotonic() - start < 30
        _assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_workers_run_alongside_the_control_pass(self, monkeypatch, cpus, workers):
        # The children exist from the first control step on: each is fed the
        # steps as they come.  On one CPU nothing is forked.
        scenario = load_scenario(GOLDEN_DIR / "drop_rules.yaml")
        cpus(1)
        expected = simulate(scenario)
        real, first = cli_runner.run_control_step, []

        def spy(*args):
            if not first:
                try:
                    first.append(os.waitpid(-1, os.WNOHANG))
                except ChildProcessError:
                    first.append(None)
            return real(*args)

        monkeypatch.setattr(cli_runner, "run_control_step", spy)
        cpus(workers)
        result = simulate(scenario)
        assert first == [(0, 0) if workers > 1 else None]
        assert (result.rows, result.events, result.flags_by_step) == (
            expected.rows, expected.events, expected.flags_by_step)
        _assert_no_child_left()

    def test_the_workers_keep_off_one_cpu_while_the_steps_come(self, monkeypatch, cpus):
        # The control pass has one CPU to itself; once it has ended, the
        # workers may use every usable CPU.  The calls are recorded only.
        calls, steps, real = [], [], cli_runner.run_control_step

        def spy(*args):
            steps.append(len(calls))
            return real(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 0, 1})
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, list(cpus))))
        monkeypatch.setattr(cli_runner, "run_control_step", spy)
        cpus(2)
        simulate(load_scenario(GOLDEN_DIR / "drop_rules.yaml"))
        first, second = (pid for pid, _ in calls[:2])
        assert calls == [(first, [1, 2]), (second, [1, 2]), (first, [0, 1, 2]), (second, [0, 1, 2])]
        assert set(steps) == {2}
        _assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_control_error_comes_before_a_worker_error(self, tmp_path, capsys, monkeypatch, cpus,
                                                         workers):
        # Vehicle 2's forecasters fail at once, in a child when there are
        # workers, but the control pass fails at step 5 and its error is the
        # one raised: detection results are read only after the last step.
        real, calls = cli_runner.run_control_step, []

        def fails_at_step_5(*args):
            calls.append(args)
            if len(calls) == 6:
                raise NumericalError("follower 3, control step 5: non-finite gradient")
            return real(*args)

        monkeypatch.setattr(detection, "forecasters",
                            _failing_forecasters({2: DetectionError("vehicle 2")}))
        monkeypatch.setattr(cli_runner, "run_control_step", fails_at_step_5)
        cpus(workers)
        with pytest.raises(NumericalError, match="control step 5"):
            simulate(load_scenario(GOLDEN_DIR / "drop_rules.yaml"))
        _assert_no_child_left()
        calls.clear()
        argv = ["run", "--scenario", str(GOLDEN_DIR / "drop_rules.yaml"), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "numerical failure: follower 3, control step 5" in capsys.readouterr().err
        _assert_no_child_left()

    def test_a_run_without_detection_forks_nothing(self, tmp_path, monkeypatch, cpus):
        def no_fork():
            raise AssertionError("forked with detection disabled")

        doc = yaml.safe_load((SCENARIO_DIR / "single_target.yaml").read_text())
        scenario = scenario_from_dict({**doc, "detection": {"enabled": False}})
        expected = simulate(scenario)
        monkeypatch.setattr(os, "fork", no_fork)
        cpus(4)
        result = simulate(scenario)
        assert (result.rows, result.events) == (expected.rows, expected.events)
        assert result.events == [] and not any(any(flags) for flags in result.flags_by_step)
        trace = tmp_path / "trace.csv"
        cli_runner.write_trace_csv(result.rows, trace)
        assert replay_detection(trace, scenario.detection) == []

    def test_a_step_that_arrives_in_parts_is_read_whole(self):
        # A pipe may deliver a write larger than its atomic size in parts, if
        # the worker drains the pipe while the parent is still writing.  Here
        # each step's second half comes late.
        cfg, share = DetectionConfig(seed=3), range(1, 6, 2)
        xs = [[0.5 * k - 8.0 * i for k in range(20)] for i in range(6)]
        vs = [[20.0 + 0.01 * (k * i % 7) for k in range(20)] for i in range(6)]
        comparator = [[k % 9 == 4 for k in range(20)] for i in range(6)]
        read_end, write_end = os.pipe()

        def send_in_parts():
            with open(write_end, "wb", buffering=0) as writer:
                for k in range(20):
                    step = pickle.dumps(tuple([column[i][k] for i in share]
                                              for column in (xs, vs, comparator)))
                    writer.write(step[:len(step) // 2])
                    time.sleep(0.005)
                    writer.write(step[len(step) // 2:])

        sender = threading.Thread(target=send_in_parts)
        sender.start()
        found = cli_runner._follow_pipe(share, cfg, read_end, [])
        sender.join(timeout=30)
        assert not sender.is_alive() and all(detection.error is None for detection in found)
        assert found == [detect_vehicle(xs[i], vs[i], comparator[i], i + 1, cfg) for i in share]

    def test_a_step_larger_than_an_atomic_pipe_write_is_read_whole(self, monkeypatch, cpus):
        # 600 followers give each of two workers a 300-follower share, whose
        # step pickle (~5.7 KB) exceeds the pipe's 4 KiB atomic write.  The
        # workers are held back while the parent fills their pipes, as when
        # they lag; whether a step then arrives in parts depends on timing,
        # which the test above takes out.
        n, cfg = 600, DetectionConfig(seed=3)
        steps = [([0.5 * k - 8.0 * i for i in range(n)],
                  [20.0 + 0.01 * (k * i % 7) for i in range(n)], [k % 9 == 4] * n)
                 for k in range(30)]
        cpus(1)
        expected = cli_runner.detect_run(iter(steps), n, cfg)
        parent, real, held = os.getpid(), detection.forecasters, []

        def held_back(*args):
            if os.getpid() != parent and not held:
                held.append(args)
                time.sleep(0.5)
            return real(*args)

        monkeypatch.setattr(detection, "forecasters", held_back)
        cpus(2)
        assert cli_runner.detect_run(iter(steps), n, cfg) == expected
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
