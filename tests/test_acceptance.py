"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import math
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from platoonsec.attack_engine import BiasMatrices, iter_attack_value_cal, parse_attack_case
from platoonsec.cli_runner import (
    LeaderProfile,
    Scenario,
    load_scenario,
    run_scenario,
    simulate,
)
from platoonsec.detection import (
    DetectionConfig,
    create_elm,
    detect_vehicle,
    elm_fit,
    forecasters,
    NormalizationState,
    elm_predict,
    minmax_inverse,
    minmax_transform,
    sliding_window,
)
from platoonsec.metrics import ImpactClass
from platoonsec.mpc_controller import primal_exit, run_control_step
from platoonsec.platoon_model import SimConfig, initial_platoon
from platoonsec.v2v_channel import V2VChannel

from conftest import single_channel_case
from test_attack_engine import oracle_bias_matrices, random_attack_doc

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


def _verdict(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_c1_benign_stability():
    """C1: constant-speed platoon keeps headways and accelerations in band."""
    start = time.monotonic()
    scenario = load_scenario(SCENARIO_DIR / "benign.yaml")
    result = simulate(scenario)
    elapsed = time.monotonic() - start

    offenders = []
    for row in result.rows:
        if row.control_step < 10:
            continue
        if not 0.45 <= row.headway <= 0.55:
            offenders.append(("headway", row.control_step, row.vehicle_id, row.headway))
        if not -1.5 <= row.u <= 1.0:
            offenders.append(("accel", row.control_step, row.vehicle_id, row.u))
    _verdict(
        "C1 benign stability",
        not offenders and elapsed < 5.0,
        f"{len(offenders)} band violations, runtime {elapsed:.2f}s (budget 5s)",
    )


def test_c2_constraint_soundness():
    """C2: across randomized scenarios the applied commands always satisfy the
    acceleration and velocity constraints; safety-gap violations appear only
    inside attack windows plus a bounded physical-recovery tail."""
    start = time.monotonic()
    channels = ["x_ite", "v_ite", "zx_ite", "zv_ite"]
    recovery_margin = 60
    accel_vel_bad = []
    out_of_window = []
    benign_bad = []
    for trial in range(20):
        rng = random.Random(9000 + trial)
        attacked = trial >= 5  # five purely benign runs, fifteen attacked
        doc = None
        if attacked:
            doc = {key: [] for key in (
                "iter_victim_list", "control_attackperiod_list", "iter_malichannel_list",
                "iter_freq_type_list", "iter_freqparavalue_list", "iter_biastype_list",
                "iter_biasparavalue_list",
            )}
            for victim in rng.sample(range(1, 7), rng.randint(1, 2)):
                s = rng.randint(20, 50)
                window = [s, s + rng.randint(2, 8)]
                kind = rng.choice(["Constant", "Linear", "Sinusoidal"])
                params = {
                    "Constant": [rng.uniform(-3, 3)],
                    "Linear": [rng.uniform(-0.02, 0.02), rng.uniform(-2, 2)],
                    "Sinusoidal": [rng.uniform(1, 5), 5.0, rng.uniform(0, 2 * math.pi), rng.uniform(-1, 1)],
                }[kind]
                freq = rng.choice(["Continuous", "Cluster"])
                doc["iter_victim_list"].append(victim)
                doc["control_attackperiod_list"].append([window])
                doc["iter_malichannel_list"].append([[rng.choice(channels)]])
                doc["iter_freq_type_list"].append([[freq]])
                doc["iter_freqparavalue_list"].append(
                    [[[0] if freq == "Continuous" else [rng.randint(1, 3), rng.randint(1, 8)]]]
                )
                doc["iter_biastype_list"].append([[kind]])
                doc["iter_biasparavalue_list"].append([[params]])
        phases = ()
        if rng.random() < 0.5:
            s = rng.randint(10, 40)
            phases = ((s, rng.uniform(-1.0, 0.8)), (s + rng.randint(5, 15), 0.0))
        scenario = Scenario(
            sim=SimConfig(total_control_steps=120),
            leader=LeaderProfile(30.0, phases),
            attack=parse_attack_case(doc, 6, SimConfig.max_iterations),
            detection=DetectionConfig(enabled=False, seed=trial),
        )
        result = simulate(scenario)
        windows = [(slot.start, slot.end) for slot in scenario.attack]
        for k, violation in result.violations:
            if violation.kind in ("acceleration", "velocity"):
                accel_vel_bad.append((trial, k, violation))
            elif not attacked:
                benign_bad.append((trial, k, violation))
            elif not any(s <= k <= e + recovery_margin for s, e in windows):
                out_of_window.append((trial, k, violation))
    elapsed = time.monotonic() - start
    _verdict(
        "C2 constraint soundness",
        not accel_vel_bad and not benign_bad and not out_of_window and elapsed < 60.0,
        f"accel/vel={len(accel_vel_bad)}, benign gap={len(benign_bad)}, "
        f"outside window+{recovery_margin}={len(out_of_window)}, runtime {elapsed:.1f}s (budget 60s)",
    )


def test_c3_loop_contract():
    """C3: primal exit tracks the 0.01 threshold, iterations never exceed 300,
    and an unsatisfiable bias exits at exactly the cap, unconverged."""
    ok = (
        primal_exit([0.009], 0.01)
        and primal_exit([0.01], 0.01)
        and not primal_exit([0.011], 0.01)
    )

    config = SimConfig()
    platoon = initial_platoon(config, 30.0)
    zero_bias = V2VChannel(bias=BiasMatrices.zeros(config.max_iterations, config.n))
    equilibrium = run_control_step(platoon, zero_bias, config)
    ok = ok and equilibrium.converged and equilibrium.iterations_used == 1

    # Perturbed start: the first update moves more than the tolerance, so the
    # loop must run extra rounds before exiting.
    perturbed = run_control_step(platoon, zero_bias, config, warm_start=[1.0] * config.n)
    ok = ok and perturbed.converged and 2 <= perturbed.iterations_used <= 300

    # A loose tolerance exits on the first round even from the perturbed start.
    loose = run_control_step(
        platoon, zero_bias, replace(config, primal_tol=10.0), warm_start=[1.0] * config.n
    )
    ok = ok and loose.iterations_used == 1

    case = single_channel_case(6, victim=4, window=(0, 5), channel="x_ite", bias_params=[-50.0])
    bias = iter_attack_value_cal(6, 0, config.max_iterations, case)
    hostile = run_control_step(platoon, V2VChannel(bias=bias), config)
    ok = ok and hostile.iterations_used == 300 and not hostile.converged

    caps = []
    for magnitude in (-30.0, -10.0, 5.0, 25.0):
        case = single_channel_case(6, victim=2, window=(0, 5), channel="x_ite", bias_params=[magnitude])
        bias = iter_attack_value_cal(6, 0, 300, case)
        outcome = run_control_step(platoon, V2VChannel(bias=bias), config)
        caps.append(outcome.iterations_used <= 300)
    ok = ok and all(caps)
    _verdict(
        "C3 loop contract",
        ok,
        f"equilibrium iters={equilibrium.iterations_used}, perturbed={perturbed.iterations_used}, "
        f"hostile={hostile.iterations_used} converged={hostile.converged}",
    )


def test_c4_bias_generator_oracle_equivalence():
    """C4: generator output exactly equals the full-enumeration oracle."""
    start = time.monotonic()
    rng = random.Random(404)
    mismatches = 0
    for _ in range(100):
        n = rng.randint(2, 8)
        doc = random_attack_doc(rng, n)
        max_iter = rng.choice([60, 150, 300])
        case = parse_attack_case(doc, n, max_iter)
        for _ in range(10):
            k = rng.randint(0, 120)
            got = iter_attack_value_cal(n, k, max_iter, case)
            expected = oracle_bias_matrices(n, k, max_iter, doc)
            for ch, matrix in expected.items():
                if not np.array_equal(got.by_channel(ch), matrix):
                    mismatches += 1
    elapsed = time.monotonic() - start
    _verdict(
        "C4 bias-generator oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"mismatches={mismatches}, runtime {elapsed:.1f}s (budget 10s)",
    )


def test_c5_polarity_law_and_string_instability():
    """C5: bias polarity decides safety vs efficiency degradation for fv5;
    a sinusoidal velocity-channel attack produces string instability."""
    positive = simulate(load_scenario(SCENARIO_DIR / "safety_degradation.yaml"))
    negative = simulate(load_scenario(SCENARIO_DIR / "efficiency_degradation.yaml"))
    sinusoid = simulate(load_scenario(SCENARIO_DIR / "string_instability.yaml"))
    got = (
        positive.impact.classification_of(5),
        negative.impact.classification_of(5),
        sinusoid.impact.classification_of(5),
    )
    expected = (
        ImpactClass.SAFETY_DEGRADATION,
        ImpactClass.EFFICIENCY_DEGRADATION,
        ImpactClass.STRING_INSTABILITY,
    )
    _verdict(
        "C5 polarity law + string instability",
        got == expected,
        f"fv5 classes: +10m -> {got[0].value}, -10m -> {got[1].value}, sinusoid -> {got[2].value}",
    )


def test_c6_detection_onset_and_persistence():
    """C6: the [40, 45] single-target attack is flagged within two steps of
    onset and the flags clear within twenty steps of the attack end."""
    scenario = load_scenario(SCENARIO_DIR / "single_target.yaml")
    result = simulate(scenario)
    flagged = [k for k, flags in enumerate(result.flags_by_step) if any(flags)]
    onset_ok = bool(flagged) and 40 <= min(flagged) <= 42
    cleared_ok = all(k <= 65 for k in flagged)
    _verdict(
        "C6 detection onset and persistence",
        onset_ok and cleared_ok,
        f"first flag at {min(flagged) if flagged else None}, last at {max(flagged) if flagged else None} "
        f"(attack [40, 45], clearing deadline 65)",
    )


def test_c7_comparator_blind_spot_covered_by_elm():
    """C7: a symmetric gap shift never trips the comparator but the ELM stage
    still reports an anomaly inside the attack window."""
    scenario = load_scenario(SCENARIO_DIR / "comparator_blindspot.yaml")
    result = simulate(scenario)
    comparator_steps = sorted({r.control_step for r in result.rows if r.comparator_flag})
    elm_in_window = [e for e in result.events if 40 <= e.control_step <= 45]
    _verdict(
        "C7 comparator blind spot covered by ELM",
        not comparator_steps and len(elm_in_window) >= 1,
        f"comparator flags={comparator_steps}, ELM events in window={len(elm_in_window)}",
    )


def test_c8_elm_correctness():
    """C8: normalization round-trip, ramp fit quality, freeze soundness and
    seeded determinism."""
    rng = random.Random(88)
    sample = [rng.uniform(-50, 50) for _ in range(100)]
    norm = NormalizationState(min(sample), max(sample))
    round_trip_ok = all(
        abs(float(minmax_inverse(norm, minmax_transform(norm, x))) - x) <= 1e-12
        for x in (rng.uniform(-100, 100) for _ in range(1000))
    )

    series = [0.01 * t for t in range(102)]
    inputs, targets = sliding_window(series, 2, 1)
    fitted = elm_fit(create_elm(50, random_state=7), inputs, targets)
    rmse = math.sqrt(np.mean((np.array([elm_predict(fitted, w) for w in inputs]) - targets) ** 2))
    ramp_ok = rmse < 1e-3

    cfg = DetectionConfig(seed=5, warmup_steps=0)
    position, velocity = forecasters(1, cfg)
    for t in range(10):
        position.observe(3.0 * t + 0.01 * t * t, False)
        velocity.observe(30.0 + 0.05 * t, False)
    weights_before = position.model.output_weights.copy()
    for t in range(10, 14):
        position.observe(1e5 + t, True)
        velocity.observe(-1e4, True)
    freeze_ok = np.array_equal(position.model.output_weights, weights_before)

    def detector_run():
        xs = [2.0 * t + 0.3 * math.sin(t) for t in range(25)]
        vs = [30.0 + 0.2 * math.cos(t) for t in range(25)]
        return detect_vehicle(xs, vs, [False] * 25, 2, DetectionConfig(seed=11, warmup_steps=0))

    determinism_ok = detector_run() == detector_run()
    _verdict(
        "C8 ELM correctness",
        round_trip_ok and ramp_ok and freeze_ok and determinism_ok,
        f"round_trip={round_trip_ok}, ramp_rmse={rmse:.2e}, freeze={freeze_ok}, "
        f"deterministic={determinism_ok}",
    )


def test_c9_false_positive_budget():
    """C9: a benign 100-step run triggers no comparator flags and at most
    three control steps with any ELM anomaly after warmup."""
    scenario = load_scenario(SCENARIO_DIR / "benign.yaml")
    result = simulate(scenario)
    warmup = scenario.detection.warmup_steps
    fp_steps = sorted({e.control_step for e in result.events if e.control_step >= warmup})
    comparator_steps = sorted({r.control_step for r in result.rows if r.comparator_flag})
    _verdict(
        "C9 false-positive budget",
        len(fp_steps) <= 3 and not comparator_steps,
        f"ELM-anomalous steps after warmup: {fp_steps or 'none'}, "
        f"comparator flags: {comparator_steps or 'none'}",
    )


def test_c10_end_to_end_determinism(tmp_path):
    """C10: two runs with the same seed produce byte-identical artifacts."""
    scenario = load_scenario(SCENARIO_DIR / "single_target.yaml")
    paths_a = run_scenario(scenario, tmp_path / "a")
    paths_b = run_scenario(scenario, tmp_path / "b")
    identical = {
        name: paths_a[name].read_bytes() == paths_b[name].read_bytes() for name in paths_a
    }
    _verdict(
        "C10 end-to-end determinism",
        all(identical.values()),
        ", ".join(f"{k}={'ok' if v else 'DIFFERS'}" for k, v in sorted(identical.items())),
    )
