import hashlib
import math
import random
from dataclasses import replace
from pathlib import Path
from typing import Optional

import pytest
import yaml

from platoonsec import cli_runner, mpc_controller
from platoonsec.attack_engine import AttackSlot, iter_attack_value_cal
from platoonsec.cli_runner import load_scenario, run_scenario, scenario_from_dict
from platoonsec.dynamics import predict, step_platoon, step_vehicle
from platoonsec.mpc_controller import (
    NumericalError,
    check_constraints,
    dual_update,
    follower_terms,
    newton_terms,
    primal_sweep,
    run_control_step,
    spacing_error,
)
from platoonsec.platoon_model import PlatoonState, SimConfig, VehicleState, initial_platoon
from platoonsec.v2v_channel import ChannelId, Direction, DropRule, V2VChannel

from conftest import single_channel_case

ROOT = Path(__file__).parent.parent


def _primal_step(measured, u, fx, fv, rear_zx, rear_zv, lam_front, lam_rear, cfg):
    """The sweep on a one-follower round, fed the per-step terms
    run_control_step builds for it and its broadcast prediction of ``u``;
    returns its new ``u``."""
    px, pv = predict(measured, u, cfg.tau)
    u = [u]
    primal_sweep(
        u, [px], [pv], [fx], [fv], [rear_zx], [rear_zv], [lam_front, lam_rear],
        [follower_terms(measured, cfg)], newton_terms(cfg), 0, 0,
    )
    return u[0]


class TestPredict:
    def test_zero_acceleration(self):
        x, v = predict(VehicleState(x=0.0, v=30.0), 0.0, 0.1)
        assert v == 30.0
        assert x == pytest.approx(3.0)

    def test_braking(self):
        x, v = predict(VehicleState(x=0.0, v=30.0), -1.5, 0.1)
        assert v == pytest.approx(29.85)
        assert x == pytest.approx(2.9925)

    def test_equals_plant_on_random_inputs(self):
        # The prediction model and the plant share one formula.
        rng = random.Random(123)
        for _ in range(1000):
            state = VehicleState(x=rng.uniform(-500, 500), v=rng.uniform(0, 40))
            u = rng.uniform(-5, 3)
            tau = rng.uniform(0.01, 1.0)
            stepped = step_vehicle(state, u, tau)
            x, v = predict(state, u, tau)
            assert x == stepped.x
            assert v == stepped.v


class TestSpacingError:
    def test_equilibrium_zero(self, config):
        gap = config.nominal_gap(30.0)
        z = spacing_error(100.0 + gap, 100.0, 30.0, config)
        assert z == pytest.approx(0.0, abs=1e-12)

    def test_two_metres_long(self, config):
        gap = config.nominal_gap(30.0)
        z = spacing_error(100.0 + gap + 2.0, 100.0, 30.0, config)
        assert z == pytest.approx(2.0, abs=1e-12)

    def test_formula_oracle(self, config):
        rng = random.Random(5)
        for _ in range(200):
            xp, xs, vs = rng.uniform(0, 900), rng.uniform(0, 900), rng.uniform(0, 40)
            expected = xp - xs - (
                config.L_veh + config.p * config.tau * vs + config.delta
            )
            assert spacing_error(xp, xs, vs, config) == expected


def first_round_relative_speeds(config, monkeypatch, v_bias: Optional[float] = 0.0) -> list[float]:
    """The relative speeds the followers of an equilibrium platoon send
    backward in round 0, fv1's outgoing v_ite biased by ``v_bias`` (None: no
    channel), read from the primal sweep so that rounds without a channel
    show them too.  Each report must reach the predecessor as sent."""
    sent, received = [], []

    def spy(u, px, pv, fx, fv, rzx, rzv, *rest):
        sent.extend(front_v - own_v for front_v, own_v in zip(fv, pv))
        received.extend(rzv)
        return primal_sweep(u, px, pv, fx, fv, rzx, rzv, *rest)

    monkeypatch.setattr(mpc_controller, "primal_sweep", spy)
    channel = None
    if v_bias is not None:
        case = single_channel_case(config.n, victim=1, window=(0, 0), channel="v_ite",
                                   bias_params=[v_bias])
        channel = V2VChannel(bias=iter_attack_value_cal(config.n, 0, 1, case))
    run_control_step(initial_platoon(config, 30.0), channel, replace(config, max_iterations=1))
    assert len(sent) == config.n
    assert received == [*sent[1:], None]
    return sent


def force_corrupt(monkeypatch) -> None:
    """Send every round of a run through ``V2VChannel.corrupt``: a step
    without a channel gets a zero-bias one."""

    def through_corrupt(platoon, channel, config, *rest):
        if channel is None:
            channel = V2VChannel(bias=iter_attack_value_cal(platoon.n, 0, config.max_iterations, ()))
        return run_control_step(platoon, channel, config, *rest)

    monkeypatch.setattr(cli_runner, "run_control_step", through_corrupt)


class TestRelativeSpeed:
    """A follower's backward zv_ite report is the front velocity it
    received minus its own predicted velocity."""

    def test_equal_speeds(self, config, monkeypatch):
        # Without a channel round 0 skips corrupt (a call would raise);
        # through a zero-bias channel the speeds match.
        with monkeypatch.context() as patch:
            patch.setattr(V2VChannel, "corrupt", None)
            skipped = first_round_relative_speeds(config, patch, None)
        assert first_round_relative_speeds(config, monkeypatch) == skipped == [0.0] * config.n

    def test_direct(self, config, monkeypatch):
        # fv2 receives fv1's 30.0 m/s plus the bias against its own 30.0.
        expected = [0.0, 1.0] + [0.0] * (config.n - 2)
        assert first_round_relative_speeds(config, monkeypatch, 1.0) == expected

    def test_antisymmetry(self, config, monkeypatch):
        rng = random.Random(12)
        for _ in range(20):
            b = rng.uniform(-1.5, 1.5)
            up = first_round_relative_speeds(config, monkeypatch, b)
            down = first_round_relative_speeds(config, monkeypatch, -b)
            assert up[1] == -down[1] != 0.0


def _local_objective(measured, u, fx, fv, rear, lam_front, lam_rear, cfg):
    """Independent re-statement of the per-vehicle Lagrangian for oracles."""
    tau = cfg.tau
    px = measured.x + measured.v * tau + 0.5 * u * tau**2
    pv = measured.v + u * tau
    z = fx - px - (cfg.L_veh + cfg.p * tau * pv + cfg.delta)
    zp = fv - pv
    phi = 0.5 * cfg.Q_alpha * z**2 + cfg.Q_beta * zp**2 + 0.5 * tau**2 * u**2
    phi += lam_front * ((cfg.L_veh + cfg.p * tau * pv + cfg.dual_margin) - (fx - px))
    if rear is not None:
        rzx0, rzv0, bx, bv = rear
        rzx = rzx0 + (px - bx)
        rzv = rzv0 + (pv - bv)
        phi += 0.5 * cfg.Q_alpha * rzx**2 + cfg.Q_beta * rzv**2
        phi += lam_rear * (-(rzx + cfg.delta) + cfg.dual_margin)
    return phi


class TestPrimalStep:
    def test_equilibrium_is_stationary(self, config):
        platoon = initial_platoon(config, 30.0)
        follower = platoon.followers[0]
        fx, fv = predict(platoon.leader, 0.0, config.tau)
        u = _primal_step(follower, 0.0, fx, fv, None, None, 0.0, 0.0, config)
        assert abs(u) < 1e-9

    def test_matches_grid_search_argmin(self, config):
        # Brute-force oracle: 1e-3 grid over the admissible box.
        rng = random.Random(3)
        for _ in range(20):
            measured = VehicleState(x=rng.uniform(0, 100), v=rng.uniform(10, 38))
            fx = measured.x + rng.uniform(10, 30)
            fv = measured.v + rng.uniform(-3, 3)
            lam = rng.uniform(0, 2)
            u = _primal_step(measured, 0.0, fx, fv, None, None, lam, 0.0, config)
            lo, hi = follower_terms(measured, config)[2:]
            grid = [lo + i * 1e-3 for i in range(int((hi - lo) / 1e-3) + 1)]
            best = min(
                grid,
                key=lambda u: _local_objective(
                    measured, u, fx, fv, None, lam, 0.0, config
                ),
            )
            assert u == pytest.approx(best, abs=1e-2)

    def test_lagrangian_never_increases(self, config):
        rng = random.Random(9)
        for _ in range(100):
            measured = VehicleState(x=rng.uniform(0, 100), v=rng.uniform(5, 39))
            fx = measured.x + rng.uniform(5, 40)
            fv = measured.v + rng.uniform(-5, 5)
            lo, hi = follower_terms(measured, config)[2:]
            u0 = rng.uniform(lo, hi)
            rear = (rng.uniform(-5, 5), rng.uniform(-3, 3))
            lam_f, lam_r = rng.uniform(0, 3), rng.uniform(0, 3)
            u = _primal_step(measured, u0, fx, fv, rear[0], rear[1], lam_f, lam_r, config)
            rear_ctx = (rear[0], rear[1], *predict(measured, u0, config.tau))
            before = _local_objective(measured, u0, fx, fv, rear_ctx, lam_f, lam_r, config)
            after = _local_objective(measured, u, fx, fv, rear_ctx, lam_f, lam_r, config)
            assert after <= before + 1e-9 * (1 + abs(before))

    def test_clipped_full_step_is_exact(self, config):
        # The local Lagrangian is a convex quadratic, so one clipped Newton
        # step lands on its minimiser over the box: no admissible neighbour
        # is lower.
        rng = random.Random(21)
        for _ in range(100):
            measured = VehicleState(x=rng.uniform(0, 100), v=rng.uniform(5, 39))
            fx = measured.x + rng.uniform(5, 40)
            fv = measured.v + rng.uniform(-5, 5)
            lo, hi = follower_terms(measured, config)[2:]
            u0 = rng.uniform(lo, hi)
            rear = (rng.uniform(-5, 5), rng.uniform(-3, 3))
            lam_f, lam_r = rng.uniform(0, 3), rng.uniform(0, 3)
            u = _primal_step(measured, u0, fx, fv, *rear, lam_f, lam_r, config)
            rear_ctx = (*rear, *predict(measured, u0, config.tau))

            def phi(w):
                return _local_objective(measured, w, fx, fv, rear_ctx, lam_f, lam_r, config)

            for w in (max(u - 1e-4, lo), min(u + 1e-4, hi)):
                assert phi(u) <= phi(w) + 1e-9 * (1 + abs(phi(w)))

    def test_updated_iterates_consistent_with_prediction(self, config):
        # The controller's final spacing terms are taken against the
        # prediction of the accelerations it returns.
        platoon = initial_platoon(config, 30.0)
        case = single_channel_case(
            config.n, victim=2, window=(0, 5), channel="x_ite", bias_params=[4.0]
        )
        bias = iter_attack_value_cal(config.n, 0, config.max_iterations, case)
        outcome = run_control_step(platoon, V2VChannel(bias=bias), config)
        assert any(abs(u) > 1e-3 for u in outcome.u_next)
        for front_x, gap_front, u, follower in zip(
            outcome.front_x, outcome.gap_front, outcome.u_next, platoon.followers
        ):
            px, _ = predict(follower, u, config.tau)
            assert gap_front == front_x - px

    def test_result_stays_in_admissible_box(self, config):
        # A huge perceived gap must still produce a clipped command.
        measured = VehicleState(x=0.0, v=30.0)
        u = _primal_step(measured, 0.0, 1000.0, 30.0, None, None, 0.0, 0.0, config)
        assert u == config.a_max
        u = _primal_step(measured, 0.0, -1000.0, 30.0, None, None, 0.0, 0.0, config)
        assert u == config.a_min

    def test_non_finite_input_raises(self, config):
        measured = VehicleState(x=0.0, v=30.0)
        with pytest.raises(NumericalError):
            _primal_step(measured, 0.0, float("inf"), 30.0, None, None, 0.0, 0.0, config)
        with pytest.raises(NumericalError):
            _primal_step(measured, 0.0, 20.0, 30.0, float("nan"), 0.0, 0.0, 0.0, config)


def _bits(values):
    return [float(x).hex() for x in values]


class TestPrimalSweep:
    def test_each_follower_steps_as_if_alone(self, config):
        # Jacobi: a follower's step reads only its own entries, so sweeping
        # a whole round gives each follower what sweeping it alone gives.
        rng = random.Random(77)
        terms = newton_terms(config)
        for _ in range(200):
            n = rng.randint(2, 8)
            states = [VehicleState(x=rng.uniform(0, 500), v=rng.uniform(5, 39)) for _ in range(n)]
            own = [follower_terms(s, config) for s in states]
            u = [rng.uniform(lo, hi) for _, _, lo, hi in own]
            px, pv = (list(c) for c in zip(*(predict(s, a, config.tau) for s, a in zip(states, u))))
            fx = [x + rng.uniform(5, 40) for x in px]
            fv = [v + rng.uniform(-5, 5) for v in pv]
            reports = rng.random() < 0.8
            rzx = [rng.uniform(-5, 5) if reports and rng.random() < 0.9 else None for _ in range(n)]
            rzv = [None if x is None else rng.uniform(-3, 3) for x in rzx]
            lam = [rng.choice([0.0, rng.uniform(0, 3)]) for _ in range(n + 1)]
            whole = [list(u), list(px), list(pv)]
            primal_sweep(*whole, fx, fv, rzx, rzv, lam, own, terms, 0, 0)
            for i in range(n):
                alone = [[u[i]], [px[i]], [pv[i]]]
                primal_sweep(*alone, [fx[i]], [fv[i]], [rzx[i]], [rzv[i]], lam[i:i + 2],
                             [own[i]], terms, 0, 0)
                assert _bits(c[0] for c in alone) == _bits(c[i] for c in whole)

    def test_broadcast_equals_predict_on_random_inputs(self, config):
        # The sweep's broadcast prediction is dynamics.predict's formula on
        # follower_terms' x + v*tau, bit for bit.  A box of one point makes
        # the step land on the drawn acceleration.
        rng = random.Random(123)
        for _ in range(1000):
            state = VehicleState(x=rng.uniform(-500, 500), v=rng.uniform(0, 40))
            a = rng.uniform(-5, 3)
            cfg = replace(config, tau=rng.uniform(0.01, 1.0))
            base_x, v, _, _ = follower_terms(state, cfg)
            u, px, pv = [0.0], [state.x], [state.v]
            primal_sweep(u, px, pv, [state.x + 20.0], [state.v], [None], [None], [0.0],
                         [(base_x, v, a, a)], newton_terms(cfg), 0, 0)
            assert u == [a]
            assert _bits([*px, *pv]) == _bits(predict(state, a, cfg.tau))

    def test_returns_the_largest_absolute_change(self, config):
        # On random rounds the sweep returns max |new u - old u|.  In half of
        # them every follower's box is one point below its candidate, so
        # every change is a decrease.
        rng = random.Random(58)
        terms = newton_terms(config)
        for _ in range(300):
            n = rng.randint(1, 8)
            states = [VehicleState(x=rng.uniform(0, 500), v=rng.uniform(5, 39)) for _ in range(n)]
            own = [follower_terms(s, config) for s in states]
            decreasing = rng.random() < 0.5
            if decreasing:
                points = [rng.uniform(lo, hi) for _, _, lo, hi in own]
                u = [hi + rng.uniform(1e-3, 2.0) for _, _, _, hi in own]
                own = [(base_x, v, a, a) for (base_x, v, _, _), a in zip(own, points)]
            else:
                u = [rng.uniform(lo, hi) for _, _, lo, hi in own]
            px, pv = (list(c) for c in zip(*(predict(s, a, config.tau) for s, a in zip(states, u))))
            fx = [x + rng.uniform(5, 40) for x in px]
            fv = [v + rng.uniform(-5, 5) for v in pv]
            rzx = [rng.uniform(-5, 5) for _ in range(n - 1)] + [None]
            rzv = [rng.uniform(-3, 3) for _ in range(n - 1)] + [None]
            lam = [rng.uniform(0, 3) for _ in range(n)]
            old = list(u)
            largest = primal_sweep(u, px, pv, fx, fv, rzx, rzv, lam, own, terms, 0, 0)
            changes = [new - before for new, before in zip(u, old)]
            if decreasing:
                assert max(changes) < 0.0
            assert _bits([largest]) == _bits([max(abs(change) for change in changes)])


def stops_after_one_round(largest, config, monkeypatch):
    """Whether a control step whose sweeps each report ``largest`` as the
    largest change in u ends at its first round.  The sweep is replaced, so
    the equilibrium platoon stays put and clears every safety gap: the step
    ends there exactly when the primal stop lets round 0 through to the dual
    phase."""
    with monkeypatch.context() as patch:
        patch.setattr(mpc_controller, "primal_sweep", lambda *args: largest)
        outcome = run_control_step(initial_platoon(config, 30.0), None, config)
    return outcome.converged and outcome.iterations_used == 1


class TestPrimalExit:
    def test_threshold_semantics(self, config, monkeypatch):
        assert config.primal_tol == 0.01
        assert stops_after_one_round(0.009, config, monkeypatch)
        assert stops_after_one_round(0.01, config, monkeypatch)
        assert not stops_after_one_round(0.011, config, monkeypatch)
        # A decrease of 0.02 counts by its size: one-point boxes move two
        # followers by 0.0 and -0.02, and the sweep reports 0.02.
        u = [0.0, 0.02]
        largest = primal_sweep(u, [0.0, 0.0], [30.0, 30.0], [20.0, 20.0], [30.0, 30.0],
                               [None, None], [None, None], [0.0, 0.0],
                               [(0.0, 30.0, 0.0, 0.0)] * 2, newton_terms(config), 0, 0)
        assert (u, largest) == ([0.0, 0.0], 0.02)
        assert not stops_after_one_round(largest, config, monkeypatch)


def _pairs(config, gaps, v=30.0):
    """``(fx, px, pv)`` for pairs whose followers predict speed ``v`` and
    perceive ``safety + gaps[i]``, ``safety`` being the tightened safety gap
    at ``v``: gaps[i] > 0 is slack, gaps[i] < 0 a violation of -gaps[i]."""
    safety = config.safety_gap(v) + config.dual_margin
    return [safety + gap for gap in gaps], [0.0] * len(gaps), [v] * len(gaps)


def _reference_dual_update(lam, fx, px, pv, config):
    """The dual phase in separate passes: the gaps, the tightened safety
    gaps, the verdict, then, unless every pair is feasible, a new list of
    multipliers.  Returns (verdict, multipliers or None)."""
    gaps = [fx[i] - px[i] for i in range(len(px))]
    safeties = [config.safety_gap(v) + config.dual_margin for v in pv]
    if all(gap >= safety for gap, safety in zip(gaps, safeties)):
        return True, None
    updated = []
    for multiplier, gap, safety in zip(lam, gaps, safeties):
        violation = safety - gap
        if violation > 0.0:
            multiplier = multiplier + config.dual_step * violation
        else:
            multiplier = multiplier * config.dual_decay
        updated.append(0.0 if 0.0 > multiplier else multiplier)
    return False, updated


class TestDualUpdate:
    def test_slack_pairs_decay_toward_zero(self, config):
        lam = [1.0, 0.5]
        assert dual_update(lam, *_pairs(config, [5.0, 5.0]), config)
        assert lam == [1.0 * config.dual_decay, 0.5 * config.dual_decay]

    def test_violated_pair_strictly_increases(self, config):
        lam = [0.0, 0.2]
        assert not dual_update(lam, *_pairs(config, [-2.0, 5.0]), config)
        assert lam[0] > 0.0
        assert lam[1] < 0.2

    def test_never_negative(self, config):
        lam = [1e-12]
        for _ in range(100):
            assert dual_update(lam, *_pairs(config, [10.0]), config)
            assert lam[0] >= 0.0

    def test_repeated_updates_drive_primal_toward_feasibility(self, config):
        # Two-vehicle instance with a violated safety gap: alternating primal
        # fixed-point and dual ascent must not let the violation grow.
        measured = VehicleState(x=100.0, v=30.0)
        fx = measured.x + config.safety_gap(30.0) - 2.0  # perceived gap 2 m short
        fv = 30.0
        lam = [0.0]
        u = 0.0
        violations = []
        for _ in range(25):
            for _ in range(50):
                new_u = _primal_step(measured, u, fx, fv, None, None, lam[0], 0.0, config)
                converged = abs(new_u - u) <= config.primal_tol
                u = new_u
                if converged:
                    break
            x_next, v_next = predict(measured, u, config.tau)
            gap = fx - x_next
            safety = config.safety_gap(v_next) + config.dual_margin
            violations.append(safety - gap)
            dual_update(lam, [fx], [x_next], [v_next], config)
        assert violations[-1] <= violations[0] + 1e-9
        assert max(violations[10:]) <= violations[0] + 1e-9

    def test_matches_the_separate_passes_bit_for_bit(self, config):
        # Same verdict as the reference, and, when some pair is not
        # feasible, the same multipliers bit for bit.  Entries may be NaN,
        # +-inf or -0.0: a NaN gap is neither feasible nor a violation, so it
        # decays.  Some draws make every pair slack but one whose gap is NaN.
        rng = random.Random(64)
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0]

        def value(low, high):
            return rng.choice(special) if rng.random() < 0.1 else rng.uniform(low, high)

        verdicts = set()
        for _ in range(3000):
            cfg = replace(config, dual_step=value(0.0, 5.0), dual_decay=value(0.0, 1.0),
                          dual_margin=value(0.0, 2.0), L_veh=rng.uniform(1.0, 10.0),
                          p=rng.uniform(0.5, 6.0), tau=rng.uniform(0.01, 1.0))
            n = rng.randint(1, 8)
            pv = [value(-5.0, 40.0) for _ in range(n)]
            px = [value(-100.0, 100.0) for _ in range(n)]
            if rng.random() < 0.5:
                fx = [px[i] + value(-10.0, 40.0) for i in range(n)]
            else:
                fx = [px[i] + cfg.safety_gap(pv[i]) + cfg.dual_margin + rng.uniform(0.0, 3.0)
                      for i in range(n)]
                if rng.random() < 0.5:
                    fx[rng.randrange(n)] = math.nan
            lam = [value(0.0, 3.0) for _ in range(n)]
            verdict, reference = _reference_dual_update(list(lam), fx, px, pv, cfg)
            got = list(lam)
            assert dual_update(got, fx, px, pv, cfg) is verdict
            if not verdict:
                assert _bits(got) == _bits(reference)
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestRunControlStep:
    def test_equilibrium_converges_immediately(self, config):
        platoon = initial_platoon(config, 30.0)
        bias = iter_attack_value_cal(config.n, 0, config.max_iterations, ())
        outcome = run_control_step(platoon, V2VChannel(bias=bias), config)
        assert outcome.converged
        assert outcome.iterations_used <= 5
        assert all(abs(u) < 1e-6 for u in outcome.u_next)

    def test_leader_deceleration_respects_constraints(self, config):
        platoon = initial_platoon(config, 30.0)
        channel = V2VChannel(bias=iter_attack_value_cal(config.n, 0, config.max_iterations, ()))
        for step in range(30):
            leader_u = -2.0 if step < 15 else 0.0
            outcome = run_control_step(platoon, channel, config, leader_u)
            assert all(config.a_min <= u <= config.a_max for u in outcome.u_next)
            platoon = step_platoon(platoon, leader_u, outcome.u_next, config.tau)
            assert check_constraints(platoon, config) == []

    def test_unsatisfiable_bias_exits_at_iteration_cap(self, config):
        platoon = initial_platoon(config, 30.0)
        case = single_channel_case(
            config.n, victim=4, window=(0, 5), channel="x_ite", bias_params=[-50.0]
        )
        bias = iter_attack_value_cal(config.n, 0, config.max_iterations, case)
        outcome = run_control_step(platoon, V2VChannel(bias=bias), config)
        assert outcome.iterations_used == config.max_iterations == 300
        assert not outcome.converged

    def test_outputs_clipped_even_under_extreme_bias(self, config):
        platoon = initial_platoon(config, 30.0)
        case = single_channel_case(
            config.n, victim=2, window=(0, 5), channel="v_ite", bias_params=[500.0]
        )
        bias = iter_attack_value_cal(config.n, 0, config.max_iterations, case)
        outcome = run_control_step(platoon, V2VChannel(bias=bias), config)
        assert all(config.a_min <= u <= config.a_max for u in outcome.u_next)

    def test_iteration_bound_holds_across_random_cases(self, config):
        rng = random.Random(17)
        platoon = initial_platoon(config, 30.0)
        for _ in range(10):
            case = single_channel_case(
                config.n,
                victim=rng.randint(1, config.n),
                window=(0, 5),
                channel=rng.choice(["x_ite", "v_ite", "zx_ite", "zv_ite"]),
                bias_params=[rng.uniform(-30, 30)],
            )
            bias = iter_attack_value_cal(config.n, 0, config.max_iterations, case)
            outcome = run_control_step(platoon, V2VChannel(bias=bias), config)
            assert outcome.iterations_used <= config.max_iterations

    def test_deterministic(self, config):
        platoon = initial_platoon(config, 30.0)
        case = single_channel_case(
            config.n, victim=3, window=(0, 5), channel="x_ite", bias_params=[7.0]
        )
        bias = iter_attack_value_cal(config.n, 0, config.max_iterations, case)
        a = run_control_step(platoon, V2VChannel(bias=bias), config)
        b = run_control_step(platoon, V2VChannel(bias=bias), config)
        assert a == b

    def test_warm_start_defaults_to_the_applied_accelerations(self, config):
        # The loop starts from each follower's applied u: two platoons that
        # differ only in u give different outcomes.
        platoon = initial_platoon(config, 30.0)
        channel = V2VChannel(bias=iter_attack_value_cal(config.n, 0, config.max_iterations, ()))
        for _ in range(3):
            outcome = run_control_step(platoon, channel, config, -2.0)
            platoon = step_platoon(platoon, -2.0, outcome.u_next, config.tau)
        assert all(follower.u for follower in platoon.followers)
        at_rest = replace(platoon, followers=tuple(replace(f, u=0.0) for f in platoon.followers))
        applied = run_control_step(platoon, channel, config, -2.0)
        assert applied != run_control_step(at_rest, channel, config, -2.0)

    def test_perception_records_cover_all_followers(self, config):
        # One entry per follower in each column; only the last follower has
        # no successor to report its rear gap.
        platoon = initial_platoon(config, 30.0)
        bias = iter_attack_value_cal(config.n, 0, config.max_iterations, ())
        outcome = run_control_step(platoon, V2VChannel(bias=bias), config)
        for column in (outcome.front_x, outcome.front_v, outcome.gap_front, outcome.gap_rear):
            assert len(column) == config.n
        assert outcome.gap_rear[-1] is None
        assert all(isinstance(gap, float) for gap in outcome.gap_rear[:-1])

    def test_gap_rear_rebuilt_from_the_last_backward_report(self, config, monkeypatch):
        # gap_rear is the successor's last received spacing report plus the
        # front gap's nominal-spacing term, gap_front - spacing_error, taken
        # against the final prediction.  A zx_ite attack on fv3 moves the
        # report follower 2 receives.
        reports = []
        corrupt = V2VChannel.corrupt

        def spy(self, direction, *args):
            delivered = corrupt(self, direction, *args)
            if direction is Direction.BACKWARD:
                reports[:] = [got[0] for got in delivered]
            return delivered

        monkeypatch.setattr(V2VChannel, "corrupt", spy)
        platoon = initial_platoon(config, 30.0)
        case = single_channel_case(
            config.n, victim=3, window=(0, 5), channel="zx_ite", bias_params=[3.0]
        )
        bias = iter_attack_value_cal(config.n, 0, config.max_iterations, case)
        outcome = run_control_step(platoon, V2VChannel(bias=bias), config)
        assert len(reports) == config.n - 1
        for i, report in enumerate(reports):
            px, pv = predict(platoon.followers[i], outcome.u_next[i], config.tau)
            front_x, gap_front = outcome.front_x[i], outcome.gap_front[i]
            expected = report + (gap_front - spacing_error(front_x, px, pv, config))
            assert outcome.gap_rear[i] == expected
        assert abs(outcome.gap_rear[1] - outcome.gap_front[1]) > 2.0

    @pytest.mark.parametrize(
        "channel, column, receiver",
        [("x_ite", 1, 2), ("v_ite", 2, 3), ("zx_ite", 3, 3), ("zv_ite", 1, 1)],
    )
    def test_non_finite_bias_names_follower_step_and_iteration(
        self, config, channel, column, receiver
    ):
        # An unsatisfiable attack keeps the loop running past round 7, where
        # one bias entry turns non-finite.  Bias column j corrupts follower
        # j+1's messages.  Backward they reach follower j.  Forward they reach
        # follower j+2, whose spacing report carries them back to follower j+1
        # in the same round, before j+2's own step.
        platoon = replace(initial_platoon(config, 30.0), control_step=4)
        case = single_channel_case(
            config.n, victim=4, window=(0, 5), channel="x_ite", bias_params=[-50.0]
        )
        clean = iter_attack_value_cal(config.n, 4, config.max_iterations, case)
        bias = {ch: clean[ch].copy() for ch in ChannelId}
        bias[ChannelId(channel)][7, column] = float("nan")
        assert run_control_step(platoon, V2VChannel(bias=clean), config).iterations_used > 7
        with pytest.raises(
            NumericalError, match=rf"^follower {receiver}, control step 4, iteration 7: "
        ):
            run_control_step(platoon, V2VChannel(bias=bias), config)

    def test_nan_tau_raises_instead_of_returning_nan(self, config):
        platoon = initial_platoon(config, 30.0)
        bias = iter_attack_value_cal(config.n, 0, config.max_iterations, ())
        with pytest.raises(NumericalError):
            run_control_step(platoon, V2VChannel(bias=bias), replace(config, tau=float("nan")))


class TestTransparentRounds:
    """A step without a channel skips ``corrupt`` and must give the bits a
    zero-bias channel gives."""

    @pytest.mark.parametrize("doc", [
        "tests/golden/drop_rules.yaml", "scenarios/single_target.yaml",
        "scenarios/string_instability.yaml",
    ])
    def test_corrupt_path_writes_the_same_artifacts(self, doc, tmp_path, monkeypatch):
        scenario = load_scenario(ROOT / doc)
        skipped = run_scenario(scenario, tmp_path / "skipped")
        force_corrupt(monkeypatch)
        forced = run_scenario(scenario, tmp_path / "forced")
        assert skipped.keys() == forced.keys() >= {"trace", "anomalies", "impact", "impact_csv"}
        for key, path in skipped.items():
            assert path.read_bytes() == forced[key].read_bytes(), key

    def test_zero_bias_slot_writes_what_no_attack_writes(self, tmp_path):
        # The slot covers steps 40..45, so they take the corrupt path; with
        # no attack they have no channel.
        doc = yaml.safe_load((ROOT / "scenarios/single_target.yaml").read_text())
        doc["attack"]["iter_biasparavalue_list"] = [[[[0.0]]]]
        zero = run_scenario(scenario_from_dict(doc), tmp_path / "zero")
        del doc["attack"]
        benign = run_scenario(scenario_from_dict(doc), tmp_path / "benign")
        assert zero.keys() == benign.keys() >= {"trace", "anomalies", "impact", "impact_csv"}
        for key, path in zero.items():
            assert path.read_bytes() == benign[key].read_bytes(), key

    def test_corrupt_path_gives_equal_outcomes_on_random_states(self, config):
        # A vehicle at x = v = u = -0.0 broadcasts -0.0 in round 0, which
        # corrupt delivers as 0.0.  A one-round step returns what round 0
        # delivered, and repr tells the two zeros apart.  The spacing terms
        # p, tau, L_veh and delta are drawn per step, away from the defaults.
        rng = random.Random(41)

        def state():
            if rng.random() < 0.2:
                return VehicleState(x=-0.0, v=-0.0, u=-0.0)
            return VehicleState(x=rng.uniform(-50, 200), v=rng.uniform(-5, 38), u=rng.uniform(-5, 3))

        for _ in range(30):
            cfg = replace(config, v_min=-10.0, max_iterations=rng.choice([1, 2, 300]),
                          p=rng.choice([0.0, rng.uniform(0.0, 10.0)]), tau=rng.uniform(0.02, 0.5),
                          L_veh=rng.uniform(1.0, 10.0), delta=rng.choice([0.0, rng.uniform(0.0, 3.0)]))
            k = rng.randrange(100)
            channel = V2VChannel(bias=iter_attack_value_cal(cfg.n, 0, cfg.max_iterations, ()))
            platoon = PlatoonState(state(), tuple(state() for _ in range(cfg.n)), k)
            leader_u = rng.uniform(-2, 2)
            skipped = run_control_step(platoon, None, cfg, leader_u)
            assert repr(run_control_step(platoon, channel, cfg, leader_u)) == repr(skipped)


def _random_steps(count):
    """Seeded random control steps as ``(config, platoon, channel,
    leader_u)``: 1 to 9 followers, loop settings and dual parameters drawn
    per step, vehicles perturbed off equilibrium (some at x = v = u = -0.0,
    many with a nonzero applied u), and no channel, a random bias, forward
    and backward drop rules, or both; one channel in ten carries a
    non-finite bias entry."""
    rng = random.Random(2510)
    for _ in range(count):
        n = rng.randint(1, 9)
        cfg = replace(
            SimConfig(), n=n, v_min=-10.0,
            max_iterations=rng.choice([1, 2, 7, 40, 300, 300]),
            primal_tol=rng.choice([0.01, rng.uniform(1e-4, 0.1)]),
            dual_step=rng.choice([0.5, rng.uniform(0.01, 5.0)]),
            dual_decay=rng.choice([0.9, 0.0, 1.0, rng.random()]),
            dual_margin=rng.choice([0.05, 0.0, rng.uniform(0.0, 2.0)]),
        )
        base = initial_platoon(cfg, rng.uniform(5.0, 38.0))
        k = rng.randrange(200)
        scale = rng.choice([0.0, 0.05, 0.5, 1.0])

        def vehicle(state):
            if rng.random() < 0.1:
                return VehicleState(x=-0.0, v=-0.0, u=-0.0)
            return VehicleState(
                x=state.x + scale * rng.uniform(-4.0, 4.0), v=state.v + scale * rng.uniform(-3.0, 3.0),
                u=rng.choice([0.0, -0.0, scale * rng.uniform(-6.0, 4.0)]))

        platoon = PlatoonState(vehicle(base.leader), tuple(map(vehicle, base.followers)), k)
        kind = rng.choice(["none", "bias", "drops", "both"])
        channel = None
        if kind != "none":
            slots = []
            if kind in ("bias", "both"):
                for _ in range(rng.randint(1, 3)):
                    bias_kind = rng.choice(["Constant", "Linear", "Sinusoidal"])
                    values = {
                        "Constant": lambda: (rng.uniform(-20, 20),),
                        "Linear": lambda: (rng.uniform(-0.5, 0.5), rng.uniform(-5, 5)),
                        "Sinusoidal": lambda: (rng.uniform(0, 10), rng.uniform(0, 1),
                                               rng.uniform(0, 6), rng.uniform(-3, 3)),
                    }[bias_kind]()
                    on, off = rng.choice([(1, 0), (rng.randint(1, 5), rng.randint(1, 5))])
                    slots.append(AttackSlot(rng.randint(1, n), k - rng.randint(0, 3), k + rng.randint(0, 3),
                                            rng.choice(list(ChannelId)), on, off, bias_kind, values))
            bias = iter_attack_value_cal(n, k, cfg.max_iterations, slots)
            if rng.random() < 0.1:
                bias = {ch: matrix.copy() for ch, matrix in bias.items()}
                bias[rng.choice(list(ChannelId))][rng.randrange(cfg.max_iterations), rng.randrange(n)] = (
                    rng.choice([float("nan"), float("inf"), -float("inf")]))
            drops = []
            if kind in ("drops", "both"):
                for _ in range(rng.randint(1, 3)):
                    if n > 1 and rng.random() < 0.5:
                        direction, sender = Direction.BACKWARD, rng.randint(2, n)
                    else:
                        direction, sender = Direction.FORWARD, rng.randrange(n)
                    first = rng.randrange(cfg.max_iterations)
                    iterations = rng.choice([None, (first, first + rng.randint(0, 50))])
                    drops.append(DropRule(direction, sender, None, iterations))
            channel = V2VChannel(bias=bias, drops=tuple(drops))
        yield cfg, platoon, channel, rng.uniform(-3.0, 3.0)


# The sha256 of the 400 steps' outcomes, as written by the two-pass dual
# phase (separate gap, safety and multiplier lists) that the one-pass
# dual_update replaced.
RANDOM_STEP_DIGEST = "ecc16fc560f821abaea851f113430896d57455c426b515341165f3c2266d98e3"


class TestRandomSteps:
    def test_outcomes_match_the_pinned_digest(self):
        # Each step's outcome repr, or its NumericalError text, one line
        # each.  Of the 400 steps 86 converge, 13 raise and the rest stop at
        # their round cap.
        digest = hashlib.sha256()
        kinds = {"converged": 0, "cap": 0, "error": 0}
        for cfg, platoon, channel, leader_u in _random_steps(400):
            try:
                outcome = run_control_step(platoon, channel, cfg, leader_u)
            except NumericalError as exc:
                line = f"NumericalError: {exc}"
                kinds["error"] += 1
            else:
                line = repr(outcome)
                kinds["converged" if outcome.converged else "cap"] += 1
            digest.update(line.encode() + b"\n")
        assert kinds == {"converged": 86, "cap": 301, "error": 13}
        assert digest.hexdigest() == RANDOM_STEP_DIGEST


class TestCheckConstraints:
    def test_equilibrium_clean(self, config):
        platoon = initial_platoon(config, 30.0)
        stepped = step_platoon(platoon, 0.0, [0.0] * config.n, config.tau)
        assert check_constraints(stepped, config) == []

    def test_acceleration_violation_reported(self, config):
        platoon = initial_platoon(config, 30.0)
        u = [0.0] * config.n
        u[2] = config.a_max + 1.0
        violations = check_constraints(step_platoon(platoon, 0.0, u, config.tau), config)
        assert any(v.vehicle == 3 and v.kind == "acceleration" for v in violations)

    def test_random_states_match_independent_reevaluation(self, config):
        rng = random.Random(31)
        platoon = initial_platoon(config, 30.0)
        for _ in range(100):
            u = [rng.uniform(-8, 6) for _ in range(config.n)]
            leader_u = rng.uniform(-2, 2)
            stepped = step_platoon(platoon, leader_u, u, config.tau)
            got = {(v.vehicle, v.kind) for v in check_constraints(stepped, config)}
            expected = set()
            tau = config.tau
            prev_x = platoon.leader.x + platoon.leader.v * tau + 0.5 * leader_u * tau**2
            for i, (ui, s) in enumerate(zip(u, platoon.followers), start=1):
                if not config.a_min <= ui <= config.a_max:
                    expected.add((i, "acceleration"))
                vn = s.v + ui * tau
                xn = s.x + s.v * tau + 0.5 * ui * tau**2
                if not config.v_min <= vn <= config.v_max:
                    expected.add((i, "velocity"))
                if prev_x - xn < config.L_veh + config.p * tau * vn:
                    expected.add((i, "safety_gap"))
                prev_x = xn
            assert got == expected
