import random
from dataclasses import replace

import pytest

from platoonsec.attack_engine import BiasMatrices, iter_attack_value_cal
from platoonsec.dynamics import predict, step_platoon, step_vehicle
from platoonsec.mpc_controller import (
    NumericalError,
    check_constraints,
    dual_update,
    follower_terms,
    newton_terms,
    primal_exit,
    primal_step,
    run_control_step,
    spacing_error,
)
from platoonsec.platoon_model import VehicleState, initial_platoon
from platoonsec.v2v_channel import ChannelId, Direction, V2VChannel

from conftest import single_channel_case


def _primal_step(measured, u, fx, fv, rear_zx, rear_zv, lam_front, lam_rear, cfg):
    """The kernel on one follower, fed the per-step terms run_control_step
    builds for it and its broadcast prediction of ``u``."""
    px, pv = predict(measured, u, cfg.tau)
    return primal_step(
        u, px, pv, fx, fv, rear_zx, rear_zv, lam_front, lam_rear,
        follower_terms(measured, cfg), newton_terms(cfg),
    )


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


def first_round_relative_speeds(config, monkeypatch, v_bias: float = 0.0) -> list[float]:
    """The relative speeds the followers of an equilibrium platoon send
    backward in round 0, fv1's outgoing v_ite biased by ``v_bias``."""
    payloads = []
    corrupt = V2VChannel.corrupt

    def spy(self, direction, a, b, t, k):
        payloads.append((direction, b))
        return corrupt(self, direction, a, b, t, k)

    monkeypatch.setattr(V2VChannel, "corrupt", spy)
    case = single_channel_case(config.n, victim=1, window=(0, 0), channel="v_ite", bias_params=[v_bias])
    bias = iter_attack_value_cal(config.n, 0, 1, case)
    run_control_step(initial_platoon(config, 30.0), V2VChannel(bias=bias), replace(config, max_iterations=1))
    (forward, _), (backward, reports) = payloads
    assert (forward, backward) == (Direction.FORWARD, Direction.BACKWARD)
    return reports[1:]


class TestRelativeSpeed:
    """A follower's backward zv_ite report is the front velocity it
    received minus its own predicted velocity."""

    def test_equal_speeds(self, config, monkeypatch):
        assert first_round_relative_speeds(config, monkeypatch) == [0.0] * config.n

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
            lo, hi = follower_terms(measured, config)[1:]
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
            lo, hi = follower_terms(measured, config)[1:]
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
            lo, hi = follower_terms(measured, config)[1:]
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


class TestPrimalExit:
    def test_threshold_semantics(self):
        assert primal_exit([0.009], 0.01)
        assert primal_exit([0.01], 0.01)
        assert not primal_exit([0.011], 0.01)
        assert not primal_exit([0.0, -0.02], 0.01)


class TestDualUpdate:
    def test_slack_pairs_decay_toward_zero(self, config):
        updated = dual_update([1.0, 0.5], [25.0, 25.0], [20.0, 20.0], config)
        assert updated == [1.0 * config.dual_decay, 0.5 * config.dual_decay]

    def test_violated_pair_strictly_increases(self, config):
        updated = dual_update([0.0, 0.2], [18.0, 25.0], [20.0, 20.0], config)
        assert updated[0] > 0.0
        assert updated[1] < 0.2

    def test_never_negative(self, config):
        lam = [1e-12]
        for _ in range(100):
            lam = dual_update(lam, [30.0], [20.0], config)
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
            lam = dual_update(lam, [gap], [safety], config)
        assert violations[-1] <= violations[0] + 1e-9
        assert max(violations[10:]) <= violations[0] + 1e-9


class TestRunControlStep:
    def test_equilibrium_converges_immediately(self, config):
        platoon = initial_platoon(config, 30.0)
        bias = BiasMatrices.zeros(config.max_iterations, config.n)
        outcome = run_control_step(platoon, V2VChannel(bias=bias), config)
        assert outcome.converged
        assert outcome.iterations_used <= 5
        assert all(abs(u) < 1e-6 for u in outcome.u_next)

    def test_leader_deceleration_respects_constraints(self, config):
        platoon = initial_platoon(config, 30.0)
        channel = V2VChannel(bias=BiasMatrices.zeros(config.max_iterations, config.n))
        prev = (0.0,) * config.n
        for step in range(30):
            leader_u = -2.0 if step < 15 else 0.0
            outcome = run_control_step(platoon, channel, config, leader_u, warm_start=prev)
            assert all(config.a_min <= u <= config.a_max for u in outcome.u_next)
            platoon = step_platoon(platoon, leader_u, outcome.u_next, config.tau)
            assert check_constraints(platoon, config) == []
            prev = outcome.u_next

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

    def test_warm_start_length_checked(self, config):
        platoon = initial_platoon(config, 30.0)
        bias = BiasMatrices.zeros(config.max_iterations, config.n)
        with pytest.raises(ValueError):
            run_control_step(platoon, V2VChannel(bias=bias), config, warm_start=[0.0])

    def test_warm_start_defaults_to_the_applied_accelerations(self, config):
        platoon = initial_platoon(config, 30.0)
        channel = V2VChannel(bias=BiasMatrices.zeros(config.max_iterations, config.n))
        for _ in range(3):
            outcome = run_control_step(platoon, channel, config, -2.0)
            platoon = step_platoon(platoon, -2.0, outcome.u_next, config.tau)
        applied = [follower.u for follower in platoon.followers]
        assert all(applied)
        default = run_control_step(platoon, channel, config, -2.0)
        assert default == run_control_step(platoon, channel, config, -2.0, warm_start=applied)
        assert default != run_control_step(platoon, channel, config, -2.0, warm_start=[0.0] * config.n)

    def test_perception_records_cover_all_followers(self, config):
        # One entry per follower in each column; only the last follower has
        # no successor to report its rear gap.
        platoon = initial_platoon(config, 30.0)
        bias = BiasMatrices.zeros(config.max_iterations, config.n)
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
        arrays = {ch: clean.by_channel(ch).copy() for ch in ChannelId}
        arrays[ChannelId(channel)][7, column] = float("nan")
        bias = BiasMatrices(*arrays.values())
        assert run_control_step(platoon, V2VChannel(bias=clean), config).iterations_used > 7
        with pytest.raises(
            NumericalError, match=rf"^follower {receiver}, control step 4, iteration 7: "
        ):
            run_control_step(platoon, V2VChannel(bias=bias), config)

    def test_nan_tau_raises_instead_of_returning_nan(self, config):
        platoon = initial_platoon(config, 30.0)
        bias = BiasMatrices.zeros(config.max_iterations, config.n)
        with pytest.raises(NumericalError):
            run_control_step(platoon, V2VChannel(bias=bias), replace(config, tau=float("nan")))


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
