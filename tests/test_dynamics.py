import random

import pytest

from platoonsec.dynamics import step_platoon, step_vehicle
from platoonsec.platoon_model import SimConfig, VehicleState, initial_platoon


class TestStepVehicle:
    def test_zero_acceleration(self):
        out = step_vehicle(VehicleState(x=0.0, v=30.0), u=0.0, tau=0.1)
        assert out.x == pytest.approx(3.0)
        assert out.v == 30.0

    def test_direct_evaluation(self):
        out = step_vehicle(VehicleState(x=0.0, v=30.0), u=2.0, tau=0.1)
        assert out.x == pytest.approx(3.01)
        assert out.v == pytest.approx(30.2)
        assert out.u == 2.0

    def test_constant_acceleration_rollout_matches_closed_form(self):
        # k steps at constant u must land on x0 + v0*k*tau + u*(k*tau)^2/2.
        rng = random.Random(42)
        for _ in range(50):
            x0, v0 = rng.uniform(-100, 100), rng.uniform(0, 40)
            u, tau, k = rng.uniform(-5, 3), rng.uniform(0.01, 0.5), rng.randint(1, 200)
            state = VehicleState(x=x0, v=v0)
            for _ in range(k):
                state = step_vehicle(state, u, tau)
            T = k * tau
            assert state.x == pytest.approx(x0 + v0 * T + u * T * T / 2.0, abs=1e-9)
            assert state.v == pytest.approx(v0 + u * T, abs=1e-9)


class TestStepPlatoon:
    def test_uniform_motion_preserves_gaps(self):
        cfg = SimConfig()
        platoon = initial_platoon(cfg, 30.0)
        gaps = [platoon.gap(i) for i in range(1, cfg.n + 1)]
        stepped = step_platoon(platoon, 0.0, [0.0] * cfg.n, cfg.tau)
        assert [stepped.gap(i) for i in range(1, cfg.n + 1)] == pytest.approx(gaps, abs=1e-12)
        assert stepped.control_step == 1

    def test_equilibrium_headways_constant_over_100_steps(self):
        cfg = SimConfig()
        platoon = initial_platoon(cfg, 30.0)
        for _ in range(100):
            platoon = step_platoon(platoon, 0.0, [0.0] * cfg.n, cfg.tau)
        nominal = cfg.nominal_gap(30.0)
        for i in range(1, cfg.n + 1):
            headway = (platoon.gap(i) - cfg.L_veh) / platoon.followers[i - 1].v
            assert headway == pytest.approx(0.5, abs=1e-9)
            assert platoon.gap(i) == pytest.approx(nominal, abs=1e-9)

    def test_composition_matches_per_vehicle_steps(self):
        # Vehicle-wise stepping is the oracle: each update reads only its own
        # prior state, so order cannot matter.
        rng = random.Random(7)
        cfg = SimConfig()
        platoon = initial_platoon(cfg, 25.0)
        for _ in range(10):
            leader_u = rng.uniform(-2, 2)
            us = [rng.uniform(-5, 3) for _ in range(cfg.n)]
            expected_leader = step_vehicle(platoon.leader, leader_u, cfg.tau)
            expected_followers = [
                step_vehicle(s, u, cfg.tau) for s, u in zip(platoon.followers, us)
            ]
            platoon = step_platoon(platoon, leader_u, us, cfg.tau)
            assert platoon.leader == expected_leader
            assert list(platoon.followers) == expected_followers

    def test_length_mismatch_rejected(self):
        cfg = SimConfig()
        platoon = initial_platoon(cfg, 30.0)
        with pytest.raises(ValueError):
            step_platoon(platoon, 0.0, [0.0] * (cfg.n - 1), cfg.tau)
