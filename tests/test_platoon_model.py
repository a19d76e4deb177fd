import math
import sys

import pytest

from platoonsec.cli_runner import scenario_from_dict
from platoonsec.platoon_model import ConfigError, SimConfig, VehicleState, _check, _shown, initial_platoon


class TestSimConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.n == 6
        assert cfg.max_iterations == 300
        assert cfg.primal_tol == 0.01

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 0},
            {"tau": 0.0},
            {"L_veh": -1.0},
            {"max_iterations": 0},
            {"primal_tol": 0.0},
            {"a_min": 3.0, "a_max": 3.0},
            {"v_min": 40.0, "v_max": 40.0},
            {"Q_alpha": 0.0},
            {"Q_beta": -1.0},
        ],
    )
    def test_invariant_violations_rejected(self, overrides):
        # SimConfig is a plain value: its invariants are the loader's rules,
        # and each rejection names its sim key.
        with pytest.raises(ConfigError, match=rf"\bsim\.{next(iter(overrides))}\b"):
            scenario_from_dict({"sim": overrides})

    def test_nominal_headway_within_safe_band(self):
        # Equilibrium spacing at 30 m/s must put the time-headway inside the
        # [0.45, 0.55] s safe band used by the impact metrics.
        cfg = SimConfig()
        gap = cfg.nominal_gap(30.0)
        headway = (gap - cfg.L_veh) / 30.0
        assert 0.45 <= headway <= 0.55
        assert headway == pytest.approx(0.5, abs=1e-12)


class TestShown:
    @pytest.mark.parametrize("value, form, shown", [
        ("fast", repr, "'fast'"),
        ("fast", str, "fast"),
        ([1, 2.5], repr, "[1, 2.5]"),
        ("x" * 78, repr, "'" + "x" * 78 + "'"),
        ("x" * 79, repr, "'" + "x" * 59 + "... (81 characters)"),
        (10**400, repr, "1" + "0" * 59 + "... (401 characters)"),
        (-(10**400), str, "-1" + "0" * 58 + "... (402 characters)"),
    ], ids=["string", "string-as-str", "list", "80-characters", "81-characters", "big-int", "big-int-as-str"])
    def test_a_value_is_shown_in_about_80_characters(self, value, form, shown):
        assert _shown(value, form) == shown
        assert len(shown) <= 80

    def test_an_int_past_the_digit_limit_is_shown_without_raising(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python prints ints of any length")
        huge = 10 ** (limit + 1)
        assert _shown(huge) == _shown(huge, str) == "<int too long to print>"
        assert _shown([1, huge]) == "<list too long to print>"
        with pytest.raises(ConfigError, match=r"^seed must be an int >= 0, got <int too long to print>$"):
            _check("seed", -huge, (lambda v: v >= 0, "an int >= 0"))


class TestVehicleState:
    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            VehicleState(x=math.nan, v=0.0)
        with pytest.raises(ConfigError):
            VehicleState(x=0.0, v=math.inf)


class TestInitialPlatoon:
    def test_equilibrium_by_construction(self, config):
        platoon = initial_platoon(config, 30.0)
        gap = config.nominal_gap(30.0)
        assert platoon.leader.v == 30.0
        for i, follower in enumerate(platoon.followers, start=1):
            assert follower.v == 30.0
            assert follower.u == 0.0
            assert platoon.gap(i) == pytest.approx(gap, abs=1e-12)

    def test_follower_count_matches_config(self):
        platoon = initial_platoon(SimConfig(n=6), 30.0)
        assert platoon.n == 6
        # one leader plus six followers
        assert 1 + len(platoon.followers) == 7

    def test_positions_strictly_decreasing(self, config):
        platoon = initial_platoon(config, 30.0)
        xs = [platoon.leader.x] + [f.x for f in platoon.followers]
        assert all(a - b >= config.L_veh for a, b in zip(xs, xs[1:]))

    def test_deterministic(self, config):
        assert initial_platoon(config, 30.0) == initial_platoon(config, 30.0)

    def test_gap_index_bounds(self, config):
        platoon = initial_platoon(config, 30.0)
        with pytest.raises(IndexError):
            platoon.gap(0)
        with pytest.raises(IndexError):
            platoon.gap(config.n + 1)
