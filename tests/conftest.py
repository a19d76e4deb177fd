import pytest

from platoonsec.attack_engine import AttackSlot, parse_attack_case
from platoonsec.cli_runner import LeaderProfile, Scenario
from platoonsec.detection import DetectionConfig
from platoonsec.platoon_model import SimConfig


@pytest.fixture
def config():
    return SimConfig()


def single_channel_case(
    n: int,
    victim: int,
    window: tuple[int, int],
    channel: str,
    bias_kind: str = "Constant",
    bias_params: list | None = None,
    freq_kind: str = "Continuous",
    freq_params: list | None = None,
) -> tuple[AttackSlot, ...]:
    """One victim, one period, one channel; the workhorse test case."""
    return parse_attack_case(
        {
            "iter_victim_list": [victim],
            "control_attackperiod_list": [[list(window)]],
            "iter_malichannel_list": [[[channel]]],
            "iter_freq_type_list": [[[freq_kind]]],
            "iter_freqparavalue_list": [[[freq_params or [0]]]],
            "iter_biastype_list": [[[bias_kind]]],
            "iter_biasparavalue_list": [[[bias_params or [1.0]]]],
        },
        n,
        SimConfig.max_iterations,
    )


def make_scenario(
    sim: SimConfig | None = None,
    attack: tuple[AttackSlot, ...] = (),
    leader: LeaderProfile | None = None,
    seed: int = 1,
    **detection_overrides,
) -> Scenario:
    sim = sim or SimConfig()
    detection = DetectionConfig(seed=seed, **detection_overrides)
    return Scenario(
        sim=sim,
        leader=leader or LeaderProfile(30.0),
        attack=attack,
        detection=detection,
    )
