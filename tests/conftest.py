import pytest

from platoonsec.attack_engine import AttackSlot, parse_attack_case
from platoonsec.cli_runner import LeaderProfile, Scenario
from platoonsec.detection import DetectionConfig
from platoonsec.platoon_model import SimConfig


@pytest.fixture
def config():
    return SimConfig()


def running_example_doc():
    """Three victims with mixed channels, frequencies and waveforms."""
    return {
        "iter_victim_list": [1, 3, 5],
        "control_attackperiod_list": [[[10, 20], [15, 25]], [[20, 30]], [[40, 60]]],
        "iter_malichannel_list": [[["x_ite", "v_ite"], ["v_ite"]], [["zx_ite"]], [["zv_ite"]]],
        "iter_freq_type_list": [[["Continuous", "Continuous"], ["Cluster"]], [["Continuous"]], [["Cluster"]]],
        "iter_freqparavalue_list": [[[[0], [0]], [[2, 8]]], [[[0]]], [[[1, 10]]]],
        "iter_biastype_list": [[["Constant", "Constant"], ["Constant"]], [["Linear"]], [["Sinusoidal"]]],
        "iter_biasparavalue_list": [[[[3], [2]], [[4]]], [[[2, 5]]], [[[10, 0.5, 0, 5]]]],
    }


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
