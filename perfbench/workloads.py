"""Scenario documents for the three benchmark workloads.

Each workload is a list of ``(name, document)`` pairs.  The documents are
plain YAML-shaped mappings, the only thing the program sees; everything
seeded is drawn here from ``random.Random(seed)``, so one seed always gives
the same documents.
"""

from __future__ import annotations

import random
from pathlib import Path

import yaml

# cruise_replay: a benign n=6 drive whose leader keeps changing speed, so the
# forecasters see non-constant increments and refit on nearly every step.
CRUISE_STEPS = 500

# wide_platoon: one n=48 platoon under a mixed-channel mid-platoon attack.
WIDE_N = 48
WIDE_STEPS = 150
WIDE_CLUSTER = [3, 7]
WIDE_OFFSET = 5.0
WIDE_SINE = [2.0, 3.0, 0.0, 0.0]


def shipped_suite(root: Path, seed: int) -> list[tuple[str, dict]]:
    """The shipped scenarios; the seed is not used."""
    docs = []
    for path in sorted((root / "scenarios").glob("*.yaml")):
        with open(path) as fh:
            docs.append((path.stem, yaml.safe_load(fh) or {}))
    return docs


def _leader_profile(rng: random.Random, steps: int) -> list[list[float]]:
    """Piecewise accelerations: speed-up and slow-down phases alternate, each
    followed by a coast, so the leader stays near its initial speed and the
    controller converges in a few rounds per step.  The seed jitters the
    phase lengths and strengths only slightly, so every seed costs about
    the same."""
    phases, k, sign = [], 0, rng.choice((-1, 1))
    while k < steps:
        phases.append([k, sign * round(rng.uniform(0.15, 0.25), 3)])
        k += rng.randint(28, 32)
        phases.append([k, 0.0])
        k += rng.randint(18, 22)
        sign = -sign
    return phases


def cruise_replay(root: Path, seed: int) -> list[tuple[str, dict]]:
    rng = random.Random(seed)
    speed = round(rng.uniform(28.0, 32.0), 2)
    doc = {
        "sim": {"n": 6, "total_control_steps": CRUISE_STEPS},
        "leader": {"speed": speed, "profile": _leader_profile(rng, CRUISE_STEPS)},
        "seed": rng.randint(1, 10_000),
    }
    return [("cruise", doc)]


def wide_platoon(root: Path, seed: int) -> list[tuple[str, dict]]:
    rng = random.Random(seed)
    # The seed moves the attack along the platoon and in time; its strength
    # and waveforms are fixed, so every seed costs about the same.
    victim = rng.randint(20, 28)
    start = rng.randint(36, 44)
    end = start + 20
    attack = {
        "iter_victim_list": [victim],
        "control_attackperiod_list": [[[start, end]]],
        "iter_malichannel_list": [[["x_ite", "v_ite"]]],
        "iter_freq_type_list": [[["Cluster", "Continuous"]]],
        "iter_freqparavalue_list": [[[WIDE_CLUSTER, [0]]]],
        "iter_biastype_list": [[["Constant", "Sinusoidal"]]],
        "iter_biasparavalue_list": [[[[WIDE_OFFSET], WIDE_SINE]]],
    }
    drop_from = rng.randint(90, 100)
    drops = [
        {
            "direction": "backward",
            "sender": victim + rng.randint(4, 8),
            "control_steps": [drop_from, drop_from + 10],
        }
    ]
    return [
        (
            "wide_48",
            {
                "sim": {"n": WIDE_N, "total_control_steps": WIDE_STEPS},
                "leader": {"speed": 30.0},
                "attack": attack,
                "drops": drops,
                "seed": rng.randint(1, 10_000),
            },
        )
    ]


GENERATORS = {
    "shipped_suite": shipped_suite,
    "cruise_replay": cruise_replay,
    "wide_platoon": wide_platoon,
}


def scenario_files(
    workload: str, root: Path, seed: int, out_dir: Path, steps: int | None = None
) -> list[Path]:
    """The scenario files a pass of ``workload`` loads, in run order.

    The shipped suite is loaded from ``scenarios/`` as shipped.  Generated
    documents are written to ``out_dir``.  ``steps`` caps every scenario's
    length, for short smoke passes; it always writes copies.
    """
    if workload == "shipped_suite" and steps is None:
        return sorted((root / "scenarios").glob("*.yaml"))
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, doc in GENERATORS[workload](root, seed):
        if steps is not None:
            sim = dict(doc.get("sim") or {})
            sim["total_control_steps"] = min(steps, sim.get("total_control_steps", 100))
            doc = {**doc, "sim": sim}
        path = out_dir / f"{name}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        paths.append(path)
    return paths
