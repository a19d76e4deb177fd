"""Frozen end-to-end fingerprints of the controller.

For every shipped scenario, plus a drop-rule document kept under
``tests/golden/``, this pins the total V2V round count, the number of control
steps that hit the round cap, and the sha256 of the controller columns of
``trace.csv``.  Those columns are pure-Python floats written with ``repr``, so
the hash is portable; the ELM columns go through BLAS and are left out.

A change that alters any of these values changes the controller's behaviour.
Regenerate a fingerprint only on purpose, and say why in CHANGES.md.
"""

import csv
import hashlib
from pathlib import Path

import pytest

from platoonsec.cli_runner import load_scenario, simulate, write_trace_csv

ROOT = Path(__file__).parent.parent
CONTROLLER_COLUMNS = ("control_step", "vehicle_id", "x", "v", "u", "gap_front", "headway")

# path -> (rounds, cap steps, sha256 of the controller columns)
FINGERPRINTS = {
    "scenarios/benign.yaml": (
        100, 0, "86232376dd5c050f74c9e441e5c83d4542083d9dd701ca48824e617a0c96733f",
    ),
    "scenarios/comparator_blindspot.yaml": (
        1732, 5, "90e44ed3d295cf49627428301d2277268a4d5a958d5c67031b47dac8c4bd047b",
    ),
    "scenarios/efficiency_degradation.yaml": (
        27137, 90, "a7c5f9b5942a030aba336e77c407cbaa412e037039aaafeb67895746976b30ff",
    ),
    "scenarios/safety_degradation.yaml": (
        20263, 67, "056c29e974c4e4ed25784b016286119c329690bf196ec1c6d29405982c8a1879",
    ),
    "scenarios/single_target.yaml": (
        2035, 6, "d366a443548cb98d131dfc6f24ee95b784f24bc824c24f5aa3697096d4f6be64",
    ),
    "scenarios/string_instability.yaml": (
        17229, 56, "c37d4b98ea70cff18b30122b6a7bed22ef9e2bb88e4f3f7a5db06897ffba2902",
    ),
    "tests/golden/drop_rules.yaml": (
        4596, 15, "63f7c9a7bc7f0d4408cebc691e650421b561989e506bb229f33a403690ed1a61",
    ),
}


def controller_fingerprint(path: Path, tmp_path: Path) -> tuple[int, int, str]:
    result = simulate(load_scenario(path))
    trace = tmp_path / "trace.csv"
    write_trace_csv(result.rows, trace)
    with open(trace, newline="") as fh:
        text = "\n".join(
            ",".join(row[col] for col in CONTROLLER_COLUMNS) for row in csv.DictReader(fh)
        )
    rounds = sum(step.iterations_used for step in result.step_outcomes)
    caps = sum(not step.converged for step in result.step_outcomes)
    return rounds, caps, hashlib.sha256(text.encode()).hexdigest()


def test_every_shipped_scenario_is_pinned():
    shipped = {f"scenarios/{p.name}" for p in (ROOT / "scenarios").glob("*.yaml")}
    assert shipped <= set(FINGERPRINTS)


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_controller_fingerprint(name, tmp_path):
    assert controller_fingerprint(ROOT / name, tmp_path) == FINGERPRINTS[name]
