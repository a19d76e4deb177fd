"""Frozen end-to-end fingerprints of the controller and of detection.

For every shipped scenario, plus two documents kept under ``tests/golden/``
(a drop-rule document and perfbench's n=48 ``wide_platoon`` at seed 1), this
pins:

- the total V2V round count, the number of control steps that hit the round
  cap, and the sha256 of the controller columns of ``trace.csv``;
- the sha256 of ``impact.txt`` followed by ``impact.csv``;
- the sha256 of the ``anomalies.csv`` rows followed by the detection columns
  of ``trace.csv``;
- the count and sha256 of the constraint violations, which no artifact
  holds: one ``step,vehicle,kind,value,bound`` line each, floats by ``repr``.

The controller columns and the impact files are pure-Python floats written
with ``repr``, so their hashes are exact and portable.  ELM predictions go
through BLAS, so the detection hash formats every predicted value with
``.9g`` first; flags and event rows still have to match exactly.

Each document is simulated once; every pin reads the same artifacts.
A change that alters any of these values changes the program's behaviour.
Regenerate a fingerprint only on purpose, and say why in CHANGES.md.
"""

import csv
import hashlib
from pathlib import Path

import pytest

from platoonsec.cli_runner import (
    load_scenario,
    simulate,
    write_anomaly_csv,
    write_impact_csv,
    write_trace_csv,
)
from platoonsec.detection import ANOMALY_CSV_COLUMNS
from platoonsec.metrics import format_impact_report

ROOT = Path(__file__).parent.parent
CONTROLLER_COLUMNS = ("control_step", "vehicle_id", "x", "v", "u", "gap_front", "headway")
DETECTION_COLUMNS = ("comparator_flag", "elm_pos_pred", "elm_vel_pred", "pos_anom", "vel_anom")
ELM_COLUMNS = ("elm_pos_pred", "elm_vel_pred", "predicted_value")

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
    "tests/golden/wide_48.yaml": (
        2366, 4, "499b8e9332b13dec47766f34b60354e5dbb65b82acf9ed5d3c82ed85da2d1978",
    ),
}

# path -> (sha256 of the impact files, sha256 of the detection output)
OUTPUT_FINGERPRINTS = {
    "scenarios/benign.yaml": (
        "d03bb93e55d3f58cec7c4d0e70494e8213e8e244d3f2574a183c638c77867238",
        "e1ac7decc7b9128d38dd713723a68ff8fccfd6d1d15918e96cb0e9fa6fbc1d36",
    ),
    "scenarios/comparator_blindspot.yaml": (
        "0f29c13db8cb496a072e09bb3c574d64b7b686870a8036105123512624c93a02",
        "17e0dc0d7dd11047f80c751a4aa4647dbab8b1be90383b95302d743639d744e7",
    ),
    "scenarios/efficiency_degradation.yaml": (
        "82493461df80b8b8fb7eb10bc4b2659bb2659f806ed093486c630729a59e2bc0",
        "897edc33720068126ac3595fdcf9b5e3f09d097250fd0efb65acc78372726bcc",
    ),
    "scenarios/safety_degradation.yaml": (
        "eae7e239b30ec933b3979a4f7aa45c79d4f8c03429ad792c807e7f39cb9799c5",
        "3d3ada70ef600cb9405a45fde5824bb4092fd52afacd76b7830ed026ced6b152",
    ),
    "scenarios/single_target.yaml": (
        "20dea27f6c58b75d1f074ec35ba68bd992592d78e7c32eeb109022721e7b38c6",
        "db5a7d7d0f0e94b3f5fda2b9448343f8de4d5be68cba8ec4a36adca80bd781aa",
    ),
    "scenarios/string_instability.yaml": (
        "0174ad6fbe1730af2211b260f88ab47b1d87559bb6014d70e275dc77e57101c4",
        "66613e9e01ba8fa8184170610a74f1ddf7185574d299492938a924e058768d6d",
    ),
    "tests/golden/drop_rules.yaml": (
        "672f8413ea3bd79b80b139e4cd8aeecbbfb28feff6ae572bbcc9723beb65fbc4",
        "c0ab8374921f346db359a89c7264c711ca41d442472795b2c8af281ff5396f4c",
    ),
    "tests/golden/wide_48.yaml": (
        "087b54f9dfd0ebee6bad21d94811772150f241528ebea2c9b3c2dcaf1b7c7578",
        "6222403f3e91a005a3bf5228bbc07dfc050b13c6f76cb40a0a2b7adde66a2690",
    ),
}

# path -> (violation count, sha256 of the violations)
VIOLATION_FINGERPRINTS = {
    "scenarios/benign.yaml": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "scenarios/comparator_blindspot.yaml": (
        6, "e5cc7dca7a77434414501a9213848be91cd101f22e106fb7a41b88123b837aea",
    ),
    "scenarios/efficiency_degradation.yaml": (
        13, "c57bb9250d1a2ea356df4970429b3b69b94eb73913f849af2bcc023901af0494",
    ),
    "scenarios/safety_degradation.yaml": (
        43, "f82d663d02e32c3bfbce03eea4db910d712f1d0416fe18bb89c54810b8a3bad6",
    ),
    "scenarios/single_target.yaml": (
        8, "23a72778103861a0886e4b4d370246b7c4def2e1be7d18de56a68879cc9bad45",
    ),
    "scenarios/string_instability.yaml": (
        21, "255c6b1cd9610f88465678aee04074d5e212cffa1cb902d10ed41a405c4f6a11",
    ),
    "tests/golden/drop_rules.yaml": (
        5, "2ebfbfab89d8cd484a94730bdb4da7501ec3df39baa65ec81b30dcbf2613fef8",
    ),
    "tests/golden/wide_48.yaml": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Simulate a pinned document once; return its RunResult and the
    directory its artifacts were written to."""
    runs = {}

    def run(name):
        if name not in runs:
            out = tmp_path_factory.mktemp("golden")
            result = simulate(load_scenario(ROOT / name))
            write_trace_csv(result.rows, out / "trace.csv")
            write_anomaly_csv(result.events, out / "anomalies.csv")
            (out / "impact.txt").write_text(format_impact_report(result.impact))
            write_impact_csv(result, out / "impact.csv")
            runs[name] = (result, out)
        return runs[name]

    return run


def _rows(path: Path, columns) -> str:
    """The given columns of a CSV file, one line per row, ELM floats at .9g."""
    with open(path, newline="") as fh:
        return "\n".join(
            ",".join(
                format(float(row[col]), ".9g") if col in ELM_COLUMNS and row[col] else row[col]
                for col in columns
            )
            for row in csv.DictReader(fh)
        )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_shipped_scenario_is_pinned():
    shipped = {f"scenarios/{p.name}" for p in (ROOT / "scenarios").glob("*.yaml")}
    assert shipped <= set(FINGERPRINTS)
    assert set(FINGERPRINTS) == set(OUTPUT_FINGERPRINTS) == set(VIOLATION_FINGERPRINTS)


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_controller_fingerprint(name, artifacts):
    result, out = artifacts(name)
    steps = result.step_outcomes
    rounds = sum(step.iterations_used for step in steps)
    caps = sum(not step.converged for step in steps)
    digest = _sha256(_rows(out / "trace.csv", CONTROLLER_COLUMNS))
    assert (rounds, caps, digest) == FINGERPRINTS[name]


@pytest.mark.parametrize("name", sorted(OUTPUT_FINGERPRINTS))
def test_impact_fingerprint(name, artifacts):
    _, out = artifacts(name)
    digest = hashlib.sha256(
        (out / "impact.txt").read_bytes() + (out / "impact.csv").read_bytes()
    ).hexdigest()
    assert digest == OUTPUT_FINGERPRINTS[name][0]


@pytest.mark.parametrize("name", sorted(OUTPUT_FINGERPRINTS))
def test_detection_fingerprint(name, artifacts):
    _, out = artifacts(name)
    anomalies = _rows(out / "anomalies.csv", ANOMALY_CSV_COLUMNS)
    text = anomalies + "\n" + _rows(out / "trace.csv", DETECTION_COLUMNS)
    assert _sha256(text) == OUTPUT_FINGERPRINTS[name][1]


@pytest.mark.parametrize("name", sorted(VIOLATION_FINGERPRINTS))
def test_violation_fingerprint(name, artifacts):
    result, _ = artifacts(name)
    text = "\n".join(
        f"{k},{v.vehicle},{v.kind},{v.value!r},{v.bound!r}" for k, v in result.violations
    )
    assert (len(result.violations), _sha256(text)) == VIOLATION_FINGERPRINTS[name]
