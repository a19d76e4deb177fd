"""Output checks and informational fingerprints for one scenario run.

Every check returns a list of problems; an empty list means it held.  The
fingerprints are recorded, never gated on: an algorithm change may move
them on purpose.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

ARTIFACTS = ("trace", "anomalies", "impact", "impact_csv")

# Controller columns are pure-Python floats; the ELM columns go through BLAS.
CONTROLLER_COLUMNS = ("control_step", "vehicle_id", "x", "v", "u", "gap_front", "headway")
ELM_COLUMNS = ("control_step", "vehicle_id", "comparator_flag", "elm_pos_pred",
               "elm_vel_pred", "pos_anom", "vel_anom")


def check_run(result, paths: dict[str, Path]) -> list[str]:
    """All four artifacts exist and no acceleration or velocity constraint
    is violated (attacks may legitimately break the safety gap)."""
    problems = [f"missing artifact {name}" for name in ARTIFACTS if name not in paths]
    for step, violation in result.violations:
        if violation.kind in ("acceleration", "velocity"):
            problems.append(
                f"{violation.kind} violation by fv{violation.vehicle} at step {step}: "
                f"{violation.value} vs bound {violation.bound}"
            )
    return problems


def check_replay(live_anomalies: Path, replayed_anomalies: Path) -> list[str]:
    if live_anomalies.read_bytes() != replayed_anomalies.read_bytes():
        return ["replayed anomalies differ from the live anomalies.csv"]
    return []


def _fv5_class(expected: str):
    def check(result) -> list[str]:
        got = result.impact.classification_of(5).value
        return [] if got == expected else [f"C5: fv5 class {got}, expected {expected}"]

    return check


def _c6_onset(result) -> list[str]:
    flagged = [k for k, flags in enumerate(result.flags_by_step) if any(flags)]
    if flagged and 40 <= min(flagged) <= 42 and max(flagged) <= 65:
        return []
    return [f"C6: flagged steps {flagged[:3]}..{flagged[-3:]}, want onset in [40, 42], none after 65"]


def _c7_blind_spot(result) -> list[str]:
    comparator_steps = sorted({r.control_step for r in result.rows if r.comparator_flag})
    elm_in_window = [e for e in result.events if 40 <= e.control_step <= 45]
    if not comparator_steps and elm_in_window:
        return []
    return [f"C7: comparator steps {comparator_steps}, ELM events in [40, 45]: {len(elm_in_window)}"]


# Acceptance properties of the shipped scenarios, checked on every run.
SHIPPED_CHECKS = {
    "safety_degradation": _fv5_class("SafetyDegradation"),
    "efficiency_degradation": _fv5_class("EfficiencyDegradation"),
    "string_instability": _fv5_class("StringInstability"),
    "single_target": _c6_onset,
    "comparator_blindspot": _c7_blind_spot,
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _columns_sha256(trace: Path, columns: tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    with open(trace, newline="") as fh:
        reader = csv.DictReader(fh)
        for record in reader:
            digest.update(",".join(record[c] for c in columns).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def fingerprint(result, paths: dict[str, Path]) -> dict:
    """Round counts plus sha256 of every artifact, with the trace's
    controller and ELM columns also hashed apart."""
    outcomes = result.step_outcomes
    fp = {
        "rounds": sum(o.iterations_used for o in outcomes),
        "cap_steps": sum(not o.converged for o in outcomes),
    }
    if "trace" in paths:
        fp["trace.controller"] = _columns_sha256(paths["trace"], CONTROLLER_COLUMNS)
        fp["trace.elm"] = _columns_sha256(paths["trace"], ELM_COLUMNS)
    for name in ARTIFACTS:
        if name in paths:
            fp[paths[name].name] = _sha256(paths[name].read_bytes())
    return fp
