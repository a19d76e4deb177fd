"""Time-headway and acceleration diagnostics with impact classification.

Headway excursions below the safe band indicate safety degradation, above it
efficiency degradation; a run showing both is string instability.  All
post-processing here is pure and operates on completed traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

# The time-headway band a follower should keep (s), and the band of
# accelerations a benign run stays in (m/s^2).
SAFE_HEADWAY = (0.45, 0.55)
BENIGN_ACCEL = (-1.5, 1.0)


class ImpactClass(str, Enum):
    NONE = "None"
    SAFETY_DEGRADATION = "SafetyDegradation"
    EFFICIENCY_DEGRADATION = "EfficiencyDegradation"
    STRING_INSTABILITY = "StringInstability"


@dataclass(frozen=True)
class VehicleImpact:
    vehicle: int
    classification: ImpactClass
    headway_violations: tuple[tuple[int, int], ...]
    accel_violations: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ImpactReport:
    per_vehicle: tuple[VehicleImpact, ...]
    warmup: int

    def classification_of(self, vehicle: int) -> ImpactClass:
        for entry in self.per_vehicle:
            if entry.vehicle == vehicle:
                return entry.classification
        raise KeyError(f"no impact entry for vehicle {vehicle}")


def time_headway(gap: float, v: float, L_veh: float) -> float:
    """Bumper-to-bumper gap over speed; NaN sentinel when speed is not positive."""
    if v <= 0.0:
        return math.nan
    return (gap - L_veh) / v


def classify_impact(headway_series: Sequence[float], warmup: int = 10) -> ImpactClass:
    """Classify one vehicle's run from its headway excursions out of
    SAFE_HEADWAY after warmup.

    NaN entries (undefined headway) are excluded.  Values inside the warmup
    window never influence the result.
    """
    if len(headway_series) <= warmup:
        raise ValueError(
            f"series of length {len(headway_series)} not longer than warmup {warmup}"
        )
    safe_lo, safe_hi = SAFE_HEADWAY
    below = False
    above = False
    for h in headway_series[warmup:]:
        if h < safe_lo:
            below = True
        elif h > safe_hi:
            above = True
    if below and above:
        return ImpactClass.STRING_INSTABILITY
    if below:
        return ImpactClass.SAFETY_DEGRADATION
    if above:
        return ImpactClass.EFFICIENCY_DEGRADATION
    return ImpactClass.NONE


def _out_of_band_intervals(
    values: Sequence[float],
    lo: float,
    hi: float,
    start: int = 0,
) -> tuple[tuple[int, int], ...]:
    """Maximal index intervals where values leave [lo, hi]; NaN counts as inside."""
    intervals = []
    open_start: Optional[int] = None
    for idx in range(start, len(values)):
        value = values[idx]
        outside = value < lo or value > hi
        if outside and open_start is None:
            open_start = idx
        elif not outside and open_start is not None:
            intervals.append((open_start, idx - 1))
            open_start = None
    if open_start is not None:
        intervals.append((open_start, len(values) - 1))
    return tuple(intervals)


def build_impact_report(
    headway_by_vehicle: Sequence[Sequence[float]],
    accel_by_vehicle: Sequence[Sequence[float]],
    warmup: int = 10,
) -> ImpactReport:
    per_vehicle = []
    for idx, (headways, accels) in enumerate(
        zip(headway_by_vehicle, accel_by_vehicle), start=1
    ):
        per_vehicle.append(
            VehicleImpact(
                vehicle=idx,
                classification=classify_impact(headways, warmup),
                headway_violations=_out_of_band_intervals(
                    headways, *SAFE_HEADWAY, start=warmup
                ),
                accel_violations=_out_of_band_intervals(
                    accels, *BENIGN_ACCEL, start=warmup
                ),
            )
        )
    return ImpactReport(per_vehicle=tuple(per_vehicle), warmup=warmup)


def format_impact_report(report: ImpactReport) -> str:
    lines = [
        "impact report",
        f"safe headway band: [{SAFE_HEADWAY[0]}, {SAFE_HEADWAY[1]}] s, "
        f"benign acceleration band: [{BENIGN_ACCEL[0]}, {BENIGN_ACCEL[1]}] m/s^2, "
        f"warmup: {report.warmup} steps",
        "",
    ]
    for entry in report.per_vehicle:
        lines.append(f"fv{entry.vehicle}: {entry.classification.value}")
        if entry.headway_violations:
            spans = ", ".join(f"[{s}, {e}]" for s, e in entry.headway_violations)
            lines.append(f"  headway outside band at steps {spans}")
        if entry.accel_violations:
            spans = ", ".join(f"[{s}, {e}]" for s, e in entry.accel_violations)
            lines.append(f"  acceleration outside band at steps {spans}")
    lines.append("")
    return "\n".join(lines)
