import math
import random

import pytest
from hypothesis import given, strategies as st

from platoonsec.metrics import (
    BENIGN_ACCEL,
    SAFE_HEADWAY,
    ImpactClass,
    build_impact_report,
    classify_impact,
    format_impact_report,
    time_headway,
)


class TestTimeHeadway:
    def test_direct(self):
        assert time_headway(20.0, 30.0, 5.0) == pytest.approx(0.5)

    def test_nominal_spacing_in_safe_band(self, config):
        gap = config.nominal_gap(30.0)
        lo, hi = SAFE_HEADWAY
        assert lo <= time_headway(gap, 30.0, config.L_veh) <= hi

    def test_formula_oracle(self):
        rng = random.Random(2)
        for _ in range(200):
            gap, v, L = rng.uniform(0, 60), rng.uniform(0.1, 45), rng.uniform(1, 8)
            assert time_headway(gap, v, L) == (gap - L) / v

    def test_nonpositive_speed_sentinel(self):
        assert math.isnan(time_headway(20.0, 0.0, 5.0))
        assert math.isnan(time_headway(20.0, -3.0, 5.0))

    @given(
        st.floats(6, 60, allow_nan=False),
        st.floats(1, 45, allow_nan=False),
        st.floats(0.1, 10, allow_nan=False),
    )
    def test_homogeneity(self, gap, v, scale):
        # Scaling (gap - L) and v together leaves the headway unchanged.
        L = 5.0
        base = time_headway(gap, v, L)
        scaled = time_headway(L + (gap - L) * scale, v * scale, L)
        assert scaled == pytest.approx(base, rel=1e-9)


class TestClassifyImpact:
    def test_dip_below_is_safety_degradation(self):
        series = [0.5] * 40 + [0.40] * 5 + [0.5] * 40
        assert classify_impact(series, 10) is ImpactClass.SAFETY_DEGRADATION

    def test_rise_above_is_efficiency_degradation(self):
        series = [0.5] * 40 + [0.60] * 5 + [0.5] * 40
        assert classify_impact(series, 10) is ImpactClass.EFFICIENCY_DEGRADATION

    def test_oscillation_is_string_instability(self):
        series = [0.5 + 0.15 * math.sin(t / 3.0) for t in range(80)]
        assert classify_impact(series, 10) is ImpactClass.STRING_INSTABILITY

    def test_in_band_is_none(self):
        assert classify_impact([0.5] * 50, 10) is ImpactClass.NONE

    def test_warmup_excursions_ignored(self):
        series = [0.2] * 10 + [0.5] * 40
        assert classify_impact(series, 10) is ImpactClass.NONE
        # identical apart from the warmup content
        noisy = [99.0] * 10 + [0.5] * 40
        assert classify_impact(noisy, 10) == classify_impact(series, 10)

    def test_nan_entries_excluded(self):
        series = [0.5] * 20 + [math.nan] * 3 + [0.5] * 20
        assert classify_impact(series, 10) is ImpactClass.NONE

    def test_series_must_outlast_warmup(self):
        with pytest.raises(ValueError):
            classify_impact([0.5] * 10, 10)


def acceleration_envelope(series):
    """The acceleration intervals an impact report gives one vehicle with
    no warmup, outside BENIGN_ACCEL."""
    report = build_impact_report([[0.5] * len(series)], [series], warmup=0)
    return report.per_vehicle[0].accel_violations


class TestAccelerationEnvelope:
    def test_benign_run_empty(self):
        assert acceleration_envelope([0.0] * 100) == ()

    def test_single_interval(self):
        series = [0.0] * 40 + [2.0] * 6 + [0.0] * 30
        assert acceleration_envelope(series) == ((40, 45),)

    def test_interval_merging_matches_naive_scan(self):
        rng = random.Random(6)
        for _ in range(50):
            series = [rng.choice([0.0, 0.5, 2.0, -3.0]) for _ in range(60)]
            intervals = acceleration_envelope(series)
            lo, hi = BENIGN_ACCEL
            outside = [i for i, u in enumerate(series) if u < lo or u > hi]
            covered = sorted(
                i for (s, e) in intervals for i in range(s, e + 1)
            )
            assert covered == outside
            # intervals are maximal: no two adjacent
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 > e1 + 1

    def test_trailing_open_interval_closed_at_end(self):
        series = [0.0] * 10 + [3.0] * 5
        assert acceleration_envelope(series) == ((10, 14),)


class TestImpactReport:
    def test_report_consistency(self):
        headways = [
            [0.5] * 50,
            [0.5] * 30 + [0.40] * 5 + [0.5] * 15,
        ]
        accels = [[0.0] * 50, [0.0] * 30 + [2.5] * 5 + [0.0] * 15]
        report = build_impact_report(headways, accels)
        assert report.classification_of(1) is ImpactClass.NONE
        assert report.classification_of(2) is ImpactClass.SAFETY_DEGRADATION
        assert report.per_vehicle[1].headway_violations == ((30, 34),)
        assert report.per_vehicle[1].accel_violations == ((30, 34),)
        text = format_impact_report(report)
        assert "safe headway band: [0.45, 0.55] s, benign acceleration band: [-1.5, 1.0] m/s^2" in text
        assert "fv2: SafetyDegradation" in text
        assert "fv1: None" in text
        with pytest.raises(KeyError):
            report.classification_of(9)
