import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from platoonsec.detection import (
    AnomalyEvent,
    DetectionConfig,
    DetectionError,
    NormalizationState,
    NumericalFitError,
    POS_ANOM,
    VEL_ANOM,
    SeriesDetector,
    VehicleDetection,
    comparator_check,
    comparator_flags,
    create_elm,
    detect_anomaly,
    detect_vehicle,
    follow_vehicle,
    elm_fit,
    forecasters,
    elm_predict,
    elm_update,
    minmax_inverse,
    minmax_transform,
    sliding_window,
)
from platoonsec import detection
from platoonsec.cli_runner import scenario_from_dict, simulate
from platoonsec.detection import ElmModel

ROOT = Path(__file__).parent.parent


def minmax_of(values) -> NormalizationState:
    """The min-max map of a sample, as SeriesDetector builds it."""
    return NormalizationState(min(values), max(values))


class TestComparator:
    def setup_method(self):
        self.cfg = DetectionConfig(comparator_threshold=2.0, nominal_diff=0.0)

    def test_symmetric_benign(self):
        assert not comparator_check(20.0, 20.0, self.cfg)

    def test_direct_threshold_breach(self):
        assert comparator_check(20.0, 14.0, self.cfg)

    def test_uniform_shift_blind_spot(self):
        # Both gaps inflated equally: the difference is unchanged, no flag.
        assert not comparator_check(20.0 + 5.0, 20.0 + 5.0, self.cfg)

    def test_constant_shift_invariance(self):
        rng = random.Random(4)
        for _ in range(100):
            gf, gr = rng.uniform(5, 40), rng.uniform(5, 40)
            shift = rng.uniform(-30, 30)
            assert comparator_check(gf, gr, self.cfg) == comparator_check(
                gf + shift, gr + shift, self.cfg
            )


class TestMinMax:
    def test_midpoint(self):
        state = minmax_of([0.0, 10.0])
        assert minmax_transform(state, 5.0) == pytest.approx(0.5)

    def test_round_trip_identity(self):
        rng = random.Random(8)
        state = minmax_of([rng.uniform(-100, 100) for _ in range(50)])
        for _ in range(1000):
            x = rng.uniform(-200, 200)
            assert minmax_inverse(state, minmax_transform(state, x)) == pytest.approx(
                x, abs=1e-12
            )


class TestSlidingWindow:
    def test_direct_enumeration(self):
        inputs, targets = sliding_window([1, 2, 3, 4], lag=2)
        assert inputs.tolist() == [[1, 2], [2, 3]]
        assert targets.tolist() == [3, 4]

    def test_count_formula_random_lengths(self):
        rng = random.Random(12)
        for _ in range(50):
            length = rng.randint(2, 60)
            lag = rng.randint(1, 5)
            series = [rng.random() for _ in range(length)]
            expected = length - lag
            if expected < 1:
                with pytest.raises(DetectionError):
                    sliding_window(series, lag)
                continue
            inputs, targets = sliding_window(series, lag)
            assert len(inputs) == len(targets) == expected
            for i in range(expected):
                assert inputs[i].tolist() == series[i : i + lag]
                assert targets[i] == series[i + lag]

    def test_lag_two_window_is_last_two_values(self):
        series = [10.0, 11.0, 12.0, 13.0]
        inputs, targets = sliding_window(series, lag=2)
        assert inputs[-1].tolist() == series[-3:-1]
        assert targets[-1] == series[-1]


def reference_ridge_fit(model: ElmModel, inputs, targets, ridge):
    """Independent ridge solution via the augmented least-squares system."""
    H = 1.0 / (1.0 + np.exp(-np.clip(inputs @ model.input_weights.T + model.hidden_biases, -500, 500)))
    hidden_count = len(model.hidden_biases)
    A = np.vstack([H, math.sqrt(ridge) * np.eye(hidden_count)])
    b = np.concatenate([targets, np.zeros(hidden_count)])
    weights, *_ = np.linalg.lstsq(A, b, rcond=None)
    return H, weights


class TestElm:
    def test_zero_targets_give_zero_weights(self):
        model = create_elm(50, random_state=3)
        inputs = np.random.default_rng(0).uniform(0, 1, size=(40, 2))
        fitted = elm_fit(model, inputs, np.zeros(40))
        assert np.linalg.norm(fitted.output_weights) < 1e-6

    def test_noiseless_ramp_in_sample_rmse(self):
        series = [0.01 * t for t in range(102)]
        inputs, targets = sliding_window(series, lag=2)
        model = create_elm(50, random_state=7)
        fitted = elm_fit(model, inputs, targets, ridge=1e-6)
        preds = [elm_predict(fitted, w) for w in inputs]
        rmse = math.sqrt(np.mean((np.array(preds) - targets) ** 2))
        assert rmse < 1e-3
        # and the fitted weights agree with an independent ridge solver
        H, ref_weights = reference_ridge_fit(model, inputs, targets, 1e-6)
        ref_preds = H @ ref_weights
        assert np.allclose(preds, ref_preds, atol=1e-6)

    def test_refit_bit_identical(self):
        rng = np.random.default_rng(5)
        inputs = rng.uniform(0, 1, size=(30, 2))
        targets = rng.uniform(0, 1, size=30)
        a = elm_fit(create_elm(50, random_state=9), inputs, targets)
        b = elm_fit(create_elm(50, random_state=9), inputs, targets)
        assert np.array_equal(a.output_weights, b.output_weights)
        assert np.array_equal(a.input_weights, b.input_weights)

    def test_predict_matches_hand_computed_two_neuron_model(self):
        model = ElmModel(
            input_weights=np.array([[1.0, 0.0], [0.0, -2.0]]),
            hidden_biases=np.array([0.0, 0.5]),
            output_weights=np.array([0.5, -0.25]),
        )
        window = [0.2, 0.4]
        h1 = 1.0 / (1.0 + math.exp(-(1.0 * 0.2 + 0.0 * 0.4 + 0.0)))
        h2 = 1.0 / (1.0 + math.exp(-(0.0 * 0.2 - 2.0 * 0.4 + 0.5)))
        assert elm_predict(model, window) == pytest.approx(0.5 * h1 - 0.25 * h2, abs=1e-15)

    def test_near_constant_series_prediction(self):
        series = [30.0 + 0.001 * math.sin(t) for t in range(60)]
        norm = minmax_of(series)
        normalized = minmax_transform(norm, series)
        inputs, targets = sliding_window(normalized, 2)
        fitted = elm_fit(create_elm(50, random_state=2), inputs, targets)
        pred = minmax_inverse(norm, elm_predict(fitted, normalized[-3:-1]))
        assert pred == pytest.approx(30.0, abs=1e-2)


def _ref_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def _ref_windows(data, lag):
    inputs = np.lib.stride_tricks.sliding_window_view(data, lag)[:-1].copy()
    return inputs, data[lag:].copy()


def _ref_weights(model, inputs, targets, ridge):
    H = _ref_sigmoid(inputs @ model.input_weights.T + model.hidden_biases)
    gram = H.T @ H + ridge * np.eye(len(model.hidden_biases))
    if ridge < detection.UPDATE_MIN_RIDGE:
        return np.linalg.solve(gram, H.T @ targets)
    return np.linalg.inv(gram) @ (H.T @ targets)


def _ref_predict(model, window):
    h = _ref_sigmoid(window @ model.input_weights.T + model.hidden_biases)
    return float(h @ model.output_weights)


class TestKernelsMatchReferenceFormulas:
    """The fit and forecast kernels give exactly the bits of the plain
    formulas kept above, for every training size the detector meets."""

    @pytest.mark.parametrize("lag", [2, 3])
    def test_windows_weights_and_forecasts_bit_identical(self, lag):
        rng = np.random.default_rng(100 * lag + 1)
        model = create_elm(50, random_state=lag + 1, lag=lag)
        for rows in range(3, 201):
            increments = 3.0 + 0.05 * rng.standard_normal(rows + lag)
            norm = minmax_of(increments)
            series = minmax_transform(norm, increments)

            inputs, targets = sliding_window(series, lag)
            ref_inputs, ref_targets = _ref_windows(series, lag)
            assert inputs.shape == (rows, lag) and inputs.flags.c_contiguous
            assert not np.shares_memory(inputs, series)
            assert np.array_equal(inputs, ref_inputs)
            assert np.array_equal(targets, ref_targets)

            fitted = elm_fit(model, inputs, targets, 1e-6)
            assert np.array_equal(fitted.output_weights, _ref_weights(model, inputs, targets, 1e-6))
            for window in (inputs[0], inputs[-1], series[-lag:]):
                assert elm_predict(fitted, window) == _ref_predict(fitted, window)

    def test_forecast_far_outside_unit_range_is_clipped(self):
        # A window of raw increments after a level jump: |inputs @ W.T + b|
        # passes 500, so only the clip keeps exp from overflowing.
        model = elm_fit(create_elm(50, random_state=4), *sliding_window(np.linspace(0, 1, 40), 2))
        window = np.array([900.0, -900.0])
        assert np.abs(window @ model.input_weights.T + model.hidden_biases).max() > 500.0
        with np.errstate(over="raise"):
            predicted = elm_predict(model, window)
        assert math.isfinite(predicted)
        assert predicted == _ref_predict(model, window)

    def test_ridge_enters_the_diagonal_only(self):
        # Ten samples cannot pin down fifty weights: the ridge alone makes
        # the Gram matrix invertible, and the weights follow it exactly.
        rng = np.random.default_rng(6)
        inputs, targets = rng.uniform(0, 1, size=(10, 2)), rng.uniform(0, 1, size=10)
        model = create_elm(50, random_state=6)
        for ridge in (1e-12, 1e-9, 1e-6, 1e-2, 10.0):
            fitted = elm_fit(model, inputs, targets, ridge)
            assert np.array_equal(fitted.output_weights, _ref_weights(model, inputs, targets, ridge))
            assert (fitted.gram_inverse is None) == (ridge < detection.UPDATE_MIN_RIDGE)


class TestDetectAnomaly:
    def test_observed_position_deviation_event(self):
        event = detect_anomaly(POS_ANOM, 41, 5, 436.026, 432.419, 2.5)
        assert event == AnomalyEvent(POS_ANOM, 41, 5, 436.026, 432.419)

    def test_identity_no_event(self):
        assert detect_anomaly(VEL_ANOM, 0, 1, 30.0, 30.0, 2.0) is None

    def test_strictly_greater_boundary(self):
        for delta in (1.9, 2.0):
            assert detect_anomaly(VEL_ANOM, 0, 1, 30.0 + delta, 30.0, 2.0) is None
        assert detect_anomaly(VEL_ANOM, 0, 1, 32.1, 30.0, 2.0) is not None
        # sweep across the threshold
        for delta in np.linspace(0.0, 4.0, 41):
            event = detect_anomaly(POS_ANOM, 0, 1, 100.0 + delta, 100.0, 2.5)
            assert (event is not None) == (delta > 2.5)

    def test_non_finite_rejected(self):
        with pytest.raises(DetectionError):
            detect_anomaly(POS_ANOM, 0, 1, math.nan, 0.0, 1.0)


def _cfg(**kw):
    defaults = dict(seed=3, warmup_steps=0)
    defaults.update(kw)
    return DetectionConfig(**defaults)


class TestSeriesDetector:
    def test_constant_series_predicts_last_value(self):
        det = SeriesDetector(create_elm(20, 1), _cfg())
        for _ in range(10):
            det.observe(30.0, flagged=False)
        assert det.predict_next() == pytest.approx(30.0, abs=1e-12)

    def test_constant_window_keeps_the_last_fit(self):
        # A constant window fits nothing.  After a fit, the forecaster keeps
        # forecasting with the model and range that fit left, instead of
        # falling back to repeating the last increment.
        det = SeriesDetector(create_elm(20, 1), _cfg(norm_window=6))
        value = 0.0
        for t in range(12):
            value += 3.0 + t % 2  # increments 3, 4, 3, 4, ...
            det.observe(value, flagged=False)
        for _ in range(5):  # the last window that still holds a 4
            value += 3.0
            det.observe(value, flagged=False)
        model, norm = det.model, det.norm
        assert norm is not None and model.output_weights is not None
        for _ in range(10):
            value += 3.0
            det.observe(value, flagged=False)
            assert det.train_diffs[-6:] == [3.0] * 6
        assert det.model is model and det.norm is norm
        expected = elm_predict(model, minmax_transform(norm, [3.0, 3.0]))
        assert det.predict_next() == value + minmax_inverse(norm, expected)
        assert det.predict_next() != value + 3.0

    def test_ramp_predicts_next_step(self):
        det = SeriesDetector(create_elm(20, 1), _cfg())
        for t in range(30):
            det.observe(3.0 * t, flagged=False)
        assert det.predict_next() == pytest.approx(90.0, abs=1e-6)

    def test_varying_series_uses_fitted_model(self):
        det = SeriesDetector(create_elm(50, 1), _cfg())
        for t in range(60):
            det.observe(100.0 + 3.0 * t + 0.2 * math.sin(0.3 * t), flagged=False)
        assert det.norm is not None
        pred = det.predict_next()
        actual = 100.0 + 3.0 * 60 + 0.2 * math.sin(0.3 * 60)
        assert pred == pytest.approx(actual, abs=0.3)

    def test_flagged_steps_never_fit_and_first_clean_step_reanchors(self, monkeypatch):
        fits = _record_fits(monkeypatch)  # full refits and recursive updates
        det = SeriesDetector(create_elm(20, 1), _cfg())
        series = [3.0 * t + 0.2 * math.sin(t) for t in range(12)]
        for value in series[:10]:
            det.observe(value, flagged=False)
        assert fits
        fit_count, diffs = len(fits), list(det.train_diffs)

        for _ in range(3):
            det.observe(1e6, flagged=True)
        assert (len(fits), det.train_diffs) == (fit_count, diffs)

        det.observe(series[10], flagged=False)  # re-anchor only
        assert (len(fits), det.train_diffs) == (fit_count, diffs)

        det.observe(series[11], flagged=False)
        assert len(fits) == fit_count + 1
        assert det.train_diffs == diffs + [series[11] - series[10]]


def _record_fits(monkeypatch) -> list:
    """Make every full refit append "refit" and every recursive update
    append "update" to the returned list."""
    kinds = []

    def recording(kind, kernel):
        def wrapper(*args):
            kinds.append(kind)
            return kernel(*args)
        return wrapper

    monkeypatch.setattr(detection, "elm_fit", recording("refit", detection.elm_fit))
    monkeypatch.setattr(detection, "elm_update", recording("update", detection.elm_update))
    return kinds


def _full_refit_prediction(det: SeriesDetector) -> float:
    """The detector's next-value forecast from a fresh elm_fit on its window."""
    lag = det.cfg.lag
    window = np.asarray(det.train_diffs[-det.cfg.norm_window:])
    norm = minmax_of(window)
    model = elm_fit(det.model, *sliding_window(minmax_transform(norm, window), lag), det.cfg.ridge)
    diffs = np.diff(det.recent[-lag - 1:])
    return det.recent[-1] + minmax_inverse(norm, elm_predict(model, minmax_transform(norm, diffs)))


def _exact_series(increments) -> list[float]:
    """Running sums of dyadic increments: every difference the detector
    takes is exactly an increment, so min-max ranges repeat bit for bit."""
    values, level = [], 0.0
    for step in increments:
        level += step
        values.append(level)
    return values


_STEPS = np.arange(1200)
_RNG = np.random.default_rng(17)


class TestRecursiveUpdates:
    """Fits that keep the window's min-max range update the stored fit
    recursively; these bound that against a full refit and pin down which
    fits refit in full."""

    @pytest.mark.parametrize("increments, ridge, bound", [
        # a smooth drive with sensor noise, default ridge
        (3.0 + 0.3 * np.sin(0.05 * _STEPS) + 0.01 * _RNG.standard_normal(_STEPS.size), 1e-6, 2e-6),
        # ill-conditioned: increments within 1e-9 of each other, ridge 1e-9
        (3.0 + 1e-9 * np.sin(0.05 * _STEPS) + 1e-11 * _RNG.standard_normal(_STEPS.size), 1e-9, 1e-3),
        # three distinct increments: few distinct rows, so most of P is 1/ridge
        (np.choose((_STEPS // 37) % 3, [0.0, 0.02, -0.02]), 1e-9, 1e-3),
        # both again at the smallest ridge that still updates
        (3.0 + 1e-9 * np.sin(0.05 * _STEPS) + 1e-11 * _RNG.standard_normal(_STEPS.size),
         detection.UPDATE_MIN_RIDGE, 5e-3),
        (np.choose((_STEPS // 37) % 3, [0.0, 0.02, -0.02]), detection.UPDATE_MIN_RIDGE, 5e-3),
    ], ids=["smooth", "tiny-range", "three-level", "tiny-range-at-floor", "three-level-at-floor"])
    def test_recursive_forecast_tracks_full_refit(self, increments, ridge, bound, monkeypatch):
        fits = _record_fits(monkeypatch)
        det = SeriesDetector(create_elm(50, 5), _cfg(ridge=ridge))
        worst = 0.0
        for value in np.cumsum(increments).tolist():
            det.observe(value, flagged=False)
            if fits and fits[-1] == "update":
                drift = abs(det.predict_next() - _full_refit_prediction(det))
                worst = max(worst, drift / (det.norm.data_max - det.norm.data_min))
        assert len(increments) > 5 * det.cfg.norm_window
        assert len(det.train_diffs) == det.cfg.norm_window + 1  # all that a fit reads
        assert fits.count("update") > len(fits) / 2
        assert worst <= bound

    def test_refresh_period_forces_a_refit(self, monkeypatch):
        fits = _record_fits(monkeypatch)
        det = SeriesDetector(create_elm(20, 1), _cfg())
        cycle = [3.0, 3.125, 2.875, 3.25, 2.75]
        for value in _exact_series(cycle * 60):
            det.observe(value, flagged=False)
        # The range is set by the first five increments; from then on every
        # fit is an update, except each (REFIT_PERIOD + 1)-th.
        first = fits.index("update") - 1  # the refit that set the range
        pattern = (["refit"] + ["update"] * detection.REFIT_PERIOD) * 6
        assert fits[first:] == pattern[: len(fits) - first]
        assert fits.count("refit") >= 3

    def test_range_change_forces_a_refit(self, monkeypatch):
        fits = _record_fits(monkeypatch)
        det = SeriesDetector(create_elm(20, 1), _cfg())
        values = _exact_series([3.0, 3.125, 2.875, 3.25, 2.75] * 4 + [3.5, 3.0])
        for value in values[:-2]:
            det.observe(value, flagged=False)
        assert fits[-1] == "update"
        det.observe(values[-2], flagged=False)  # a new maximum
        assert fits[-1] == "refit"
        det.observe(values[-1], flagged=False)
        assert fits[-1] == "update"

    def test_freeze_forces_a_refit(self, monkeypatch):
        fits = _record_fits(monkeypatch)
        det = SeriesDetector(create_elm(20, 1), _cfg())
        values = _exact_series([3.0, 3.125, 2.875, 3.25, 2.75] * 4 + [3.0, 3.0, 3.0])
        for value in values[:-3]:
            det.observe(value, flagged=False)
        assert fits[-1] == "update"
        det.observe(1e6, flagged=True)
        det.observe(values[-3], flagged=False)  # re-anchors only
        fit_count = len(fits)
        det.observe(values[-2], flagged=False)
        assert fits[fit_count:] == ["refit"]
        det.observe(values[-1], flagged=False)
        assert fits[-1] == "update"

    def test_skipped_constant_window_forces_a_refit(self, monkeypatch):
        # With a four-increment window, [2.75, 3, 3, 3] and then [3, 3, 3, 2.75]
        # share a range; the constant window between them is not fitted, so
        # the second must refit even though its range matches the stored one.
        fits = _record_fits(monkeypatch)
        det = SeriesDetector(create_elm(20, 1), _cfg(norm_window=4))
        for value in _exact_series([0.0, 2.75, 3.0, 3.0, 3.0]):
            det.observe(value, flagged=False)
        assert fits == ["refit"]
        det.observe(det.recent[-1] + 3.0, flagged=False)  # window [3, 3, 3, 3]
        assert fits == ["refit"]
        det.observe(det.recent[-1] + 2.75, flagged=False)
        assert (det.norm.data_min, det.norm.data_max) == (2.75, 3.0)
        assert fits == ["refit", "refit"]

    def test_below_the_ridge_floor_every_fit_refits(self, monkeypatch):
        values = _exact_series([3.0, 3.125, 2.875, 3.25, 2.75] * 20)
        for ridge, updates in ((detection.UPDATE_MIN_RIDGE, True),
                               (detection.UPDATE_MIN_RIDGE / 100, False)):
            fits = _record_fits(monkeypatch)
            det = SeriesDetector(create_elm(20, 1), _cfg(ridge=ridge))
            for value in values:
                det.observe(value, flagged=False)
            assert ("update" in fits) == updates
            assert (det.model.gram_inverse is None) != updates

    def test_refused_update_refits(self, monkeypatch):
        # A P that has lost its definiteness gives a Sherman–Morrison
        # denominator below one; the update is refused and the window refitted.
        fits = _record_fits(monkeypatch)
        det = SeriesDetector(create_elm(20, 1), _cfg())
        values = _exact_series([3.0, 3.125, 2.875, 3.25, 2.75] * 4 + [3.0])
        for value in values[:-1]:
            det.observe(value, flagged=False)
        assert fits[-1] == "update"
        det.model = replace(det.model, gram_inverse=-np.eye(20))  # hᵀPh < 0
        det.observe(values[-1], flagged=False)
        assert fits[-2:] == ["update", "refit"]
        assert det.updates == 0
        assert det.predict_next() == _full_refit_prediction(det)

    def test_update_with_non_finite_weights_is_refused(self):
        inputs, targets = sliding_window(np.linspace(0, 1, 40), 2)
        model = elm_fit(create_elm(20, random_state=2), inputs, targets)
        assert elm_update(model, inputs[:1], targets[:1], np.array([1.0]))
        broken = replace(model, output_weights=np.full(20, np.inf))
        with np.errstate(invalid="ignore"):
            assert not elm_update(broken, inputs[:1], targets[:1], np.array([1.0]))

    @pytest.mark.parametrize("name", ["single_target", "efficiency_degradation"])
    @pytest.mark.parametrize("ridge", [detection.UPDATE_MIN_RIDGE, 1e-12], ids=["floor", "1e-12"])
    def test_events_match_a_refit_on_every_step(self, name, ridge, monkeypatch):
        doc = yaml.safe_load((ROOT / "scenarios" / f"{name}.yaml").read_text())
        doc.setdefault("detection", {})["ridge"] = ridge

        def events():
            return [(e.kind, e.control_step, e.vehicle, e.actual)
                    for e in simulate(scenario_from_dict(doc)).events]

        recursive = events()
        monkeypatch.setattr(detection, "REFIT_PERIOD", 0)
        assert recursive == events()


def _pair():
    """Follower 1's (position, velocity) forecasters."""
    return forecasters(1, _cfg())


def _observe(pair, flagged, position, velocity):
    pair[0].observe(position, flagged)
    pair[1].observe(velocity, flagged)


class TestUpdateOrFreeze:
    def _weights(self, pair):
        w = pair[0].model.output_weights
        return None if w is None else w.copy()

    def test_freeze_window_semantics(self):
        # flags [False, True, True, False]: weights move only on the
        # unflagged observations.
        pair = _pair()
        for t in range(8):  # build enough history to fit
            _observe(pair, False, 3.0 * t + 0.01 * t * t, 30.0 + 0.1 * t)
        w0 = self._weights(pair)
        assert w0 is not None
        _observe(pair, True, 999.0, 99.0)
        assert np.array_equal(self._weights(pair), w0)
        _observe(pair, True, 1234.0, 77.0)
        assert np.array_equal(self._weights(pair), w0)
        # The first clean observation after the window only re-anchors: it
        # adds no increment, so nothing is fitted.
        diffs = [list(det.train_diffs) for det in pair]
        _observe(pair, False, 27.0, 30.9)
        assert [det.train_diffs for det in pair] == diffs
        assert np.array_equal(self._weights(pair), w0)
        _observe(pair, False, 30.1, 31.0)
        assert [len(det.train_diffs) for det in pair] == [len(d) + 1 for d in diffs]

    def test_tainted_observations_never_train(self):
        # Two runs with identical benign data but different garbage during
        # the flagged window end with identical weights.
        def run(tainted_value):
            pair = _pair()
            for t in range(10):
                _observe(pair, False, 3.0 * t + 0.02 * t * t, 30.0)
            for _ in range(3):
                _observe(pair, True, tainted_value, tainted_value)
            for t in range(10, 18):
                _observe(pair, False, 3.0 * t + 0.02 * t * t, 30.0)
            return pair[0].model.output_weights

        a = run(1e6)
        b = run(-123.456)
        assert np.array_equal(a, b)

    def test_unflagged_run_keeps_training(self):
        pair = _pair()
        seen = []
        for t in range(8, 20):
            _observe(pair, False, 3.0 * t + 0.3 * math.sin(t), 30.0)
            w = self._weights(pair)
            if w is not None:
                seen.append(w)
        assert len(seen) >= 2
        assert any(not np.array_equal(a, b) for a, b in zip(seen, seen[1:]))


def _benign_columns(vehicle, steps=60):
    """One follower's front_x, front_v and comparator columns while the
    platoon cruises at 30 m/s."""
    return [500.0 - 20.0 * vehicle + 3.0 * k for k in range(steps)], [30.0] * steps, [False] * steps


def _benign_gaps(n=6):
    """Front and rear gaps of a platoon at its nominal spacing."""
    return [20.0] * n, [20.0] * (n - 1) + [None]


def _flags(result, comparator) -> list[bool]:
    """Each step's combined flag, the one that freezes the forecasters: its
    comparator flag or an event at that step."""
    fired = {event.control_step for event in result.events}
    return [flag or k in fired for k, flag in enumerate(comparator)]


class TestDetectStep:
    """detect_vehicle: one follower's forecaster stage over a whole run."""

    def test_benign_stream_never_flags(self):
        cfg = DetectionConfig(seed=1, warmup_steps=12)
        for k in range(60):
            assert comparator_flags(*_benign_gaps(), cfg, k) == [False] * 6
        for vehicle in range(1, 7):
            columns = _benign_columns(vehicle)
            result = detect_vehicle(*columns, vehicle, cfg)
            assert len(result.pos_predictions) == len(result.vel_predictions) == 60
            assert not any(_flags(result, columns[2]))
            assert result.events == []

    def test_front_position_jump_raises_pos_anomaly(self):
        xs, vs, comparator = _benign_columns(3, 31)
        xs[30] += 10.0
        result = detect_vehicle(xs, vs, comparator, 3, DetectionConfig(seed=1, warmup_steps=12))
        assert _flags(result, comparator) == [False] * 30 + [True]
        assert [(e.kind, e.control_step, e.vehicle) for e in result.events] == [(POS_ANOM, 30, 3)]
        assert result.events[0].actual == xs[30]
        assert result.events[0].predicted == result.pos_predictions[30]

    def test_comparator_feeds_combined_flag(self):
        cfg = DetectionConfig(seed=1, warmup_steps=12)
        gap_front, gap_rear = _benign_gaps()
        # The front gap perceived 6 m long while the rear gap stays nominal;
        # a 2 m difference is at the threshold, which does not flag.
        gap_front[3] = 26.0
        gap_front[4] = 22.0
        at_20 = comparator_flags(gap_front, gap_rear, cfg, 20)
        assert at_20 == [False, False, False, True, False, False]
        for vehicle in range(1, 7):
            xs, vs, comparator = _benign_columns(vehicle, 21)
            comparator[20] = at_20[vehicle - 1]
            result = detect_vehicle(xs, vs, comparator, vehicle, cfg)
            assert _flags(result, comparator) == [False] * 20 + [vehicle == 4]
            assert result.events == []

    def test_last_vehicle_has_no_comparator(self):
        cfg = DetectionConfig(seed=1, warmup_steps=0)
        gap_front, gap_rear = _benign_gaps()
        gap_front[5] = 40.0
        assert not comparator_flags(gap_front, gap_rear, cfg, 0)[5]

    def test_warmup_suppresses_flags(self):
        cfg = DetectionConfig(seed=1, warmup_steps=12)
        gap_front, gap_rear = _benign_gaps()
        gap_front[1] = 50.0
        assert comparator_flags(gap_front, gap_rear, cfg, 11) == [False] * 6
        assert comparator_flags(gap_front, gap_rear, cfg, 12)[1]
        # Nor do the forecasters raise events before the warmup ends.
        xs, vs, comparator = _benign_columns(2, 12)
        xs[11] += 10.0
        assert detect_vehicle(xs, vs, comparator, 2, cfg).events == []

    def test_passed_flag_freezes_its_vehicle_without_an_event(self):
        # Replay passes the comparator flags recorded in a trace: a flag
        # freezes both forecasters of its vehicle, even during the warmup, so
        # the flagged observation never trains and the forecasts part from an
        # unflagged run's on the next step.
        cfg = DetectionConfig(seed=1, warmup_steps=12)
        xs = [440.0 + 3.0 * k + 0.01 * k * k for k in range(30)]
        vs = [30.0 + 0.02 * k + 0.001 * k * k for k in range(30)]
        clean = detect_vehicle(xs, vs, [False] * 30, 3, cfg)
        assert not any(_flags(clean, [False] * 30))
        for flagged_step in (3, 20):
            comparator = [k == flagged_step for k in range(30)]
            result = detect_vehicle(xs, vs, comparator, 3, cfg)
            assert _flags(result, comparator) == comparator
            assert result.events == []
            for predictions, unflagged in ((result.pos_predictions, clean.pos_predictions),
                                           (result.vel_predictions, clean.vel_predictions)):
                assert predictions[:flagged_step + 1] == unflagged[:flagged_step + 1]
                assert predictions[flagged_step + 1] != unflagged[flagged_step + 1]

    def test_deterministic_given_seed(self):
        def run():
            xs, vs, comparator = _benign_columns(1, 25)
            xs[20] += 8.0
            return detect_vehicle(xs, vs, comparator, 1, DetectionConfig(seed=42, warmup_steps=5))

        first = run()
        assert first.events and first == run()

    def test_followers_interleaved_step_by_step_match_whole_runs(self):
        # A detection worker advances each of its followers by one step as
        # the step arrives; what each holds after step k is detect_vehicle's
        # over steps 0..k.
        cfg = DetectionConfig(seed=1, warmup_steps=12)
        columns = {vehicle: _benign_columns(vehicle, 40) for vehicle in (2, 5)}
        columns[5][0][30] += 10.0
        followers = {vehicle: follow_vehicle(vehicle, cfg) for vehicle in columns}
        held = {vehicle: next(follower) for vehicle, follower in followers.items()}
        for k in range(40):
            for vehicle, follower in followers.items():
                follower.send(tuple(column[k] for column in columns[vehicle]))
            if k in (11, 30, 39):
                for vehicle, (xs, vs, comparator) in columns.items():
                    assert held[vehicle] == detect_vehicle(
                        xs[:k + 1], vs[:k + 1], comparator[:k + 1], vehicle, cfg)
        assert [(e.kind, e.control_step) for e in held[5].events][:1] == [(POS_ANOM, 30)]

    def test_an_error_building_the_forecasters_is_kept(self, monkeypatch):
        error = NumericalFitError("non-finite output weights")

        def fails(vehicle, cfg):
            raise error

        monkeypatch.setattr(detection, "forecasters", fails)
        follower = follow_vehicle(3, DetectionConfig(seed=1))
        held = next(follower)
        for step in zip(*_benign_columns(3, 20)):
            follower.send(step)
        assert held == VehicleDetection([], [], [], error)

    def test_an_error_in_a_step_is_kept_and_later_steps_change_nothing(self, monkeypatch):
        # Vehicle 3's step 25 fails; its events from the jump at step 15 are
        # kept, and the jump at step 30 raises none.
        cfg = DetectionConfig(seed=1, warmup_steps=12)
        xs, vs, comparator = _benign_columns(3, 40)
        xs[15] += 10.0
        xs[30] += 10.0
        real = detection.detect_anomaly

        def fails_at_25(kind, control_step, *args):
            if control_step == 25:
                raise DetectionError("step 25")
            return real(kind, control_step, *args)

        monkeypatch.setattr(detection, "detect_anomaly", fails_at_25)
        follower = follow_vehicle(3, cfg)
        held = next(follower)
        for k, step in enumerate(zip(xs, vs, comparator)):
            follower.send(step)
            if k == 25:
                at_error = (list(held.pos_predictions), list(held.vel_predictions), list(held.events))
        assert str(held.error) == "step 25" and isinstance(held.error, DetectionError)
        assert (held.pos_predictions, held.vel_predictions, held.events) == at_error
        clean = detect_vehicle(xs[:25], vs[:25], comparator[:25], 3, cfg)
        assert at_error == (clean.pos_predictions, clean.vel_predictions, clean.events)
        assert held.events and {e.control_step for e in held.events} <= set(range(15, 25))

    def test_two_models_per_vehicle_with_lag_two(self):
        cfg = DetectionConfig(seed=0)
        for vehicle in range(1, 4):
            position, velocity = forecasters(vehicle, cfg)
            assert position.model.input_weights.shape == (50, 2)
            assert velocity.model.input_weights.shape == (50, 2)
            assert not np.array_equal(position.model.input_weights, velocity.model.input_weights)
