"""Dual-stage attack detection.

Stage one is a comparator on the difference between a vehicle's perceived
front and rear gaps: steady gaps whose difference stays near the nominal mean
no attack, a breach of the threshold flags one.  Its documented blind spot,
both gaps shifted equally, is covered by stage two: per vehicle, two online
extreme-learning-machine regressors forecast the position and velocity
observations one step ahead, and a large deviation between the observed and
predicted value is reported as an anomaly.  While a step is flagged the
models freeze, so corrupted observations never enter the training data.

The monitored position/velocity series are the forward-channel values each
vehicle consumes (the predecessor's broadcast after any corruption), which is
what an on-board detector actually has access to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np


class DetectionError(ValueError):
    pass


POS_ANOM = "PosAnom"
VEL_ANOM = "VelAnom"

ANOMALY_CSV_COLUMNS = (
    "anomaly_type",
    "control_step",
    "vehicle_no",
    "actual_value",
    "predicted_value",
)


@dataclass(frozen=True)
class DetectionConfig:
    """The ``detection`` section's keys, one field each, and the run's seed."""

    enabled: bool = True
    comparator_threshold: float = 2.0
    nominal_diff: float = 0.0
    pos_threshold: float = 2.5
    vel_threshold: float = 2.0
    hidden_count: int = 50
    ridge: float = 1e-6
    lag: int = 2
    step_forward: int = 1
    norm_window: int = 200
    # Flags and events are suppressed while the models accumulate data.
    warmup_steps: int = 12
    seed: int = 0


@dataclass(frozen=True)
class NormalizationState:
    """Affine map of [data_min, data_max] onto [0, 1]."""

    data_min: float
    data_max: float


@dataclass(frozen=True)
class AnomalyEvent:
    kind: str  # POS_ANOM | VEL_ANOM
    control_step: int
    vehicle: int
    actual: float
    predicted: float


@dataclass(frozen=True)
class ElmModel:
    """Single-hidden-layer network with fixed random input weights.

    Only the output weights are trained (ridge least squares); the input
    weights and hidden biases are drawn once by create_elm and never touched
    again.
    """

    input_weights: np.ndarray  # (hidden_count, lag)
    hidden_biases: np.ndarray  # (hidden_count,)
    output_weights: Optional[np.ndarray] = None
    # P = (HᵀH + ridge·I)⁻¹ of the fit, kept so that elm_update can move the
    # output weights row by row, in place.
    gram_inverse: Optional[np.ndarray] = None


def create_elm(hidden_count: int, random_state: int, lag: int = 2) -> ElmModel:
    rng = np.random.default_rng(random_state)
    return ElmModel(
        input_weights=rng.uniform(-1.0, 1.0, size=(hidden_count, lag)),
        hidden_biases=rng.uniform(-1.0, 1.0, size=hidden_count),
    )


def _hidden(model: ElmModel, inputs: np.ndarray) -> np.ndarray:
    """sigmoid(inputs @ W.T + b), in place on the fresh product.  Clipping to
    [-500, 500] keeps exp finite: forecast inputs are not bounded to [0, 1]."""
    z = inputs @ model.input_weights.T
    z += model.hidden_biases
    np.maximum(z, -500.0, out=z)
    np.minimum(z, 500.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def comparator_check(gap_front: float, gap_rear: float, cfg: DetectionConfig) -> bool:
    """Flag when the gap difference deviates from ``cfg.nominal_diff`` by more
    than ``cfg.comparator_threshold``.  Invariant under adding the same
    constant to both gaps."""
    return abs((gap_front - gap_rear) - cfg.nominal_diff) > cfg.comparator_threshold


def comparator_flags(
    gap_front: Sequence[float],
    gap_rear: Sequence[Optional[float]],
    cfg: DetectionConfig,
    control_step: int,
) -> list[bool]:
    """Stage one for every vehicle of one control step: ``comparator_check``
    on each pair of perceived gaps.  Silent with detection disabled, during
    the warmup window and for a vehicle with no rear report (gap_rear None,
    the last follower)."""
    if not cfg.enabled or control_step < cfg.warmup_steps:
        return [False] * len(gap_front)
    return [rear is not None and comparator_check(front, rear, cfg)
            for front, rear in zip(gap_front, gap_rear)]


def minmax_transform(state: NormalizationState, values):
    # Multiplying by the reciprocal, not dividing, keeps the golden fingerprints' bits.
    scale = 1.0 / (state.data_max - state.data_min)
    return (np.asarray(values, dtype=float) - state.data_min) * scale


def minmax_inverse(state: NormalizationState, values):  # a float or a float array
    return values * (state.data_max - state.data_min) + state.data_min


def sliding_window(
    series: Sequence[float], lag: int, step_forward: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lagged input windows paired with the value step_forward ahead.

    inputs[i] = series[i : i+lag], targets[i] = series[i + lag + step_forward - 1],
    giving len(series) - lag - step_forward + 1 pairs.
    """
    data = np.asarray(series, dtype=float)
    count = data.size - lag - step_forward + 1
    if count < 1:
        raise DetectionError(
            f"series of length {data.size} too short for lag={lag}, "
            f"step_forward={step_forward}"
        )
    # Row i gathers data[i : i + lag] into a new C-contiguous array.
    inputs = data[np.arange(count)[:, None] + np.arange(lag)]
    return inputs, data[lag + step_forward - 1 :].copy()


class NumericalFitError(RuntimeError):
    pass


# Smallest ridge at which fits keep P for elm_update.  Below it P's 1/ridge
# directions magnify each update's rounding faster than REFIT_PERIOD bounds
# it, so every fit refits in full (see README).
UPDATE_MIN_RIDGE = 1e-10


def elm_fit(
    model: ElmModel, inputs: np.ndarray, targets: np.ndarray, ridge: float = 1e-6
) -> ElmModel:
    """Ridge least squares for the output weights, (HᵀH + ridge·I) w = Hᵀt;
    input weights untouched.  From UPDATE_MIN_RIDGE up, w = P @ Hᵀt with
    P = (HᵀH + ridge·I)⁻¹ kept for elm_update.  Below it no P is kept and w
    comes from solve, which stays backward stable where P @ Hᵀt does not:
    at ridge 1e-12, P @ Hᵀt gave 301 anomaly events on a benign drive that
    solve gives 1 on."""
    H = _hidden(model, inputs)
    gram = H.T @ H
    gram.flat[:: len(gram) + 1] += ridge
    moment = H.T @ np.asarray(targets, dtype=float)
    if ridge >= UPDATE_MIN_RIDGE:
        gram_inverse = np.linalg.inv(gram)
        weights = gram_inverse @ moment
    else:
        gram_inverse, weights = None, np.linalg.solve(gram, moment)
    if not np.isfinite(weights).all():
        raise NumericalFitError(f"non-finite output weights (ridge={ridge}, samples={len(H)})")
    return ElmModel(model.input_weights, model.hidden_biases, weights, gram_inverse)


# Smallest Sherman–Morrison denominator 1 + sign·hᵀPh that elm_update accepts.
# A row's rounding in P grows like 1/denominator, and a denominator that is
# not clearly positive means P has lost its definiteness.
MIN_DENOMINATOR = 1e-6


def elm_update(
    model: ElmModel, inputs: np.ndarray, targets: np.ndarray, signs: np.ndarray
) -> bool:
    """Recursive least squares on a fitted model, in place: row i of
    ``inputs`` and ``targets`` joins the training set when signs[i] is +1 and
    leaves it when -1, in order.  Each row changes P by Sherman–Morrison and
    moves the weights by the row's residual times the gain sign·P_new @ h, so
    the result is elm_fit's on the changed set, up to rounding.  False when a
    denominator falls below MIN_DENOMINATOR or a weight is not finite: the
    model is then left part-updated and the caller must refit in full.

    Moving the weights by the residual, rather than recomputing P @ Hᵀt,
    keeps P's 1/ridge directions out of them: on a window that holds few
    distinct rows, P @ Hᵀt after two updates was off by hundreds of times
    the data range at ridge 1e-9."""
    H = _hidden(model, inputs)
    P, weights = model.gram_inverse, model.output_weights
    for h, target, sign in zip(H, targets, signs):
        Ph = P @ h
        denominator = 1.0 + sign * (h @ Ph)
        if not denominator >= MIN_DENOMINATOR:
            return False
        gain = Ph * (sign / denominator)
        weights += gain * (target - h @ weights)
        P -= Ph[:, None] * gain
    return bool(np.isfinite(weights).all())


def elm_predict(model: ElmModel, window: Sequence[float]) -> float:
    """The fitted model's forecast from one window of ``lag`` inputs."""
    return float(_hidden(model, np.asarray(window, dtype=float)) @ model.output_weights)


def detect_anomaly(
    kind: str,
    control_step: int,
    vehicle: int,
    actual: float,
    predicted: float,
    threshold: float,
) -> Optional[AnomalyEvent]:
    """An event iff |actual - predicted| strictly exceeds the threshold."""
    if not (math.isfinite(actual) and math.isfinite(predicted)):
        raise DetectionError(f"non-finite anomaly inputs: {actual}, {predicted}")
    if abs(actual - predicted) > threshold:
        return AnomalyEvent(
            kind=kind,
            control_step=control_step,
            vehicle=vehicle,
            actual=actual,
            predicted=predicted,
        )
    return None


# Recursive updates allowed between full refits.  Each update adds rounding
# to P; refitting after this many bounds the drift (see README).
REFIT_PERIOD = 50
# Signs for elm_update: the joining pair, then the leaving one.
_JOIN_LEAVE = np.array([1.0, -1.0])


class SeriesDetector:
    """Online one-step-ahead forecaster for a single scalar series.

    The forecaster models one-step increments rather than raw levels: a
    steadily growing series (a vehicle position) has stationary increments,
    so the model stays valid however far the level drifts, including across
    frozen attack windows.  A level prediction is reconstructed as the last
    observation plus the predicted increment.

    Two views of the data are kept: ``train_diffs`` holds the last
    ``norm_window + 1`` increments between consecutive unflagged observations
    (tainted values never enter it), all that a fit reads, while
    ``recent`` holds the raw trailing observations used as prediction input.
    When the training window is constant, min-max normalization is degenerate
    and nothing is fitted.  Before the first fit the predictor then repeats
    the last trained increment; after it, ``model`` and ``norm`` stay as the
    last fit left them and keep forecasting.
    """

    def __init__(self, model: ElmModel, cfg: DetectionConfig):
        self.model = model
        self.cfg = cfg
        self.norm: Optional[NormalizationState] = None
        self.train_diffs: list[float] = []
        self.recent: list[float] = []
        # The last clean observation; None at first and after a flag.
        self._last_train_value: Optional[float] = None
        # Recursive updates since the last full refit; None when the next
        # fit must refit in full.
        self.updates: Optional[int] = None

    def predict_next(self) -> Optional[float]:
        recent, lag = self.recent, self.cfg.lag
        if len(recent) < lag + 1:
            return None
        norm = self.norm
        if norm is None or self.model.output_weights is None:
            return recent[-1] + self.train_diffs[-1] if self.train_diffs else None
        # minmax_transform's operations, on floats.
        lo, scale = norm.data_min, 1.0 / (norm.data_max - norm.data_min)
        window = [((b - a) - lo) * scale for a, b in zip(recent[-lag - 1 :], recent[-lag:])]
        return recent[-1] + minmax_inverse(norm, elm_predict(self.model, window))

    def observe(self, value: float, flagged: bool) -> None:
        """Fold in one observation; training is skipped while flagged."""
        if not flagged:
            if self._last_train_value is not None:
                self.train_diffs.append(value - self._last_train_value)
                del self.train_diffs[: -(self.cfg.norm_window + 1)]
                self._fit()
            self._last_train_value = value
        else:
            # Increments spanning an excluded window would mix clean and
            # tainted data, so the first post-freeze observation only
            # re-anchors the series.
            self._last_train_value = None
            self.updates = None
        self.recent.append(value)
        del self.recent[: -(self.cfg.lag + 1)]

    def _fit(self) -> None:
        """Fit the training pairs of the last ``norm_window`` increments.

        While ``updates`` is not None, the previous observation was fitted
        too, so the window has gained one pair (and, once full, lost its
        oldest).  If its min-max range is also unchanged and the stored fit
        kept P, elm_update folds those pairs into it.  Anything else, an
        update that elm_update refuses, and the fit after REFIT_PERIOD
        updates in a row refit in full with elm_fit.  A flag or a constant
        window sets ``updates`` to None, so the stored P is not used again.
        """
        diffs, lag, ahead = self.train_diffs, self.cfg.lag, self.cfg.step_forward
        window = diffs[-self.cfg.norm_window:]
        if len(window) < lag + ahead + 1:
            return
        lo, hi = min(window), max(window)
        if not hi > lo:
            self.updates = None  # constant increments; keep the last fit
            return
        norm = self.norm
        if (self.updates is not None and self.updates < REFIT_PERIOD
                and self.model.gram_inverse is not None
                and lo == norm.data_min and hi == norm.data_max):
            end = len(diffs)
            starts = [end - lag - ahead]  # the pair that joins
            if end > self.cfg.norm_window:
                starts.append(end - 1 - self.cfg.norm_window)  # the pair that leaves
            pairs = [diffs[j:j + lag] + [diffs[j + lag + ahead - 1]] for j in starts]
            rows = minmax_transform(norm, pairs)
            if elm_update(self.model, rows[:, :lag], rows[:, lag], _JOIN_LEAVE[:len(starts)]):
                self.updates += 1
                return
        norm = NormalizationState(lo, hi)
        inputs, targets = sliding_window(minmax_transform(norm, window), lag, ahead)
        self.model = elm_fit(self.model, inputs, targets, self.cfg.ridge)
        self.norm = norm
        self.updates = 0


def forecasters(vehicle: int, cfg: DetectionConfig) -> tuple[SeriesDetector, SeriesDetector]:
    """Follower ``vehicle``'s (position, velocity) forecasters, seeded from
    ``cfg.seed`` and the vehicle number alone."""
    base = cfg.seed * 1000 + 2 * vehicle
    return tuple(SeriesDetector(create_elm(cfg.hidden_count, seed, cfg.lag), cfg)
                 for seed in (base, base + 1))


class VehicleDetection(NamedTuple):
    """One follower's stage-two output, one entry per control step, and its
    events in step order."""

    pos_predictions: list[Optional[float]]
    vel_predictions: list[Optional[float]]
    events: list[AnomalyEvent]


def detect_vehicle(xs: Sequence[float], vs: Sequence[float], comparator: Sequence[bool],
                   vehicle: int, cfg: DetectionConfig) -> VehicleDetection:
    """Run the forecaster stage over a whole run for one follower: entry k of
    ``xs``, ``vs`` and ``comparator`` is its channel observations and its
    stage-one flag at control step k.

    A step is flagged when its comparator flag is set or one of the two
    forecasters fires; the combined flag drives freeze-on-attack.  The
    comparator flags are used as given, whether ``comparator_flags`` just
    computed them or a replay read them from a trace.  During the warmup
    window the forecasters raise no events while the models train.  No
    follower's output depends on another's, so followers may run in any
    order or in parallel.
    """
    position, velocity = forecasters(vehicle, cfg)
    pos_preds, vel_preds, events = [], [], []
    for k, (x, v, comp) in enumerate(zip(xs, vs, comparator)):
        pos_pred = position.predict_next()
        vel_pred = velocity.predict_next()
        fired = len(events)
        if k >= cfg.warmup_steps:
            for kind, actual, predicted, threshold in (
                (POS_ANOM, x, pos_pred, cfg.pos_threshold),
                (VEL_ANOM, v, vel_pred, cfg.vel_threshold),
            ):
                if predicted is not None:
                    event = detect_anomaly(kind, k, vehicle, actual, predicted, threshold)
                    if event:
                        events.append(event)
        flagged = comp or len(events) > fired
        position.observe(x, flagged)
        velocity.observe(v, flagged)
        pos_preds.append(pos_pred)
        vel_preds.append(vel_pred)
    return VehicleDetection(pos_preds, vel_preds, events)
