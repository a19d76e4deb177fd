"""Attack-case parsing and bias-matrix generation.

An attack case is specified as seven parallel, congruently nested lists:
victims, per-victim attack periods, per-period malicious channels, and
per-channel frequency kinds, frequency parameters, bias kinds and bias
parameters.  Feeding a case and a control step into the generator yields four
(max_iterations x n) matrices of additive corruption, one per vulnerable
channel.  Columns of non-victim followers are all zero, and overlapping
periods or repeated channels on the same victim sum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .v2v_channel import ChannelId


class AttackCaseError(ValueError):
    """Raised when an attack case violates the seven-list schema."""


FREQ_KINDS = ("Continuous", "Cluster")
BIAS_KINDS = ("Constant", "Linear", "Sinusoidal")
_BIAS_ARITY = {"Constant": 1, "Linear": 2, "Sinusoidal": 4}

ATTACK_LIST_KEYS = (
    "iter_victim_list",
    "control_attackperiod_list",
    "iter_malichannel_list",
    "iter_freq_type_list",
    "iter_freqparavalue_list",
    "iter_biastype_list",
    "iter_biasparavalue_list",
)


@dataclass(frozen=True)
class BiasParams:
    """Validated waveform parameters for one channel slot.

    Constant: values = (c,); Linear: (m, c); Sinusoidal: (A, f, theta, c).
    """

    kind: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in BIAS_KINDS:
            raise AttackCaseError(f"unknown bias kind {self.kind!r}")
        arity = _BIAS_ARITY[self.kind]
        if len(self.values) != arity:
            raise AttackCaseError(
                f"{self.kind} bias takes {arity} parameter(s), got {list(self.values)}"
            )
        if not all(math.isfinite(v) for v in self.values):
            raise AttackCaseError(f"non-finite bias parameters {list(self.values)}")


@dataclass(frozen=True)
class BiasMatrices:
    """Per-channel additive corruption, shape (max_iterations, n) each.

    Row t is the bias applied at iteration t of the current control step;
    column j corrupts the outgoing channels of follower j+1.  Arrays are
    flagged read-only; treat instances as values.
    """

    x_ite_bias: np.ndarray
    v_ite_bias: np.ndarray
    zx_ite_bias: np.ndarray
    zv_ite_bias: np.ndarray

    def __post_init__(self):
        shape = self.x_ite_bias.shape
        for name in ("x_ite_bias", "v_ite_bias", "zx_ite_bias", "zv_ite_bias"):
            arr = getattr(self, name)
            if arr.ndim != 2 or arr.shape != shape:
                raise AttackCaseError(f"{name} must have shape {shape}, got {arr.shape}")
            arr.flags.writeable = False

    @classmethod
    def zeros(cls, max_iterations: int, n: int) -> "BiasMatrices":
        return cls(*(np.zeros((max_iterations, n)) for _ in range(4)))

    def by_channel(self, channel: ChannelId) -> np.ndarray:
        return getattr(self, f"{channel.value}_bias")

    def is_zero(self) -> bool:
        return not (
            self.x_ite_bias.any()
            or self.v_ite_bias.any()
            or self.zx_ite_bias.any()
            or self.zv_ite_bias.any()
        )

    def __add__(self, other: "BiasMatrices") -> "BiasMatrices":
        return BiasMatrices(
            self.x_ite_bias + other.x_ite_bias,
            self.v_ite_bias + other.v_ite_bias,
            self.zx_ite_bias + other.zx_ite_bias,
            self.zv_ite_bias + other.zv_ite_bias,
        )


@dataclass(frozen=True)
class AttackCase:
    """The seven parallel lists, validated and normalised.

    Victim indices are 1-based follower numbers.  'Discrete' frequency
    entries are normalised to Cluster with an on-window of 1 at parse time,
    so only Continuous and Cluster appear here.
    """

    iter_victim_list: tuple[int, ...]
    control_attackperiod_list: tuple[tuple[tuple[int, int], ...], ...]
    iter_malichannel_list: tuple[tuple[tuple[ChannelId, ...], ...], ...]
    iter_freq_type_list: tuple[tuple[tuple[str, ...], ...], ...]
    iter_freqparavalue_list: tuple[tuple[tuple[tuple[float, ...], ...], ...], ...]
    iter_biastype_list: tuple[tuple[tuple[str, ...], ...], ...]
    iter_biasparavalue_list: tuple[tuple[tuple[BiasParams, ...], ...], ...]

    @classmethod
    def empty(cls) -> "AttackCase":
        return cls((), (), (), (), (), (), ())

    @property
    def is_benign(self) -> bool:
        return not self.iter_victim_list

    def attack_windows(self) -> list[tuple[int, int]]:
        """All [start, end] control-step intervals across victims."""
        return [
            (start, end)
            for periods in self.control_attackperiod_list
            for (start, end) in periods
        ]


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AttackCaseError(f"{path}: expected an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise AttackCaseError(f"{path}: expected an integer, got {value!r}")
        value = int(value)
    return value


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AttackCaseError(f"{path}: expected a number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise AttackCaseError(f"{path}: an int too large for a float")
    return float(value)


def _as_seq(value: Any, path: str) -> Sequence:
    if not isinstance(value, (list, tuple)):
        raise AttackCaseError(f"{path}: expected a list, got {type(value).__name__}")
    return value


def normalize_freq(kind: Any, params: Any, path: str) -> tuple[str, tuple[float, ...]]:
    """Validate one frequency entry; 'Discrete' becomes Cluster [1, off]."""
    if kind == "Discrete":
        params = _as_seq(params, path)
        if len(params) == 1:
            off = _as_int(params[0], f"{path}[0]")
        elif len(params) == 2 and _as_int(params[0], f"{path}[0]") == 1:
            off = _as_int(params[1], f"{path}[1]")
        else:
            raise AttackCaseError(
                f"{path}: Discrete frequency takes [off] (or [1, off]), got {list(params)}"
            )
        kind, params = "Cluster", (1, off)
    if kind not in FREQ_KINDS:
        raise AttackCaseError(f"{path}: unknown frequency kind {kind!r}")
    params = _as_seq(params, path)
    if kind == "Continuous":
        if len(params) > 1:
            raise AttackCaseError(f"{path}: Continuous takes [0], got {list(params)}")
        return kind, (0.0,)
    if len(params) != 2:
        raise AttackCaseError(f"{path}: Cluster takes [on, off], got {list(params)}")
    on = _as_int(params[0], f"{path}[0]")
    off = _as_int(params[1], f"{path}[1]")
    if on < 1:
        raise AttackCaseError(f"{path}: Cluster on-window must be >= 1, got {on}")
    if off < 0:
        raise AttackCaseError(f"{path}: Cluster off-window must be >= 0, got {off}")
    return kind, (_as_float(on, f"{path}[0]"), _as_float(off, f"{path}[1]"))


def parse_attack_case(doc: Mapping[str, Any] | None, n: int) -> AttackCase:
    """Validate a seven-list attack description against follower count n.

    An absent/empty document, or one with all-empty lists, is the benign
    case.  Shape mismatches are rejected with the offending path.
    """
    if doc is None:
        return AttackCase.empty()
    if not isinstance(doc, Mapping):
        raise AttackCaseError(f"attack must be a mapping, got {doc!r}")
    unknown = set(doc) - set(ATTACK_LIST_KEYS)
    if unknown:
        raise AttackCaseError(f"unknown attack case keys: {sorted(unknown, key=str)}")
    raw = {key: _as_seq(doc.get(key, []), key) for key in ATTACK_LIST_KEYS}

    victims = tuple(
        _as_int(v, f"iter_victim_list[{i}]") for i, v in enumerate(raw["iter_victim_list"])
    )
    for i, victim in enumerate(victims):
        if not 1 <= victim <= n:
            raise AttackCaseError(
                f"iter_victim_list[{i}]: victim {victim} outside 1..{n}"
            )

    for key in ATTACK_LIST_KEYS[1:]:
        if len(raw[key]) != len(victims):
            raise AttackCaseError(
                f"{key}: expected {len(victims)} per-victim entries, got {len(raw[key])}"
            )

    periods, channels, freq_kinds, freq_params, bias_kinds, bias_params = (
        [],
        [],
        [],
        [],
        [],
        [],
    )
    for i, victim in enumerate(victims):
        vp = _as_seq(raw["control_attackperiod_list"][i], f"control_attackperiod_list[{i}]")
        victim_periods = []
        for j, interval in enumerate(vp):
            path = f"control_attackperiod_list[{i}][{j}]"
            interval = _as_seq(interval, path)
            if len(interval) != 2:
                raise AttackCaseError(f"{path}: expected [start, end], got {list(interval)}")
            start = _as_int(interval[0], f"{path}[0]")
            end = _as_int(interval[1], f"{path}[1]")
            if start < 0 or start > end:
                raise AttackCaseError(f"{path}: invalid interval [{start}, {end}]")
            victim_periods.append((start, end))
        periods.append(tuple(victim_periods))

        per_victim = {}
        for key in ATTACK_LIST_KEYS[2:]:
            entry = _as_seq(raw[key][i], f"{key}[{i}]")
            if len(entry) != len(victim_periods):
                raise AttackCaseError(
                    f"{key}[{i}]: expected {len(victim_periods)} period entries for "
                    f"victim {victim}, got {len(entry)}"
                )
            per_victim[key] = entry

        v_channels, v_fkinds, v_fparams, v_bkinds, v_bparams = [], [], [], [], []
        for j in range(len(victim_periods)):
            ch_list = _as_seq(
                per_victim["iter_malichannel_list"][j], f"iter_malichannel_list[{i}][{j}]"
            )
            slots = len(ch_list)
            if slots == 0:
                raise AttackCaseError(
                    f"iter_malichannel_list[{i}][{j}]: a period needs at least one channel"
                )
            chs = []
            for m, ch in enumerate(ch_list):
                try:
                    chs.append(ChannelId(ch))
                except ValueError:
                    raise AttackCaseError(
                        f"iter_malichannel_list[{i}][{j}][{m}]: unknown channel {ch!r}"
                    ) from None
            for key in ATTACK_LIST_KEYS[3:]:
                entry = _as_seq(per_victim[key][j], f"{key}[{i}][{j}]")
                if len(entry) != slots:
                    raise AttackCaseError(
                        f"{key}[{i}][{j}]: expected {slots} channel entries, got {len(entry)}"
                    )
            fkinds, fparams = [], []
            for m in range(slots):
                kind, params = normalize_freq(
                    per_victim["iter_freq_type_list"][j][m],
                    per_victim["iter_freqparavalue_list"][j][m],
                    f"iter_freqparavalue_list[{i}][{j}][{m}]",
                )
                fkinds.append(kind)
                fparams.append(params)
            bkinds, bparams = [], []
            for m in range(slots):
                kind = per_victim["iter_biastype_list"][j][m]
                path = f"iter_biasparavalue_list[{i}][{j}][{m}]"
                values = _as_seq(per_victim["iter_biasparavalue_list"][j][m], path)
                values = tuple(_as_float(v, f"{path}[{q}]") for q, v in enumerate(values))
                try:
                    bp = BiasParams(kind, values)
                except AttackCaseError as exc:
                    raise AttackCaseError(f"{path}: {exc}") from None
                bkinds.append(kind)
                bparams.append(bp)
            v_channels.append(tuple(chs))
            v_fkinds.append(tuple(fkinds))
            v_fparams.append(tuple(fparams))
            v_bkinds.append(tuple(bkinds))
            v_bparams.append(tuple(bparams))
        channels.append(tuple(v_channels))
        freq_kinds.append(tuple(v_fkinds))
        freq_params.append(tuple(v_fparams))
        bias_kinds.append(tuple(v_bkinds))
        bias_params.append(tuple(v_bparams))

    return AttackCase(
        iter_victim_list=victims,
        control_attackperiod_list=tuple(periods),
        iter_malichannel_list=tuple(channels),
        iter_freq_type_list=tuple(freq_kinds),
        iter_freqparavalue_list=tuple(freq_params),
        iter_biastype_list=tuple(bias_kinds),
        iter_biasparavalue_list=tuple(bias_params),
    )


def stealth_mask(freq_kind: str, freq_params: Sequence[float], max_iterations: int) -> np.ndarray:
    """The 0/1 on-off vector implementing the attack frequency.

    Continuous is all ones.  Cluster [on, off] repeats a period of on+off
    entries starting active at index 0, so [1, 10] is active exactly at
    0, 11, 22, ...
    """
    kind, params = normalize_freq(freq_kind, list(freq_params), "freq_params")
    if kind == "Continuous":
        return np.ones(max_iterations, dtype=np.int64)
    on, off = int(params[0]), int(params[1])
    period = on + off
    mask = np.zeros(max_iterations, dtype=np.int64)
    for t in range(max_iterations):
        if t % period < on:
            mask[t] = 1
    return mask


def bias_waveform(
    bias_kind: str, params: Sequence[float], t: int, max_iterations: int
) -> float:
    """Waveform value at iteration t.

    Constant -> c; Linear -> m*t + c; Sinusoidal ->
    A * sin(2*pi*f*(t / max_iterations) + theta) + c, i.e. f full cycles
    across one control step's iteration rows.
    """
    bp = BiasParams(bias_kind, tuple(float(v) for v in params))
    if bp.kind == "Constant":
        return bp.values[0]
    if bp.kind == "Linear":
        m, c = bp.values
        return m * t + c
    amp, freq, theta, shift = bp.values
    return amp * math.sin(2.0 * math.pi * freq * (t / max_iterations) + theta) + shift


def iter_channel_bias(
    freq_kind: str,
    freq_params: Sequence[float],
    bias_kind: str,
    bias_params: Sequence[float],
    max_iterations: int,
) -> np.ndarray:
    """Elementwise product of stealth mask and waveform over all iterations."""
    mask = stealth_mask(freq_kind, freq_params, max_iterations)
    vec = np.zeros(max_iterations)
    for t in range(max_iterations):
        if mask[t]:
            vec[t] = bias_waveform(bias_kind, bias_params, t, max_iterations)
    return vec


def iter_attack_value_cal(
    n: int, k: int, max_iterations: int, case: AttackCase
) -> BiasMatrices:
    """Generate the four per-channel bias matrices for control step k.

    For every victim whose attack period contains k (closed interval), the
    per-channel bias vector is added into the victim's column of the matching
    matrix; everything else stays zero.  Overlapping periods and repeated
    channels accumulate.
    """
    mats = {ch: np.zeros((max_iterations, n)) for ch in ChannelId}
    for i, victim in enumerate(case.iter_victim_list):
        col = victim - 1
        for j, (start, end) in enumerate(case.control_attackperiod_list[i]):
            if not start <= k <= end:
                continue
            slots = case.iter_malichannel_list[i][j]
            for m, channel in enumerate(slots):
                vec = iter_channel_bias(
                    case.iter_freq_type_list[i][j][m],
                    case.iter_freqparavalue_list[i][j][m],
                    case.iter_biastype_list[i][j][m],
                    case.iter_biasparavalue_list[i][j][m].values,
                    max_iterations,
                )
                mats[channel][:, col] += vec
    return BiasMatrices(
        x_ite_bias=mats[ChannelId.X_ITE],
        v_ite_bias=mats[ChannelId.V_ITE],
        zx_ite_bias=mats[ChannelId.ZX_ITE],
        zv_ite_bias=mats[ChannelId.ZV_ITE],
    )
