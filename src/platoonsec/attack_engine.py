"""Attack-case parsing and bias-matrix generation.

An attack case is specified as seven parallel, congruently nested lists:
victims, per-victim attack periods, per-period malicious channels, and
per-channel frequency kinds, frequency parameters, bias kinds and bias
parameters.  Parsing flattens them into slots, one per channel of one period
of one victim.  Feeding a case and a control step into the generator yields
four (max_iterations x n) matrices of additive corruption, one per vulnerable
channel.  Columns of non-victim followers are all zero, and overlapping
periods or repeated channels on the same victim sum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from .v2v_channel import ChannelId


class AttackCaseError(ValueError):
    """Raised when an attack case violates the seven-list schema."""


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


class AttackSlot(NamedTuple):
    """One channel of one attack period of one victim.

    ``victim`` is a 1-based follower number and [start, end] a closed
    interval of control steps.  [on, off] is the stealth window: Continuous
    is [1, 0] and Discrete [off] is [1, off].  ``bias_values`` are Constant
    (c,), Linear (m, c) or Sinusoidal (A, f, theta, c).
    """

    victim: int
    start: int
    end: int
    channel: ChannelId
    on: int
    off: int
    bias_kind: str
    bias_values: tuple[float, ...]


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise AttackCaseError(f"{path}: expected an integer, got {value!r}")
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


def _entries(value: Any, path: str, count: int, what: str) -> Sequence:
    """A list at ``path`` that must hold ``count`` entries (``what``)."""
    value = _as_seq(value, path)
    if len(value) != count:
        raise AttackCaseError(f"{path}: expected {count} {what}, got {len(value)}")
    return value


def _stealth_window(kind: Any, params: Any, path: str) -> tuple[int, int]:
    """Validate one frequency entry as its stealth window [on, off]."""
    if kind == "Discrete":
        params = _as_seq(params, path)
        if not (len(params) == 1 or len(params) == 2 and _as_int(params[0], f"{path}[0]") == 1):
            raise AttackCaseError(
                f"{path}: Discrete frequency takes [off] (or [1, off]), got {list(params)}"
            )
        kind, params = "Cluster", (1, _as_int(params[-1], f"{path}[{len(params) - 1}]"))
    if kind not in ("Continuous", "Cluster"):
        raise AttackCaseError(f"{path}: unknown frequency kind {kind!r}")
    params = _as_seq(params, path)
    if kind == "Continuous":
        if len(params) > 1:
            raise AttackCaseError(f"{path}: Continuous takes [0], got {list(params)}")
        return 1, 0
    if len(params) != 2:
        raise AttackCaseError(f"{path}: Cluster takes [on, off], got {list(params)}")
    on, off = (_as_int(v, f"{path}[{q}]") for q, v in enumerate(params))
    if on < 1:
        raise AttackCaseError(f"{path}: Cluster on-window must be >= 1, got {on}")
    if off < 0:
        raise AttackCaseError(f"{path}: Cluster off-window must be >= 0, got {off}")
    # Like every number in the case, a window must fit in a float.
    _as_float(on, f"{path}[0]")
    _as_float(off, f"{path}[1]")
    return on, off


def _bias(kind: Any, values: Any, path: str, max_iterations: int) -> tuple[str, tuple[float, ...]]:
    """Validate one bias entry as its kind and parameters, whose waveform
    must stay finite over max_iterations rows."""
    values = _as_seq(values, path)
    values = tuple(_as_float(v, f"{path}[{q}]") for q, v in enumerate(values))
    # A tuple, not the dict: a YAML kind may be an unhashable list.
    if kind not in tuple(_BIAS_ARITY):
        raise AttackCaseError(f"{path}: unknown bias kind {kind!r}")
    arity = _BIAS_ARITY[kind]
    if len(values) != arity:
        raise AttackCaseError(f"{path}: {kind} bias takes {arity} parameter(s), got {list(values)}")
    if not all(math.isfinite(v) for v in values):
        raise AttackCaseError(f"{path}: non-finite bias parameters {list(values)}")
    if not _finite_waveform(kind, values, max_iterations):
        raise AttackCaseError(
            f"{path}: {kind} bias {list(values)} overflows within {max_iterations} iterations"
        )
    return kind, values


def parse_attack_case(
    doc: Mapping[str, Any] | None, n: int, max_iterations: int
) -> tuple[AttackSlot, ...]:
    """Validate a seven-list attack description against follower count n and
    the max_iterations rows of a control step, and return its slots in
    document order: victim, then period, then channel.

    An absent/empty document, or one with all-empty lists, is the benign
    case: no slots.  Shape mismatches, and waveforms that overflow, alone or
    summed with the other slots of their victim and channel, are rejected
    with the offending path or victim.
    """
    if doc is None:
        return ()
    if not isinstance(doc, Mapping):
        raise AttackCaseError(f"attack must be a mapping, got {doc!r}")
    if unknown := set(doc) - set(ATTACK_LIST_KEYS):
        raise AttackCaseError(f"unknown attack case keys: {sorted(unknown, key=str)}")
    raw = {key: _as_seq(doc.get(key, []), key) for key in ATTACK_LIST_KEYS}

    victims = [_as_int(v, f"iter_victim_list[{i}]") for i, v in enumerate(raw["iter_victim_list"])]
    for i, victim in enumerate(victims):
        if not 1 <= victim <= n:
            raise AttackCaseError(f"iter_victim_list[{i}]: victim {victim} outside 1..{n}")

    for key in ATTACK_LIST_KEYS[1:]:
        _entries(raw[key], key, len(victims), "per-victim entries")

    slots = []
    for i, victim in enumerate(victims):
        periods = []
        vp = _as_seq(raw["control_attackperiod_list"][i], f"control_attackperiod_list[{i}]")
        for j, interval in enumerate(vp):
            path = f"control_attackperiod_list[{i}][{j}]"
            interval = _as_seq(interval, path)
            if len(interval) != 2:
                raise AttackCaseError(f"{path}: expected [start, end], got {list(interval)}")
            start, end = (_as_int(v, f"{path}[{q}]") for q, v in enumerate(interval))
            if start < 0 or start > end:
                raise AttackCaseError(f"{path}: invalid interval [{start}, {end}]")
            periods.append((start, end))

        what = f"period entries for victim {victim}"
        per_period = [
            _entries(raw[key][i], f"{key}[{i}]", len(periods), what) for key in ATTACK_LIST_KEYS[2:]
        ]
        for j, (start, end) in enumerate(periods):
            ch_list = _as_seq(per_period[0][j], f"iter_malichannel_list[{i}][{j}]")
            if not ch_list:
                raise AttackCaseError(
                    f"iter_malichannel_list[{i}][{j}]: a period needs at least one channel"
                )
            channels = []
            for m, ch in enumerate(ch_list):
                try:
                    channels.append(ChannelId(ch))
                except ValueError:
                    raise AttackCaseError(
                        f"iter_malichannel_list[{i}][{j}][{m}]: unknown channel {ch!r}"
                    ) from None
            fk, fp, bk, bp = (
                _entries(entries[j], f"{key}[{i}][{j}]", len(channels), "channel entries")
                for key, entries in zip(ATTACK_LIST_KEYS[3:], per_period[1:])
            )
            windows = [
                _stealth_window(fk[m], fp[m], f"iter_freqparavalue_list[{i}][{j}][{m}]")
                for m in range(len(channels))
            ]
            biases = [
                _bias(bk[m], bp[m], f"iter_biasparavalue_list[{i}][{j}][{m}]", max_iterations)
                for m in range(len(channels))
            ]
            slots.extend(
                AttackSlot(victim, start, end, channel, on, off, kind, values)
                for channel, (on, off), (kind, values) in zip(channels, windows, biases)
            )
    _check_sums(slots, max_iterations)
    return tuple(slots)


@np.errstate(over="ignore", invalid="ignore")
def _check_sums(slots: Sequence[AttackSlot], max_iterations: int) -> None:
    """Reject slots of one victim and channel whose sum overflows where two
    or more are active at once.  The sum is taken as iter_attack_value_cal
    takes it, in slot order, at every control step where the set of active
    slots changes."""
    groups: dict[tuple[int, ChannelId], list[AttackSlot]] = {}
    for slot in slots:
        groups.setdefault((slot.victim, slot.channel), []).append(slot)
    for (victim, channel), group in groups.items():
        spans = sorted((slot.start, slot.end) for slot in group)
        if all(a_end < b_start for (_, a_end), (b_start, _) in zip(spans, spans[1:])):
            continue  # no two slots are ever active at once
        for k in sorted({slot.start for slot in group} | {slot.end + 1 for slot in group}):
            active = [slot for slot in group if slot.start <= k <= slot.end]
            if len(active) < 2:
                continue
            total = np.zeros(max_iterations)
            for slot in active:
                total += _slot_bias(slot, max_iterations)
            if not np.isfinite(total).all():
                raise AttackCaseError(
                    f"victim {victim}: the {len(active)} {channel.value} slots active at "
                    f"control step {k} overflow when summed"
                )


def stealth_mask(on: int, off: int, max_iterations: int) -> np.ndarray:
    """The boolean on-off vector of the stealth window [on, off].

    A period of on+off entries repeats, starting active at index 0, so
    [1, 10] is active exactly at 0, 11, 22, ... and [1, 0] everywhere.
    """
    # Clamping gives the same mask and keeps huge windows inside int64.
    on, off = min(on, max_iterations), min(off, max_iterations)
    return np.arange(max_iterations) % (on + off) < on


def _sine_phase(freq: float, theta: float, max_iterations: int) -> np.ndarray:
    return 2.0 * math.pi * freq * (np.arange(max_iterations) / max_iterations) + theta


@np.errstate(over="ignore", invalid="ignore")
def _finite_waveform(kind: str, values: Sequence[float], max_iterations: int) -> bool:
    """Whether every row of bias_waveform(kind, values, max_iterations) is
    finite.  A sinusoid's sines cost more than the rest of parsing: while
    |A| + |c| is finite it bounds |A*sin + c| (rounding is monotone), so
    only the phases need checking."""
    if kind == "Sinusoidal" and math.isfinite(abs(values[0]) + abs(values[3])):
        return bool(np.isfinite(_sine_phase(values[1], values[2], max_iterations)).all())
    return bool(np.isfinite(bias_waveform(kind, values, max_iterations)).all())


@np.errstate(over="ignore", invalid="ignore")
def bias_waveform(kind: str, values: Sequence[float], max_iterations: int) -> np.ndarray:
    """The waveform over iterations t = 0..max_iterations-1.

    Constant -> c; Linear -> m*t + c; Sinusoidal ->
    A * sin(2*pi*f*(t / max_iterations) + theta) + c, i.e. f full cycles
    across one control step's iteration rows.  Overflow gives inf and an
    infinite phase NaN; parse_attack_case rejects a slot whose waveform has
    either.
    """
    if kind == "Constant":
        return np.full(max_iterations, values[0])
    if kind == "Linear":
        m, c = values
        return m * np.arange(max_iterations) + c
    amp, freq, theta, shift = values
    phase = _sine_phase(freq, theta, max_iterations)
    # math.sin, not np.sin: numpy's sine may round differently.
    sines = [math.sin(x) if math.isfinite(x) else math.nan for x in phase.tolist()]
    return amp * np.array(sines) + shift


def _slot_bias(slot: AttackSlot, max_iterations: int) -> np.ndarray:
    """The slot's waveform under its stealth mask, one entry per iteration row."""
    mask = stealth_mask(slot.on, slot.off, max_iterations)
    return np.where(mask, bias_waveform(slot.bias_kind, slot.bias_values, max_iterations), 0.0)


def iter_attack_value_cal(
    n: int, k: int, max_iterations: int, slots: Sequence[AttackSlot]
) -> BiasMatrices:
    """Generate the four per-channel bias matrices for control step k.

    For every slot whose period contains k (closed interval), the masked
    waveform is added into the victim's column of the slot's channel matrix,
    in slot order; everything else stays zero.
    """
    mats = {ch: np.zeros((max_iterations, n)) for ch in ChannelId}
    for slot in slots:
        if slot.start <= k <= slot.end:
            mats[slot.channel][:, slot.victim - 1] += _slot_bias(slot, max_iterations)
    return BiasMatrices(**{f"{ch.value}_bias": matrix for ch, matrix in mats.items()})
