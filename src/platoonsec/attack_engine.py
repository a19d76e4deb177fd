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
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from .platoon_model import (
    _COUNT, _FINITE, _INT, _LIST, _NATURAL, ConfigError, _check, _check_interval, _int_in, _one_of,
    _read_section, _shown,
)
from .v2v_channel import ChannelId

_BIAS_ARITY = {"Constant": 1, "Linear": 2, "Sinusoidal": 4}
_BIAS_KINDS = _one_of(*_BIAS_ARITY)
_FREQ_KINDS = _one_of("Continuous", "Cluster", "Discrete")
_CHANNELS = _one_of(*(channel.value for channel in ChannelId))
_CHANNEL_LIST = (lambda v: isinstance(v, (list, tuple)) and len(v) > 0, "a non-empty list")

ATTACK_LIST_KEYS = (
    "iter_victim_list",
    "control_attackperiod_list",
    "iter_malichannel_list",
    "iter_freq_type_list",
    "iter_freqparavalue_list",
    "iter_biastype_list",
    "iter_biasparavalue_list",
)
_ATTACK_KEYS = dict.fromkeys(ATTACK_LIST_KEYS, ((), _LIST))


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

    def covers(self, k: int) -> bool:
        """Whether the slot's period holds control step ``k``."""
        return self.start <= k <= self.end


def _entries(value: Any, path: str, count: int, what: str) -> Sequence:
    """A list at ``path`` that must hold ``count`` entries (``what``)."""
    value = _check(path, value, _LIST)
    if len(value) != count:
        raise ConfigError(f"{path}: expected {count} {what}, got {len(value)}")
    return value


def _shown_each(params: Sequence) -> str:
    """``params`` as a message shows a list, each element through ``_shown``,
    so that one too long to print hides neither the others nor the length."""
    return _shown(f"[{', '.join(map(_shown, params))}]", str)


def _stealth_window(kind: Any, params: Any, where: str) -> tuple[int, int]:
    """Validate the frequency entry at ``where`` ([i][j][m]) as its stealth
    window [on, off]; Discrete [off] is [1, off]."""
    _check(f"iter_freq_type_list{where}", kind, _FREQ_KINDS)
    path = f"iter_freqparavalue_list{where}"
    params = _check(path, params, _LIST)
    if kind == "Continuous":
        if len(params) != 1:
            raise ConfigError(f"{path}: Continuous takes [0], got {_shown_each(params)}")
        _check(f"{path}[0]", params[0], _int_in(range(1)))
        return 1, 0
    if kind == "Discrete":
        if not (len(params) == 1 or len(params) == 2 and _check(f"{path}[0]", params[0], _INT) == 1):
            raise ConfigError(
                f"{path}: Discrete frequency takes [off] (or [1, off]), got {_shown_each(params)}"
            )
    elif len(params) != 2:
        raise ConfigError(f"{path}: Cluster takes [on, off], got {_shown_each(params)}")
    rules = (_COUNT, _NATURAL)[-len(params):]  # [on, off], or a Discrete [off]
    window = [_check(f"{path}[{q}]", v, rule) for q, (v, rule) in enumerate(zip(params, rules))]
    # Like every number in the case, a window must fit in a float.
    for q, v in enumerate(window):
        _check(f"{path}[{q}]", v, _FINITE)
    return (1, *window)[-2:]


def _bias(kind: Any, values: Any, where: str, max_iterations: int) -> tuple[str, tuple[float, ...]]:
    """Validate the bias entry at ``where`` ([i][j][m]) as its kind and
    parameters, whose waveform must stay finite over max_iterations rows."""
    path = f"iter_biasparavalue_list{where}"
    values = _check(path, values, _LIST)
    values = tuple(float(_check(f"{path}[{q}]", v, _FINITE)) for q, v in enumerate(values))
    _check(f"iter_biastype_list{where}", kind, _BIAS_KINDS)
    arity = _BIAS_ARITY[kind]
    if len(values) != arity:
        raise ConfigError(f"{path}: {kind} bias takes {arity} parameter(s), got {_shown(list(values))}")
    if not _finite_waveform(kind, values, max_iterations):
        raise ConfigError(
            f"{path}: {kind} bias {_shown(list(values))} overflows within {max_iterations} iterations"
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
    raw = _read_section(doc, "attack", _ATTACK_KEYS, "an attack-case key")

    victims = [_check(f"iter_victim_list[{i}]", v, _int_in(range(1, n + 1)))
               for i, v in enumerate(raw["iter_victim_list"])]

    for key in ATTACK_LIST_KEYS[1:]:
        _entries(raw[key], key, len(victims), "per-victim entries")

    slots = []
    for i, victim in enumerate(victims):
        vp = _check(f"control_attackperiod_list[{i}]", raw["control_attackperiod_list"][i], _LIST)
        periods = [_check_interval(f"control_attackperiod_list[{i}][{j}]", pair)
                   for j, pair in enumerate(vp)]

        what = f"period entries for victim {victim}"
        per_period = [
            _entries(raw[key][i], f"{key}[{i}]", len(periods), what) for key in ATTACK_LIST_KEYS[2:]
        ]
        for j, (start, end) in enumerate(periods):
            ch_list = _check(f"iter_malichannel_list[{i}][{j}]", per_period[0][j], _CHANNEL_LIST)
            channels = [ChannelId(_check(f"iter_malichannel_list[{i}][{j}][{m}]", ch, _CHANNELS))
                        for m, ch in enumerate(ch_list)]
            fk, fp, bk, bp = (
                _entries(entries[j], f"{key}[{i}][{j}]", len(channels), "channel entries")
                for key, entries in zip(ATTACK_LIST_KEYS[3:], per_period[1:])
            )
            windows = [_stealth_window(fk[m], fp[m], f"[{i}][{j}][{m}]") for m in range(len(channels))]
            biases = [_bias(bk[m], bp[m], f"[{i}][{j}][{m}]", max_iterations) for m in range(len(channels))]
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
            active = [slot for slot in group if slot.covers(k)]
            if len(active) < 2:
                continue
            total = np.zeros(max_iterations)
            for slot in active:
                total += _slot_bias(slot, max_iterations)
            if not np.isfinite(total).all():
                raise ConfigError(
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
) -> dict[ChannelId, np.ndarray]:
    """Generate the four per-channel bias matrices for control step k, each
    (max_iterations, n) and flagged read-only.

    Row t is the bias applied at iteration t of the step; column j corrupts
    the outgoing channels of follower j+1.  For every slot whose period
    contains k (closed interval), the masked waveform is added into the
    victim's column of the slot's channel matrix, in slot order; everything
    else stays zero.
    """
    mats = {ch: np.zeros((max_iterations, n)) for ch in ChannelId}
    for slot in slots:
        if slot.covers(k):
            mats[slot.channel][:, slot.victim - 1] += _slot_bias(slot, max_iterations)
    for matrix in mats.values():
        matrix.flags.writeable = False
    return mats
