"""Shared configuration and state types for the platoon simulation.

Every quantity used by the controller, plant, attack engine and detector has
exactly one home here.  All types are immutable value objects and safe to
share between threads.  ``SimConfig`` checks nothing itself: the loaders
check every input against the rules below and fail with a ``ConfigError``
that names the input's path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Iterable, Mapping


class ConfigError(ValueError):
    """Raised when an input value breaks its rule; the message names its path."""


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    """NaN, the infinities and ints past the float range fail."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


# The input rules every loader checks through ``_check``: a rule is (check,
# what the check requires).
_BOOL = (lambda v: isinstance(v, bool), "a bool")
_INT = (_is_int, "an int")
_COUNT = (lambda v: _is_int(v) and v >= 1, "an int >= 1")
_NATURAL = (lambda v: _is_int(v) and v >= 0, "an int >= 0")
_FINITE = (_is_finite, "a finite number")
_POSITIVE = (lambda v: _is_finite(v) and v > 0, "a finite number > 0")
_LIST = (lambda v: isinstance(v, (list, tuple)), "a list")
_PAIR = (lambda v: isinstance(v, (list, tuple)) and len(v) == 2, "a [start, end] pair")
_MAPPING = (lambda v: isinstance(v, Mapping), "a mapping")


def _one_of(*choices: Any) -> tuple:
    """The rule that a value is one of ``choices``."""
    *others, last = map(repr, choices)
    return (lambda v: v in choices, f"{', '.join(others)} or {last}")


def _int_in(span: range, context: str = "") -> tuple:
    """The rule that a value is an int in ``span``."""
    return (lambda v: _is_int(v) and v in span, f"an int in {span.start}..{span.stop - 1}{context}")


def _shown(value: Any, form=repr, width: float = 80) -> str:
    """``form(value)`` as a message shows an input value: past ``width``
    characters, its first 60 and its length, about 80 characters in all."""
    try:
        text = form(value)
    except ValueError:  # an int past str's digit limit, or a list holding one
        text = f"<{type(value).__name__} too long to print>"
    return text if len(text) <= width else f"{text[:60]}... ({len(text)} characters)"


def _check_keys(doc: Mapping, known: Iterable, what: str) -> None:
    """A ConfigError listing the keys of ``doc`` outside ``known``, each shown
    uncut on its own, so that one too long to print hides no other."""
    if unknown := set(doc) - set(known):
        keys = sorted(unknown, key=lambda key: _shown(key, str))
        listed = ", ".join(_shown(key, width=math.inf) for key in keys)
        raise ConfigError(f"unknown {what} keys: {_shown(f'[{listed}]', str)}")


def _check(where: str, value: Any, rule: tuple) -> Any:
    """``value`` if it keeps ``rule``, else a ConfigError naming ``where``."""
    check, requirement = rule
    if not check(value):
        raise ConfigError(f"{where} must be {requirement}, got {_shown(value)}")
    return value


def _check_interval(where: str, value: Any) -> tuple[int, int]:
    """``value`` as a [start, end] pair of ints >= 0 with start <= end, each
    int checked at its own path."""
    pair = _check(where, value, _PAIR)
    start, end = (_check(f"{where}[{q}]", v, _NATURAL) for q, v in enumerate(pair))
    if start > end:
        raise ConfigError(f"{where}: invalid interval {_shown([start, end])}")
    return start, end


@dataclass(frozen=True)
class VehicleState:
    """Longitudinal state of one vehicle at a control step boundary.

    x is the front-bumper position (m), v the velocity (m/s) and u the
    acceleration command that was applied to reach this state (m/s^2).
    """

    x: float
    v: float
    u: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.v) and math.isfinite(self.u)):
            raise ConfigError(f"non-finite vehicle state: x={self.x} v={self.v} u={self.u}")


@dataclass(frozen=True)
class SimConfig:
    """Platoon, controller and loop parameters.

    The spacing policy is adaptive: a follower at speed v keeps a nominal gap
    of ``L_veh + p*tau*v + delta`` metres to its predecessor.  The default
    ``p`` puts the equilibrium time-headway at 0.50 s for a 30 m/s platoon,
    the centre of the [0.45, 0.55] s safe band used by the impact metrics.
    """

    n: int = 6
    tau: float = 0.1
    L_veh: float = 5.0
    p: float = 14.5 / 3.0
    delta: float = 0.5
    a_min: float = -5.0
    a_max: float = 3.0
    v_min: float = 0.0
    v_max: float = 40.0
    Q_alpha: float = 1.0
    Q_beta: float = 1.0
    max_iterations: int = 300
    primal_tol: float = 0.01
    total_control_steps: int = 100
    dual_step: float = 0.5
    dual_decay: float = 0.9
    # Constraint tightening (m) applied inside the dual loop so the applied
    # state satisfies the raw safety gap with slack instead of at equality.
    dual_margin: float = 0.05

    def nominal_gap(self, v: float) -> float:
        """Front-bumper-to-front-bumper equilibrium spacing at speed v."""
        return self.safety_gap(v) + self.delta

    def safety_gap(self, v: float) -> float:
        """Minimum admissible gap at speed v (adaptive safety distance)."""
        return self.L_veh + self.p * self.tau * v


@dataclass(frozen=True)
class PlatoonState:
    """Leader plus an ordered list of followers at one control step.

    followers[0] is fv1, the vehicle immediately behind the leader.
    """

    leader: VehicleState
    followers: tuple[VehicleState, ...]
    control_step: int = 0

    @property
    def n(self) -> int:
        return len(self.followers)

    def gap(self, i: int) -> float:
        """Gap in front of follower i (1-based), predecessor minus own position."""
        if i < 1 or i > self.n:
            raise IndexError(f"follower index {i} out of range 1..{self.n}")
        prev = self.leader if i == 1 else self.followers[i - 2]
        return prev.x - self.followers[i - 1].x


def initial_platoon(config: SimConfig, leader_speed: float) -> PlatoonState:
    """Build an equilibrium platoon: every vehicle at leader_speed, gaps nominal.

    leader_speed must lie in [config.v_min, config.v_max]; a scenario's
    loader checks that, naming the input.  The last follower sits at x = 0
    and the column extends forward, so all positions are non-negative.
    Deterministic: identical inputs produce bit-identical states.
    """
    gap = config.nominal_gap(leader_speed)
    leader = VehicleState(x=config.n * gap, v=leader_speed, u=0.0)
    followers = tuple(
        VehicleState(x=(config.n - i) * gap, v=leader_speed, u=0.0)
        for i in range(1, config.n + 1)
    )
    return PlatoonState(leader=leader, followers=followers, control_step=0)
