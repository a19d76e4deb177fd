"""Shared configuration and state types for the platoon simulation.

Every quantity used by the controller, plant, attack engine and detector has
exactly one home here.  All types are immutable value objects and safe to
share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Raised when a configuration value violates its invariants."""


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

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"sim.n must be >= 1, got {self.n}")
        if self.tau <= 0:
            raise ConfigError(f"sim.tau must be > 0, got {self.tau}")
        if self.L_veh <= 0:
            raise ConfigError(f"sim.L_veh must be > 0, got {self.L_veh}")
        if self.max_iterations < 1:
            raise ConfigError(f"sim.max_iterations must be >= 1, got {self.max_iterations}")
        if self.primal_tol <= 0:
            raise ConfigError(f"sim.primal_tol must be > 0, got {self.primal_tol}")
        if not self.a_min < self.a_max:
            raise ConfigError(f"need sim.a_min < sim.a_max, got [{self.a_min}, {self.a_max}]")
        if not self.v_min < self.v_max:
            raise ConfigError(f"need sim.v_min < sim.v_max, got [{self.v_min}, {self.v_max}]")
        if self.Q_alpha <= 0 or self.Q_beta <= 0:
            raise ConfigError("sim.Q_alpha and sim.Q_beta must be > 0 (strict convexity)")
        if self.total_control_steps < 1:
            raise ConfigError("sim.total_control_steps must be >= 1")

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
