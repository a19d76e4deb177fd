"""Per-follower MPC with a primal/dual double loop over V2V iteration rounds.

Each follower holds a scalar decision, the acceleration for the next control
step.  One iteration round consists of: all vehicles broadcast predicted
position/velocity forward, every follower computes its spacing terms from
what it received and sends them backward, then every follower takes one
box-clipped Newton step on its local Lagrangian

    0.5*Q_alpha*z^2 + Q_beta*z'^2 + (tau^2/2)*u^2      (own spacing terms)
  + 0.5*Q_alpha*zx^2 + Q_beta*zv^2                      (successor's terms)
  + lam_front*g_front(u) + lam_rear*g_rear(u)           (safety multipliers)

where the successor's terms are the backward-received values shifted by the
vehicle's own candidate motion.  The Lagrangian is a convex quadratic in the
scalar u, so the full Newton step clipped to the admissible box is its exact
minimiser over that box; no damping or line search is needed.

The primal phase stops once every follower's successive candidates differ by
at most ``primal_tol``; the dual phase then checks that all perceived gaps
clear the adaptive safety gap (tightened by ``dual_margin``), raising
multipliers on violated pairs by projected gradient ascent and decaying slack
ones.  A combined cap of ``max_iterations`` rounds per control step bounds
the loop whether or not the stop conditions were met.

Corrupted channel values flow through all of this untouched: a vehicle has no
way to tell a biased message from a truthful one, which is exactly the attack
surface under study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .attack_engine import BiasMatrices
from .platoon_model import PlatoonState, SimConfig, VehicleState
from .v2v_channel import Direction, V2VChannel


class NumericalError(RuntimeError):
    """Raised when the optimizer encounters non-finite quantities."""


@dataclass(frozen=True)
class PerceptionRecord:
    """What one follower saw on its channels at the end of a control step.

    front_x / front_v are the forward-channel values as received (biased if
    the predecessor's outgoing channels were under attack); gap_front and
    spacing_error are computed from them against the follower's own final
    prediction.  rear_spacing_error is the backward-channel value received
    from the successor, None for the last follower.
    """

    vehicle: int
    front_x: float
    front_v: float
    gap_front: float
    spacing_error: float
    rear_spacing_error: Optional[float]


@dataclass(frozen=True)
class ControlOutcome:
    """Result of one control step's optimization."""

    u_next: tuple[float, ...]
    iterations_used: int
    converged: bool
    perception: tuple[PerceptionRecord, ...] = ()


@dataclass(frozen=True)
class ConstraintViolation:
    vehicle: int
    kind: str  # "acceleration" | "velocity" | "safety_gap"
    value: float
    bound: float


def predict(state: VehicleState, u: float, tau: float) -> tuple[float, float]:
    """Next-step position and velocity; identical formula to the plant."""
    return (
        state.x + state.v * tau + u * tau * tau / 2.0,
        state.v + u * tau,
    )


def spacing_error(
    x_pred_prev: float, x_pred_self: float, v_pred_self: float, config: SimConfig
) -> float:
    """Deviation of the predicted gap from the adaptive nominal spacing."""
    return x_pred_prev - x_pred_self - (
        config.L_veh + config.p * config.tau * v_pred_self + config.delta
    )


def relative_speed(v_pred_prev: float, v_pred_self: float) -> float:
    return v_pred_prev - v_pred_self


def cost(
    z: Sequence[float], z_prime: Sequence[float], u: Sequence[float], config: SimConfig
) -> float:
    """Platoon-wide strictly convex objective."""
    if not (len(z) == len(z_prime) == len(u)):
        raise ValueError(
            f"length mismatch: z={len(z)} z_prime={len(z_prime)} u={len(u)}"
        )
    tau2 = config.tau * config.tau
    total = 0.0
    for zi, zpi, ui in zip(z, z_prime, u):
        total += (
            0.5 * config.Q_alpha * zi * zi
            + config.Q_beta * zpi * zpi
            + 0.5 * tau2 * ui * ui
        )
    return total


def primal_exit(u_deltas: Sequence[float], primal_tol: float) -> bool:
    """Primal stop: every follower's successive candidates differ by <= tol."""
    return max(abs(d) for d in u_deltas) <= primal_tol


def accel_box(v: float, config: SimConfig) -> tuple[float, float]:
    """Admissible acceleration interval combining the hard box with the
    velocity bounds on the predicted next step.

    The velocity-derived edges are pulled in by a hair so the predicted
    velocity stays inside [v_min, v_max] after floating-point rounding.
    """
    guard = 1e-9
    lo = max(config.a_min, (config.v_min - v) / config.tau + guard)
    hi = min(config.a_max, (config.v_max - v) / config.tau - guard)
    if lo > hi:  # degenerate box from an out-of-bounds velocity; stay put
        mid = min(max((lo + hi) / 2.0, config.a_min), config.a_max)
        return mid, mid
    return lo, hi


def primal_step(
    measured: VehicleState,
    u: float,
    front_x: float,
    front_v: float,
    rear_zx: Optional[float],
    rear_zv: Optional[float],
    lam_front: float,
    lam_rear: float,
    config: SimConfig,
) -> float:
    """One follower's new candidate acceleration: the full Newton step on its
    local Lagrangian, clipped to the admissible box.

    The Lagrangian is a convex quadratic in u and the current candidate lies
    inside the box, so the clipped full step is the exact minimiser over the
    box.  ``rear_zx``/``rear_zv`` are the successor's last backward report,
    None for the last follower.  Raises NumericalError on a non-finite
    gradient or Hessian.
    """
    cfg = config
    tau = cfg.tau
    dpx = tau * tau / 2.0
    dpv = tau
    dz = -dpx - cfg.p * tau * dpv
    dzp = -dpv
    px = measured.x + measured.v * tau + u * dpx
    pv = measured.v + u * dpv
    z = front_x - px - (cfg.L_veh + cfg.p * tau * pv + cfg.delta)
    zp = front_v - pv
    grad = (
        cfg.Q_alpha * z * dz
        + 2.0 * cfg.Q_beta * zp * dzp
        + tau * tau * u
        + lam_front * (-dz)
    )
    hess = cfg.Q_alpha * dz * dz + 2.0 * cfg.Q_beta * dzp * dzp + tau * tau
    if rear_zx is not None:
        # The report was computed against the broadcast prediction; shift it
        # by this candidate's motion relative to that broadcast.
        broadcast_x, broadcast_v = predict(measured, u, tau)
        rzx = rear_zx + (px - broadcast_x)
        rzv = rear_zv + (pv - broadcast_v)
        grad += (
            cfg.Q_alpha * rzx * dpx
            + 2.0 * cfg.Q_beta * rzv * dpv
            + lam_rear * (-dpx)
        )
        hess += cfg.Q_alpha * dpx * dpx + 2.0 * cfg.Q_beta * dpv * dpv
    if not (math.isfinite(grad) and math.isfinite(hess)) or hess <= 0.0:
        raise NumericalError(
            f"degenerate Newton data: grad={grad} hess={hess} u={u} "
            f"front=({front_x}, {front_v})"
        )
    lo, hi = accel_box(measured.v, cfg)
    return min(max(u + -grad / hess, lo), hi)


def dual_update(
    multipliers: Sequence[float],
    predicted_gaps: Sequence[float],
    safety_gaps: Sequence[float],
    config: SimConfig,
) -> list[float]:
    """Projected gradient ascent on the safety-gap multipliers, one per
    adjacent pair (pair i fronts follower i+1).

    Violated pairs (gap below the tightened safety gap) get their multiplier
    raised proportionally to the violation; slack pairs decay toward zero.
    Multipliers never go negative.
    """
    updated = []
    for lam, gap, safety in zip(multipliers, predicted_gaps, safety_gaps):
        violation = safety - gap
        if violation > 0.0:
            lam = lam + config.dual_step * violation
        else:
            lam = lam * config.dual_decay
        updated.append(max(lam, 0.0))
    return updated


def run_control_step(
    platoon: PlatoonState,
    channel: V2VChannel | BiasMatrices,
    config: SimConfig,
    leader_u: float = 0.0,
    warm_start: Optional[Sequence[float]] = None,
) -> ControlOutcome:
    """Execute the full double loop for one control step.

    Every iteration round passes both directions through ``channel`` (where
    the attack bias is injected), then updates all followers in a synchronized
    Jacobi sweep.  The returned accelerations are for the next control step;
    the platoon's currently applied accelerations are untouched during the
    loop.  Deterministic: identical inputs produce bit-identical outcomes.
    """
    if isinstance(channel, BiasMatrices):
        channel = V2VChannel(bias=channel)
    cfg = config
    n = platoon.n
    tau = cfg.tau
    k = platoon.control_step
    followers = platoon.followers

    leader_x, leader_v = predict(platoon.leader, leader_u, tau)
    if warm_start is None:
        u = [0.0] * n
    else:
        if len(warm_start) != n:
            raise ValueError(f"warm_start needs {n} entries, got {len(warm_start)}")
        u = list(warm_start)
    for i in range(n):
        lo, hi = accel_box(followers[i].v, cfg)
        u[i] = min(max(u[i], lo), hi)

    px = [0.0] * n
    pv = [0.0] * n
    for i in range(n):
        px[i], pv[i] = predict(followers[i], u[i], tau)

    # Last received channel values per follower (index 0 = fv1).  A drop
    # before anything was received falls back to the benign expectation for
    # forward values and a zero spacing report backward.  The last follower
    # has no successor, so its backward entries stay None.
    fx: list[Optional[float]] = [None] * n
    fv: list[Optional[float]] = [None] * n
    rzx: list[Optional[float]] = [None] * n
    rzv: list[Optional[float]] = [None] * n

    lam = [0.0] * n
    iterations_used = 0
    converged = False

    for t in range(cfg.max_iterations):
        forward = channel.corrupt(Direction.FORWARD, [leader_x, *px], [leader_v, *pv], t, k)
        for i, got in enumerate(forward):
            if got is not None:
                fx[i], fv[i] = got
            elif fx[i] is None:
                fx[i], fv[i] = px[i] + cfg.nominal_gap(pv[i]), pv[i]

        z = [spacing_error(fx[i], px[i], pv[i], cfg) for i in range(n)]
        zp = [relative_speed(fv[i], pv[i]) for i in range(n)]
        backward = channel.corrupt(Direction.BACKWARD, [0.0, *z], [0.0, *zp], t, k)
        for i, got in enumerate(backward):
            if got is not None:
                rzx[i], rzv[i] = got
            elif rzx[i] is None:
                rzx[i], rzv[i] = 0.0, 0.0

        new_u = [0.0] * n
        for i in range(n):
            lam_rear = lam[i + 1] if i < n - 1 else 0.0
            try:
                new_u[i] = primal_step(
                    followers[i], u[i], fx[i], fv[i], rzx[i], rzv[i], lam[i], lam_rear, cfg
                )
            except NumericalError as exc:
                raise NumericalError(
                    f"follower {i + 1}, control step {k}, iteration {t}: {exc}"
                ) from exc
        deltas = [new_u[i] - u[i] for i in range(n)]
        u = new_u
        for i in range(n):
            px[i], pv[i] = predict(followers[i], u[i], tau)
        iterations_used = t + 1

        if primal_exit(deltas, cfg.primal_tol):
            gaps = [fx[i] - px[i] for i in range(n)]
            safeties = [cfg.safety_gap(pv[i]) + cfg.dual_margin for i in range(n)]
            if all(gap >= safety for gap, safety in zip(gaps, safeties)):
                converged = True
                break
            lam = dual_update(lam, gaps, safeties, cfg)

    perception = tuple(
        PerceptionRecord(
            vehicle=i + 1,
            front_x=fx[i],
            front_v=fv[i],
            gap_front=fx[i] - px[i],
            spacing_error=spacing_error(fx[i], px[i], pv[i], cfg),
            rear_spacing_error=rzx[i],
        )
        for i in range(n)
    )
    return ControlOutcome(
        u_next=tuple(u),
        iterations_used=iterations_used,
        converged=converged,
        perception=perception,
    )


def check_constraints(
    u: Sequence[float],
    platoon: PlatoonState,
    config: SimConfig,
    leader_u: float = 0.0,
) -> list[ConstraintViolation]:
    """Evaluate the acceleration, velocity and safety-gap constraints on the
    true next state reached from ``platoon`` under the given accelerations.
    """
    if len(u) != platoon.n:
        raise ValueError(f"expected {platoon.n} accelerations, got {len(u)}")
    violations = []
    prev_x, _ = predict(platoon.leader, leader_u, config.tau)
    for i, (ui, state) in enumerate(zip(u, platoon.followers), start=1):
        if not config.a_min <= ui <= config.a_max:
            violations.append(
                ConstraintViolation(i, "acceleration", ui, config.a_max if ui > config.a_max else config.a_min)
            )
        x_next, v_next = predict(state, ui, config.tau)
        if not config.v_min <= v_next <= config.v_max:
            violations.append(
                ConstraintViolation(i, "velocity", v_next, config.v_max if v_next > config.v_max else config.v_min)
            )
        safety = config.safety_gap(v_next)
        gap = prev_x - x_next
        if gap < safety:
            violations.append(ConstraintViolation(i, "safety_gap", gap, safety))
        prev_x = x_next
    return violations
