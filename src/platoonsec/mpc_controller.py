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
minimiser over that box; no damping or line search is needed.  What no round
changes is computed once per control step: ``newton_terms`` and
``follower_terms``.  A round computes only predictions, received values,
backward spacing terms and gradients.

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

from .dynamics import predict
from .platoon_model import PlatoonState, SimConfig, VehicleState
from .v2v_channel import Direction, V2VChannel


class NumericalError(RuntimeError):
    """Raised when the optimizer encounters non-finite quantities."""


@dataclass(frozen=True)
class ControlOutcome:
    """Result of one control step's optimization, with what each follower
    (index 0 = fv1) saw on its channels at the end of it.

    front_x / front_v are the forward-channel values as received (biased if
    the predecessor's outgoing channels were under attack) and gap_front the
    front gap they give against the follower's own final prediction.
    gap_rear is the rear gap rebuilt from the successor's backward report,
    which shares the front gap's nominal-spacing term; None for the last
    follower.
    """

    u_next: tuple[float, ...]
    iterations_used: int
    converged: bool
    front_x: tuple[float, ...]
    front_v: tuple[float, ...]
    gap_front: tuple[float, ...]
    gap_rear: tuple[Optional[float], ...]


@dataclass(frozen=True)
class ConstraintViolation:
    vehicle: int
    kind: str  # "acceleration" | "velocity" | "safety_gap"
    value: float
    bound: float


def spacing_error(
    x_pred_prev: float, x_pred_self: float, v_pred_self: float, config: SimConfig
) -> float:
    """Deviation of the predicted gap from the adaptive nominal spacing."""
    return x_pred_prev - x_pred_self - config.nominal_gap(v_pred_self)


def primal_exit(u_deltas: Sequence[float], primal_tol: float) -> bool:
    """Primal stop: every follower's successive candidates differ by <= tol."""
    return max(map(abs, u_deltas)) <= primal_tol


def newton_terms(config: SimConfig) -> tuple[float, ...]:
    """The Newton-step terms the config fixes for every follower: ``(tau,
    tau^2, dpx, dz, Q_alpha, 2*Q_beta, p*tau, L_veh, delta, hess_front,
    hess_rear)``, dpx = tau^2/2 and dz being the u-derivatives of the predicted
    position and spacing error.  Raises NumericalError unless both Hessians
    are finite and positive, which SimConfig leaves only to a non-finite one."""
    tau = config.tau
    dpx = tau * tau / 2.0
    dz = -dpx - config.p * tau * tau
    q2b = 2.0 * config.Q_beta
    hess_front = config.Q_alpha * dz * dz + q2b * -tau * -tau + tau * tau
    hess_rear = hess_front + (config.Q_alpha * dpx * dpx + q2b * tau * tau)
    if not (0.0 < hess_front < math.inf and 0.0 < hess_rear < math.inf):
        raise NumericalError(f"degenerate Newton Hessian {hess_front}, {hess_rear}")
    return (tau, tau * tau, dpx, dz, config.Q_alpha, q2b, config.p * tau, config.L_veh,
            config.delta, hess_front, hess_rear)


def follower_terms(measured: VehicleState, config: SimConfig) -> tuple[float, float, float]:
    """A follower's Newton-step terms fixed for a control step: ``x + v*tau``,
    its predicted position at zero input, and ``lo, hi``, its acceleration
    box joined with the velocity bounds on the predicted next step.  The
    velocity-derived edges are pulled in by a hair so the predicted velocity
    stays inside [v_min, v_max] after floating-point rounding.
    """
    v = measured.v
    guard = 1e-9
    lo = max(config.a_min, (config.v_min - v) / config.tau + guard)
    hi = min(config.a_max, (config.v_max - v) / config.tau - guard)
    if lo > hi:  # degenerate box from an out-of-bounds velocity; stay put
        lo = hi = min(max((lo + hi) / 2.0, config.a_min), config.a_max)
    return measured.x + v * config.tau, lo, hi


def primal_step(
    u: float, px: float, pv: float,
    front_x: float, front_v: float,
    rear_zx: Optional[float], rear_zv: Optional[float],
    lam_front: float, lam_rear: float,
    own: tuple[float, float, float], terms: tuple[float, ...],
) -> float:
    """One follower's new candidate acceleration: the full Newton step on its
    local Lagrangian clipped to the admissible box, which for this convex
    quadratic in u is the exact minimiser over the box.

    ``(px, pv)`` is the follower's broadcast prediction for ``u``, ``own``
    its ``follower_terms`` and ``terms`` the ``newton_terms``.  ``rear_zx``/
    ``rear_zv`` are the successor's last backward report, None for the last
    follower.  Raises NumericalError on a non-finite gradient.
    """
    tau, tau2, dpx, dz, q_alpha, q2b, ptau, L_veh, delta, hess, hess_rear = terms
    base_x, lo, hi = own
    # u*dpx rounds differently from the broadcast's u*tau*tau/2.0; the
    # velocity v + u*tau is the broadcast one exactly.
    x_u = base_x + u * dpx
    z = front_x - x_u - (L_veh + ptau * pv + delta)
    zp = front_v - pv
    grad = q_alpha * z * dz + q2b * zp * -tau + tau2 * u + lam_front * -dz
    if rear_zx is not None:
        # Shift the report, made against the broadcast, by this candidate's
        # motion; the velocity shift is 0.0, added so -0.0 still becomes 0.0.
        rzx = rear_zx + (x_u - px)
        rzv = rear_zv + 0.0
        grad += q_alpha * rzx * dpx + q2b * rzv * tau + lam_rear * -dpx
        hess = hess_rear
    if not -math.inf < grad < math.inf:
        raise NumericalError(f"non-finite gradient {grad} at u={u}, front=({front_x}, {front_v})")
    # min(max(step, lo), hi) in value, as lo <= hi, without two builtin calls.
    step = u + -grad / hess
    return lo if step < lo else hi if step > hi else step


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
    channel: V2VChannel,
    config: SimConfig,
    leader_u: float = 0.0,
    warm_start: Optional[Sequence[float]] = None,
) -> ControlOutcome:
    """Execute the full double loop for one control step.

    Every iteration round passes both directions through ``channel`` (where
    the attack bias is injected), then updates all followers in a synchronized
    Jacobi sweep.  The returned accelerations are for the next control step;
    the platoon's currently applied accelerations are untouched during the
    loop, and are its first candidates unless ``warm_start`` is given.
    Deterministic: identical inputs produce bit-identical outcomes.
    """
    cfg = config
    n = platoon.n
    tau = cfg.tau
    k = platoon.control_step
    followers = platoon.followers
    terms = newton_terms(cfg)
    ptau, L_veh, delta = terms[6:9]
    own = [follower_terms(f, cfg) for f in followers]

    leader_x, leader_v = predict(platoon.leader, leader_u, tau)
    u = [f.u for f in followers] if warm_start is None else list(warm_start)
    if len(u) != n:
        raise ValueError(f"warm_start needs {n} entries, got {len(u)}")
    u = [min(max(ui, lo), hi) for ui, (_, lo, hi) in zip(u, own)]

    px = [0.0] * n
    pv = [0.0] * n
    for i in range(n):
        px[i], pv[i] = predict(followers[i], u[i], tau)

    # Last received values per follower (index 0 = fv1), kept on a drop; at
    # first the benign expectation forward, 0.0 backward (last follower: None).
    fx = [px[i] + cfg.nominal_gap(pv[i]) for i in range(n)]
    fv = list(pv)
    rzx: list[Optional[float]] = [0.0] * (n - 1) + [None]
    rzv: list[Optional[float]] = [0.0] * (n - 1) + [None]

    lam = [0.0] * n
    iterations_used = 0
    converged = False

    for t in range(cfg.max_iterations):
        forward = channel.corrupt(Direction.FORWARD, [leader_x, *px], [leader_v, *pv], t, k)
        for i, got in enumerate(forward):
            if got is not None:
                fx[i], fv[i] = got

        # spacing_error inline on the unpacked terms (the same bits), and the
        # relative speed.
        z = [fx[i] - px[i] - (L_veh + ptau * pv[i] + delta) for i in range(n)]
        zp = [fv[i] - pv[i] for i in range(n)]
        backward = channel.corrupt(Direction.BACKWARD, [0.0, *z], [0.0, *zp], t, k)
        for i, got in enumerate(backward):
            if got is not None:
                rzx[i], rzv[i] = got

        # Jacobi sweep: follower i's step reads only its own (px, pv), so
        # each prediction can move on as soon as its step is taken.
        deltas = [0.0] * n
        for i in range(n):
            lam_rear = lam[i + 1] if i < n - 1 else 0.0
            try:
                step = primal_step(
                    u[i], px[i], pv[i], fx[i], fv[i], rzx[i], rzv[i], lam[i], lam_rear,
                    own[i], terms,
                )
            except NumericalError as exc:
                raise NumericalError(
                    f"follower {i + 1}, control step {k}, iteration {t}: {exc}"
                ) from exc
            deltas[i] = step - u[i]
            u[i] = step
            px[i], pv[i] = predict(followers[i], step, tau)
        iterations_used = t + 1

        if primal_exit(deltas, cfg.primal_tol):
            gaps = [fx[i] - px[i] for i in range(n)]
            safeties = [cfg.safety_gap(pv[i]) + cfg.dual_margin for i in range(n)]
            if all(gap >= safety for gap, safety in zip(gaps, safeties)):
                converged = True
                break
            lam = dual_update(lam, gaps, safeties, cfg)

    gap_front = [fx[i] - px[i] for i in range(n)]
    gap_rear = [
        None if rzx[i] is None
        else rzx[i] + (gap_front[i] - spacing_error(fx[i], px[i], pv[i], cfg))
        for i in range(n)
    ]
    return ControlOutcome(
        u_next=tuple(u),
        iterations_used=iterations_used,
        converged=converged,
        front_x=tuple(fx),
        front_v=tuple(fv),
        gap_front=tuple(gap_front),
        gap_rear=tuple(gap_rear),
    )


def check_constraints(platoon: PlatoonState, config: SimConfig) -> list[ConstraintViolation]:
    """Evaluate the acceleration, velocity and safety-gap constraints on a
    platoon just stepped: each follower's applied ``u`` and the ``v`` and
    gap it reached."""
    violations = []
    prev_x = platoon.leader.x
    for i, state in enumerate(platoon.followers, start=1):
        u, v = state.u, state.v
        if not config.a_min <= u <= config.a_max:
            violations.append(
                ConstraintViolation(i, "acceleration", u, config.a_max if u > config.a_max else config.a_min)
            )
        if not config.v_min <= v <= config.v_max:
            violations.append(
                ConstraintViolation(i, "velocity", v, config.v_max if v > config.v_max else config.v_min)
            )
        safety = config.safety_gap(v)
        gap = prev_x - state.x
        if gap < safety:
            violations.append(ConstraintViolation(i, "safety_gap", gap, safety))
        prev_x = state.x
    return violations
