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
backward spacing terms and gradients, in one body whether or not the step
has a channel: ``V2VChannel.corrupt`` hands the round its bias rows and live
links, and a step without a channel has zero rows and every link live.

The sweep returns its largest change to any u; the primal phase stops once
that is at most ``primal_tol``.  The dual phase, ``dual_update``, is then one
pass over the pairs: it checks that all perceived gaps clear the adaptive
safety gap (tightened by ``dual_margin``), and takes the multipliers' projected
gradient ascent in place, raising violated pairs' and decaying slack ones'.
A cap of ``max_iterations`` rounds per control step bounds the loop.

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
from .v2v_channel import V2VChannel


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


def follower_terms(measured: VehicleState, config: SimConfig) -> tuple[float, float, float, float]:
    """A follower's Newton-step terms fixed for a control step: ``x + v*tau``,
    its predicted position at zero input, ``v``, and ``lo, hi``, its
    acceleration box joined with the velocity bounds on the predicted next
    step.  The velocity-derived edges are pulled in by a hair so the predicted
    velocity stays inside [v_min, v_max] after floating-point rounding.
    """
    v = measured.v
    guard = 1e-9
    lo = max(config.a_min, (config.v_min - v) / config.tau + guard)
    hi = min(config.a_max, (config.v_max - v) / config.tau - guard)
    if lo > hi:  # degenerate box from an out-of-bounds velocity; stay put
        lo = hi = min(max((lo + hi) / 2.0, config.a_min), config.a_max)
    return measured.x + v * config.tau, v, lo, hi


def primal_sweep(
    u: list[float], px: list[float], pv: list[float],
    fx: Sequence[float], fv: Sequence[float],
    rzx: Sequence[Optional[float]], rzv: Sequence[Optional[float]],
    lam: Sequence[float], own: Sequence[tuple[float, float, float, float]],
    terms: tuple[float, ...], k: int, t: int,
) -> float:
    """One Jacobi round of primal steps: each follower's full Newton step on
    its local Lagrangian clipped to the admissible box, which for this convex
    quadratic in u is the exact minimiser over the box.  Returns the largest
    ``|change|`` in any follower's u, which the primal stop compares with
    ``primal_tol``.

    Entry i of each list is follower i's: ``u`` its candidate and ``(px, pv)``
    its broadcast prediction, all three replaced in place by the step; ``fx``/
    ``fv`` what it received forward; ``rzx``/``rzv`` its successor's last
    backward report, None without one; ``own`` its ``follower_terms``; and
    ``lam[i]``, ``lam[i + 1]`` its front and rear pairs' multipliers, the rear
    one read only with a report.  A step reads only its own entries, so the
    sweep is Jacobi though it writes as it goes.  A non-finite gradient raises
    NumericalError naming the follower, control step ``k`` and round ``t``.
    """
    tau, tau2, dpx, dz, q_alpha, q2b, ptau, L_veh, delta, hess_front, hess_rear = terms
    inf = math.inf
    largest = 0.0
    for i, (base_x, v, lo, hi) in enumerate(own):
        ui = u[i]
        pvi = pv[i]
        # ui*dpx rounds differently from the broadcast's ui*tau*tau/2.0; the
        # velocity v + ui*tau is the broadcast one exactly.
        x_u = base_x + ui * dpx
        z = fx[i] - x_u - (L_veh + ptau * pvi + delta)
        zp = fv[i] - pvi
        grad = q_alpha * z * dz - q2b * zp * tau + tau2 * ui - lam[i] * dz
        rear_zx = rzx[i]
        if rear_zx is None:
            hess = hess_front
        else:
            # Shift the report, made against the broadcast, by this candidate's
            # motion; the velocity shift is 0.0, added so -0.0 still becomes 0.0.
            rear_zx += x_u - px[i]
            grad += q_alpha * rear_zx * dpx + q2b * (rzv[i] + 0.0) * tau - lam[i + 1] * dpx
            hess = hess_rear
        if not -inf < grad < inf:
            raise NumericalError(f"follower {i + 1}, control step {k}, iteration {t}: "
                                 f"non-finite gradient {grad} at u={ui}, front=({fx[i]}, {fv[i]})")
        # min(max(step, lo), hi) in value, as lo <= hi, without two builtin calls.
        step = ui - grad / hess
        step = lo if step < lo else hi if step > hi else step
        change = step - ui if step > ui else ui - step
        if change > largest:
            largest = change
        u[i] = step
        # dynamics.predict's operations in its order, on x + v*tau.
        px[i] = base_x + step * tau * tau / 2.0
        pv[i] = v + step * tau
    return largest


def dual_update(
    lam: list[float], fx: Sequence[float], px: Sequence[float], pv: Sequence[float],
    config: SimConfig,
) -> bool:
    """The dual phase, in one pass over the adjacent pairs (pair i fronts
    follower i+1, which received ``fx[i]`` and predicts ``(px[i], pv[i])``).
    Returns whether every perceived gap ``fx[i] - px[i]`` clears the safety
    gap at ``pv[i]`` tightened by ``dual_margin``; a NaN gap does not.

    Each multiplier in ``lam`` takes a step of projected gradient ascent in
    place: violated pairs have it raised in proportion to the violation,
    slack ones (and a NaN gap) decay it toward zero by ``dual_decay``, and it
    never goes negative.
    """
    step, decay = config.dual_step, config.dual_decay
    # SimConfig.safety_gap's operations in its order (p*tau*v is (p*tau)*v).
    L_veh, ptau, margin = config.L_veh, config.p * config.tau, config.dual_margin
    feasible = True
    for i, x in enumerate(px):
        gap = fx[i] - x
        safety = L_veh + ptau * pv[i] + margin
        feasible = feasible and gap >= safety
        violation = safety - gap
        multiplier = lam[i] + step * violation if violation > 0.0 else lam[i] * decay
        # max(multiplier, 0.0) in value and sign, without the builtin call.
        lam[i] = 0.0 if 0.0 > multiplier else multiplier
    return feasible


def run_control_step(
    platoon: PlatoonState,
    channel: Optional[V2VChannel],
    config: SimConfig,
    leader_u: float = 0.0,
) -> ControlOutcome:
    """Execute the full double loop for one control step.

    Every iteration round takes its bias rows and live links from
    ``channel.corrupt`` (None, for a step where nothing is in force, gives
    zero bias on every link), writes what each follower receives forward and
    then backward, and updates all followers in a synchronized Jacobi sweep.
    A follower on a jammed link keeps its last received value.  The returned
    accelerations are for the next control step; the platoon's currently
    applied accelerations are untouched during the loop, and are its first
    candidates.  ``config.max_iterations`` must be at least 1, as the loader
    requires.  Deterministic: identical inputs produce bit-identical
    outcomes.
    """
    cfg = config
    n = platoon.n
    tau = cfg.tau
    k = platoon.control_step
    followers = platoon.followers
    terms = newton_terms(cfg)
    primal_tol = cfg.primal_tol
    ptau, L_veh, delta = terms[6:9]
    own = [follower_terms(f, cfg) for f in followers]

    leader_x, leader_v = predict(platoon.leader, leader_u, tau)
    u = [min(max(f.u, lo), hi) for f, (_, _, lo, hi) in zip(followers, own)]

    broadcast = [predict(f, ui, tau) for f, ui in zip(followers, u)]
    px, pv = [x for x, _ in broadcast], [v for _, v in broadcast]

    # Last received values per follower (index 0 = fv1), kept on a jammed
    # link; at first the benign expectation forward, 0.0 backward (last
    # follower: None).
    fx = [px[i] + cfg.nominal_gap(pv[i]) for i in range(n)]
    fv = list(pv)
    rzx: list[Optional[float]] = [0.0] * (n - 1) + [None]
    rzv: list[Optional[float]] = [0.0] * (n - 1) + [None]

    lam = [0.0] * n
    converged = False

    # A step without a channel runs the round of a zero-bias channel with
    # every link live.  The backward terms are spacing_error inline on the
    # unpacked terms (the same bits) and the relative speed.
    zeros, links = [0.0] * n, range(1, n)
    clear = (zeros, zeros, zeros, zeros, True, links, links)
    for t in range(cfg.max_iterations):
        bx, bv, bzx, bzv, lead, forward, backward = clear if channel is None else channel.corrupt(t)
        if lead:
            fx[0], fv[0] = leader_x, leader_v
        for i in forward:
            fx[i], fv[i] = px[i - 1] + bx[i - 1], pv[i - 1] + bv[i - 1]
        for i in backward:
            rzx[i - 1] = fx[i] - px[i] - (L_veh + ptau * pv[i] + delta) + bzx[i]
            rzv[i - 1] = fv[i] - pv[i] + bzv[i]

        if (primal_sweep(u, px, pv, fx, fv, rzx, rzv, lam, own, terms, k, t) <= primal_tol
                and dual_update(lam, fx, px, pv, cfg)):
            converged = True
            break
    iterations_used = t + 1

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
