"""Discrete-time longitudinal plant.

The update is the exact closed form

    v' = v + u * tau
    x' = x + v * tau + u * tau^2 / 2

so there is no integration error beyond floating-point rounding.  The plant
applies the commanded acceleration unclipped; constraint satisfaction is the
controller's job.
"""

from __future__ import annotations

from typing import Sequence

from .platoon_model import PlatoonState, VehicleState


def predict(state: VehicleState, u: float, tau: float) -> tuple[float, float]:
    """Position and velocity one control step on under constant acceleration u."""
    return state.x + state.v * tau + u * tau * tau / 2.0, state.v + u * tau


def step_vehicle(state: VehicleState, u: float, tau: float) -> VehicleState:
    """Advance one vehicle one control step under constant acceleration u."""
    x, v = predict(state, u, tau)
    return VehicleState(x=x, v=v, u=u)


def step_platoon(
    platoon: PlatoonState,
    leader_u: float,
    follower_u: Sequence[float],
    tau: float,
) -> PlatoonState:
    """Advance every vehicle one step; each update reads only its own prior state."""
    if len(follower_u) != platoon.n:
        raise ValueError(
            f"expected {platoon.n} follower accelerations, got {len(follower_u)}"
        )
    return PlatoonState(
        leader=step_vehicle(platoon.leader, leader_u, tau),
        followers=tuple(
            step_vehicle(s, u, tau) for s, u in zip(platoon.followers, follower_u)
        ),
        control_step=platoon.control_step + 1,
    )
