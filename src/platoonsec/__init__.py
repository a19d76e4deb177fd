"""Deterministic MPC platoon simulation with V2V bias-injection attacks and
dual-stage (comparator + online ELM) anomaly detection."""

from . import cli_runner  # so that a bare ``import platoonsec`` reaches it
from .attack_engine import AttackCase, parse_attack_case
from .dynamics import step_platoon, step_vehicle
from .mpc_controller import (
    check_constraints,
    cost,
    dual_update,
    predict,
    relative_speed,
    run_control_step,
    spacing_error,
)
from .platoon_model import ConfigError, SimConfig, initial_platoon

__version__ = "0.1.0"
