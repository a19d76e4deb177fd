"""Deterministic MPC platoon simulation with V2V bias-injection attacks and
dual-stage (comparator + online ELM) anomaly detection."""

from . import cli_runner  # so that a bare ``import platoonsec`` reaches it

__version__ = "0.1.0"
