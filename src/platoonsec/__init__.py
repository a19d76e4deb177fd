"""Deterministic MPC platoon simulation with V2V bias-injection attacks and
dual-stage (comparator + online ELM) anomaly detection."""

from .attack_engine import (
    AttackCase,
    AttackCaseError,
    BiasMatrices,
    BiasParams,
    bias_waveform,
    iter_attack_value_cal,
    iter_channel_bias,
    parse_attack_case,
    stealth_mask,
)
from .cli_runner import (
    LeaderProfile,
    RunResult,
    Scenario,
    load_scenario,
    replay_detection,
    run_scenario,
    scenario_from_dict,
    simulate,
)
from .detection import (
    AnomalyEvent,
    ComparatorConfig,
    DetectionConfig,
    DetectorState,
    ElmModel,
    NormalizationState,
    comparator_check,
    create_elm,
    detect_anomaly,
    detect_step,
    elm_fit,
    elm_predict,
    minmax_fit,
    minmax_inverse,
    minmax_transform,
    sliding_window,
    update_or_freeze,
)
from .dynamics import step_platoon, step_vehicle
from .metrics import (
    ImpactClass,
    ImpactReport,
    acceleration_envelope,
    build_impact_report,
    classify_impact,
    time_headway,
)
from .mpc_controller import (
    ControlOutcome,
    NumericalError,
    check_constraints,
    cost,
    dual_update,
    predict,
    primal_step,
    relative_speed,
    run_control_step,
    spacing_error,
)
from .platoon_model import (
    ConfigError,
    PlatoonState,
    SimConfig,
    SpacingState,
    VehicleState,
    initial_platoon,
    spacing_states,
)
from .v2v_channel import (
    ChannelId,
    Direction,
    DropRule,
    V2VChannel,
)

__version__ = "0.1.0"
