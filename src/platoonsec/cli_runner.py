"""End-to-end scenario orchestration and the command-line surface.

A scenario file drives the per-step pipeline: generate bias matrices for the
step, run the controller's iteration loop with the corrupted channel, advance
the plant, run detection, accumulate metrics.  Outputs are a trace CSV, an
anomaly CSV and an impact report; everything is deterministic given the
scenario seed.

Exit codes: 0 ok, 1 config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import yaml

from .attack_engine import (
    ATTACK_LIST_KEYS,
    AttackCase,
    AttackCaseError,
    iter_attack_value_cal,
    parse_attack_case,
)
from .detection import (
    ANOMALY_CSV_COLUMNS,
    AnomalyEvent,
    ComparatorConfig,
    DetectionConfig,
    DetectionError,
    DetectorState,
    NumericalFitError,
    POS_ANOM,
    VEL_ANOM,
    detect_step,
)
from .dynamics import step_platoon
from .metrics import ImpactReport, build_impact_report, format_impact_report, time_headway
from .mpc_controller import (
    ConstraintViolation,
    NumericalError,
    PerceptionRecord,
    check_constraints,
    run_control_step,
)
from .platoon_model import ConfigError, SimConfig, initial_platoon
from .v2v_channel import Direction, DropRule, V2VChannel

@dataclass(frozen=True)
class LeaderProfile:
    """Externally chosen leader motion: initial speed plus piecewise-constant
    accelerations, each phase starting at a control step."""

    speed: float = 30.0
    phases: tuple[tuple[int, float], ...] = ()

    def accel_at(self, k: int) -> float:
        accel = 0.0
        for start, value in self.phases:
            if start <= k:
                accel = value
        return accel


@dataclass(frozen=True)
class OutputFlags:
    trace: bool = True
    anomalies: bool = True
    impact: bool = True


@dataclass(frozen=True)
class Scenario:
    sim: SimConfig
    leader: LeaderProfile
    attack: AttackCase
    detection: DetectionConfig
    seed: int = 0
    detection_enabled: bool = True
    drops: tuple[DropRule, ...] = ()
    output: OutputFlags = OutputFlags()


@dataclass(frozen=True)
class TraceRow:
    control_step: int
    vehicle_id: int
    x: float
    v: float
    u: float
    gap_front: float
    headway: float
    comparator_flag: bool
    elm_pos_pred: Optional[float]
    elm_vel_pred: Optional[float]
    pos_anom: bool
    vel_anom: bool


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))


@dataclass(frozen=True)
class StepOutcome:
    control_step: int
    iterations_used: int
    converged: bool


@dataclass
class RunResult:
    rows: list[TraceRow]
    events: list[AnomalyEvent]
    impact: ImpactReport
    step_outcomes: list[StepOutcome]
    violations: list[tuple[int, ConstraintViolation]]
    flags_by_step: list[tuple[bool, ...]]


def _leader_velocity_check(sim: SimConfig, leader: LeaderProfile) -> None:
    v = leader.speed
    if not sim.v_min <= v <= sim.v_max:
        raise ConfigError(f"leader speed {v} outside [{sim.v_min}, {sim.v_max}]")
    for k in range(sim.total_control_steps):
        v += leader.accel_at(k) * sim.tau
        if not sim.v_min <= v <= sim.v_max:
            raise ConfigError(
                f"leader profile drives velocity to {v:.3f} at step {k + 1}, "
                f"outside [{sim.v_min}, {sim.v_max}]"
            )


def simulate(scenario: Scenario) -> RunResult:
    """Run the whole scenario in memory.  Pipeline order per control step:
    bias generation, message exchange with injection inside the controller
    loop, plant step, detection, metrics accumulation."""
    sim = scenario.sim
    n = sim.n
    platoon = initial_platoon(sim, scenario.leader.speed)
    detector = DetectorState(n, scenario.detection) if scenario.detection_enabled else None

    rows: list[TraceRow] = []
    events: list[AnomalyEvent] = []
    step_outcomes: list[StepOutcome] = []
    violations: list[tuple[int, ConstraintViolation]] = []
    flags_by_step: list[tuple[bool, ...]] = []
    headway_series: list[list[float]] = [[] for _ in range(n)]
    accel_series: list[list[float]] = [[] for _ in range(n)]

    prev_u: Sequence[float] = (0.0,) * n
    for k in range(sim.total_control_steps):
        leader_u = scenario.leader.accel_at(k)
        bias = iter_attack_value_cal(n, k, sim.max_iterations, scenario.attack)
        channel = V2VChannel(bias=bias, drops=scenario.drops)
        outcome = run_control_step(platoon, channel, sim, leader_u, warm_start=prev_u)
        step_outcomes.append(StepOutcome(k, outcome.iterations_used, outcome.converged))
        for violation in check_constraints(outcome.u_next, platoon, sim, leader_u):
            violations.append((k, violation))

        if detector is not None:
            detection = detect_step(outcome.perception, detector, k)
            events.extend(detection.events)
            flags_by_step.append(detection.flags)
        else:
            detection = None
            flags_by_step.append((False,) * n)

        hits = {(e.kind, e.vehicle) for e in (detection.events if detection else ())}
        for i in range(n):
            obs: PerceptionRecord = outcome.perception[i]
            follower = platoon.followers[i]
            headway = time_headway(platoon.gap(i + 1), follower.v, sim.L_veh)
            headway_series[i].append(headway)
            accel_series[i].append(outcome.u_next[i])
            rows.append(
                TraceRow(
                    control_step=k,
                    vehicle_id=i + 1,
                    x=obs.front_x,
                    v=obs.front_v,
                    u=outcome.u_next[i],
                    gap_front=obs.gap_front,
                    headway=headway,
                    comparator_flag=bool(detection.comparator_flags[i]) if detection else False,
                    elm_pos_pred=detection.pos_predictions[i] if detection else None,
                    elm_vel_pred=detection.vel_predictions[i] if detection else None,
                    pos_anom=(POS_ANOM, i + 1) in hits,
                    vel_anom=(VEL_ANOM, i + 1) in hits,
                )
            )

        platoon = step_platoon(platoon, leader_u, outcome.u_next, sim.tau)
        prev_u = outcome.u_next

    # Short smoke runs still get a report: the classification warmup cannot
    # swallow the whole series.
    warmup = min(10, sim.total_control_steps - 1)
    impact = build_impact_report(headway_series, accel_series, warmup=warmup)
    return RunResult(
        rows=rows,
        events=events,
        impact=impact,
        step_outcomes=step_outcomes,
        violations=violations,
        flags_by_step=flags_by_step,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trace_csv(rows: Sequence[TraceRow], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col)) for col in TRACE_COLUMNS])


def write_anomaly_csv(events: Sequence[AnomalyEvent], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ANOMALY_CSV_COLUMNS)
        for event in events:
            writer.writerow(
                [
                    event.kind,
                    event.control_step,
                    event.vehicle,
                    repr(event.actual),
                    repr(event.predicted),
                ]
            )


def write_impact_csv(result: RunResult, path: Path) -> None:
    report = result.impact
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["control_step", "vehicle", "headway", "acceleration", "safe_lo", "safe_hi"]
        )
        for row in result.rows:
            writer.writerow(
                [
                    row.control_step,
                    row.vehicle_id,
                    repr(row.headway),
                    repr(row.u),
                    repr(report.safe_lo),
                    repr(report.safe_hi),
                ]
            )


def run_scenario(scenario: Scenario, out_dir: Path) -> dict[str, Path]:
    """Simulate and serialize all requested artifacts.  Returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = simulate(scenario)
    paths: dict[str, Path] = {}
    if scenario.output.trace:
        paths["trace"] = out_dir / "trace.csv"
        write_trace_csv(result.rows, paths["trace"])
    if scenario.output.anomalies:
        paths["anomalies"] = out_dir / "anomalies.csv"
        write_anomaly_csv(result.events, paths["anomalies"])
    if scenario.output.impact:
        paths["impact"] = out_dir / "impact.txt"
        paths["impact_csv"] = out_dir / "impact.csv"
        paths["impact"].write_text(format_impact_report(result.impact))
        write_impact_csv(result, paths["impact_csv"])
    return paths


# ---------------------------------------------------------------------------
# input documents


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    """NaN, the infinities and ints past the float range fail."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def _is_interval(value: Any) -> bool:
    return value is None or (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_int(v) and v >= 0 for v in value)
        and value[0] <= value[1]
    )


def _is_profile(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(phase, (list, tuple))
        and len(phase) == 2
        and _is_int(phase[0])
        and phase[0] >= 0
        and _is_finite(phase[1])
        for phase in value
    )


# A rule is (check, what the check requires).
_BOOL = (lambda v: isinstance(v, bool), "a bool")
_COUNT = (lambda v: _is_int(v) and v >= 1, "an int >= 1")
_NATURAL = (lambda v: _is_int(v) and v >= 0, "an int >= 0")
_FINITE = (_is_finite, "a finite number")
_POSITIVE = (lambda v: _is_finite(v) and v > 0, "a finite number > 0")
_INTERVAL = (_is_interval, "[lo, hi] with non-negative ints lo <= hi")

# The tables map a section's keys to (default, rule).  A default that fails
# its rule makes the key required.
_SIM_KEYS = {
    f.name: (f.default, (_is_int, "an int") if f.type == "int" else _FINITE)
    for f in fields(SimConfig)
}
_LEADER_KEYS = {
    "speed": (LeaderProfile.speed, _FINITE),
    "profile": ((), (_is_profile, "a list of [start_step >= 0, acceleration] pairs")),
}
_OUTPUT_KEYS = {f.name: (f.default, _BOOL) for f in fields(OutputFlags)}
# The keys after the comparator's are DetectionConfig fields of the same name.
_DETECTION_KEYS = {
    "enabled": (True, _BOOL),
    "comparator_threshold": (2.0, _POSITIVE),
    "nominal_diff": (0.0, _FINITE),
    "pos_threshold": (2.5, _POSITIVE),
    "vel_threshold": (2.0, _POSITIVE),
    "hidden_count": (50, _COUNT),
    "ridge": (1e-6, _POSITIVE),
    "lag": (2, _COUNT),
    "step_forward": (1, _COUNT),
    "norm_window": (200, _COUNT),
    "warmup_steps": (12, _NATURAL),
}
_DROP_KEYS = {
    "direction": (None, (lambda v: v in ("forward", "backward"), "'forward' or 'backward'")),
    "sender": (None, (_is_int, "an int")),
    "control_steps": (None, _INTERVAL),
    "iterations": (None, _INTERVAL),
}
_CASE_KEYS = {"n": (SimConfig.n, _COUNT), "max_iterations": (SimConfig.max_iterations, _COUNT)}


def _check(where: str, value: Any, rule: tuple) -> Any:
    check, requirement = rule
    if not check(value):
        raise ConfigError(f"{where} must be {requirement}, got {value!r}")
    return value


def _read_section(
    doc: Any, where: str, table: Mapping, noun: Optional[str], widen: bool = False
) -> dict[str, Any]:
    """Every key of ``table`` from the optional section ``doc`` at ``where``,
    defaults filled in.  A key outside the table is not a ``noun``; with no
    noun, other code reads it.  ``widen`` makes ints floats where the default
    is a float."""
    if doc is None:
        doc = {}
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {doc!r}")
    prefix = f"{where}." if where else ""
    for key in doc:
        if noun is not None and key not in table:
            raise ConfigError(f"{prefix}{key} is not a {noun}")
    values = {}
    for key, (default, rule) in table.items():
        value = _check(prefix + key, doc.get(key, default), rule)
        values[key] = float(value) if widen and isinstance(default, float) else value
    return values


def _load_doc(path: Path, what: str) -> Mapping:
    """A YAML document that must be a mapping; an empty file reads as ``{}``."""
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if doc is None:
        return {}
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{what} must be a mapping, got {type(doc).__name__}")
    return doc


def _detection_from_doc(doc: Mapping) -> tuple[int, DetectionConfig, bool]:
    """The seed, the detection config and whether detection is enabled, read
    from a scenario or replay config document."""
    seed = _check("seed", doc.get("seed", 0), _NATURAL)
    section = doc.get("detection")
    values = _read_section(section, "detection", _DETECTION_KEYS, "detection key", widen=True)
    enabled = values.pop("enabled")
    comparator = ComparatorConfig(
        threshold=values.pop("comparator_threshold"), nominal_diff=values.pop("nominal_diff")
    )
    return seed, DetectionConfig(comparator=comparator, seed=seed, **values), enabled


def _drops_from_doc(entries: Any, sim: SimConfig) -> tuple[DropRule, ...]:
    """Parse the ``drops`` list.  Senders are vehicle indices (0 = leader):
    vehicles 0..n-1 send forward, 2..n send backward.

    A rule that can never change a run is rejected: one whose iterations all
    lie past the round cap, and a leader rule that starts after round 0 (the
    leader's prediction is fixed within a control step, so holding it from a
    later round holds the live value).  Control steps past the end of the run
    are accepted, because ``--steps`` may shorten a run."""
    if entries is None:
        return ()
    if not isinstance(entries, (list, tuple)):
        raise ConfigError(f"drops must be a list, got {entries!r}")
    rules = []
    for i, entry in enumerate(entries):
        where = f"drops[{i}]"
        rule = _read_section(entry, where, _DROP_KEYS, "drop-rule key")
        direction, sender = Direction(rule["direction"]), rule["sender"]
        lo, hi = (0, sim.n - 1) if direction is Direction.FORWARD else (2, sim.n)
        if not lo <= sender <= hi:
            raise ConfigError(
                f"{where}.sender must be an int in {lo}..{hi} for a {direction.value} "
                f"rule with n={sim.n}, got {sender!r}"
            )
        steps, iterations = (rule[key] and tuple(rule[key]) for key in ("control_steps", "iterations"))
        if iterations is not None and iterations[0] >= sim.max_iterations:
            raise ConfigError(
                f"{where}.iterations {list(iterations)} starts at or past "
                f"max_iterations={sim.max_iterations}, so the rule never fires"
            )
        if sender == 0 and iterations is not None and iterations[0] != 0:
            raise ConfigError(
                f"{where}.iterations must start at 0 for a leader rule, got "
                f"{list(iterations)}: the leader's prediction is fixed within a control step"
            )
        rules.append(DropRule(direction, sender, control_steps=steps, iterations=iterations))
    return tuple(rules)


def scenario_from_dict(doc: Mapping[str, Any]) -> Scenario:
    if not isinstance(doc, Mapping):
        raise ConfigError(f"scenario document must be a mapping, got {type(doc).__name__}")
    unknown = set(doc) - {"sim", "leader", "attack", "drops", "detection", "seed", "output"}
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown, key=str)}")
    sim = SimConfig(**_read_section(doc.get("sim"), "sim", _SIM_KEYS, "SimConfig field"))
    leader = _read_section(doc.get("leader"), "leader", _LEADER_KEYS, "leader key")
    leader = LeaderProfile(
        speed=float(leader["speed"]),
        phases=tuple((start, float(accel)) for start, accel in leader["profile"]),
    )
    _leader_velocity_check(sim, leader)
    seed, detection, enabled = _detection_from_doc(doc)
    return Scenario(
        sim=sim,
        leader=leader,
        attack=parse_attack_case(doc.get("attack"), sim.n),
        detection=detection,
        seed=seed,
        detection_enabled=enabled,
        drops=_drops_from_doc(doc.get("drops"), sim),
        output=OutputFlags(**_read_section(doc.get("output"), "output", _OUTPUT_KEYS, "output key")),
    )


def load_scenario(path: Path) -> Scenario:
    return scenario_from_dict(_load_doc(path, "scenario document"))


# ---------------------------------------------------------------------------
# standalone bias generation


def generate_bias_files(case_path: Path, k: int, out_dir: Path) -> dict[str, Path]:
    """Emit the four bias matrices for control step k as CSV files
    (rows = iteration index, columns = followers).

    ``n`` and ``max_iterations`` come from the top level of the case file,
    else from its ``sim`` section; the seven lists live under ``attack``.
    Other keys are left alone, so a scenario file is a case file too."""
    doc = _load_doc(case_path, "case document")
    if misplaced := [key for key in ATTACK_LIST_KEYS if key in doc]:
        raise ConfigError(f"{misplaced[0]} must be under attack:, not at the top level")
    in_sim = _read_section(doc.get("sim"), "sim", _CASE_KEYS, None)
    table = {key: (in_sim[key], rule) for key, (_, rule) in _CASE_KEYS.items()}
    n, max_iterations = _read_section(doc, "", table, None).values()
    bias = iter_attack_value_cal(n, k, max_iterations, parse_attack_case(doc.get("attack"), n))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    header = [f"fv{i}" for i in range(1, n + 1)]
    for name in ("x_ite", "v_ite", "zx_ite", "zv_ite"):
        path = out_dir / f"{name}_bias.csv"
        matrix = getattr(bias, f"{name}_bias")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in matrix:
                writer.writerow([repr(float(value)) for value in row])
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# offline detection replay


class TraceFormatError(ValueError):
    pass


def _read_trace(trace_path: Path) -> list[tuple[list[PerceptionRecord], list[bool]]]:
    """Each control step's observations and comparator flags, in vehicle order.

    Every row must be complete and well formed, and control steps 0..K must
    each hold vehicles 1..n exactly once, as a live run writes them; anything
    else is a ``TraceFormatError`` naming the line or the control step.
    """
    by_step: dict[int, dict[int, tuple[PerceptionRecord, bool]]] = {}
    with open(trace_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return []
        missing = [c for c in TRACE_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise TraceFormatError(f"trace is missing columns: {missing}")
        for record in reader:
            where = f"{trace_path} line {reader.line_num}"
            if None in record or None in record.values():
                fields_wanted = len(reader.fieldnames)
                raise TraceFormatError(f"{where} does not have the header's {fields_wanted} fields")
            try:
                k, vehicle = int(record["control_step"]), int(record["vehicle_id"])
                x, v, gap = float(record["x"]), float(record["v"]), float(record["gap_front"])
            except ValueError as exc:
                raise TraceFormatError(f"{where}: {exc}") from None
            if k < 0 or vehicle < 1:
                raise TraceFormatError(f"{where}: need control_step >= 0 and vehicle_id >= 1")
            if not (math.isfinite(x) and math.isfinite(v) and math.isfinite(gap)):
                raise TraceFormatError(f"{where}: x, v and gap_front must be finite")
            if record["comparator_flag"] not in ("0", "1"):
                raise TraceFormatError(f"{where}: comparator_flag must be 0 or 1")
            step = by_step.setdefault(k, {})
            if vehicle in step:
                raise TraceFormatError(f"{where} repeats vehicle {vehicle} of control step {k}")
            observation = PerceptionRecord(
                vehicle=vehicle, front_x=x, front_v=v, gap_front=gap,
                spacing_error=0.0, rear_spacing_error=None,
            )
            step[vehicle] = observation, record["comparator_flag"] == "1"
    n = max((max(step) for step in by_step.values()), default=0)
    steps = []
    for k in range(len(by_step)):
        if k not in by_step:
            raise TraceFormatError(f"{trace_path} has no rows for control step {k}")
        step = by_step[k]
        if len(step) != n:
            lacking = min(set(range(1, n + 1)) - set(step))
            raise TraceFormatError(f"{trace_path}: control step {k} lacks vehicle {lacking}")
        rows = [step[vehicle] for vehicle in range(1, n + 1)]
        steps.append(([obs for obs, _ in rows], [flag for _, flag in rows]))
    return steps


def replay_detection(trace_path: Path, detection: DetectionConfig) -> list[AnomalyEvent]:
    """Re-run the ELM stage over a recorded trace.

    The monitored series and the comparator flags are read back from the
    trace, so results are identical to the live run under the same detection
    config and seed.
    """
    steps = _read_trace(trace_path)
    if not steps:
        return []
    detector = DetectorState(len(steps[0][0]), detection)
    events: list[AnomalyEvent] = []
    for k, (observations, comparator_flags) in enumerate(steps):
        result = detect_step(observations, detector, k, comparator_flags_override=comparator_flags)
        events.extend(result.events)
    return events


# ---------------------------------------------------------------------------
# CLI


def _cmd_run(args) -> dict[str, Path]:
    scenario = load_scenario(Path(args.scenario))
    if args.seed is not None:
        _check("--seed", args.seed, _NATURAL)
        scenario = replace(
            scenario,
            seed=args.seed,
            detection=replace(scenario.detection, seed=args.seed),
        )
    if args.steps is not None:
        scenario = replace(scenario, sim=scenario.sim.with_overrides(total_control_steps=args.steps))
        _leader_velocity_check(scenario.sim, scenario.leader)
    return run_scenario(scenario, Path(args.out))


def _cmd_generate_bias(args) -> dict[str, Path]:
    _check("--k", args.k, _NATURAL)
    return generate_bias_files(Path(args.case), args.k, Path(args.out))


def _cmd_replay_detect(args) -> dict[str, Path]:
    _, detection, _ = _detection_from_doc(_load_doc(Path(args.config), "config document"))
    events = replay_detection(Path(args.trace), detection)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_anomaly_csv(events, out_dir / "anomalies.csv")
    return {"anomalies": out_dir / "anomalies.csv"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoonsec",
        description="MPC platoon simulator with V2V bias attacks and anomaly detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario end to end")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--steps", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_bias = sub.add_parser("generate-bias", help="emit bias matrices for one control step")
    p_bias.add_argument("--case", required=True)
    p_bias.add_argument("--k", type=int, required=True)
    p_bias.add_argument("--out", required=True)
    p_bias.set_defaults(func=_cmd_generate_bias)

    p_replay = sub.add_parser("replay-detect", help="re-run detection over a recorded trace")
    p_replay.add_argument("--trace", required=True)
    p_replay.add_argument("--config", required=True)
    p_replay.add_argument("--out", required=True)
    p_replay.set_defaults(func=_cmd_replay_detect)
    return parser


# What bad input raises; main() reports each as a config error, exit 1.
_INPUT_ERRORS = (
    ConfigError, AttackCaseError, DetectionError, TraceFormatError, FileNotFoundError, yaml.YAMLError
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        paths = args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, NumericalFitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
