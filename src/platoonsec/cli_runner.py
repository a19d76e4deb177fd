"""End-to-end scenario orchestration and the command-line surface.

A run is two passes.  The control pass walks the control steps: generate bias
matrices for the step, run the controller's iteration loop with the corrupted
channel, advance the plant, check constraints.  Detection only watches the
channel and never feeds back into control, so the detection pass then runs
over the recorded channel columns; a replay is that same pass over columns
read back from a trace.  Followers do not couple in detection, so the pass
runs one follower at a time and deals the followers out to forked worker
processes, one per usable CPU.  Outputs are a trace CSV, an anomaly CSV and
an impact report; everything is deterministic given the scenario seed,
whatever the number of workers.

Exit codes: 0 ok, 1 config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import pickle
import signal
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, TextIO

import yaml

from .attack_engine import (
    ATTACK_LIST_KEYS,
    AttackCaseError,
    AttackSlot,
    iter_attack_value_cal,
    parse_attack_case,
)
from .detection import (
    ANOMALY_CSV_COLUMNS,
    AnomalyEvent,
    DetectionConfig,
    DetectionError,
    NumericalFitError,
    POS_ANOM,
    VEL_ANOM,
    VehicleDetection,
    comparator_flags,
    detect_vehicle,
)
from . import detection as detection_module
from .dynamics import step_platoon
from .metrics import ImpactReport, build_impact_report, format_impact_report, time_headway
from .mpc_controller import (
    ConstraintViolation,
    ControlOutcome,
    NumericalError,
    check_constraints,
    run_control_step,
)
from .platoon_model import ConfigError, SimConfig, initial_platoon
from .v2v_channel import Direction, DropRule, V2VChannel

# The detection pass calls detect_vehicle once per follower through this name,
# so that a wrapper bound over it (perfbench's "detect" hook) sees every call.
detect_step = detect_vehicle
# The pass and the forecaster kernels it runs, as this package defines them.
_OWN_DETECTION = (detect_vehicle, detection_module.elm_fit, detection_module.elm_update)


@dataclass(frozen=True)
class LeaderProfile:
    """Externally chosen leader motion: initial speed plus piecewise-constant
    accelerations, each phase starting at a control step."""

    speed: float = 30.0
    phases: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        for i in range(1, len(self.phases)):
            if self.phases[i][0] <= self.phases[i - 1][0]:
                raise ConfigError(
                    f"leader.profile[{i}] starts at step {self.phases[i][0]}, not after "
                    f"leader.profile[{i - 1}]'s {self.phases[i - 1][0]}: start steps must increase"
                )

    def accelerations(self, steps: int) -> list[float]:
        """The acceleration of each control step 0..steps-1, in one walk over
        the phases: 0.0 before the first, then each phase's until the next."""
        starts = [start for start, _ in self.phases] + [steps]
        accels = [0.0] * min(starts[0], steps)
        for (start, accel), end in zip(self.phases, starts[1:]):
            accels += [accel] * (min(end, steps) - start)
        return accels


@dataclass(frozen=True)
class OutputFlags:
    trace: bool = True
    anomalies: bool = True
    impact: bool = True


@dataclass(frozen=True)
class Scenario:
    sim: SimConfig
    leader: LeaderProfile
    attack: tuple[AttackSlot, ...]
    detection: DetectionConfig
    drops: tuple[DropRule, ...] = ()
    output: OutputFlags = OutputFlags()


class TraceRow(NamedTuple):
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


TRACE_COLUMNS = TraceRow._fields


@dataclass
class RunResult:
    rows: list[TraceRow]
    events: list[AnomalyEvent]
    impact: ImpactReport
    step_outcomes: list[ControlOutcome]  # one per control step
    violations: list[tuple[int, ConstraintViolation]]
    flags_by_step: list[tuple[bool, ...]]  # freeze flags: comparator flag or an event


def _leader_velocity_check(sim: SimConfig, leader: LeaderProfile) -> None:
    """Walk the leader's speed over every control step of the run, after
    checking that the run is at most MAX_CONTROL_STEPS long."""
    if sim.total_control_steps > MAX_CONTROL_STEPS:
        raise ConfigError(
            f"sim.total_control_steps must be at most {MAX_CONTROL_STEPS}, "
            f"got {sim.total_control_steps}"
        )
    v = leader.speed
    if not sim.v_min <= v <= sim.v_max:
        raise ConfigError(f"leader speed {v} outside [{sim.v_min}, {sim.v_max}]")
    for k, accel in enumerate(leader.accelerations(sim.total_control_steps)):
        v += accel * sim.tau
        if not sim.v_min <= v <= sim.v_max:
            raise ConfigError(
                f"leader profile drives velocity to {v:.3f} at step {k + 1}, "
                f"outside [{sim.v_min}, {sim.v_max}]"
            )


def simulate(scenario: Scenario) -> RunResult:
    """Run the whole scenario in memory.  The control pass runs each control
    step as bias generation, message exchange with injection inside the
    controller loop, headway, plant step and constraint check; the detection
    pass then reads what the channel delivered, and the rows, events and
    impact report are built from both."""
    sim = scenario.sim
    n = sim.n
    platoon = initial_platoon(sim, scenario.leader.speed)
    step_outcomes: list[ControlOutcome] = []
    headways: list[list[float]] = []
    violations: list[tuple[int, ConstraintViolation]] = []
    for k, leader_u in enumerate(scenario.leader.accelerations(sim.total_control_steps)):
        bias = iter_attack_value_cal(n, k, sim.max_iterations, scenario.attack)
        channel = V2VChannel(bias=bias, drops=scenario.drops)
        outcome = run_control_step(platoon, channel, sim, leader_u)
        step_outcomes.append(outcome)
        headways.append([time_headway(platoon.gap(i + 1), follower.v, sim.L_veh)
                         for i, follower in enumerate(platoon.followers)])
        platoon = step_platoon(platoon, leader_u, outcome.u_next, sim.tau)
        violations.extend((k, violation) for violation in check_constraints(platoon, sim))

    comparator = [comparator_flags(o.gap_front, o.gap_rear, scenario.detection, k)
                  for k, o in enumerate(step_outcomes)]
    detections, events = detect_run(
        list(zip(*(o.front_x for o in step_outcomes))), list(zip(*(o.front_v for o in step_outcomes))),
        list(zip(*comparator)), scenario.detection)
    hits = {(e.kind, e.control_step, e.vehicle) for e in events}
    rows = [TraceRow(
        k, i + 1, o.front_x[i], o.front_v[i], o.u_next[i], o.gap_front[i], headway[i], flags[i],
        detections[i].pos_predictions[k], detections[i].vel_predictions[k],
        (POS_ANOM, k, i + 1) in hits, (VEL_ANOM, k, i + 1) in hits,
    ) for k, (o, headway, flags) in enumerate(zip(step_outcomes, headways, comparator))
        for i in range(n)]

    # Short smoke runs still get a report: the classification warmup cannot
    # swallow the whole series.
    impact = build_impact_report(
        [[row.headway for row in rows[i::n]] for i in range(n)],
        [[row.u for row in rows[i::n]] for i in range(n)],
        warmup=min(10, sim.total_control_steps - 1),
    )
    flagged = [row.comparator_flag or row.pos_anom or row.vel_anom for row in rows]
    return RunResult(
        rows=rows, events=events, impact=impact, step_outcomes=step_outcomes,
        violations=violations, flags_by_step=[tuple(flagged[j:j + n]) for j in range(0, len(rows), n)],
    )


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _workers() -> int:
    """How many processes the detection pass runs in: one per usable CPU.  A
    wrapper bound over ``detect_step`` or a forecaster kernel (a profiler's
    hook, say) records in its own process only, so while one is bound the
    pass stays in this process and the wrapper sees every call; so it does
    without ``os.fork``."""
    own = (detect_step, detection_module.elm_fit, detection_module.elm_update) == _OWN_DETECTION
    return _usable_cpus() if own and hasattr(os, "fork") else 1


def detect_run(
    xs: Sequence[Sequence[float]], vs: Sequence[Sequence[float]],
    comparator: Sequence[Sequence[bool]], cfg: DetectionConfig,
) -> tuple[list[VehicleDetection], list[AnomalyEvent]]:
    """The detection pass over a whole run, live or replayed: each follower's
    detection, and all events ordered by control step, then vehicle.  Entry i
    of ``xs``, ``vs`` and ``comparator`` is follower i+1's column.

    The followers are dealt round-robin into ``_workers()`` shares.  Share 0
    runs here and each other share in a forked child, which pickles its
    detections back through a pipe.  A follower's detection depends on its
    columns alone, and the error raised is the lowest-numbered failing
    follower's, so nothing depends on the number of shares.  No child
    outlives the call.
    """
    n = len(xs)
    if not cfg.enabled:
        steps = len(xs[0]) if n else 0
        return [VehicleDetection([None] * steps, [None] * steps, [])] * n, []
    workers = _workers()
    shares = [range(first, n, workers) for first in range(min(workers, n))]

    def detect_share(share: range) -> tuple[list[VehicleDetection], Optional[Exception]]:
        """The share's detections up to its first error, and that error."""
        found = []
        try:
            for i in share:
                found.append(detect_step(xs[i], vs[i], comparator[i], i + 1, cfg))
        except Exception as error:
            return found, error
        return found, None

    children, payloads = [], []
    try:
        for share in shares[1:]:
            children.append(_fork(detect_share, share))
        outcomes = [detect_share(share) for share in shares[:1]]
        for _, pipe in children:
            with open(pipe, "rb", closefd=False) as reader:
                payloads.append(reader.read())
    finally:
        for pid, pipe in children:  # killing one whose payload was read is harmless
            os.close(pipe)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for payload in payloads:
        if not payload:
            raise RuntimeError("a detection worker ended without sending its share")
        outcomes.append(pickle.loads(payload))
    failures = [(share[len(found)], error)
                for share, (found, error) in zip(shares, outcomes) if error is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    detections: list = [None] * n
    for share, (found, _) in zip(shares, outcomes):
        detections[share.start::share.step] = found
    events = sorted((e for detection in detections for e in detection.events),
                    key=lambda e: (e.control_step, e.vehicle))
    return detections, events


def _fork(work, share: range) -> tuple[int, int]:
    """Start a child that runs ``work(share)`` and writes the pickled result
    to a pipe: (the child's pid, the pipe's read end)."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child never returns into the caller's stack, and exits without
        # the parent's cleanup (atexit handlers, buffered output).
        try:
            os.close(read_end)
            with open(write_end, "wb") as writer:
                writer.write(pickle.dumps(work(share)))
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, read_end


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one line per row with every cell through _fmt."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def write_trace_csv(rows: Sequence[TraceRow], path: Path) -> None:
    _write_csv(path, TRACE_COLUMNS, rows)


def write_anomaly_csv(events: Sequence[AnomalyEvent], path: Path) -> None:
    rows = ((e.kind, e.control_step, e.vehicle, e.actual, e.predicted) for e in events)
    _write_csv(path, ANOMALY_CSV_COLUMNS, rows)


def write_impact_csv(result: RunResult, path: Path) -> None:
    lo, hi = result.impact.safe_lo, result.impact.safe_hi
    header = ("control_step", "vehicle", "headway", "acceleration", "safe_lo", "safe_hi")
    rows = ((r.control_step, r.vehicle_id, r.headway, r.u, lo, hi) for r in result.rows)
    _write_csv(path, header, rows)


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
# Each key is the DetectionConfig field of the same name; seed is read apart.
_DETECTION_KEYS = {
    "enabled": (DetectionConfig.enabled, _BOOL),
    "comparator_threshold": (DetectionConfig.comparator_threshold, _POSITIVE),
    "nominal_diff": (DetectionConfig.nominal_diff, _FINITE),
    "pos_threshold": (DetectionConfig.pos_threshold, _POSITIVE),
    "vel_threshold": (DetectionConfig.vel_threshold, _POSITIVE),
    "hidden_count": (DetectionConfig.hidden_count, _COUNT),
    "ridge": (DetectionConfig.ridge, _POSITIVE),
    "lag": (DetectionConfig.lag, _COUNT),
    "step_forward": (DetectionConfig.step_forward, _COUNT),
    "norm_window": (DetectionConfig.norm_window, _COUNT),
    "warmup_steps": (DetectionConfig.warmup_steps, _NATURAL),
}
_DROP_KEYS = {
    "direction": (None, (lambda v: v in ("forward", "backward"), "'forward' or 'backward'")),
    "sender": (None, (_is_int, "an int")),
    "control_steps": (None, _INTERVAL),
    "iterations": (None, _INTERVAL),
}
_CASE_KEYS = {"n": (SimConfig.n, _COUNT), "max_iterations": (SimConfig.max_iterations, _COUNT)}

# Loading walks the leader over every control step, a fraction of a second per
# million, and a run spends milliseconds on each: a longer run is refused first.
MAX_CONTROL_STEPS = 1_000_000

# Each control step allocates four (max_iterations x n) bias matrices of
# float64: at this many cells each, 32 MB in all.
MAX_BIAS_CELLS = 1_000_000

# Each forecaster keeps a (hidden_count x hidden_count) P, and a refit builds
# a (norm_window x lag) input matrix and its (norm_window x hidden_count)
# hidden layer, of float64: at this many cells each, 8 MB apiece.
MAX_DETECTION_CELLS = 1_000_000


def _check_bias_size(prefix: str, n: int, max_iterations: int) -> None:
    """Reject sizes whose bias matrices would pass MAX_BIAS_CELLS, before
    anything of that size is allocated."""
    if n * max_iterations > MAX_BIAS_CELLS:
        raise ConfigError(
            f"{prefix}n x {prefix}max_iterations must be at most {MAX_BIAS_CELLS} "
            f"bias-matrix cells, got {n} x {max_iterations}"
        )


def _check(where: str, value: Any, rule: tuple) -> Any:
    check, requirement = rule
    if not check(value):
        raise ConfigError(f"{where} must be {requirement}, got {value!r}")
    return value


def _read_section(doc: Any, where: str, table: Mapping, noun: Optional[str]) -> dict[str, Any]:
    """Every key of ``table`` from the optional section ``doc`` at ``where``,
    defaults filled in.  A key outside the table is not a ``noun``; with no
    noun, other code reads it.  An int reads as a float where the key's
    default is a float, so ``3`` and ``3.0`` make the same run."""
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
        values[key] = float(value) if isinstance(default, float) else value
    return values


class _DocumentLoader(yaml.SafeLoader):
    """PyYAML's safe loader, except that a key repeated in one mapping is a
    ConfigError; PyYAML alone keeps the last value and drops the others."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # Only a scalar key is hashable (the base reports the others), and
            # a merge key's entries may be overridden, as YAML allows.
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    mark = key_node.start_mark
                    raise ConfigError(f"{mark.name} line {mark.line + 1}: key {key!r} is repeated")
                seen.add(key)
        # The safe constructor's own, which yaml.CSafeLoader shares.
        return yaml.constructor.SafeConstructor.construct_mapping(self, node, deep)


@contextmanager
def _open_text(path: Path) -> Iterator[TextIO]:
    """``path`` open for reading as UTF-8; a file that is not UTF-8 is a ConfigError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:  # line ends as written, for csv
            yield fh
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not UTF-8 text") from None


def _load_doc(path: Path, what: str) -> Mapping:
    """A YAML document that must be a mapping; an empty file reads as ``{}``."""
    with _open_text(path) as fh:
        doc = yaml.load(fh, _DocumentLoader)
    if doc is None:
        return {}
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{what} must be a mapping, got {type(doc).__name__}")
    return doc


def _detection_from_doc(doc: Mapping) -> DetectionConfig:
    """The detection section and the seed of a scenario or replay config
    document."""
    seed = _check("seed", doc.get("seed", 0), _NATURAL)
    section = doc.get("detection")
    values = _read_section(section, "detection", _DETECTION_KEYS, "detection key")
    for rows, cols in (("hidden_count", "hidden_count"), ("norm_window", "lag"),
                       ("norm_window", "hidden_count")):
        if values[rows] * values[cols] > MAX_DETECTION_CELLS:
            raise ConfigError(
                f"detection.{rows} x detection.{cols} must be at most {MAX_DETECTION_CELLS} "
                f"cells, got {values[rows]} x {values[cols]}"
            )
    least = values["lag"] + values["step_forward"] + 1
    if values["norm_window"] < least:
        raise ConfigError(
            f"detection.norm_window must be at least lag + step_forward + 1 = {least}, "
            f"got {values['norm_window']}: a shorter window never holds two training pairs"
        )
    return DetectionConfig(**values, seed=seed)


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
    _check_bias_size("sim.", sim.n, sim.max_iterations)
    leader = _read_section(doc.get("leader"), "leader", _LEADER_KEYS, "leader key")
    leader = LeaderProfile(
        speed=leader["speed"],
        phases=tuple((start, float(accel)) for start, accel in leader["profile"]),
    )
    _leader_velocity_check(sim, leader)
    detection = _detection_from_doc(doc)
    return Scenario(
        sim=sim,
        leader=leader,
        attack=parse_attack_case(doc.get("attack"), sim.n, sim.max_iterations),
        detection=detection,
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
    _check_bias_size("", n, max_iterations)
    slots = parse_attack_case(doc.get("attack"), n, max_iterations)
    bias = iter_attack_value_cal(n, k, max_iterations, slots)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    header = [f"fv{i}" for i in range(1, n + 1)]
    for name in ("x_ite", "v_ite", "zx_ite", "zv_ite"):
        paths[name] = out_dir / f"{name}_bias.csv"
        # tolist() gives Python floats, which _fmt writes as repr does.
        _write_csv(paths[name], header, getattr(bias, f"{name}_bias").tolist())
    return paths


# ---------------------------------------------------------------------------
# offline detection replay


class TraceFormatError(ValueError):
    pass


def _read_trace(trace_path: Path) -> tuple[list[tuple], list[tuple], list[tuple]]:
    """The x, v and comparator-flag columns of each vehicle, in vehicle order,
    each over the control steps in order.

    Every row must be complete and well formed, and control steps 0..K must
    each hold vehicles 1..n exactly once, as a live run writes them; anything
    else is a ``TraceFormatError`` naming the line or the control step.
    """
    by_step: dict[int, dict[int, tuple[float, float, bool]]] = {}
    with _open_text(trace_path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return [], [], []
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
            step[vehicle] = x, v, record["comparator_flag"] == "1"
    n = max((max(step) for step in by_step.values()), default=0)
    for k in range(len(by_step)):
        if k not in by_step:
            raise TraceFormatError(f"{trace_path} has no rows for control step {k}")
        step = by_step[k]
        if len(step) != n:
            lacking = min(set(range(1, n + 1)) - set(step))
            raise TraceFormatError(f"{trace_path}: control step {k} lacks vehicle {lacking}")
    columns: tuple[list, list, list] = ([], [], [])
    for vehicle in range(1, n + 1):
        for column, values in zip(columns, zip(*(by_step[k][vehicle] for k in range(len(by_step))))):
            column.append(values)
    return columns


def replay_detection(trace_path: Path, detection: DetectionConfig) -> list[AnomalyEvent]:
    """Re-run the ELM stage over a recorded trace: ``detect_run`` over the x,
    v and comparator-flag columns read back from it, so the events are the
    live run's under the same detection config and seed (none when the config
    disables detection)."""
    return detect_run(*_read_trace(trace_path), detection)[1]


# ---------------------------------------------------------------------------
# CLI


def _cmd_run(args) -> dict[str, Path]:
    """--seed and --steps stand for the document's seed and sim.total_control_steps."""
    doc = dict(_load_doc(Path(args.scenario), "scenario document"))
    if args.seed is not None:
        doc["seed"] = args.seed
    sim = doc.get("sim")
    if args.steps is not None and (sim is None or isinstance(sim, Mapping)):
        doc["sim"] = {**(sim or {}), "total_control_steps": args.steps}
    return run_scenario(scenario_from_dict(doc), Path(args.out))


def _cmd_generate_bias(args) -> dict[str, Path]:
    _check("--k", args.k, _NATURAL)
    return generate_bias_files(Path(args.case), args.k, Path(args.out))


def _cmd_replay_detect(args) -> dict[str, Path]:
    detection = _detection_from_doc(_load_doc(Path(args.config), "config document"))
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


# What bad input and unreadable or unwritable paths raise: config errors, exit 1.
_INPUT_ERRORS = (ConfigError, AttackCaseError, DetectionError, TraceFormatError, OSError, yaml.YAMLError)


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
