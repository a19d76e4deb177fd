"""End-to-end scenario orchestration and the command-line surface.

A run is two passes.  The control pass walks the control steps: build the
step's channel where an attack slot or a drop rule covers it, run the
controller's iteration loop through it, advance the plant, check constraints.
Detection only watches the channel and never feeds back into control, so the
detection pass is fed each step's channel observations as the step ends; a
replay runs the same detection over the columns read back from a trace.
Followers do not couple in detection, so the pass deals the followers out to
forked worker processes, one per usable CPU, which in a live run work
alongside the control pass.  Outputs are a trace CSV, an anomaly CSV and an
impact report; everything is deterministic given the scenario seed, whatever
the number of workers.

Exit codes: 0 ok, 1 config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import math
import os
import pickle
import re
import signal
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import groupby
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, TextIO

import yaml

from .attack_engine import (
    ATTACK_LIST_KEYS,
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
    follow_vehicle,
)
from . import detection as detection_module
from .dynamics import step_platoon
from .metrics import SAFE_HEADWAY, ImpactReport, build_impact_report, format_impact_report, time_headway
from .mpc_controller import (
    ConstraintViolation,
    ControlOutcome,
    NumericalError,
    check_constraints,
    newton_terms,
    run_control_step,
)
from .platoon_model import (
    _ANY, _BOOL, _COUNT, _FINITE, _INT, _LIST, _NATURAL, _PAIR, _POSITIVE, ConfigError, SimConfig, _check,
    _check_interval, _int_in, _is_finite, _is_int, _one_of, _read_section, _shown, initial_platoon,
)
from .v2v_channel import ChannelId, Direction, DropRule, V2VChannel, senders

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
    phases: tuple[tuple[int, float], ...] = ()  # start steps increase

    def accelerations(self, steps: int) -> list[float]:
        """The acceleration of each control step 0..steps-1, in one walk over
        the phases: 0.0 before the first, then each phase's until the next."""
        starts = [start for start, _ in self.phases] + [steps]
        accels = [0.0] * min(starts[0], steps)
        for (start, accel), end in zip(self.phases, starts[1:]):
            accels += [accel] * max(0, min(end, steps) - start)  # a phase past the run adds none
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
    comparator_flag: int  # the flags are 0 or 1, as the file holds them
    elm_pos_pred: Optional[float]
    elm_vel_pred: Optional[float]
    pos_anom: int
    vel_anom: int


TRACE_COLUMNS = TraceRow._fields

# Each trace column's cell form, as run writes it, and what the form is.  A
# finite float's repr is an int part and a fraction of 0 or ending in 1-9; from
# 1e16 and below 1e-4, a digit 1-9, a fraction ending in 1-9 if any, and a
# signed exponent of two digits or more.
_REPR = r"-?(?:(?:0|[1-9]\d*)\.(?:0|\d*[1-9])|[1-9](?:\.\d*[1-9])?e[+-]\d\d+)"
_TRACE_FORMS = dict(zip(TRACE_COLUMNS, (
    *[(r"0|[1-9]\d*", "an int's str")] * 2,  # control_step, vehicle_id
    *[(_REPR, "a finite float's repr")] * 4,  # x, v, u, gap_front
    (rf"{_REPR}|-?inf|nan", "a float's repr"),  # headway
    ("[01]", "0 or 1"),  # comparator_flag
    *[(rf"(?:{_REPR})?", "empty or a finite float's repr")] * 2,  # elm_pos_pred, elm_vel_pred
    *[("[01]", "0 or 1")] * 2,  # pos_anom, vel_anom
)))
# A line as open(newline="") reads it, each cell a group.
_TRACE_ROW = re.compile(",".join(f"({form})" for form, _ in _TRACE_FORMS.values()) + r"\r?\n?")


@dataclass
class RunResult:
    rows: list[TraceRow]
    events: list[AnomalyEvent]
    impact: ImpactReport
    step_outcomes: list[ControlOutcome]  # one per control step
    violations: list[tuple[int, ConstraintViolation]]

    @property
    def flags_by_step(self) -> list[tuple[int, ...]]:
        """Each control step's freeze flags by follower: 1 for a comparator flag or an event."""
        return [tuple(row.comparator_flag or row.pos_anom or row.vel_anom for row in step)
                for _, step in groupby(self.rows, key=lambda row: row.control_step)]


def simulate(scenario: Scenario) -> RunResult:
    """Run the whole scenario in memory.  The control pass runs each control
    step as bias generation where a slot or drop rule covers it, message
    exchange with injection inside the controller loop, headway, plant step,
    constraint check and stage-one flags; the detection pass reads what the
    channel delivered, step by step as the control pass yields it, and the
    rows, events and impact report are built from both."""
    sim = scenario.sim
    n = sim.n
    step_outcomes: list[ControlOutcome] = []
    headways: list[list[float]] = []
    violations: list[tuple[int, ConstraintViolation]] = []
    comparator: list[list[bool]] = []

    def control_pass() -> Iterator[tuple[Sequence[float], Sequence[float], list[bool]]]:
        platoon = initial_platoon(sim, scenario.leader.speed)
        for k, leader_u in enumerate(scenario.leader.accelerations(sim.total_control_steps)):
            drops = tuple(rule for rule in scenario.drops if rule.covers(k))
            channel = None
            if drops or any(slot.covers(k) for slot in scenario.attack):
                bias = iter_attack_value_cal(n, k, sim.max_iterations, scenario.attack)
                channel = V2VChannel(bias, drops)
            outcome = run_control_step(platoon, channel, sim, leader_u)
            step_outcomes.append(outcome)
            headways.append([time_headway(platoon.gap(i + 1), follower.v, sim.L_veh)
                             for i, follower in enumerate(platoon.followers)])
            platoon = step_platoon(platoon, leader_u, outcome.u_next, sim.tau)
            violations.extend((k, violation) for violation in check_constraints(platoon, sim))
            comparator.append(comparator_flags(outcome.gap_front, outcome.gap_rear, scenario.detection, k))
            yield outcome.front_x, outcome.front_v, comparator[-1]

    detections, events = detect_run(control_pass(), n, scenario.detection)
    hits = {(e.kind, e.control_step, e.vehicle) for e in events}
    rows = [TraceRow(
        k, i + 1, o.front_x[i], o.front_v[i], o.u_next[i], o.gap_front[i], headway[i], int(flags[i]),
        detections[i].pos_predictions[k], detections[i].vel_predictions[k],
        int((POS_ANOM, k, i + 1) in hits), int((VEL_ANOM, k, i + 1) in hits),
    ) for k, (o, headway, flags) in enumerate(zip(step_outcomes, headways, comparator))
        for i in range(n)]

    # Short smoke runs still get a report: the classification warmup cannot
    # swallow the whole series.
    impact = build_impact_report(
        [[row.headway for row in rows[i::n]] for i in range(n)],
        [[row.u for row in rows[i::n]] for i in range(n)],
        warmup=min(10, sim.total_control_steps - 1),
    )
    return RunResult(rows, events, impact, step_outcomes, violations)


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


# One control step's channel observations and stage-one flags: entry i of
# each is follower i+1's.
_Step = tuple[Sequence[float], Sequence[float], Sequence[bool]]


def detect_run(
    steps: Iterable[_Step], n: int, cfg: DetectionConfig,
) -> tuple[list[VehicleDetection], list[AnomalyEvent]]:
    """The detection pass of a live run of ``n`` followers, with the result
    and errors of ``detect_columns``: ``steps`` yields each control step as
    soon as the control pass has run it.

    With ``_workers()`` above 1, every share of followers runs in a forked
    child started before the first step and sent its followers' part of each
    step as the step comes (``_stream``), so detection runs alongside the
    control pass.  Otherwise nothing is forked: the steps are gathered into
    columns for ``detect_columns`` after the last step.  Either way an error
    that ``steps`` raises comes first, since detection results are read only
    after the last step, and no child outlives the call.
    """
    workers = _workers()
    if cfg.enabled and workers > 1:
        shares = _shares(n, workers)
        return _gather(n, shares, _stream(steps, shares, cfg))
    xs, vs, comparator = (list(zip(*kind)) for kind in zip(*steps))  # follower-major
    return detect_columns(xs, vs, comparator, cfg)


def detect_columns(
    xs: Sequence[Sequence[float]], vs: Sequence[Sequence[float]],
    comparator: Sequence[Sequence[bool]], cfg: DetectionConfig,
) -> tuple[list[VehicleDetection], list[AnomalyEvent]]:
    """The detection pass over a whole run whose columns all exist already,
    a replay's or a one-worker live run's: each follower's detection, and all
    events ordered by control step, then vehicle.  Entry i of ``xs``, ``vs``
    and ``comparator`` is follower i+1's column.

    Share 0 runs here and each other share in a forked child, which inherits
    the columns and pickles its detections back through a pipe.  A
    follower's detection, its error included, depends on its columns alone,
    so nothing depends on the number of shares.  No child outlives the call.
    """
    n = len(xs)
    if not cfg.enabled:
        steps = len(xs[0]) if n else 0
        return [VehicleDetection([None] * steps, [None] * steps, [])] * n, []
    shares = _shares(n, _workers())

    def detect_share(share: range) -> list[VehicleDetection]:
        return [detect_step(xs[i], vs[i], comparator[i], i + 1, cfg) for i in share]

    children = []
    try:
        for share in shares[1:]:
            children.append(_fork(detect_share, share))
        found = [detect_share(share) for share in shares[:1]]
        return _gather(n, shares, found + _collect(children))
    finally:
        _reap(children)


def _shares(n: int, workers: int) -> list[range]:
    """The followers' indices dealt round-robin into ``workers`` shares,
    never more than ``n``."""
    return [range(first, n, workers) for first in range(min(workers, n))]


def _gather(n: int, shares: Sequence[range], found: Sequence[list[VehicleDetection]],
            ) -> tuple[list[VehicleDetection], list[AnomalyEvent]]:
    """Each follower's detection, and all events ordered by control step,
    then vehicle, from each share's detections; the lowest-numbered failing
    follower's error is raised."""
    detections: list = [None] * n
    for share, detected in zip(shares, found):
        detections[share.start::share.step] = detected
    if errors := [detection.error for detection in detections if detection.error is not None]:
        raise errors[0]
    events = sorted((e for detection in detections for e in detection.events),
                    key=lambda e: (e.control_step, e.vehicle))
    return detections, events


def _stream(steps: Iterable[_Step], shares: Sequence[range], cfg: DetectionConfig) -> list:
    """Run each share in a forked worker fed one step at a time: each share's
    detections.

    A step is pickled to each worker with one unbuffered write, holding only
    its share's entries.  A worker that has died is sent nothing more.
    While the steps come, the workers may run on every usable CPU but one,
    which is left to the caller's control pass; after the last step they may
    run on all.  Then the pipes are closed, which ends every worker's steps,
    and each share is read back.  The workers are killed and reaped
    whatever happens, an interrupt included."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    spare = cpus[1:]  # what the workers may use while the steps come
    workers, writers = [], []
    try:
        for share in shares:
            steps_read, steps_write = os.pipe()
            writers.append(open(steps_write, "wb", buffering=0))
            inherited = [*writers, *(reader for _, reader in workers)]
            workers.append(_fork(_follow_pipe, share, cfg, steps_read, inherited))
            os.close(steps_read)
            if spare:
                os.sched_setaffinity(workers[-1][0], spare)
        sending = [(writer, slice(share.start, None, share.step)) for writer, share in zip(writers, shares)]
        for x, v, flags in steps:
            sending = [(writer, part) for writer, part in sending
                       if _send(writer, pickle.dumps((x[part], v[part], flags[part])))]
        for (pid, _), writer in zip(workers, writers):
            if spare:
                os.sched_setaffinity(pid, cpus)
            writer.close()
        return _collect(workers)
    finally:
        for writer in writers:
            writer.close()
        _reap(workers)


def _send(writer, payload: bytes) -> bool:
    """Write all of ``payload`` to a worker's pipe; False once the worker has
    closed its end."""
    try:
        while payload:  # a signal handler can cut a write short
            payload = payload[writer.write(payload):]
    except BrokenPipeError:
        return False
    return True


def _follow_pipe(share: range, cfg: DetectionConfig, steps_read: int, inherited: Sequence) -> list:
    """In a worker: the detections of the followers ``share`` indexes, each
    through ``follow_vehicle``, over the steps pickled to the pipe
    ``steps_read`` until it ends; a step is its x, v and comparator-flag
    entries of the share.

    The worker first closes ``inherited``, its own steps pipe's writer and
    the earlier workers' pipe ends, so that each steps pipe ends when the
    parent closes it."""
    for end in inherited:
        end.close()
    followers = [follow_vehicle(i + 1, cfg) for i in share]
    found = [next(follower) for follower in followers]
    # Buffered: a pickle larger than the pipe's atomic write size can arrive
    # in parts, and a buffered read waits for all of it.
    with open(steps_read, "rb") as reader:
        while True:
            try:
                step = pickle.load(reader)
            except EOFError:
                return found
            for follower, entry in zip(followers, zip(*step)):
                follower.send(entry)


# OpenBLAS's thread-count setter: in numpy >= 2's wheels, numpy 1.x's, then system builds.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads")


@functools.cache
def _one_blas_thread() -> None:
    """Set each OpenBLAS this process has loaded to one thread, once, before
    its first fork.  A fork shuts OpenBLAS's thread pool down, and the next
    threaded call on either side restarts it, each new thread spinning ~0.12 s
    of CPU; at one thread no call is threaded.  The setter, too, restarts a
    pool that a fork shut down, so it is called neither again nor in a child."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
        libraries = [ctypes.CDLL(path) for path in paths]
    except OSError:  # no /proc, or a library that cannot be opened again
        return
    for library in libraries:
        setter = next((getattr(library, name) for name in _BLAS_SETTERS if hasattr(library, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def _fork(work, *args) -> tuple[int, Any]:
    """Start a child that runs ``work(*args)`` and writes the pickled result
    to a pipe: (the child's pid, the pipe's reader)."""
    _one_blas_thread()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child never returns into the caller's stack, and exits without
        # the parent's cleanup (atexit handlers, buffered output).
        try:
            os.close(read_end)
            result = work(*args)
            with open(write_end, "wb") as writer:
                writer.write(pickle.dumps(result))
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _collect(children: Sequence[tuple[int, Any]]) -> list:
    """Each child's unpickled result, read in turn."""
    payloads = [reader.read() for _, reader in children]
    if not all(payloads):
        raise RuntimeError("a detection worker ended without sending its share")
    return [pickle.loads(payload) for payload in payloads]


def _reap(children: Sequence[tuple[int, Any]]) -> None:
    """Close each child's pipe, kill it and wait for it.  Killing one whose
    result was read is harmless."""
    for pid, reader in children:
        reader.close()
        os.kill(pid, signal.SIGKILL)
    for pid, _ in children:  # after every kill, so that the exits overlap
        os.waitpid(pid, 0)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one line per row, each cell as csv writes it: None
    as an empty cell, anything else through ``str``, which gives a float's
    shortest round-trip form."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trace_csv(rows: Sequence[TraceRow], path: Path) -> None:
    _write_csv(path, TRACE_COLUMNS, rows)


def write_anomaly_csv(events: Sequence[AnomalyEvent], path: Path) -> None:
    rows = ((e.kind, e.control_step, e.vehicle, e.actual, e.predicted) for e in events)
    _write_csv(path, ANOMALY_CSV_COLUMNS, rows)


def write_impact_csv(result: RunResult, path: Path) -> None:
    lo, hi = SAFE_HEADWAY
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


# The tables map a section's keys to (default, rule).  A default that fails
# its rule makes the key required, and _ANY leaves a key to its own reader.
_SCENARIO_KEYS = {**dict.fromkeys(("sim", "leader", "attack", "drops", "detection", "output"), (None, _ANY)),
                  "seed": (0, _NATURAL)}
# A case file's n and max_iterations default to its sim's.
_CASE_KEYS = {**_SCENARIO_KEYS, **dict.fromkeys(("n", "max_iterations"), (None, _ANY))}
# Each sim key is the SimConfig field of the same name, in field order; a
# field that _SIM_RULES does not name is _FINITE.
_SIM_RULES = {
    **dict.fromkeys(("n", "max_iterations", "total_control_steps"), _COUNT),
    **dict.fromkeys(("tau", "L_veh", "Q_alpha", "Q_beta", "primal_tol", "dual_step"), _POSITIVE),
    # p = 0 is constant spacing; a negative p or delta makes the gaps negative.
    **dict.fromkeys(("p", "delta"), (lambda v: _is_finite(v) and v >= 0, "a finite number >= 0")),
    "dual_decay": (lambda v: _is_finite(v) and 0 <= v <= 1, "a number in [0, 1]"),
}
_SIM_KEYS = {f.name: (f.default, _SIM_RULES.get(f.name, _FINITE)) for f in fields(SimConfig)}
_LEADER_KEYS = {
    "speed": (LeaderProfile.speed, _FINITE),
    "profile": ((), _LIST),
}
_PHASE = (_PAIR[0], "a [start_step, acceleration] pair")
_OUTPUT_KEYS = {f.name: (f.default, _BOOL) for f in fields(OutputFlags)}
# Each detection key is the DetectionConfig field of the same name, in field
# order, and is _FINITE unless _DETECTION_RULES names it; seed is top-level.
_DETECTION_RULES = {
    "enabled": _BOOL,
    **dict.fromkeys(("comparator_threshold", "pos_threshold", "vel_threshold", "ridge"), _POSITIVE),
    **dict.fromkeys(("hidden_count", "lag", "norm_window"), _COUNT),
    "warmup_steps": _NATURAL,
}
_DETECTION_KEYS = {f.name: (f.default, _DETECTION_RULES.get(f.name, _FINITE))
                   for f in fields(DetectionConfig) if f.name != "seed"}
_DROP_KEYS = {
    "direction": (None, _one_of("forward", "backward")),
    "sender": (None, _INT),
    # None, the default, or an interval that _check_interval checks.
    **dict.fromkeys(("control_steps", "iterations"), (None, _ANY)),
}

# Loading walks the leader over every control step, a fraction of a second per
# million, and a run spends milliseconds on each: a longer run is refused first.
MAX_CONTROL_STEPS = 1_000_000

# Each step a slot or drop rule covers allocates four (max_iterations x n)
# bias matrices of float64: at this many cells each, 32 MB in all.
MAX_BIAS_CELLS = 1_000_000

# Each forecaster keeps a (hidden_count x hidden_count) P, and a refit builds
# a (norm_window x lag) input matrix and its (norm_window x hidden_count)
# hidden layer, of float64: at this many cells each, 8 MB apiece.
MAX_DETECTION_CELLS = 1_000_000


def _check_cells(where: str, rows: int, cols: int, limit: int, noun: str) -> None:
    """Reject a (rows x cols) array of more than ``limit`` cells, before
    anything of that size is allocated; ``where`` names both sizes."""
    if rows * cols > limit:
        raise ConfigError(f"{where} must be at most {limit} {noun}, got {_shown(rows)} x {_shown(cols)}")


class _DocumentLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """PyYAML's safe loader, libyaml's where built, except that a key repeated
    in one mapping is a ConfigError; PyYAML alone keeps the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # Only a scalar key is hashable (the base reports the others), and
            # a merge key's entries may be overridden, as YAML allows.
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    mark = key_node.start_mark
                    raise ConfigError(f"{mark.name} line {mark.line + 1}: key {_shown(key)} is repeated")
                seen.add(key)
        # The safe constructor's own, which yaml.CSafeLoader shares.
        return yaml.constructor.SafeConstructor.construct_mapping(self, node, deep)


@contextmanager
def _open_text(path: Path) -> Iterator[TextIO]:
    """``path`` open for reading as UTF-8; a file that is not UTF-8 is a ConfigError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:  # line ends as written, for _TRACE_ROW
            yield fh
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not UTF-8 text") from None


def _load_doc(path: Path, what: str) -> Mapping:
    """A YAML document that must be a mapping; an empty file reads as ``{}``."""
    try:
        with _open_text(path) as fh:
            doc = yaml.load(fh, _DocumentLoader)
    except ConfigError:
        raise
    except ValueError as exc:  # a scalar no constructor makes: an int past the digit limit
        raise ConfigError(f"{path}: {exc}") from None
    if doc is None:
        return {}
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{what} must be a mapping, got {type(doc).__name__}")
    return doc


def _detection_from_doc(sections: Mapping) -> DetectionConfig:
    """The detection section and the seed of a scenario or replay config
    document, from its top level as read through ``_SCENARIO_KEYS``."""
    values = _read_section(sections["detection"], "detection", _DETECTION_KEYS, "a detection key")
    for rows, cols in (("hidden_count", "hidden_count"), ("norm_window", "lag"),
                       ("norm_window", "hidden_count")):
        _check_cells(f"detection.{rows} x detection.{cols}", values[rows], values[cols],
                     MAX_DETECTION_CELLS, "cells")
    least = values["lag"] + 2
    if values["norm_window"] < least:
        raise ConfigError(
            f"detection.norm_window must be at least lag + 2 = {least}, "
            f"got {values['norm_window']}: a shorter window never holds two training pairs"
        )
    return DetectionConfig(**values, seed=sections["seed"])


def _leader_from_doc(section: Any, sim: SimConfig) -> LeaderProfile:
    """Parse the ``leader`` section in one walk that checks each phase at its
    own path; then the velocity, built up step by step as ``simulate`` does,
    must stay in [v_min, v_max] over a run of at most MAX_CONTROL_STEPS."""
    steps = _check("sim.total_control_steps", sim.total_control_steps,
                   (lambda steps: steps <= MAX_CONTROL_STEPS, f"at most {MAX_CONTROL_STEPS}"))
    leader = _read_section(section, "leader", _LEADER_KEYS, "a leader key")
    bounds = f"[{sim.v_min}, {sim.v_max}]"
    v = _check("leader.speed", leader["speed"], (lambda v: sim.v_min <= v <= sim.v_max, f"in {bounds}"))
    if not math.isfinite(leader_x := sim.n * sim.nominal_gap(v)):  # where initial_platoon puts it
        raise ConfigError("need a finite leader start, sim.n * (sim.L_veh + sim.p * sim.tau * leader.speed "
                          f"+ sim.delta), got {leader_x}")
    phases: list[tuple[int, float]] = []
    for i, phase in enumerate(leader["profile"]):
        where = f"leader.profile[{i}]"
        start, accel = _check(where, phase, _PHASE)
        after = phases[-1][0] + 1 if phases else 0  # each phase starts after the one before
        _check(f"{where}[0]", start, (lambda s: _is_int(s) and s >= after, f"an int >= {_shown(after)}"))
        phases.append((start, float(_check(f"{where}[1]", accel, _FINITE))))
    profile = LeaderProfile(v, tuple(phases))
    for k, accel in enumerate(profile.accelerations(steps)):
        v += accel * sim.tau
        if not sim.v_min <= v <= sim.v_max:
            in_force = sum(start <= k for start, _ in phases) - 1
            raise ConfigError(f"leader.profile[{in_force}] drives the leader's velocity to "
                              f"{_shown(v)} at step {k + 1}, outside {bounds}")
    return profile


def _drops_from_doc(entries: Any, sim: SimConfig) -> tuple[DropRule, ...]:
    """Parse the ``drops`` list.  Senders are vehicle indices (0 = leader),
    and a rule's sender must send in its direction (``senders``).

    A rule that can never change a run is rejected: one whose iterations all
    lie past the round cap, and a leader rule that starts after round 0 (the
    leader's prediction is fixed within a control step, so holding it from a
    later round holds the live value).  Control steps past the end of the run
    are accepted, because ``--steps`` may shorten a run."""
    rules = []
    for i, entry in enumerate(_check("drops", () if entries is None else entries, _LIST)):
        where = f"drops[{i}]"
        rule = _read_section(entry, where, _DROP_KEYS, "a drop-rule key")
        steps, iterations = (None if rule[key] is None else _check_interval(f"{where}.{key}", rule[key])
                             for key in ("control_steps", "iterations"))
        direction, sender = Direction(rule["direction"]), rule["sender"]
        _check(f"{where}.sender", sender,
               _int_in(senders(direction, sim.n), f" for a {direction.value} rule with n={sim.n}"))
        if iterations is not None:
            shown = f"[{_shown(iterations[0])}, {_shown(iterations[1])}]"
            if iterations[0] >= sim.max_iterations:
                raise ConfigError(f"{where}.iterations {shown} starts at or past "
                                  f"max_iterations={sim.max_iterations}, so the rule never fires")
            if sender == 0 and iterations[0] != 0:
                raise ConfigError(f"{where}.iterations must start at 0 for a leader rule, got {shown}: "
                                  "the leader's prediction is fixed within a control step")
        rules.append(DropRule(direction, sender, control_steps=steps, iterations=iterations))
    return tuple(rules)


def _attack_from_doc(case: Any, sim: SimConfig) -> tuple[AttackSlot, ...]:
    """Parse the ``attack`` section.  A slot whose victim does not send in
    its channel's direction (``senders``) reaches no receiver, so it could
    never change a run and is rejected, as such a drop rule is."""
    slots = parse_attack_case(case, sim.n, sim.max_iterations)
    # Slots come only from a mapping of well-formed lists.
    for i, victim in enumerate(case["iter_victim_list"] if slots else ()):
        for j, channels in enumerate(case["iter_malichannel_list"][i]):
            for m, channel in enumerate(map(ChannelId, channels)):
                if victim not in (sent := senders(channel.direction, sim.n)):
                    raise ConfigError(
                        f"iter_malichannel_list[{i}][{j}][{m}]: {channel.value} of victim "
                        f"{victim} reaches no receiver: with n={sim.n}, only vehicles "
                        f"{sent.start}..{sent.stop - 1} send {channel.direction.value}"
                    )
    return slots


def scenario_from_dict(doc: Mapping[str, Any]) -> Scenario:
    if not isinstance(doc, Mapping):
        raise ConfigError(f"scenario document must be a mapping, got {type(doc).__name__}")
    sections = _read_section(doc, "", _SCENARIO_KEYS, "a scenario key")
    sim = SimConfig(**_read_section(sections["sim"], "sim", _SIM_KEYS, "a SimConfig field"))
    for name, low, high in (("a", sim.a_min, sim.a_max), ("v", sim.v_min, sim.v_max)):
        if not low < high:
            raise ConfigError(f"need sim.{name}_min < sim.{name}_max, got [{low}, {high}]")
    try:
        newton_terms(sim)
    except NumericalError as exc:
        raise ConfigError(f"need sim.tau, sim.p, sim.Q_alpha and sim.Q_beta that give finite "
                          f"Newton Hessians > 0: {exc}") from None
    _check_cells("sim.n x sim.max_iterations", sim.n, sim.max_iterations, MAX_BIAS_CELLS, "bias-matrix cells")
    detection = _detection_from_doc(sections)
    return Scenario(
        sim=sim,
        leader=_leader_from_doc(sections["leader"], sim),
        attack=_attack_from_doc(sections["attack"], sim),
        detection=detection,
        drops=_drops_from_doc(sections["drops"], sim),
        output=OutputFlags(**_read_section(sections["output"], "output", _OUTPUT_KEYS, "an output key")),
    )


def load_scenario(path: Path) -> Scenario:
    return scenario_from_dict(_load_doc(path, "scenario document"))


# ---------------------------------------------------------------------------
# standalone bias generation


def generate_bias_files(case_path: Path, k: int, out_dir: Path) -> dict[str, Path]:
    """Emit the four bias matrices for control step k as CSV files
    (rows = iteration index, columns = followers).

    ``n`` and ``max_iterations`` come from the top level of the case file,
    else from its ``sim`` section, which is read as a scenario's is; the
    seven lists live under ``attack``.  The top level may hold a scenario's
    other keys, so a scenario file is a case file too, and nothing else."""
    doc = _load_doc(case_path, "case document")
    if misplaced := [key for key in ATTACK_LIST_KEYS if key in doc]:
        raise ConfigError(f"{misplaced[0]} must be under attack:, not at the top level")
    case = _read_section(doc, "", _CASE_KEYS, "a case-file key")
    sim = _read_section(case["sim"], "sim", _SIM_KEYS, "a SimConfig field")
    n, max_iterations = (_check(key, sim[key] if case[key] is None else case[key], _COUNT)
                         for key in ("n", "max_iterations"))
    _check_cells("n x max_iterations", n, max_iterations, MAX_BIAS_CELLS, "bias-matrix cells")
    slots = parse_attack_case(case["attack"], n, max_iterations)
    bias = iter_attack_value_cal(n, k, max_iterations, slots)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    header = [f"fv{i}" for i in range(1, n + 1)]
    for channel, matrix in bias.items():
        paths[channel.value] = out_dir / f"{channel.value}_bias.csv"
        _write_csv(paths[channel.value], header, matrix.tolist())
    return paths


# ---------------------------------------------------------------------------
# offline detection replay


def _trace_line_error(where: str, line: str) -> ConfigError:
    """The error for a data line that ``_TRACE_ROW`` refuses, or that holds a
    number past the float range: its first cell out of ``_TRACE_FORMS``."""
    cells = line.rstrip("\r\n").split(",", len(TRACE_COLUMNS) - 1)  # the last cell keeps any more
    for cell, (column, (form, requirement)) in zip(cells, _TRACE_FORMS.items()):
        finite = "finite" in requirement and cell  # through float too: the form lets 1e+400 by
        if not re.fullmatch(form, cell) or finite and not math.isfinite(float(cell)):
            return ConfigError(f"{where}: {column} must be {requirement}, got {_shown(cell)}")
    return ConfigError(f"{where}: {TRACE_COLUMNS[len(cells)]} is missing")


def _read_trace(path: Path) -> tuple[list[list], list[list], list[list]]:
    """The x, v and comparator-flag columns of each vehicle, in vehicle order,
    each over the control steps in order.

    The trace must be as a live run writes it: the header ``TRACE_COLUMNS``,
    then one line for each control step 0..K and vehicle 1..n in turn, n
    being the vehicles of step 0, each cell in its column's form
    (``_TRACE_FORMS``), which one pattern checks over the whole line.  The
    finite columns go through ``float`` too: ``1e+400`` has the form.  The
    pattern still takes digits that are not a float's shortest, such as
    ``0.30000000000000004441``; ``repr(float(cell)) == cell`` on every cell
    would make the read about twice as slow.  Anything else is a ``ConfigError``
    naming the first line out of place and its first bad column, or the last
    step if it is incomplete.
    """
    rows: list[tuple[float, float, bool]] = []  # in file order
    n = 0  # unknown until step 1 begins
    isfinite, match, header = math.isfinite, _TRACE_ROW.fullmatch, ",".join(TRACE_COLUMNS)
    with _open_text(path) as fh:
        if (first := next(fh, header).rstrip("\r\n")) != header:  # an empty file reads as a bare header
            raise ConfigError(f"{path} line 1: expected the header {header}, got {_shown(first)}")
        for number, line in enumerate(fh, 2):
            if cells := match(line):
                k, vehicle, x, v, u, gap, _, flag, pos_pred, vel_pred, _, _ = cells.groups()
                x, v = float(x), float(v)
            if cells is None or not (isfinite(x) and isfinite(v) and isfinite(float(u)) and isfinite(float(gap))
                                   and isfinite(float(pos_pred or 0)) and isfinite(float(vel_pred or 0))):
                raise _trace_line_error(f"{path} line {number}", line)
            # The pattern makes equal text mean equal ints, so no cell goes through int.
            if not n and rows and (k, vehicle) == ("1", "1"):
                n = len(rows)
            step, i = divmod(len(rows), n) if n else (0, len(rows))
            if (k, vehicle) != (str(step), str(i + 1)):
                raise ConfigError(f"{path} line {number}: expected control step {step}, vehicle {i + 1}, "
                                  f"got control step {_shown(k, str)}, vehicle {_shown(vehicle, str)}")
            rows.append((x, v, flag == "1"))
    n = n or len(rows)
    if n and len(rows) % n:
        raise ConfigError(f"{path}: control step {len(rows) // n} lacks vehicle {len(rows) % n + 1}")
    return tuple([[row[c] for row in rows[i::n]] for i in range(n)] for c in range(3))


def replay_detection(trace_path: Path, detection: DetectionConfig) -> list[AnomalyEvent]:
    """Re-run the ELM stage over a recorded trace: ``detect_columns`` over the x,
    v and comparator-flag columns read back from it, so the events are the
    live run's under the same detection config and seed (none when the config
    disables detection)."""
    return detect_columns(*_read_trace(trace_path), detection)[1]


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
    config = _load_doc(Path(args.config), "config document")
    detection = _detection_from_doc(_read_section(config, "", _SCENARIO_KEYS, "a scenario key"))
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
_INPUT_ERRORS = (ConfigError, DetectionError, OSError, yaml.YAMLError)


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
