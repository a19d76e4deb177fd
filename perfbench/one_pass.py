"""One pass over a workload's scenarios: load, run, replay, check.

A pass runs every scenario through ``run_scenario``, then replays detection
over every ``trace.csv`` it wrote, and checks each output.  Untraced, it
also times set-up: after the first load, and again after every scenario
run and every round of replays, it loads the scenario files anew, so the
set-up samples are spread over the whole pass.  Untraced timings are
given both as wall time and scaled to a reference machine speed
(``speed.py``).  With tracing on, spans around the public names the
pipeline calls through give the per-layer metrics, from wall time.
``run.py`` starts one process per pass:

    python3 perfbench/one_pass.py JOB.json RESULT.json
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from checks import SHIPPED_CHECKS, check_replay, check_run, fingerprint
from program import import_platoonsec
from speed import SpeedProbe
from tracer import Tracer

# Hook key -> the public name it wraps.  The names bound in cli_runner are
# what run_scenario and replay_detection call through.
HOOKS = {
    "parse": "platoonsec.cli_runner:parse_attack_case",
    "attack": "platoonsec.cli_runner:iter_attack_value_cal",
    "control": "platoonsec.cli_runner:run_control_step",
    "corrupt": "platoonsec.v2v_channel:V2VChannel.corrupt",
    "check": "platoonsec.cli_runner:check_constraints",
    "dynamics": "platoonsec.cli_runner:step_platoon",
    "detect": "platoonsec.cli_runner:detect_step",
    "elm_fit": "platoonsec.detection:elm_fit",
    "impact": "platoonsec.cli_runner:build_impact_report",
    "headway": "platoonsec.cli_runner:time_headway",
    "write_trace": "platoonsec.cli_runner:write_trace_csv",
    "write_anomalies": "platoonsec.cli_runner:write_anomaly_csv",
    "write_impact": "platoonsec.cli_runner:write_impact_csv",
    "format_impact": "platoonsec.cli_runner:format_impact_report",
}
WRITERS = ("write_trace", "write_anomalies", "write_impact", "format_impact")
REPLAY_BUDGET_S = 2.5
REPLAY_MAX_REPS = 10
# Each set-up probe loads every scenario file, again while under this long.
SETUP_PROBE_S = 0.02


class Counters:
    """Counts read from hooked calls.  A count whose field disappears from
    the program becomes None, which marks its metrics absent."""

    def __init__(self) -> None:
        self.rounds = 0
        self.converged = 0
        self.dropped = 0
        self.observations = 0

    def control(self, outcome, args) -> None:
        rounds = getattr(outcome, "iterations_used", None)
        converged = getattr(outcome, "converged", None)
        if rounds is None or converged is None or self.rounds is None:
            self.rounds = self.converged = None
        else:
            self.rounds += rounds
            self.converged += bool(converged)

    def corrupt(self, message, args) -> None:
        self.dropped += message is None

    def detect(self, detection, args) -> None:
        # Each vehicle feeds a position and a velocity forecaster.
        self.observations += 2 * len(args[0])


def install_hooks(tracer: Tracer, counters: Counters, hooks: dict[str, str]) -> None:
    callbacks = {"control": counters.control, "corrupt": counters.corrupt, "detect": counters.detect}
    for key, spec in hooks.items():
        tracer.install(key, spec, callbacks.get(key))


def layer_metrics(tracer: Tracer, counters: Counters, run_s: float,
                  run_top_busy_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of a traced pass; None marks a metric whose hook or
    count is absent from the program."""

    def stat(key: str, field: str):
        span = tracer.stats.get(key)
        return None if span is None else getattr(span, field)

    def total(*values):
        return None if any(v is None for v in values) else sum(values)

    def ratio(num, den, scale=1.0):
        if num is None or den is None:
            return None
        return num / den * scale if den else 0.0

    calls = stat("control", "calls")
    rounds = counters.rounds
    control_busy = stat("control", "busy_s")
    fits = stat("elm_fit", "calls")
    return {
        "attack_engine.calls": stat("attack", "calls"),
        "attack_engine.busy_s": stat("attack", "busy_s"),
        "attack_engine.parse_s": stat("parse", "busy_s"),
        "v2v_channel.messages": stat("corrupt", "calls"),
        "v2v_channel.dropped": counters.dropped if tracer.stats.get("corrupt") else None,
        "v2v_channel.busy_s": stat("corrupt", "busy_s"),
        "mpc_controller.calls": calls,
        "mpc_controller.self_s": stat("control", "self_s"),
        "mpc_controller.rounds": rounds if calls is not None else None,
        "mpc_controller.cap_steps": (calls - counters.converged)
        if calls is not None and rounds is not None else None,
        "mpc_controller.us_per_round": ratio(control_busy, rounds, 1e6),
        "mpc_controller.converged_ratio": ratio(counters.converged, calls)
        if rounds is not None else None,
        "mpc_controller.check_s": stat("check", "busy_s"),
        "dynamics.busy_s": stat("dynamics", "busy_s"),
        "detection.calls": stat("detect", "calls"),
        "detection.self_s": stat("detect", "self_s"),
        "detection.elm_fits": fits,
        "detection.elm_fit_s": stat("elm_fit", "busy_s"),
        "detection.us_per_fit": ratio(stat("elm_fit", "busy_s"), fits, 1e6),
        "detection.fit_ratio": ratio(fits, counters.observations)
        if tracer.stats.get("detect") else None,
        "metrics.busy_s": total(stat("impact", "busy_s"), stat("headway", "busy_s")),
        "cli_runner.write_s": total(*(stat(key, "busy_s") for key in WRITERS)),
        "cli_runner.bytes_written": bytes_written,
        "cli_runner.glue_s": run_s - run_top_busy_s,
    }


def _probe_setup(load_scenario, files: list[Path], speed: SpeedProbe,
                 spans: list[tuple[float, float]]) -> None:
    """Append the spans of loading every scenario file, at least once and
    again while the probe is under SETUP_PROBE_S.  A speed sample on each
    side gives every load one next to it."""
    speed.sample()
    spent = 0.0
    while spent < SETUP_PROBE_S:
        start = perf_counter()
        for path in files:
            load_scenario(path)
        spans.append((start, perf_counter()))
        spent += speed.wall(*spans[-1])
    speed.sample()


def _replay_all(cli, scenarios, records) -> tuple[dict, dict]:
    """Replay detection over every trace the pass wrote: ((start, end) by
    scenario, events by scenario)."""
    spans, replayed = {}, {}
    for (name, scenario), record in zip(scenarios, records):
        if "trace" not in record.get("paths", {}):
            continue
        start = perf_counter()
        try:
            replayed[name] = cli.replay_detection(record["paths"]["trace"], scenario.detection)
        except Exception:
            record["replay_problems"].append(traceback.format_exc(limit=3))
        finally:
            spans[name] = (start, perf_counter())
    return spans, replayed


def run_pass(job: dict, hooks: dict[str, str] = HOOKS) -> dict:
    """Run one pass as ``job`` describes it and return its measurements.

    job: ``scenarios`` (file paths), ``out_dir``, ``trace`` (bool) and
    ``acceptance`` (apply the shipped scenarios' acceptance checks).
    """
    platoonsec = import_platoonsec()
    cli = platoonsec.cli_runner
    out_dir = Path(job["out_dir"])
    tracer, counters = Tracer(), Counters()
    if job["trace"]:
        install_hooks(tracer, counters, hooks)

    # run_scenario keeps the RunResult to itself; keep a handle on it.
    simulate, results = cli.simulate, []

    def capture(scenario):
        results.append(simulate(scenario))
        return results[-1]

    cli.simulate = capture
    files = [Path(p) for p in job["scenarios"]]
    # Traced passes run no speed probe (it would land inside the spans), so
    # they have wall times only.
    speed, setup_spans, run_spans, replay_spans = SpeedProbe(), [], [], {}

    def probe() -> None:
        if not job["trace"]:
            _probe_setup(cli.load_scenario, files, speed, setup_spans)

    if not job["trace"]:
        speed.start()
    try:
        scenarios = [(path.stem, cli.load_scenario(path)) for path in files]
        load_top_busy_s = tracer.top_busy_s
        probe()

        records, bytes_written = [], 0
        for name, scenario in scenarios:
            record = {"name": name, "run_problems": [], "replay_problems": [], "fingerprint": {}}
            records.append(record)
            results.clear()
            start = perf_counter()
            try:
                paths = cli.run_scenario(scenario, out_dir / name)
            except Exception:
                record["run_problems"].append(traceback.format_exc(limit=3))
                continue
            finally:
                run_spans.append((start, perf_counter()))
                probe()
            result = results[-1]
            record["paths"] = paths
            record["run_problems"] += check_run(result, paths)
            if job["acceptance"] and name in SHIPPED_CHECKS:
                record["run_problems"] += SHIPPED_CHECKS[name](result)
            record["fingerprint"] = fingerprint(result, paths)
            bytes_written += sum(p.stat().st_size for p in paths.values())
        results.clear()
        run_top_busy_s = tracer.top_busy_s - load_top_busy_s

        # Untraced, the replays repeat until they add up to REPLAY_BUDGET_S,
        # since one replay of a short workload is too brief to time steadily.
        spent, replayed = 0.0, None
        for _ in range(REPLAY_MAX_REPS):
            spans, events = _replay_all(cli, scenarios, records)
            probe()
            for name, span in spans.items():
                replay_spans.setdefault(name, []).append(span)
                spent += speed.wall(*span)
            if replayed is None:
                replayed = events
            elif events != replayed:
                records[0]["replay_problems"].append("repeated replays disagree")
            if job["trace"] or spent >= REPLAY_BUDGET_S:
                break
    finally:
        speed.stop()
        cli.simulate = simulate
        tracer.uninstall()

    for record in records:
        paths = record.pop("paths", {})
        if "trace" not in paths:
            record["replay_problems"].append("no trace to replay")
        elif record["name"] in replayed and "anomalies" in paths:
            replay_path = out_dir / record["name"] / "replayed_anomalies.csv"
            cli.write_anomaly_csv(replayed[record["name"]], replay_path)
            record["replay_problems"] += check_replay(paths["anomalies"], replay_path)

    def seconds(span_list, scaled: bool) -> list[float]:
        time = speed.scaled if scaled else speed.wall
        return [time(*span) for span in span_list]

    run_wall_s = sum(seconds(run_spans, False))
    measured = {
        "setup_s": seconds(setup_spans, True),
        "setup_wall_s": seconds(setup_spans, False),
        "run_s": None if job["trace"] else sum(seconds(run_spans, True)),
        "run_wall_s": run_wall_s,
        "replay_s": {} if job["trace"] else
        {name: seconds(spans, True) for name, spans in replay_spans.items()},
        "replay_wall_s": {name: seconds(spans, False) for name, spans in replay_spans.items()},
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "scenarios": records,
    }
    if job["trace"]:
        measured["layers"] = layer_metrics(tracer, counters, run_wall_s, run_top_busy_s, bytes_written)
        measured["missing_hooks"] = tracer.missing
    return measured


def main(argv: list[str]) -> int:
    job_path, result_path = map(Path, argv)
    job = json.loads(job_path.read_text())
    result_path.write_text(json.dumps(run_pass(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
