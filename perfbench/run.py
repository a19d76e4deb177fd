"""platoonsec benchmark: three workloads through the public pipeline.

    python3 perfbench/run.py --workload shipped_suite --seed 1 --seconds 36 --trace 0

Each pass (one process, run by ``one_pass.py``) loads the workload's
scenario files, runs ``run_scenario`` on each, replays detection over every
trace and checks every output.  Passes repeat, one after another, while the
next one would end nearer to ``--seconds`` than stopping does; at least one
always runs.

``--trace 0`` reports each end-to-end timing as the median of its samples,
scaled to a reference machine speed (``speed.py``; README.md, "Noise and
bounds", says why): each pass gives one ``run_s`` and, as ``one_pass.py``
repeats them, several set-up loads and replays.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, from wall time, plus the tracing overhead.  The last line of
standard output is one JSON object; the lines before it are the same
figures for people, with sample counts, the environment and the
per-scenario fingerprints.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from program import ROOT, ProgramNotFound, import_platoonsec
from workloads import GENERATORS, scenario_files

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "replay_s": "s",
    "v2v_rounds": "count",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "attack_engine.calls": "count",
    "attack_engine.busy_s": "s",
    "attack_engine.parse_s": "s",
    "v2v_channel.messages": "count",
    "v2v_channel.dropped": "count",
    "v2v_channel.busy_s": "s",
    "mpc_controller.calls": "count",
    "mpc_controller.self_s": "s",
    "mpc_controller.rounds": "count",
    "mpc_controller.cap_steps": "count",
    "mpc_controller.us_per_round": "us",
    "mpc_controller.converged_ratio": "ratio",
    "mpc_controller.check_s": "s",
    "dynamics.busy_s": "s",
    "detection.calls": "count",
    "detection.self_s": "s",
    "detection.elm_fits": "count",
    "detection.elm_fit_s": "s",
    "detection.us_per_fit": "us",
    "detection.fit_ratio": "ratio",
    "metrics.busy_s": "s",
    "cli_runner.write_s": "s",
    "cli_runner.bytes_written": "bytes",
    "cli_runner.glue_s": "s",
    "trace.overhead_s": "s",
}
ARTIFACT_FILES = ("trace.csv", "anomalies.csv", "impact.txt", "impact.csv")

# A pass that runs longer than its limit is killed, so a hung program fails
# the run instead of hanging it.  The first pass may take FIRST_PASS_LIMIT_S;
# each later one PASS_LIMIT_FACTOR times the longest pass so far, and at
# least MIN_PASS_LIMIT_S.
FIRST_PASS_LIMIT_S = 150.0
PASS_LIMIT_FACTOR = 3.0
MIN_PASS_LIMIT_S = 30.0


class PassFailed(RuntimeError):
    pass


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (AttributeError, KeyError, TypeError):
        blas_build = "unknown"
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "blas_threads": {name: os.environ.get(name, "unset") for name in threads},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_one_pass(job: dict, work: Path, index: int, timeout: float) -> dict:
    """Run one pass in its own process and return what it measured."""
    job_path = work / f"pass{index}.job.json"
    result_path = work / f"pass{index}.result.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(HERE / "one_pass.py"), str(job_path), str(result_path)],
        cwd=ROOT,
        stdout=sys.stderr,
        timeout=timeout,
    )
    if proc.returncode != 0 or not result_path.is_file():
        raise PassFailed(f"pass {index} exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def run_passes(files, work: Path, seconds: float, acceptance: bool,
               pattern: tuple[bool, ...]) -> list[tuple[bool, dict]]:
    """Repeat the passes of ``pattern`` (trace flags) while the next group
    would end nearer to ``seconds`` than stopping now; one group always
    runs."""
    start, passes, longest = perf_counter(), [], 0.0
    while True:
        group_start = perf_counter()
        for trace in pattern:
            index = len(passes)
            job = {
                "scenarios": [str(p) for p in files],
                "out_dir": str(work / f"pass{index}"),
                "trace": trace,
                "acceptance": acceptance,
            }
            limit = max(MIN_PASS_LIMIT_S, PASS_LIMIT_FACTOR * longest) if passes else FIRST_PASS_LIMIT_S
            pass_start = perf_counter()
            passes.append((trace, run_one_pass(job, work, index, limit)))
            longest = max(longest, perf_counter() - pass_start)
        group_s = perf_counter() - group_start
        if perf_counter() - start + group_s / 2 > seconds:
            return passes


def failures(passes: list[tuple[bool, dict]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every scenario run and replay.

    Each run must pass its checks and produce the same artifacts as the
    first pass: byte for byte, traced or not.
    """
    reference = {s["name"]: s["fingerprint"] for s in passes[0][1]["scenarios"]}
    attempted, failed, reasons = 0, 0, []
    for index, (trace, measured) in enumerate(passes):
        for scenario in measured["scenarios"]:
            name = scenario["name"]
            run_problems = list(scenario["run_problems"])
            for artifact in ARTIFACT_FILES:
                if scenario["fingerprint"].get(artifact) != reference[name].get(artifact):
                    kind = "traced" if trace else "untraced"
                    run_problems.append(f"{kind} {artifact} differs from pass 0")
            for stage, problems in (("run", run_problems), ("replay", scenario["replay_problems"])):
                attempted += 1
                if problems:
                    failed += 1
                    reasons += [f"pass {index} {name} {stage}: {p}" for p in problems]
    return attempted, failed, reasons


def _replays(passes, key: str) -> dict[str, list[float]]:
    """Every replay time of every pass, by scenario."""
    replays: dict[str, list[float]] = {}
    for _, m in passes:
        for name, times in m[key].items():
            replays.setdefault(name, []).extend(times)
    return replays


def end_to_end(passes) -> tuple[dict, dict]:
    """Metric values and the sample summaries printed beside them.

    A timing is the median of its scaled samples; ``replay_s`` is the sum
    over scenarios of each one's median replay.  The notes give the sample
    count and the same statistic over wall time.
    """
    median = statistics.median
    setup = [t for _, m in passes for t in m["setup_s"]]
    setup_wall = [t for _, m in passes for t in m["setup_wall_s"]]
    values = {
        "setup_s": median(setup),
        "run_s": median(m["run_s"] for _, m in passes),
    }
    notes = {
        "setup_s": f"(median of {len(setup)} loads; wall {median(setup_wall):.6g})",
        "run_s": f"(median of {len(passes)} passes; wall {median(m['run_wall_s'] for _, m in passes):.6g})",
    }
    replays, replays_wall = _replays(passes, "replay_s"), _replays(passes, "replay_wall_s")
    values["replay_s"] = sum(median(times) for times in replays.values())
    counts = sorted({len(times) for times in replays.values()})
    notes["replay_s"] = (f"(sum over {len(replays)} scenario(s) of the median of "
                         f"{'/'.join(map(str, counts))} replays each; wall "
                         f"{sum(median(t) for t in replays_wall.values()):.6g})")
    rss = [m["peak_rss_mb"] for _, m in passes]
    values["peak_rss_mb"] = statistics.median(rss)
    notes["peak_rss_mb"] = f"(median of {len(rss)})"
    first = passes[0][1]["scenarios"]
    values["v2v_rounds"] = sum(s["fingerprint"].get("rounds", 0) for s in first)
    notes["v2v_rounds"] = "(deterministic; pass 0)"
    return {name: values[name] for name in END_TO_END}, notes


def per_layer(passes) -> tuple[dict, list[str]]:
    """Medians of the traced passes' layer metrics; absent ones are listed
    instead of valued."""
    traced = [m for trace, m in passes if trace]
    plain = [m for trace, m in passes if not trace]
    values, absent = {}, []
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        readings = [m["layers"].get(name) for m in traced]
        if any(r is None for r in readings):
            absent.append(name)
        else:
            values[name] = statistics.median(readings)
    values["trace.overhead_s"] = statistics.median(m["run_wall_s"] for m in traced) - statistics.median(
        m["run_wall_s"] for m in plain
    )
    return values, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_platoonsec()
    except ProgramNotFound as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = scenario_files(args.workload, ROOT, args.seed, work / "scenarios")
    if not files:
        print(f"perfbench: workload {args.workload} has no scenarios", file=sys.stderr)
        return 2
    env = environment(args.seed)
    acceptance = args.workload == "shipped_suite"

    try:
        if args.trace:
            passes = run_passes(files, work, args.seconds, acceptance, (False, True))
            values, absent = per_layer(passes)
            notes = {}
            units = PER_LAYER
        else:
            passes = run_passes(files, work, args.seconds, acceptance, (False,))
            values, notes = end_to_end(passes)
            absent = []
            units = END_TO_END
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, reasons = failures(passes)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} pass(es), {len(files)} scenario(s) each")
    print("env " + json.dumps(env))
    for name, value in values.items():
        print(f"  {name:32s} {value:>16.6f} {units[name]:6s} {notes.get(name, '')}")
    for name in absent:
        print(f"  {name:32s} {'absent':>16s} {units[name]}")
    if not args.trace:
        cap_steps = sum(s["fingerprint"].get("cap_steps", 0) for s in passes[0][1]["scenarios"])
        print(f"  {'cap_steps':32s} {cap_steps:>16d} count  (deterministic; pass 0)")
    print(f"  {'failed_runs':32s} {failed:>16d} count  (of {attempted} runs and replays attempted)")
    for reason in reasons:
        print(f"  FAILED {reason}")
    for missing in passes[-1][1].get("missing_hooks", []):
        print(f"  hook absent from the program: {missing}")
    for scenario in passes[0][1]["scenarios"]:
        print(f"fingerprint {scenario['name']} " + json.dumps(scenario["fingerprint"]))

    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    (work / "report.json").write_text(json.dumps({**report, "env": env, "passes": [m for _, m in passes]}, indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
