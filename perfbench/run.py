"""End-to-end solve benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports per-layer metrics, per-layer self times, the tracing
overhead and the roofline probe.  A human-readable report goes to standard
output first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  README.md describes the workloads
and metrics.

This file uses the standard library only; the measuring happens in child
processes (``worker.py``, the solve daemon) started with the package from
``src/`` on their path, so that set-up time includes imports and warm-up.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    BenchmarkFailure,
    READY_LINE,
    RESULT_PREFIX,
    ROOT,
    WORK_DIR,
    WORKLOADS,
    child_env,
    median,
    metric_units,
    peak_rss_mb,
)

#: Set-up is measured this many extra times per untraced run (fresh
#: processes), on top of the measured run's own set-up; the median is
#: reported.
SETUP_PROBES = 2
#: The whole invocation must end well inside the 180-second limit.
DEADLINE_S = 170
DAEMON_WORKERS = 2

class Children:
    """Every process this run starts; all are stopped and reaped at exit."""

    def __init__(self) -> None:
        self.processes: list[subprocess.Popen] = []

    def start(self, command: list[str]) -> subprocess.Popen:
        process = subprocess.Popen(
            [str(part) for part in command], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, text=True,
        )
        self.processes.append(process)
        return process

    def stop_all(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.kill()
            try:
                process.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


def wait_ready(process: subprocess.Popen, started: float) -> float:
    """Seconds from ``started`` until the child prints its ready line."""
    for line in process.stdout:
        if line.strip() == READY_LINE:
            return time.perf_counter() - started
    raise BenchmarkFailure(f"{process.args[1]} exited (code {process.wait()}) before ready")


def read_result(process: subprocess.Popen) -> dict:
    result = None
    for line in process.stdout:
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
    if process.wait() != 0 or result is None:
        raise BenchmarkFailure(f"worker failed with exit code {process.returncode}")
    return result


def worker_command(role: str, args, workdir, **extra) -> list:
    command = [sys.executable, BENCH_DIR / "worker.py", role, "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds, "--workdir", workdir]
    for key, value in extra.items():
        if value is True:
            command.append(f"--{key}")
        elif value not in (None, False):
            command += [f"--{key}", value]
    return command


def finish(process: subprocess.Popen) -> None:
    process.communicate(timeout=30)
    if process.returncode != 0:
        raise BenchmarkFailure(f"{process.args[1]} exited with code {process.returncode}")


# ---------------------------------------------------------------------------


def run_closed(args, children: Children, workdir) -> dict:
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            started = time.perf_counter()
            probe = children.start(worker_command("closed", args, workdir, probe=True))
            setup.append(wait_ready(probe, started))
            finish(probe)
    spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    started = time.perf_counter()
    worker = children.start(worker_command(
        "closed", args, workdir, trace=args.trace, spans=spans_path if args.trace else None))
    setup.append(wait_ready(worker, started))
    result = read_result(worker)
    result["setup_samples"] = setup
    return result


def start_daemon(children: Children, workdir, tag: str, spans_path=None):
    service_args = ["--workers", DAEMON_WORKERS, "--store", workdir / f"store-{tag}.jsonl",
                    "--port", 0]
    if spans_path is None:
        command = [sys.executable, "-m", "repro.service", *service_args]
    else:
        command = [sys.executable, BENCH_DIR / "daemon.py", "--spans", spans_path, "--", *service_args]
    daemon = children.start(command)
    line = daemon.stdout.readline()
    match = re.search(r"listening on \S+:(\d+)", line)
    if match is None:
        raise BenchmarkFailure(f"daemon did not start: {line!r}")
    return daemon, int(match.group(1))


def stop_daemon(daemon: subprocess.Popen) -> None:
    daemon.send_signal(signal.SIGINT)
    daemon.communicate(timeout=30)


def service_session(args, children: Children, workdir, tag: str, *, probe=False, spans_path=None):
    """Daemon plus generator; returns ``(setup seconds, result, daemon RSS)``."""
    started = time.perf_counter()
    daemon, port = start_daemon(children, workdir, tag, spans_path)
    generator = children.start(worker_command("service", args, workdir, port=port, probe=probe))
    setup = wait_ready(generator, started)
    result = None if probe else read_result(generator)
    if probe:
        finish(generator)
    rss = peak_rss_mb(daemon.pid)
    stop_daemon(daemon)
    return setup, result, rss


def run_service(args, children: Children, workdir) -> dict:
    setup = []
    if not args.trace:
        for index in range(SETUP_PROBES):
            setup.append(service_session(args, children, workdir, f"probe{index}", probe=True)[0])
    seconds, result, rss = service_session(args, children, workdir, "main")
    setup.append(seconds)
    result["setup_samples"] = setup
    result["end_to_end"]["peak_rss_mb"] = rss
    if args.trace:
        from spans import largest_registers, layer_metrics, read_spans, self_times, window

        spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        _, traced, _ = service_session(args, children, workdir, "traced", spans_path=spans_path)
        records = window(read_spans(spans_path), traced["window_start_ns"])
        layers = layer_metrics(records)
        layers.update({f"service.{key}": value for key, value in traced["service"].items()})
        layers["loadgen.lag_ms_max"] = traced["loadgen"]["lag_ms_max"]
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["failures"] += traced["failures"]
        result["trace"] = {
            "layers": layers,
            "self_times": self_times(records),
            "untraced_throughput_per_s": result["end_to_end"]["throughput_per_s"],
            "traced_throughput_per_s": traced["end_to_end"]["throughput_per_s"],
            "untraced_latency_ms_p50": result["end_to_end"]["latency_ms_p50"],
            "traced_latency_ms_p50": traced["end_to_end"]["latency_ms_p50"],
            "roofline": probe_roofline(*largest_registers(records)),
            "spans": len(records),
        }
    return result


# ---------------------------------------------------------------------------


def end_to_end_metrics(result: dict) -> dict:
    """The end-to-end metrics of an untraced run.

    ``setup_s`` is the median set-up time divided by the run's median host
    slowdown: a set-up has no operations of its own to bracket with the
    calibration kernel, and the host's speed drifts over minutes, so the
    slowdown measured over the run just after the set-ups stands for theirs.
    """
    setup_s = median(result["setup_samples"]) / result["host"]["slowdown"]
    values = dict(result["end_to_end"], setup_s=setup_s)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metric_units()[0].items()}


def per_layer_metrics(result: dict) -> dict:
    trace = result["trace"]
    layers = dict(trace["layers"])
    roofline = trace["roofline"]
    layers["roofline.mem_bw_gbs"] = roofline["mem_bw_gbs"]
    layers["roofline.stream_pass_ms"] = roofline["stream_pass_ms"]
    layers["qcircuit.noise.stream_floor_ms"] = roofline["noise_stream_pass_ms"]
    evolve_ms = layers["hamiltonian.compiled.evolve_ms"]
    layers["hamiltonian.compiled.evolve_gbs"] = (
        layers["hamiltonian.compiled.evolve_bytes"] / (evolve_ms * 1e6) if evolve_ms else 0.0
    )
    untraced = trace["untraced_throughput_per_s"]
    layers["trace.untraced_throughput_per_s"] = untraced
    layers["trace.traced_throughput_per_s"] = trace["traced_throughput_per_s"]
    layers["trace.overhead_frac"] = overhead_frac(trace)
    # Layers a workload does not pass through (service on closed loops,
    # noise where nothing is noisy) read 0.
    return {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in metric_units()[1].items()}


def overhead_frac(trace: dict) -> float:
    """Share of speed the tracer costs.

    Closed loops: (untraced - traced) / untraced throughput.  On service-mix
    throughput follows the open-loop schedule whatever the tracer costs, so
    the overhead is read from latency instead: traced / untraced median
    latency - 1.
    """
    if "traced_latency_ms_p50" in trace:
        return trace["traced_latency_ms_p50"] / trace["untraced_latency_ms_p50"] - 1.0
    untraced = trace["untraced_throughput_per_s"]
    return (untraced - trace["traced_throughput_per_s"]) / untraced


def probe_roofline(noise_qubits: int, evolve_dimension: int) -> dict:
    """The roofline probe for the daemon's registers, in a child process."""
    code = ("import json; from roofline import roofline; "
            f"print(json.dumps(roofline({noise_qubits}, {evolve_dimension})))")
    output = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH_DIR, env=child_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(output.stdout.strip().splitlines()[-1])


def print_report(args, result: dict, metrics: dict) -> None:
    print(f"== perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"operations attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / result['attempted']:.4f}")
    for failure in result["failures"]:
        print(f"  check failed: {failure['check']} {failure['id']} {failure['detail']}")
    if not args.trace:
        latency = result["latency"]
        print(f"latency: medians over {latency['blocks']} blocks of the per-block p50 and "
              f"p{latency['tail_percentile']:g} (tail); {latency['samples']} samples, "
              f"{latency['beyond_tail']} beyond their block's tail; quality means over "
              f"{result['quality_solves']} solves; set-up samples "
              f"{', '.join(f'{s:.3f}' for s in result['setup_samples'])} s")
        host = result["host"]
        raw = (f"raw throughput {host['raw_throughput_per_s']:.4g}/s" if "raw_throughput_per_s" in host
               else f"raw cold p50 {host['raw_latency_ms_p50']:.4g} ms")
        print(f"host: median slowdown {host['slowdown']:.3f} against the reference speed "
              f"(hostspeed.py); solve and request times below are divided by the slowdown "
              f"around each, setup_s by this median; wall clock: {raw}")
        if "latency_by_kind" in result:
            print("latency by request kind, p50/p90/max (ms): " + ", ".join(
                f"{kind}={row['p50']:.1f}/{row['p90']:.1f}/{row['max']:.1f}"
                for kind, row in result["latency_by_kind"].items()))
            print(f"service counters: {json.dumps(result['service'])}; "
                  f"generator lag p50={result['loadgen']['lag_ms_p50']:.2f} ms "
                  f"max={result['loadgen']['lag_ms_max']:.2f} ms")
        print(f"failed_frac = {result['end_to_end']['failed_frac']:.4f} ratio")
    else:
        trace = result["trace"]
        print(f"tracing overhead: untraced {trace['untraced_throughput_per_s']:.3f}/s, "
              f"traced {trace['traced_throughput_per_s']:.3f}/s "
              f"(traced - untraced = {trace['traced_throughput_per_s'] - trace['untraced_throughput_per_s']:+.3f}/s)"
              f"; {trace['spans']} spans")
        if "traced_latency_ms_p50" in trace:
            print(f"open loop, so throughput follows the schedule; median latency untraced "
                  f"{trace['untraced_latency_ms_p50']:.1f} ms, traced {trace['traced_latency_ms_p50']:.1f} ms "
                  f"(overhead_frac = traced / untraced - 1 = {overhead_frac(trace):+.3f})")
        print(f"{'layer span':36s} {'calls':>8s} {'total ms':>10s} {'self ms':>10s}")
        for name, row in sorted(trace["self_times"].items(), key=lambda item: -item[1]["self_ms"]):
            print(f"{name:36s} {row['calls']:8d} {row['total_ms']:10.1f} {row['self_ms']:10.1f}")
        roofline = trace["roofline"]
        print(f"roofline: LLC {roofline['llc_mib']:.1f} MiB, bandwidth array "
              f"{roofline['array_mib']:.1f} MiB -> {roofline['mem_bw_gbs']:.2f} GB/s; one streaming pass "
              f"over the largest state ({roofline['state_dim']} amplitudes) "
              f"{roofline['stream_pass_ms']:.4f} ms; noisy register {roofline['noise_state_dim']} "
              f"amplitudes {roofline['noise_stream_pass_ms']:.4f} ms")
        for row in trace.get("baseline_table", []):
            if row is trace["baseline_table"][0]:
                print("ROADMAP baseline (choco-q, 2 layers, 1024 shots, seed 0; traced):")
                print(f"{'case':5s} {'backend':9s} {'wall ms':>8s} {'transpile':>15s} "
                      f"{'bookkeeping':>15s} {'cost-eval':>15s} {'evals':>6s}")
            wall = row["wall_ms"]
            print(f"{row['case']:5s} {row['backend']:9s} {wall:8.0f} "
                  + " ".join(f"{row[k]:7.0f} ({100 * row[k] / wall:3.0f}%)"
                             for k in ("transpile_ms", "bookkeeping_ms", "kernel_ms"))
                  + f" {row['evals']:6d}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="End-to-end solve benchmark (see README.md).")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _deadline(signum, frame):
    raise BenchmarkFailure(f"run exceeded {DEADLINE_S} s")


def _terminated(signum, frame):
    raise BenchmarkFailure("terminated")


def run_workload(args) -> int:
    """Measure one workload; print its report and its JSON line."""
    signal.alarm(DEADLINE_S)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    children = Children()
    try:
        if args.workload == "service-mix":
            result = run_service(args, children, workdir)
        else:
            result = run_closed(args, children, workdir)
        metrics = per_layer_metrics(result) if args.trace else end_to_end_metrics(result)
    except (BenchmarkFailure, subprocess.SubprocessError, OSError) as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        children.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(args, result, metrics)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'repro'}; nothing to measure",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _deadline)
    # A terminated run still stops its children and removes its scratch.
    signal.signal(signal.SIGTERM, _terminated)
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for workload in WORKLOADS:
        status = max(status, run_workload(argparse.Namespace(**{**vars(args), "workload": workload})))
    return status


if __name__ == "__main__":
    sys.exit(main())
