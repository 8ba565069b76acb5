"""The measuring process behind ``run.py``.

Two roles, chosen by the first argument:

* ``closed`` — runs a closed-loop workload in this process: each solve is
  one ``run_plan(max_workers=1)`` call appending to a fresh JSONL file, and
  the next solve starts when the previous one returns;
* ``service`` — the open-loop load generator for ``service-mix``: drives a
  running daemon over two TCP connections on the seeded arrival schedule.

Either role imports the package, warms up on a problem outside every
workload, prints ``READY`` (``run.py`` times set-up up to that line) and then
measures.  With ``--probe`` it exits right after ``READY``.  The result goes
back to ``run.py`` as one ``RESULT`` line.
"""

from __future__ import annotations

import argparse
import asyncio
import time
from pathlib import Path

import numpy as np

from repro.exceptions import ReproError
from repro.run import ExperimentPlan, run_plan
from repro.service.client import TCPServiceClient

from checks import SweepChecker, check_record, check_service_answer
from common import (
    BLOCK_ROUNDS,
    QUALITY_ROUNDS,
    READY_LINE,
    SERVICE_LATENCY_LIMIT_MS,
    TAIL_PERCENTILE,
    emit_result,
    latency_summary,
    median,
    peak_rss_mb,
    percentile,
)
from hostspeed import SpeedSampler, SpeedTrack
from workloads import (
    closed_loop_rounds,
    service_schedule,
    warmup_specs,
    warmup_sweep,
)

#: service-mix latency percentiles are taken over this request kind (README.md,
#: "service-mix latency").
LATENCY_KIND = "cold"
#: service-mix: the calibration kernel runs every SPEED_PERIOD_S, and a
#: request's latency is divided by the median slowdown of the samples within
#: SPEED_WINDOW_S of its midpoint (hostspeed.py).  The host's speed moves
#: within a second: over ten seeds the cold p50 spread (IQR/median) 0.04
#: with this window, 0.08 with 1 s and 0.12 with 5 s.
SPEED_PERIOD_S = 0.2
SPEED_WINDOW_S = 0.3
#: Spec solves the service-mix run re-executes in-process for the
#: bit-identity check (a seeded sample of the distinct answered specs).
IDENTITY_SAMPLE = 3


def quality_means(metrics: list[dict]) -> dict:
    return {
        key: float(np.mean([m[key] for m in metrics])) if metrics else float("nan")
        for key in ("success_rate", "in_constraints_rate", "arg")
    }


# ---------------------------------------------------------------------------
# Closed loops
# ---------------------------------------------------------------------------


def closed_phase(rounds, seconds: float, min_rounds: int, block_rounds: int,
                 jsonl_path: Path) -> dict:
    """Run whole blocks of rounds until ``seconds`` of solve time and ``min_rounds``.

    Only the ``run_plan`` calls are timed; the output checks between solves
    are not, so the benchmark's own checking never reads as program time.
    Each solve's time is divided by the host's slowdown over it
    (``hostspeed.SpeedTrack``); the budget of ``seconds`` is wall time.
    """
    round_latencies: list[list[float]] = []
    round_rates: list[tuple[float, float]] = []
    raw_rates: list[float] = []
    quality: list[dict] = []
    failures: list[dict] = []
    attempted = 0
    busy = 0.0
    speed = SpeedTrack()
    speed.mark()
    while busy < seconds or len(round_rates) < min_rounds or len(round_rates) % block_rounds:
        round_busy = round_scaled = 0.0
        completed = good = 0
        latencies_ms = []
        for spec in next(rounds):
            attempted += 1
            plan = ExperimentPlan(specs=[spec], name="perfbench")
            start = time.perf_counter()
            try:
                [record] = run_plan(plan, max_workers=1, jsonl_path=jsonl_path, resume=False)
            except ReproError as error:
                elapsed = time.perf_counter() - start
                round_busy += elapsed
                round_scaled += elapsed / speed.mark()
                failures.append({"check": "error", "id": spec.display_name(), "detail": str(error)})
                continue
            elapsed = time.perf_counter() - start
            scaled = elapsed / speed.mark()
            round_busy += elapsed
            round_scaled += scaled
            latencies_ms.append(scaled * 1e3)
            completed += 1
            failed = check_record(record.to_dict())
            failures.extend({"check": name, "id": spec.display_name(),
                             "detail": record.spec_hash} for name in failed)
            good += not failed
            if len(round_rates) < min_rounds:
                quality.append(record.metrics)
        busy += round_busy
        round_latencies.append(latencies_ms)
        round_rates.append((completed / round_scaled, good / round_scaled))
        raw_rates.append(completed / round_busy)
    return {
        "attempted": attempted,
        "failed": len({(f["id"], f["detail"]) for f in failures}),
        "failures": failures,
        "busy_s": busy,
        "round_latencies": round_latencies,
        "round_rates": round_rates,
        "host": {"slowdown": median(speed.slowdowns),
                 "raw_throughput_per_s": median(raw_rates)},
        "quality": quality_means(quality),
        "quality_solves": len(quality),
    }


def closed_end_to_end(workload: str, phase: dict) -> tuple[dict, dict]:
    """End-to-end metrics of a closed-loop phase, and its latency summary.

    Throughput and goodput are medians over rounds, and the latency
    percentiles medians over blocks of ``BLOCK_ROUNDS`` rounds (each round is
    one solve of every kind, so rounds and blocks are alike), which keeps a
    short slow spell of the host from moving the whole run's figure.
    """
    size = BLOCK_ROUNDS[workload]
    rounds = phase["round_latencies"]
    blocks = [sum(rounds[start:start + size], []) for start in range(0, len(rounds), size)]
    summary = latency_summary(blocks, TAIL_PERCENTILE[workload])
    return {
        "throughput_per_s": median(rate for rate, _ in phase["round_rates"]),
        "latency_ms_p50": summary["p50"],
        "latency_ms_tail": summary["tail"],
        "goodput_per_s": median(good for _, good in phase["round_rates"]),
        "failed_frac": phase["failed"] / phase["attempted"],
        "peak_rss_mb": peak_rss_mb(),
        **phase["quality"],
    }, summary


def run_closed(args, workdir: Path) -> dict:
    rounds = closed_loop_rounds(args.workload, args.seed, QUALITY_ROUNDS[args.workload])
    block_rounds = BLOCK_ROUNDS[args.workload]
    untraced = closed_phase(rounds, args.seconds, QUALITY_ROUNDS[args.workload], block_rounds,
                            workdir / "plan.jsonl")
    metrics, summary = closed_end_to_end(args.workload, untraced)
    result = {
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "failures": untraced["failures"],
        "end_to_end": metrics,
        "latency": summary,
        "quality_solves": untraced["quality_solves"],
        "rounds": len(untraced["round_rates"]),
        "host": untraced["host"],
    }
    if not args.trace:
        return result

    from roofline import baseline_table, roofline
    from spans import Tracer, largest_registers, layer_metrics, self_times, write_spans

    tracer = Tracer().install()
    try:
        traced = closed_phase(rounds, args.seconds, 0, block_rounds,
                              workdir / "plan-traced.jsonl")
    finally:
        tracer.uninstall()
    records = tracer.records()
    write_spans(args.spans, records)
    result["attempted"] += traced["attempted"]
    result["failed"] += traced["failed"]
    result["failures"] += traced["failures"]
    traced_throughput = median(rate for rate, _ in traced["round_rates"])
    result["trace"] = {
        "layers": layer_metrics(records),
        "self_times": self_times(records),
        "untraced_throughput_per_s": metrics["throughput_per_s"],
        "traced_throughput_per_s": traced_throughput,
        "roofline": roofline(*largest_registers(records)),
        "spans": len(records),
    }
    if args.workload == "subspace-seeds":
        table = baseline_table()
        result["trace"]["baseline_table"] = table
        for row in table:
            result["attempted"] += 1
            if row["evals"] != row["expected_evals"]:
                result["failed"] += 1
                result["failures"].append({"check": "baseline_evals", "id": row["case"],
                                           "detail": f"{row['evals']} != {row['expected_evals']}"})
    return result


# ---------------------------------------------------------------------------
# Open-loop service generator
# ---------------------------------------------------------------------------


async def _send(client: TCPServiceClient, event: dict, due: float) -> dict:
    loop = asyncio.get_running_loop()
    sent = loop.time()
    outcome = {"kind": event["kind"], "op": event["op"], "lag_ms": (sent - due) * 1e3}
    try:
        if event["op"] == "solve":
            outcome["answer"] = (await client.solve(event["payload"])).to_dict()
        else:
            outcome["answer"] = await client.sweep(event["payload"])
        outcome["ok"] = True
    except ReproError as error:
        outcome["ok"] = False
        outcome["error"] = str(error)
    outcome["latency_ms"] = (loop.time() - due) * 1e3
    return outcome


async def _warm_service(port: int) -> list[TCPServiceClient]:
    clients = [await TCPServiceClient.connect("127.0.0.1", port) for _ in range(2)]
    for spec in warmup_specs("service-mix"):
        await clients[0].solve(spec)
    await clients[1].sweep(warmup_sweep())
    return clients


def service_checks(seed: int, outcomes: list[dict], events: list[dict]) -> tuple[list, dict]:
    """Named check failures over every answer, and the distinct solve answers."""
    failures = []
    distinct: dict[str, dict] = {}
    sweeps = SweepChecker()
    for index, (outcome, event) in enumerate(zip(outcomes, events)):
        if not outcome["ok"]:
            failures.append({"check": "error", "id": f"{event['kind']}#{index}",
                             "detail": outcome["error"]})
            continue
        if event["op"] == "sweep":
            names = sweeps.check(event["payload"], outcome["answer"])
        else:
            answer = outcome["answer"]
            distinct.setdefault(answer["spec_hash"], answer)
            names = check_record(answer)
        failures.extend({"check": name, "id": f"{event['kind']}#{index}", "detail": ""}
                        for name in names)
    rng = np.random.default_rng([seed, 0x1D])
    hashes = sorted(distinct)
    for spec_hash in rng.choice(hashes, size=min(IDENTITY_SAMPLE, len(hashes)), replace=False):
        for name in check_service_answer(distinct[str(spec_hash)]):
            failures.append({"check": name, "id": str(spec_hash), "detail": ""})
    return failures, distinct


async def run_generator(args, clients: list[TCPServiceClient]) -> dict:
    loop = asyncio.get_running_loop()
    events = service_schedule(args.seed, args.seconds)
    before = await clients[0].stats()
    window_start_ns = time.perf_counter_ns()
    start = loop.time() + 0.05
    tasks = []
    with SpeedSampler(SPEED_PERIOD_S) as speed:
        for index, event in enumerate(events):
            due = start + event["at"]
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(_send(clients[index % 2], event, due)))
        outcomes = list(await asyncio.gather(*tasks))
    for outcome, event in zip(outcomes, events):
        midpoint = start + event["at"] + outcome["latency_ms"] / 2e3
        outcome["scaled_ms"] = outcome["latency_ms"] / speed.slowdown_at(midpoint, SPEED_WINDOW_S)
    wall = max(o["latency_ms"] / 1e3 + start + e["at"] for o, e in zip(outcomes, events)) - start
    after = await clients[0].stats()
    for client in clients:
        await client.close()

    failures, distinct = service_checks(args.seed, outcomes, events)
    failed_ids = {f["id"] for f in failures}
    answered = [o for o in outcomes if o["ok"]]

    def cold_blocks(field: str) -> list[list[float]]:
        blocks: dict[int, list[float]] = {}
        for outcome, event in zip(outcomes, events):
            if outcome["ok"] and event["kind"] == LATENCY_KIND:
                blocks.setdefault(event["block"], []).append(outcome[field])
        return list(blocks.values())

    summary = latency_summary(cold_blocks("scaled_ms"), TAIL_PERCENTILE["service-mix"])
    raw_p50 = latency_summary(cold_blocks("latency_ms"), TAIL_PERCENTILE["service-mix"])["p50"]
    good = sum(1 for index, o in enumerate(outcomes)
               if o["ok"] and o["scaled_ms"] <= SERVICE_LATENCY_LIMIT_MS
               and f"{events[index]['kind']}#{index}" not in failed_ids)
    delta = {key: after[key] - before[key] for key in before if isinstance(before[key], int)}
    lags = [o["lag_ms"] for o in outcomes]
    by_kind = {}
    for outcome in answered:
        by_kind.setdefault(outcome["kind"], []).append(outcome["scaled_ms"])
    return {
        "attempted": len(outcomes),
        "failed": len(failed_ids),
        "failures": failures,
        "end_to_end": {
            "throughput_per_s": len(answered) / wall,
            "latency_ms_p50": summary["p50"],
            "latency_ms_tail": summary["tail"],
            "goodput_per_s": good / wall,
            "failed_frac": len(failed_ids) / len(outcomes),
            **quality_means([answer["metrics"] for answer in distinct.values()]),
        },
        "latency": summary,
        "latency_by_kind": {kind: {"p50": percentile(values, 50.0), "p90": percentile(values, 90.0),
                                   "max": max(values)}
                            for kind, values in sorted(by_kind.items())},
        "quality_solves": len(distinct),
        "host": {"slowdown": median(value for _, value in speed.samples()),
                 "raw_latency_ms_p50": raw_p50},
        "service": {
            "store_hit_ratio": delta["store_hits"] / max(delta["requests"], 1),
            "dedup_ratio": delta["deduped"] / max(delta["requests"], 1),
            "coalesce_ratio": delta["sweeps_coalesced"] / max(delta["sweep_requests"], 1),
            "executed": delta["executed"],
            "failures": delta["failures"],
            "timeouts": delta["timeouts"],
        },
        "loadgen": {"lag_ms_max": max(lags), "lag_ms_p50": percentile(lags, 50.0),
                    "wall_s": wall},
        # perf_counter is CLOCK_MONOTONIC, shared with the daemon's spans.
        "window_start_ns": window_start_ns,
    }


async def service_main(args) -> "dict | None":
    clients = await _warm_service(args.port)
    print(READY_LINE, flush=True)
    if args.probe:
        for client in clients:
            await client.close()
        return None
    return await run_generator(args, clients)


# ---------------------------------------------------------------------------


def warm_up_closed(workload: str, workdir: Path) -> None:
    plan = ExperimentPlan(specs=warmup_specs(workload), name="warmup")
    run_plan(plan, max_workers=1, jsonl_path=workdir / "warmup.jsonl", resume=False)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("closed", "service"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.role == "service":
        result = asyncio.run(service_main(args))
    else:
        warm_up_closed(args.workload, args.workdir)
        print(READY_LINE, flush=True)
        result = None if args.probe else run_closed(args, args.workdir)
    if result is not None:
        emit_result(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
