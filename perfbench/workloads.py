"""Seeded input generators for the four workloads.

Everything here is a pure function of the workload seed: the program under
test only ever receives the :class:`~repro.run.RunSpec` and sweep payloads
built below.  README.md records why each workload exists.
"""

from __future__ import annotations

import dataclasses
from itertools import count
from typing import Iterator

import numpy as np

from repro.run import RunSpec

CHOCO_2L_SUBSPACE = {"num_layers": 2, "backend": "subspace"}
CHOCO_2L_DENSE = {"num_layers": 2, "backend": "dense"}
CHOCO_1L_SUBSPACE = {"num_layers": 1, "backend": "subspace"}
CYCLIC_SUBSPACE = {"backend": "subspace"}
FEZ_TRAJECTORY = {"device": "fez", "mode": "trajectory", "trajectories": 8}
FEZ_ANALYTICAL = {"device": "fez", "mode": "analytical"}

#: Problem used only for warm-up: outside every workload's set (and the
#: baseline table's), so warm-up cannot pre-fill a structural cache that a
#: measured solve would then hit.
WARMUP_BENCHMARK = "G1"

SUBSPACE_SEEDS_PROBLEMS = ("F2", "G3", "G4", "K2", "K4")

# service-mix traffic, one cycle of CYCLE_S seconds repeated.  The shares
# and sizes follow the repository's own service scenarios
# (benchmarks/bench_service_throughput.py): per 30 executions they send 24
# cold unique solves, 96 burst requests over 6 specs (16 identical each), 120
# store reads replaying that traffic and 64 single-vector sweeps on one
# ansatz.  Scaled to 5 executions a cycle: 4 cold solves, one burst of 16,
# 20 repeats and 11 sweeps (64/6 rounded), 51 requests.  CYCLE_S puts the
# executions at 4/s, about an eighth of the daemon's cold-solve capacity
# (README.md explains why not half).
CYCLE_S = 1.25
COLD_PER_CYCLE = 4
BURST_SIZE = 16
REPEATS_PER_CYCLE = 20
SWEEPS_PER_CYCLE = 11
SWEEP_VECTORS = 1
#: Arrival offsets inside a cycle (or inside a cold or repeat slot) follow
#: one Weyl sequence, frac(shift + cycle * phi), with its own shift per kind:
#: across the run's cycles every kind meets the others at evenly spread
#: phases, and the same phases for every seed.  Drawn from the seed, the
#: phases made cold requests meet bursts and sweeps more often in some runs
#: than in others: over ten seeds the cold p75 spread 0.15 of its median
#: (IQR), against 0.07 with these phases.
_GOLDEN = (5 ** 0.5 - 1) / 2
COLD_SHIFT = 0.5
BURST_SHIFT = 0.0
SWEEP_SHIFT = 0.25
REPEAT_SHIFT = 0.75
#: Latency percentiles are taken per block of this many cycles (four, so
#: that a block holds 16 cold requests and its p75 has 4 beyond it) and the
#: median over blocks is reported.
CYCLES_PER_BLOCK = 4
#: A repeat targets a cold or burst spec scheduled at least this long before it.
REPEAT_MIN_AGE_S = 1.5
#: Cold and burst solves: one-layer G2 took 30-42 ms alone on each of the 8
#: instances probed (F2 and K2 took 47 to 149 ms), so cold latencies form
#: one narrow distribution; one-layer choco-q misses the optimum on most G2
#: instances, so the mean ``arg`` is never 0.
COLD_PROBLEM = "G2"
SWEEP_ANSATZ = {"solver": "choco-q", "benchmark": "G3", "case_index": 0,
                "config": dict(CHOCO_2L_SUBSPACE)}


#: The quality panel is built from this fixed seed; ``--seed`` only orders it
#: and generates everything after it (README.md, "Seeds").
PANEL_SEED = 0
#: Case indices of the panel; ``--seed`` streams start far above them.
PANEL_CASE_BASE = 1


def _case_base(seed: int) -> int:
    """First case index of a seed's distinct-instance stream."""
    return 1_000_000 + (seed % 1_000_000) * 1000


def _round(workload: str, rng, cases, tag: str) -> list[RunSpec]:
    """One solve of every kind the workload mixes."""

    def spec(solver, benchmark, config=None, *, shots=1024, noise=None, case=0):
        return RunSpec(
            solver=solver,
            benchmark=benchmark,
            config=config,
            case_index=case,
            seed=int(rng.integers(2**31)),
            shots=shots,
            noise=noise,
            label=f"{solver}@{benchmark}#{tag}",
        )

    if workload == "subspace-seeds":
        return [
            spec(solver, benchmark, config)
            for benchmark in SUBSPACE_SEEDS_PROBLEMS
            for solver, config in (
                ("choco-q", CHOCO_2L_SUBSPACE),
                ("cyclic-qaoa", CYCLIC_SUBSPACE),
            )
        ]
    if workload == "dense-unique":
        # Two G4 per round puts the median inside the G4 group and the
        # 75th percentile inside the penalty-QAOA group, so neither sits on
        # a boundary between solve kinds of different cost.
        return [
            spec("choco-q", "K4", CHOCO_2L_DENSE, case=next(cases)),
            spec("choco-q", "G4", CHOCO_2L_DENSE, case=next(cases)),
            spec("choco-q", "G4", CHOCO_2L_DENSE, case=next(cases)),
            spec("penalty-qaoa", "K2", case=next(cases)),
            spec("hea", "G2", case=next(cases)),
        ]
    if workload == "noisy-fez":
        round_specs = [
            spec("choco-q", benchmark, CHOCO_1L_SUBSPACE, shots=512, noise=noise)
            for benchmark in ("F1", "G2", "K2")
            for noise in (FEZ_TRAJECTORY, FEZ_ANALYTICAL)
        ]
        round_specs.append(spec("hea", "K1", shots=512, noise=FEZ_TRAJECTORY))
        return round_specs
    raise ValueError(f"{workload!r} is not a closed-loop workload")


def closed_loop_rounds(workload: str, seed: int, panel_rounds: int) -> Iterator[list[RunSpec]]:
    """Endless stream of spec rounds for a closed-loop workload.

    The first ``panel_rounds`` rounds are the quality panel: fixed specs
    (instances and spec seeds), in an order drawn from ``seed``.  Later
    rounds are drawn from ``seed`` alone.  Every case index is used once
    per run, and each round holds one solve of every kind, so every prefix
    of whole rounds keeps the workload's proportions.
    """
    panel_rng = np.random.default_rng([PANEL_SEED, 0x5EED])
    panel_cases = count(PANEL_CASE_BASE)
    panel = [_round(workload, panel_rng, panel_cases, f"p{index}") for index in range(panel_rounds)]
    rng = np.random.default_rng([seed, 0x5EED])
    for index in rng.permutation(panel_rounds):
        yield panel[index]
    cases = count(_case_base(seed))
    for round_index in count():
        yield _round(workload, rng, cases, f"r{round_index}")


def warmup_specs(workload: str) -> list[RunSpec]:
    """The workload's solver configurations, re-aimed at the warm-up problem."""
    if workload == "service-mix":
        first_round = [cold_spec(0, 0)]
    else:
        first_round = next(closed_loop_rounds(workload, 0, 0))
    unique: dict[str, RunSpec] = {}
    for spec in first_round:
        warm = dataclasses.replace(
            spec, benchmark=WARMUP_BENCHMARK, case_index=0, seed=0,
            shots=64, max_iterations=50, label="warmup",
        )
        unique.setdefault(warm.content_hash(), warm)
    return list(unique.values())


def warmup_sweep() -> dict:
    return sweep_payload(np.zeros((SWEEP_VECTORS, 4)), benchmark=WARMUP_BENCHMARK)


def cold_spec(index: int, spec_seed: int) -> RunSpec:
    """The ``index``-th solve of the service-mix instance panel."""
    return RunSpec(
        solver="choco-q",
        benchmark=COLD_PROBLEM,
        config=dict(CHOCO_1L_SUBSPACE),
        case_index=PANEL_CASE_BASE + index,
        seed=spec_seed,
        shots=512,
        label=f"cold#{index}",
    )


def sweep_payload(parameter_sets: np.ndarray, benchmark: str | None = None) -> dict:
    payload = dict(SWEEP_ANSATZ, config=dict(SWEEP_ANSATZ["config"]))
    if benchmark is not None:
        payload.update(benchmark=benchmark, case_index=0)
    payload["parameter_sets"] = np.asarray(parameter_sets, dtype=float).tolist()
    return payload


def service_cycles(seconds: float) -> int:
    return max(int(round(seconds / CYCLE_S)), CYCLES_PER_BLOCK)


def _weyl(cycle: int, shift: float) -> float:
    """Arrival offset in [0, 1) of a cycle: the Weyl sequence frac(shift + cycle * phi)."""
    return (shift + cycle * _GOLDEN) % 1.0


def service_schedule(seed: int, seconds: float) -> list[dict]:
    """The open-loop arrival schedule: ``{"at", "block", "kind", "op", "payload"}``.

    Four request kinds, each exercising one layer of work avoidance:
    ``cold`` (unique specs: execution plus a store write), ``repeat``
    (a cold or burst spec scheduled at least ``REPEAT_MIN_AGE_S`` earlier:
    a store read), ``burst`` (``BURST_SIZE`` identical new specs at one
    instant: in-flight dedup) and ``sweep`` (``SWEEPS_PER_CYCLE`` sweeps on
    one ansatz at one instant: coalescing).

    Every cycle holds the same requests: the cold solves, one burst, the
    repeats and one sweep cluster (repeat slots in the first
    ``REPEAT_MIN_AGE_S`` seconds, with nothing old enough to repeat, stay
    empty).  Cold and repeat requests arrive one per equal slot, at an
    offset inside it (smoother than Poisson arrivals, whose chance clumps
    would make queueing, and so the latency percentiles, differ from seed to
    seed more than from program to program); the burst and the sweep
    cluster arrive at an offset inside the cycle.  The offsets are fixed
    (``_weyl``); the seed draws where each instance of the fixed solve panel
    goes, the repeat targets and the sweep parameters.  Sorted by scheduled
    time.
    """
    rng = np.random.default_rng([seed, 0x5E7])
    panel_rng = np.random.default_rng([PANEL_SEED, 0x5E7])
    cycles = service_cycles(seconds)
    panel = [cold_spec(index, int(panel_rng.integers(2**31)))
             for index in range(cycles * (COLD_PER_CYCLE + 1))]
    instances = iter([panel[index] for index in rng.permutation(len(panel))])
    events: list[dict] = []
    answered: list[tuple[float, RunSpec]] = []

    def add(at: float, cycle: int, kind: str, op: str, payload: dict) -> None:
        events.append({"at": float(at), "block": cycle // CYCLES_PER_BLOCK,
                       "kind": kind, "op": op, "payload": payload})

    def slots(count: int, cycle: int, shift: float) -> np.ndarray:
        return (cycle + (np.arange(count) + _weyl(cycle, shift)) / count) * CYCLE_S

    for cycle in range(cycles):
        for at in slots(COLD_PER_CYCLE, cycle, COLD_SHIFT):
            spec = next(instances)
            add(at, cycle, "cold", "solve", spec.to_dict())
            answered.append((float(at), spec))
        burst = next(instances)
        at = (cycle + _weyl(cycle, BURST_SHIFT)) * CYCLE_S
        for _ in range(BURST_SIZE):
            add(at, cycle, "burst", "solve", burst.to_dict())
        answered.append((float(at), burst))
        at = (cycle + _weyl(cycle, SWEEP_SHIFT)) * CYCLE_S
        for _ in range(SWEEPS_PER_CYCLE):
            vectors = rng.uniform(-np.pi, np.pi, size=(SWEEP_VECTORS, 4))
            add(at, cycle, "sweep", "sweep", sweep_payload(vectors))
        answered.sort(key=lambda item: item[0])
        for at in slots(REPEATS_PER_CYCLE, cycle, REPEAT_SHIFT):
            eligible = sum(1 for when, _ in answered if when <= at - REPEAT_MIN_AGE_S)
            if eligible:
                spec = answered[int(rng.integers(eligible))][1]
                add(at, cycle, "repeat", "solve", spec.to_dict())
    events.sort(key=lambda event: event["at"])
    return events
