"""Roofline probe and the ROADMAP baseline table (traced runs only).

The probe measures, in the same run as the traced workload:

* memory bandwidth: one in-place streaming update (read and write) over a
  float64 array of at least four times the last-level cache, best of three;
* one full-state streaming pass (``out = state * c``, complex128) at the
  largest register the workload used, best of many — the floor a gate
  application or an evolve step over that state cannot beat.

The baseline table re-runs the ROADMAP's one-off measurement from one
command: choco-q, 2 layers, 1024 shots, seed 0 on F1 dense, K2/K4/G4
subspace and K4 dense, split into transpile (depth accounting), COBYLA
bookkeeping (minimize time outside the cost callable) and the cost-eval
kernel, with the evaluation counts the table pins.
"""

from __future__ import annotations

import glob
import time

import numpy as np

from repro.run import RunSpec, execute_spec

from common import BenchmarkFailure
from spans import Tracer, self_times

#: (benchmark, backend, evaluations the ROADMAP baseline table records)
BASELINE_CASES = (
    ("F1", "dense", 100),
    ("K2", "subspace", 73),
    ("K4", "subspace", 70),
    ("G4", "subspace", 38),
    ("K4", "dense", 70),
)


def last_level_cache_bytes() -> int:
    """Size of the highest-level CPU cache, from sysfs."""
    best_level, best_size = -1, 0
    for directory in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(f"{directory}/level", encoding="ascii") as handle:
                level = int(handle.read())
            with open(f"{directory}/size", encoding="ascii") as handle:
                text = handle.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if level > best_level:
            best_level, best_size = level, size
    if best_size <= 0:
        raise BenchmarkFailure("no CPU cache sizes in sysfs; cannot size the bandwidth array")
    return best_size


def memory_bandwidth(llc_bytes: int) -> tuple[float, int]:
    """``(GB/s, array bytes)`` of an in-place read-modify-write stream."""
    array_bytes = 4 * llc_bytes + 2**20
    data = np.ones(array_bytes // 8)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        np.add(data, 1.0, out=data)
        best = min(best, time.perf_counter() - start)
    del data
    return 2 * array_bytes / best / 1e9, array_bytes


def stream_pass_ms(dimension: int) -> float:
    """Best time of one read-and-write pass over a complex128 state."""
    state = np.full(dimension, 0.5 + 0.5j)
    out = np.empty_like(state)
    repeats = max(5, min(200, (2**24) // max(dimension, 1)))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.multiply(state, 1j, out=out)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def roofline(noise_qubits: int, evolve_dimension: int) -> dict:
    """Bandwidth and the streaming floor at the workload's largest register."""
    llc = last_level_cache_bytes()
    bandwidth, array_bytes = memory_bandwidth(llc)
    dimension = max(2**noise_qubits if noise_qubits else 0, evolve_dimension, 1)
    noise_dimension = 2**noise_qubits if noise_qubits else dimension
    pass_ms = stream_pass_ms(dimension)
    return {
        "llc_mib": llc / 2**20,
        "array_mib": array_bytes / 2**20,
        "mem_bw_gbs": bandwidth,
        "state_dim": dimension,
        "stream_pass_ms": pass_ms,
        "noise_state_dim": noise_dimension,
        "noise_stream_pass_ms": (
            pass_ms if noise_dimension == dimension else stream_pass_ms(noise_dimension)
        ),
    }


def baseline_table(repeats: int = 2) -> list[dict]:
    """The ROADMAP baseline rows; the faster of ``repeats`` runs per case."""
    rows = []
    for benchmark, backend, expected_evals in BASELINE_CASES:
        best = None
        for _ in range(repeats):
            tracer = Tracer().install()
            start = time.perf_counter()
            try:
                execute_spec(RunSpec(
                    solver="choco-q", benchmark=benchmark, seed=0, shots=1024,
                    config={"num_layers": 2, "backend": backend},
                ))
            finally:
                wall_ms = (time.perf_counter() - start) * 1e3
                tracer.uninstall()
            records = tracer.records()
            table = self_times(records)

            def total(name: str) -> float:
                return table.get(name, {}).get("total_ms", 0.0)

            row = {
                "case": benchmark,
                "backend": backend,
                "wall_ms": wall_ms,
                "transpile_ms": total("qcircuit.transpile"),
                "bookkeeping_ms": total("solvers.optimizer.minimize")
                - total("solvers.optimizer.cost_eval"),
                "kernel_ms": total("solvers.optimizer.cost_eval"),
                "evals": int(sum((r["attrs"] or {}).get("evals", 0) for r in records
                                 if r["name"] == "solvers.optimizer.minimize")),
                "expected_evals": expected_evals,
            }
            if best is None or row["wall_ms"] < best["wall_ms"]:
                best = row
        rows.append(best)
    return rows
