"""Constants and small statistics helpers shared by every benchmark process.

Standard library only: ``run.py`` imports this module before anything from
``src/`` is on the path, so that a checkout without the package fails fast.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space inside the checkout: temporary JSONL stores and span dumps.
WORK_DIR = ROOT / ".perfbench"

WORKLOADS = ("subspace-seeds", "dense-unique", "noisy-fez", "service-mix")

#: Tail percentile per workload.  Latency percentiles are taken per block
#: of alike operations (below) and the median over the blocks is reported;
#: the tail is the highest of 50/75/90/95/99 that leaves at least 10 samples
#: beyond the block tails, summed over a 20-second run at the seed commit's
#: rate (see README.md).  It is fixed per workload, not chosen per run, so
#: that a run that completes a few more or fewer solves does not jump to
#: another percentile; every report states it with the count of samples
#: beyond it.
TAIL_PERCENTILE = {
    "subspace-seeds": 75.0,
    "dense-unique": 75.0,
    "noisy-fez": 75.0,
    "service-mix": 75.0,
}

#: Closed loops: rounds per latency block, the fewest whole rounds with at
#: least 10 solves (rounds hold 10, 5 and 7 solves).  service-mix blocks are
#: ``workloads.CYCLES_PER_BLOCK`` cycles of its schedule.
BLOCK_ROUNDS = {"subspace-seeds": 1, "dense-unique": 2, "noisy-fez": 2}

#: service-mix: a request is goodput when it is answered OK within this limit,
#: timed from its scheduled send time and taken at the reference host speed
#: (hostspeed.py).  Twice the seed commit's cold-request
#: p90 in this mix (94-116 ms over seeds 2-11 on the 2-CPU reference
#: container; README.md), so a tail that doubles costs goodput.
SERVICE_LATENCY_LIMIT_MS = 200.0

#: Closed loops report quality means over this many leading rounds of the
#: spec stream (the quality panel); a run always completes them.  Eight
#: dense-unique rounds also guarantee the 40 solves its p75 tail needs when
#: the host is slow.
QUALITY_ROUNDS = {"subspace-seeds": 6, "dense-unique": 8, "noisy-fez": 6}

READY_LINE = "PERFBENCH-READY"
RESULT_PREFIX = "PERFBENCH-RESULT "

class BenchmarkFailure(RuntimeError):
    """The benchmark could not produce a result."""


def metric_units() -> tuple[dict, dict]:
    """``(end-to-end, per-layer)`` metric name -> unit, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple({metric["name"]: metric["unit"] for metric in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def child_env() -> dict:
    """Environment for benchmark child processes: the package from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_summary(blocks, pct: float) -> dict:
    """Median and tail of a latency sample split into alike blocks.

    Each percentile is taken within every block and the median over blocks
    is reported, as throughput is a median over rounds: a slow spell of the
    host that spans a few blocks then does not move the figure.
    """
    blocks = [block for block in blocks if block]
    tails = [percentile(block, pct) for block in blocks]
    return {
        "p50": median(percentile(block, 50.0) for block in blocks),
        "tail": median(tails),
        "tail_percentile": pct,
        "blocks": len(blocks),
        "samples": sum(len(block) for block in blocks),
        "beyond_tail": sum(sum(1 for value in block if value > tail)
                           for block, tail in zip(blocks, tails)),
    }


def median(values) -> float:
    return float(statistics.median(values))


def emit_result(payload: dict) -> None:
    """The machine-readable line a child process hands back to ``run.py``."""
    print(RESULT_PREFIX + json.dumps(payload), flush=True)


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB (10^6 bytes)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM for process {pid}")
