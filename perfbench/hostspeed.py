"""Host-speed calibration for the measuring processes.

The benchmark runs on a few cores of a shared host whose speed changes by up
to two times within minutes as other tenants load it (README.md, "Host
variance"): a fixed numpy loop took 0.21 s in one 4-second stretch and
0.34 s in another, and whole runs of the same code differed by as much.
Such drift is not the program's, so the measuring processes time a fixed
kernel, owned by the benchmark and touching nothing of the package, next to
every timed operation, and divide each operation's time by the host's
*slowdown* at that moment: the kernel's time over ``REFERENCE_S``.  Times
and rates are then reported at the reference host speed, in their usual
units; the untraced report also prints the raw wall-clock figures and the
slowdown.

On repeated identical rounds the normalisation cut the spread of round
throughput two to four times on every closed-loop workload (README.md gives
the figures).
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

#: The kernel's time at the reference host speed: its median over 600 runs
#: on the 2-CPU reference container (Intel Xeon, 105 MiB L3; quartiles 8.5
#: and 9.5 ms).  A pure scale: it fixes what "reference speed" means, not
#: how steady the figures are.
REFERENCE_S = 9.1e-3

# The kernel has three parts of about equal time, because the workloads slow
# differently as the host changes: interpreter-bound bookkeeping (transpile,
# COBYLA) tracked a pure-Python part best, the noise sampler a numpy pass
# over a state larger than L2; a numpy pass over an L2-resident state sits
# between.  Their sum tracked every closed-loop workload (README.md, "Host
# variance").
_SMALL = np.exp(1j * np.linspace(0.0, 1.0, 1 << 14))  # 256 KiB
_LARGE = np.exp(1j * np.linspace(0.0, 1.0, 1 << 17))  # 2 MiB
_SMALL_STEPS = 15
_LARGE_STEPS = 2
_GATES = 300
_GATE_PASSES = 3


class _Gate:
    __slots__ = ("name", "qubits", "angle")

    def __init__(self, name: str, qubits: tuple, angle: float) -> None:
        self.name = name
        self.qubits = qubits
        self.angle = angle


def _numpy_part(state: np.ndarray, steps: int) -> None:
    current = state
    for _ in range(steps):
        current = current * state
        current = current / np.sqrt(np.sum(np.abs(current) ** 2))


def _python_part() -> None:
    """Gate-list bookkeeping: depth, counts, rotation merging, sort, render."""
    for shift in range(_GATE_PASSES):
        gates = [_Gate("rz" if index % 3 else "cx", (index % 7, (index + 1 + shift) % 7), 0.1 * index)
                 for index in range(_GATES)]
        depth = [0] * 7
        for gate in gates:
            level = max(depth[qubit] for qubit in gate.qubits) + 1
            for qubit in gate.qubits:
                depth[qubit] = level
        counts: dict[str, int] = {}
        for gate in gates:
            counts[gate.name] = counts.get(gate.name, 0) + 1
        merged: list[_Gate] = []
        for gate in gates:
            last = merged[-1] if merged else None
            if last is not None and last.name == gate.name == "rz" and last.qubits == gate.qubits:
                merged[-1] = _Gate("rz", gate.qubits, last.angle + gate.angle)
            else:
                merged.append(gate)
        ordered = sorted(merged, key=lambda gate: (gate.qubits, gate.name))
        "".join(f"{gate.name}{gate.qubits}" for gate in ordered)


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    _numpy_part(_SMALL, _SMALL_STEPS)
    _numpy_part(_LARGE, _LARGE_STEPS)
    _python_part()
    return time.perf_counter() - start


class SpeedTrack:
    """Slowdown between consecutive timed operations of one closed loop.

    ``mark()`` times the kernel once and returns the slowdown over the
    operation that just ended: the mean of the kernel times before and
    after it, over ``REFERENCE_S``.  Call ``mark()`` once before the first
    operation, then after every operation.
    """

    def __init__(self) -> None:
        self._last = None
        self.slowdowns: list[float] = []

    def mark(self) -> float:
        current = kernel_seconds()
        previous, self._last = self._last, current
        if previous is None:
            return 1.0
        slowdown = (previous + current) / 2.0 / REFERENCE_S
        self.slowdowns.append(slowdown)
        return slowdown


class SpeedSampler:
    """Times the kernel every ``period_s`` on a thread, for an open loop.

    Samples are ``(time.monotonic() at the kernel's midpoint, slowdown)``;
    ``time.monotonic`` is the clock of the asyncio loop that schedules the
    requests.  Use as a context manager around the timed window.
    """

    def __init__(self, period_s: float) -> None:
        self._period_s = period_s
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._samples: list[tuple[float, float]] = []
        self._thread = threading.Thread(target=self._run, name="perfbench-speed", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.is_set():
            start = time.monotonic()
            seconds = kernel_seconds()
            with self._lock:
                self._samples.append((start + seconds / 2.0, seconds / REFERENCE_S))
            self._stop.wait(self._period_s)

    def samples(self) -> list[tuple[float, float]]:
        with self._lock:
            return list(self._samples)

    def slowdown_at(self, when: float, half_window_s: float) -> float:
        """Median slowdown of the samples within ``half_window_s`` of ``when``.

        Falls back to the nearest sample when none is that close.
        """
        samples = self.samples()
        near = [value for at, value in samples if abs(at - when) <= half_window_s]
        if near:
            return float(statistics.median(near))
        return min(samples, key=lambda sample: abs(sample[0] - when))[1]
