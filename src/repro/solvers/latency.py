"""End-to-end latency model (Fig. 11, Table I).

The paper reports end-to-end latency as compilation time plus the iterative
execution time (quantum circuit execution per iteration plus the classical
parameter-update time), excluding data communication.  We cannot run on the
IBM cloud, so this module provides an analytical substitute parameterised by
the device profiles of :mod:`repro.qcircuit.noise`:

* **circuit duration** — the critical-path duration of the transpiled
  circuit, computed exactly like circuit depth but weighting every gate with
  its device-calibrated duration (CZ-based devices run two-qubit gates
  natively; ECR devices pay the 3x translation cost) plus the readout time;
* **quantum execution time per iteration** — shots x circuit duration plus a
  fixed per-job overhead (control-electronics latency);
* **end-to-end latency** — measured compilation time + iterations x
  (quantum execution + classical update time).

The absolute numbers depend on our calibration constants, but the *ratios*
between solvers are driven by exactly what drives them in the paper:
iteration count and circuit depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.gates import DEFAULT_GATE_DURATIONS
from repro.qcircuit.noise import DeviceProfile, IBM_FEZ


@dataclass(frozen=True)
class LatencyEstimate:
    """Latency components for one solver run (seconds)."""

    compilation: float
    quantum_execution: float
    classical_processing: float
    circuit_duration: float
    iterations: int
    shots: int

    @property
    def total(self) -> float:
        return self.compilation + self.quantum_execution + self.classical_processing


class LatencyModel:
    """Analytical latency model calibrated against a device profile."""

    def __init__(
        self,
        profile: DeviceProfile = IBM_FEZ,
        per_job_overhead: float = 5e-3,
        classical_update_time: float = 2e-3,
    ) -> None:
        self.profile = profile
        self.per_job_overhead = per_job_overhead
        self.classical_update_time = classical_update_time

    # ------------------------------------------------------------------

    def gate_duration(self, name: str, num_qubits: int) -> float:
        """Duration of one gate on this device."""
        if name in ("measure",):
            return self.profile.readout_time
        if num_qubits >= 2:
            return self.profile.two_qubit_time * self.profile.cz_cost
        return DEFAULT_GATE_DURATIONS.get(name, self.profile.single_qubit_time)

    def circuit_duration(self, circuit: QuantumCircuit) -> float:
        """Critical-path duration of a circuit plus one readout."""
        frontier = [0.0] * circuit.num_qubits
        for instruction in circuit:
            if instruction.name == "barrier":
                if instruction.qubits:
                    level = max(frontier[q] for q in instruction.qubits)
                    for qubit in instruction.qubits:
                        frontier[qubit] = level
                continue
            duration = self.gate_duration(instruction.name, len(instruction.qubits))
            level = max(frontier[q] for q in instruction.qubits) + duration
            for qubit in instruction.qubits:
                frontier[qubit] = level
        critical_path = max(frontier) if frontier else 0.0
        return critical_path + self.profile.readout_time

    # ------------------------------------------------------------------

    def execution_time(self, circuit: QuantumCircuit, shots: int) -> float:
        """Quantum execution time of one iteration (one parameter setting)."""
        return self.per_job_overhead + shots * self.circuit_duration(circuit)

    def estimate(
        self,
        circuit: QuantumCircuit | None,
        iterations: int,
        shots: int,
        compilation_seconds: float,
        num_circuits: int = 1,
        circuit_duration: float | None = None,
    ) -> LatencyEstimate:
        """End-to-end latency for a full variational run.

        ``num_circuits`` accounts for the variable-elimination overhead: each
        iteration must execute one circuit per eliminated-variable assignment.
        ``circuit_duration`` passes in a :meth:`circuit_duration` the caller
        already holds; ``circuit`` is then not walked and may be ``None``.
        """
        if circuit_duration is None:
            circuit_duration = self.circuit_duration(circuit)
        per_iteration = (self.per_job_overhead + shots * circuit_duration) * num_circuits
        quantum = iterations * per_iteration
        classical = iterations * self.classical_update_time
        return LatencyEstimate(
            compilation=compilation_seconds,
            quantum_execution=quantum,
            classical_processing=classical,
            circuit_duration=circuit_duration,
            iterations=iterations,
            shots=shots,
        )
