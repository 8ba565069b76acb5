"""Process-wide memo of the engine's depth accounting.

Every solve reports the depth of its reference circuit after transpilation
(Table II, Fig. 12) and prices that circuit on the latency model (Fig. 11).
The reference circuit is built from the ansatz's *initial* parameters, which
for Choco-Q and cyclic QAOA depend only on the layer count — so every seed
of an instance, and every repeat of a variable-elimination sub-instance,
transpiles the identical circuit.  This memo answers those repeats with one
lookup instead of a lowering plus a pass-stack fixpoint.

The key is exact: a digest of the circuit's full instruction stream (gate
name, control count, label, qubits and the bit patterns of the float angles,
plus the circuit's name and width), the :class:`TranspileOptions` and the
latency model's device profile.  No argument about which angle values a
pass may inspect is needed; two circuits share an entry only if they are
the same circuit.  Circuits the digest cannot describe exactly — an opaque
``unitary`` gate (the Trotter baseline) or a non-float angle such as a
symbolic parameter — bypass the memo.

Entries are small frozen :class:`DepthAccount` records, never circuits, and
the memo holds at most :data:`DEPTH_MEMO_CAPACITY` of them (least recently
used evicted first), so its footprint stays bounded in long-lived services.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.passes.report import TranspileReport
from repro.qcircuit.transpile import TranspileOptions
from repro.solvers.latency import LatencyModel

#: Entries kept.  One entry is a few kilobytes (the report's pass records),
#: so the full memo stays well under a megabyte; the count comfortably covers
#: a paper grid's distinct (instance, layers, options) circuits.
DEPTH_MEMO_CAPACITY = 256


@dataclass(frozen=True)
class DepthAccount:
    """What a solve reports about its reference circuit's depth and duration.

    ``transpiled_depth`` includes the unitary synthesis penalty;
    ``report`` is ``None`` when the engine skipped transpilation.
    """

    circuit_depth: int
    transpiled_depth: int
    num_two_qubit_gates: int
    circuit_duration: float
    report: TranspileReport | None = None


def circuit_content_digest(circuit: QuantumCircuit) -> bytes | None:
    """Exact fixed-size digest of a circuit's content, or ``None``.

    ``None`` means the circuit cannot be keyed exactly: it holds an opaque
    ``unitary`` gate or an angle that is not a float.
    """
    stream: list = [circuit.name, circuit.num_qubits]
    for instruction in circuit:
        gate = instruction.gate
        params = gate.params
        if gate.name == "unitary" or not all(isinstance(p, float) for p in params):
            return None
        stream.append(
            (
                gate.name,
                gate.num_controls,
                gate.label,
                instruction.qubits,
                struct.pack(f"<{len(params)}d", *params),
            )
        )
    # repr of str/int/None/bytes tuples is unambiguous, so equal digests
    # mean equal instruction streams (up to a blake2b collision).
    return hashlib.blake2b(repr(stream).encode(), digest_size=32).digest()


def memo_key(
    circuit: QuantumCircuit, options: TranspileOptions, latency_model: LatencyModel
) -> Hashable | None:
    """The memo key of one depth accounting, or ``None`` to bypass the memo.

    The model's class joins its frozen device profile in the key, so a
    subclass that prices gates differently never shares entries.
    """
    digest = circuit_content_digest(circuit)
    if digest is None:
        return None
    return (digest, options, type(latency_model), latency_model.profile)


class DepthMemo:
    """A bounded, thread-safe LRU map from memo keys to :class:`DepthAccount`."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, DepthAccount]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> DepthAccount | None:
        with self._lock:
            account = self._entries.get(key)
            if account is not None:
                self._entries.move_to_end(key)
            return account

    def put(self, key: Hashable, account: DepthAccount) -> None:
        with self._lock:
            self._entries[key] = account
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: The memo every :class:`~repro.solvers.variational.VariationalEngine` shares.
DEPTH_MEMO = DepthMemo(DEPTH_MEMO_CAPACITY)
