"""Outside-in tracing: spans around calls into each layer's public functions.

:meth:`Tracer.install` wraps the entry points a request passes through by
patching the module or class attributes their callers look up at call time;
no file under ``src/`` changes.  A span records its name, start, end
(``perf_counter_ns``), the span that caused it and a request id — the spec
content hash, inherited by every span below ``run.plan.execute``.  Spans stay
in memory and are written out once, at the end (:meth:`Tracer.dump`).

Parents are tracked per thread, so the service's executor threads nest
correctly.  Coroutine spans (``service.solve``/``service.sweep``) interleave
on the event loop and are therefore recorded as roots, never as parents.

:func:`layer_metrics` turns spans into the per-layer metrics of
``BENCHMARK.json``; it is standard-library only, because ``run.py`` applies it
to the span dump of the traced service daemon.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
from time import perf_counter_ns

# Field positions of a span list: [name, start, end, parent, rid, attrs].
NAME, START, END, PARENT, RID, ATTRS = range(6)


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: "str | None" = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[RID]
        span = [name, perf_counter_ns(), 0, parent, rid, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = perf_counter_ns()
        self._stack().pop()

    def wrap(self, function, name: str, *, rid_of=None, attrs_of=None):
        """``function`` with a span around every call.

        ``rid_of(args, kwargs)`` names the request; ``attrs_of(args, result)``
        annotates a successful call after its span has ended, so the
        annotation cost is not charged to the layer.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = tracer.begin(name, rid_of(args, kwargs) if rid_of else None)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(span)
            if attrs_of is not None:
                span[ATTRS] = attrs_of(args, result)
            return result

        return traced

    def wrap_async(self, function, name: str, *, rid_of=None):
        spans = self.spans

        @functools.wraps(function)
        async def traced(*args, **kwargs):
            span = [name, perf_counter_ns(), 0, None,
                    rid_of(args, kwargs) if rid_of else None, None]
            spans.append(span)
            try:
                return await function(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()

        return traced

    # -- patching ------------------------------------------------------

    def patch(self, owner, attribute: str, replacement_of) -> None:
        """Replace ``owner.attribute`` by ``replacement_of(original)``.

        Class attributes are read from the class ``__dict__`` so that
        classmethods keep their descriptor type.
        """
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(raw, classmethod):
            replacement = classmethod(replacement_of(raw.__func__))
        else:
            replacement = replacement_of(raw)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, raw))

    def trace(self, owner, attribute: str, name: str, **options) -> None:
        """Patch one entry point with a plain span wrapper."""
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if inspect.iscoroutinefunction(raw):
            self.patch(owner, attribute, lambda f: self.wrap_async(f, name, **options))
        else:
            self.patch(owner, attribute, lambda f: self.wrap(f, name, **options))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def install(self) -> "Tracer":
        """Wrap every layer boundary the benchmark reports on."""
        import repro.run.plan as plan
        import repro.service.coalesce as coalesce
        import repro.service.server as server
        import repro.solvers.chocoq as chocoq
        import repro.solvers.cyclic_qaoa as cyclic
        import repro.solvers.variational as variational
        from repro.core import subspace
        from repro.hamiltonian import compiled
        from repro.hamiltonian.commute import CommuteDriver
        from repro.qcircuit.circuit import QuantumCircuit
        from repro.qcircuit.noise import NoiseModel
        from repro.qcircuit.passes.manager import PassManager
        from repro.qcircuit.sampling import SampleResult
        from repro.qcircuit.statevector import StatevectorSimulator
        from repro.run.jsonl import JsonlSink
        from repro.service.store import ResultStore
        from repro.solvers.optimizer import Optimizer

        def spec_hash(args, kwargs):
            spec = args[0] if args else kwargs["spec"]
            return spec.content_hash()

        for module in (plan, server):
            self.trace(module, "execute_spec", "run.plan.execute", rid_of=spec_hash)
        for module in (plan, coalesce):
            self.trace(module, "resolve_benchmark", "problems.build")
        self.trace(plan, "benchmark_optimum", "problems.optimum")
        for function in ("ternary_nullspace_basis", "enumerate_ternary_nullspace"):
            self.trace(chocoq, function, "core.nullspace.basis")
        self.trace(subspace.SubspaceMap, "from_constraints", "core.subspace.map",
                   attrs_of=lambda args, result: {"size": result.size})
        self.trace(subspace, "stream_feasible_basis", "core.subspace.feasible_basis")
        self.trace(compiled.EvolutionProgram, "__init__", "hamiltonian.compiled.compile")
        self.trace(CommuteDriver, "restrict", "hamiltonian.compiled.compile")
        for module in (compiled, cyclic):
            self.trace(module, "dense_term_pairing", "hamiltonian.compiled.compile")
        self.patch(compiled.EvolutionProgram, "bind", self._traced_bind)
        self.patch(Optimizer, "minimize", self._traced_minimize)
        self.trace(variational, "transpile_with_report", "qcircuit.transpile",
                   attrs_of=lambda args, result: {"two_qubit": result[0].num_two_qubit_gates()})
        self.trace(variational, "transpile", "qcircuit.transpile",
                   attrs_of=lambda args, result: {"two_qubit": result.num_two_qubit_gates()})
        self.trace(PassManager, "run", "qcircuit.passes")
        self.trace(QuantumCircuit, "depth", "qcircuit.circuit.depth")
        for function in ("exact_distribution", "subspace_exact_distribution"):
            self.trace(variational, function, "qcircuit.sampling")
        for method in ("from_statevector", "from_subspace_probabilities"):
            self.trace(SampleResult, method, "qcircuit.sampling")
        for method in ("sample", "sample_analytical"):
            self.trace(NoiseModel, method, "qcircuit.noise.sample",
                       attrs_of=lambda args, result: {"qubits": args[1].num_qubits})
        self.trace(StatevectorSimulator, "statevector", "qcircuit.noise.simulate",
                   attrs_of=lambda args, result: {"gates": args[1].size(),
                                                  "qubits": args[1].num_qubits})
        self.patch(JsonlSink, "append", self._traced_append)
        self.trace(ResultStore, "get", "service.store.get")
        self.trace(ResultStore, "put", "service.store.put")
        self.trace(server, "execute_group", "service.execute_group")
        self.trace(server, "execute_sweep", "service.execute_sweep")

        def solve_hash(args, kwargs):
            spec = args[1] if len(args) > 1 else kwargs["spec"]
            return (spec if hasattr(spec, "content_hash") else plan.RunSpec.from_dict(spec)).content_hash()

        self.trace(server.SolveService, "solve", "service.solve", rid_of=solve_hash)
        self.trace(server.SolveService, "sweep", "service.sweep")
        return self

    def _traced_bind(self, bind):
        def traced_bind(program, initial_state):
            evolve = bind(program, initial_state)
            dimension = program.dimension
            # Computed bytes per evolved row: the initial copy, then per
            # layer one phase pass (state in and out, diagonal in) and per
            # hop term a state copy plus the gathered and scattered pairs
            # with their int64 indices.  Caches and temporaries are ignored.
            per_layer = 40 * dimension + sum(32 * dimension + 80 * len(a) for a, _ in program.pairings)
            per_row = 32 * dimension + program.num_layers * per_layer

            def attrs(args, result):
                rows = 1 if len(getattr(args[0], "shape", ())) < 2 else args[0].shape[0]
                return {"bytes": per_row * rows, "dim": dimension}

            return self.wrap(evolve, "hamiltonian.compiled.evolve", attrs_of=attrs)

        return traced_bind

    def _traced_minimize(self, minimize):
        tracer = self

        def traced_minimize(optimizer, cost, initial):
            traced_cost = tracer.wrap(cost, "solvers.optimizer.cost_eval")
            span = tracer.begin("solvers.optimizer.minimize")
            try:
                result = minimize(optimizer, traced_cost, initial)
            finally:
                tracer.end(span)
            span[ATTRS] = {"evals": result.num_iterations}
            return result

        return traced_minimize

    def _traced_append(self, append):
        tracer = self

        def traced_append(sink, payload):
            before = os.stat(sink.path).st_size
            span = tracer.begin("run.jsonl.append")
            try:
                append(sink, payload)
            finally:
                tracer.end(span)
            span[ATTRS] = {"bytes": os.stat(sink.path).st_size - before}

        return traced_append

    # -- output --------------------------------------------------------

    def records(self) -> list[dict]:
        """Spans as plain dicts with integer ids and parent ids."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        return [
            {
                "id": position,
                "name": span[NAME],
                "start_ns": span[START],
                "end_ns": span[END],
                "parent": None if span[PARENT] is None else index[id(span[PARENT])],
                "rid": span[RID],
                "attrs": span[ATTRS],
            }
            for position, span in enumerate(self.spans)
        ]

    def dump(self, path) -> list[dict]:
        records = self.records()
        write_spans(path, records)
        return records


def write_spans(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# Aggregation (standard library only)
# ---------------------------------------------------------------------------


def self_times(records: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self milliseconds.

    Self time is a span's duration minus the time its child spans cover;
    children run on their parent's thread, so they never overlap.  ``total``
    counts only outermost spans of a name, so recursion is not double
    counted.
    """
    child_ns = [0] * len(records)
    for record in records:
        if record["parent"] is not None:
            child_ns[record["parent"]] += record["end_ns"] - record["start_ns"]
    table: dict[str, dict] = {}
    for record in records:
        duration = record["end_ns"] - record["start_ns"]
        row = table.setdefault(record["name"], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += (duration - child_ns[record["id"]]) / 1e6
        parent = record["parent"]
        if parent is None or records[parent]["name"] != record["name"]:
            row["total_ms"] += duration / 1e6
    return table


def window(records: list[dict], start_ns: int) -> list[dict]:
    """The spans of requests that began at or after ``start_ns``.

    A span stays when its root span started inside the window, so warm-up
    work before the measured window drops out with all its descendants.
    Ids are renumbered to stay positional.
    """
    root_start: list[int] = []
    kept: dict[int, int] = {}
    result = []
    for record in records:
        parent = record["parent"]
        root_start.append(record["start_ns"] if parent is None else root_start[parent])
        if root_start[-1] < start_ns:
            continue
        kept[record["id"]] = len(result)
        result.append(dict(record, id=len(result),
                           parent=None if parent is None else kept[parent]))
    return result


def _attr_sum(records: list[dict], name: str, key: str) -> float:
    return sum((record["attrs"] or {}).get(key, 0) for record in records if record["name"] == name)


def _attr_max(records: list[dict], name: str, key: str) -> int:
    return max(((record["attrs"] or {}).get(key, 0) for record in records if record["name"] == name),
               default=0)


def largest_registers(records: list[dict]) -> tuple[int, int]:
    """``(largest noisy-simulation register in qubits, largest evolve dim)``."""
    return (_attr_max(records, "qcircuit.noise.simulate", "qubits"),
            _attr_max(records, "hamiltonian.compiled.evolve", "dim"))


def queue_waits_ms(records: list[dict]) -> list[float]:
    """Per executed spec: first ``service.solve`` arrival to execution start."""
    arrivals: dict[str, int] = {}
    for record in records:
        if record["name"] == "service.solve" and record["rid"] is not None:
            arrivals[record["rid"]] = min(arrivals.get(record["rid"], record["start_ns"]),
                                          record["start_ns"])
    return [
        (record["start_ns"] - arrivals[record["rid"]]) / 1e6
        for record in records
        if record["name"] == "run.plan.execute" and record["rid"] in arrivals
    ]


#: Per-layer metrics derived from spans, normalised per executed solve.
PER_SOLVE_TIMES = {
    "problems.build_ms": "problems.build",
    "core.nullspace.basis_ms": "core.nullspace.basis",
    "core.subspace.map_ms": "core.subspace.map",
    "hamiltonian.compiled.compile_ms": "hamiltonian.compiled.compile",
    "hamiltonian.compiled.evolve_ms": "hamiltonian.compiled.evolve",
    "solvers.optimizer.minimize_ms": "solvers.optimizer.minimize",
    "solvers.optimizer.cost_eval_ms": "solvers.optimizer.cost_eval",
    "qcircuit.transpile.ms": "qcircuit.transpile",
    "qcircuit.passes.ms": "qcircuit.passes",
    "qcircuit.sampling.ms": "qcircuit.sampling",
    "qcircuit.noise.sample_ms": "qcircuit.noise.sample",
    "run.plan.execute_ms": "run.plan.execute",
    "run.jsonl.append_ms": "run.jsonl.append",
}


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """The span-derived per-layer metrics (see README.md for units)."""
    table = self_times(records)
    solves = max(table.get("run.plan.execute", {}).get("calls", 0), 1)

    def total(name: str) -> float:
        return table.get(name, {}).get("total_ms", 0.0)

    def calls(name: str) -> int:
        return table.get(name, {}).get("calls", 0)

    metrics = {key: total(name) / solves for key, name in PER_SOLVE_TIMES.items()}
    metrics["solvers.optimizer.bookkeeping_ms"] = (
        total("solvers.optimizer.minimize") - total("solvers.optimizer.cost_eval")
    ) / solves
    metrics["solvers.optimizer.evals"] = _attr_sum(records, "solvers.optimizer.minimize", "evals") / solves
    metrics["hamiltonian.compiled.evolve_calls"] = calls("hamiltonian.compiled.evolve") / solves
    metrics["hamiltonian.compiled.evolve_bytes"] = (
        _attr_sum(records, "hamiltonian.compiled.evolve", "bytes") / solves
    )
    metrics["qcircuit.transpile.calls"] = calls("qcircuit.transpile") / solves
    metrics["qcircuit.transpile.two_qubit_gates"] = (
        _attr_sum(records, "qcircuit.transpile", "two_qubit") / solves
    )
    gates = _attr_sum(records, "qcircuit.noise.simulate", "gates")
    metrics["qcircuit.noise.gates_applied"] = gates / solves
    metrics["qcircuit.noise.ms_per_gate"] = total("qcircuit.noise.sample") / gates if gates else 0.0
    sizes = [record["attrs"]["size"] for record in records
             if record["name"] == "core.subspace.map" and record["attrs"]]
    metrics["core.subspace.size"] = sum(sizes) / len(sizes) if sizes else 0.0
    metrics["run.jsonl.bytes"] = _attr_sum(records, "run.jsonl.append", "bytes") / solves
    waits = queue_waits_ms(records)
    metrics["service.queue_wait_ms"] = sum(waits) / len(waits) if waits else 0.0
    puts = calls("service.store.put")
    metrics["service.store_put_ms"] = total("service.store.put") / puts if puts else 0.0
    return metrics
