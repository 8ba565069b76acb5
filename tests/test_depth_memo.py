"""Tests for the engine's depth-accounting memo (repro.solvers.depth_memo).

A memo hit must be indistinguishable from a fresh transpile in everything a
result reports except measured host time; circuits the content digest cannot
describe exactly must bypass it; changing anything in the key must miss; the
memo must stay within its capacity and be safe to share across threads.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.solvers.variational as variational
from repro.hamiltonian.trotter import TrotterDecomposer
from repro.problems import make_benchmark
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.gates import Gate
from repro.qcircuit.noise import IBM_OSAKA
from repro.qcircuit.parameters import Parameter
from repro.qcircuit.transpile import TranspileOptions
from repro.run import make_solver
from repro.solvers.depth_memo import (
    DEPTH_MEMO,
    DEPTH_MEMO_CAPACITY,
    DepthAccount,
    DepthMemo,
    circuit_content_digest,
    memo_key,
)
from repro.solvers.latency import LatencyModel
from repro.solvers.optimizer import CobylaOptimizer
from repro.solvers.variational import EngineOptions, account_depth

#: Fields of ``SolverResult.to_dict()`` that are measured host time, not
#: functions of the inputs.
_WALL_TIME_LATENCY_FIELDS = ("compilation_s", "classical_processing_s", "total_s")


@pytest.fixture(autouse=True)
def _fresh_memo():
    DEPTH_MEMO.cache_clear()
    yield
    DEPTH_MEMO.cache_clear()


@pytest.fixture
def transpile_calls(monkeypatch) -> list:
    """Count the engine's real transpiles (memo misses and bypasses)."""
    calls: list = []
    transpile_with_report = variational.transpile_with_report

    def counting(circuit, options=None):
        calls.append(circuit.name)
        return transpile_with_report(circuit, options)

    monkeypatch.setattr(variational, "transpile_with_report", counting)
    return calls


def _solve(solver_name: str, benchmark: str, seed: int = 3, options=None, **config):
    solver = make_solver(
        solver_name,
        optimizer=CobylaOptimizer(max_iterations=20),
        options=options or EngineOptions(shots=128, seed=seed),
        **config,
    )
    return solver.solve(make_benchmark(benchmark))


def _reported(result) -> dict:
    """``result.to_dict()`` without its measured wall-time fields."""
    payload = result.to_dict()
    for field in _WALL_TIME_LATENCY_FIELDS:
        payload["latency"].pop(field)
    payload["metadata"].pop("wall_clock_s", None)
    return payload


SOLVE_CASES = {
    "choco-q-subspace": ("choco-q", "K1", {"num_layers": 2, "backend": "subspace"}),
    "choco-q-dense": ("choco-q", "F1", {"num_layers": 1, "backend": "dense"}),
    "cyclic-qaoa": ("cyclic-qaoa", "G1", {"backend": "subspace"}),
    "choco-q-elimination": ("choco-q", "F1", {"num_layers": 1, "num_eliminated_variables": 1}),
}


class TestHitEqualsMiss:
    @pytest.mark.parametrize("case", sorted(SOLVE_CASES))
    def test_hit_result_identical_to_miss_result(self, case, transpile_calls):
        solver_name, benchmark, config = SOLVE_CASES[case]
        miss = _solve(solver_name, benchmark, **config)
        misses = len(transpile_calls)
        assert misses >= 1

        hit = _solve(solver_name, benchmark, **config)
        assert len(transpile_calls) == misses  # answered from the memo
        assert _reported(hit) == _reported(miss)

        DEPTH_MEMO.cache_clear()
        again = _solve(solver_name, benchmark, **config)
        assert len(transpile_calls) == 2 * misses
        assert _reported(again) == _reported(miss)

    def test_other_seeds_share_the_entry(self, transpile_calls):
        solver_name, benchmark, config = SOLVE_CASES["choco-q-subspace"]
        results = [_solve(solver_name, benchmark, seed=seed, **config) for seed in (1, 2, 3)]
        assert len(transpile_calls) == 1
        assert len({result.transpiled_depth for result in results}) == 1

    def test_hit_returns_the_miss_account(self):
        circuit = QuantumCircuit(3, name="ladder").h(0).cx(0, 1).rzz(0.3, 1, 2).ry(0.7, 2)
        options, model = TranspileOptions(), LatencyModel()
        miss = account_depth(circuit, options, model)
        assert account_depth(circuit.copy(), options, model) is miss
        assert miss.circuit_depth == circuit.depth()
        assert miss.report is not None and miss.report.source.depth == circuit.depth()


class TestBypass:
    def test_trotter_unitary_circuit_has_no_key(self):
        from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver

        problem = make_benchmark("F1")
        driver = ChocoQSolver(config=ChocoQConfig()).build_driver(problem)
        circuit, _ = TrotterDecomposer(repetitions=2, build_full_hamiltonian=False).decompose(
            driver, 0.4
        )
        assert any(instruction.name == "unitary" for instruction in circuit)
        assert circuit_content_digest(circuit) is None
        assert memo_key(circuit, TranspileOptions(), LatencyModel()) is None

    def test_symbolic_parameter_circuit_has_no_key(self):
        circuit = QuantumCircuit(2).h(0).rz(Parameter("theta"), 0).cx(0, 1)
        assert circuit_content_digest(circuit) is None
        bound = circuit.bind({next(iter(circuit.parameters)): 0.5})
        assert circuit_content_digest(bound) is not None

    def test_unitary_solve_transpiles_every_time(self, transpile_calls):
        config = {"num_layers": 1, "use_equivalent_decomposition": False}
        first = _solve("choco-q", "F1", **config)
        second = _solve("choco-q", "F1", **config)
        assert len(transpile_calls) == 2
        assert len(DEPTH_MEMO) == 0
        assert _reported(first) == _reported(second)


class TestKey:
    def test_digest_sees_every_angle_bit(self):
        base = QuantumCircuit(1).rz(0.1, 0)
        nudged = QuantumCircuit(1).rz(float(np.nextafter(0.1, 1.0)), 0)
        negative_zero = QuantumCircuit(1).rz(-0.0, 0)
        zero = QuantumCircuit(1).rz(0.0, 0)
        assert circuit_content_digest(base) != circuit_content_digest(nudged)
        assert circuit_content_digest(zero) != circuit_content_digest(negative_zero)
        assert circuit_content_digest(base) == circuit_content_digest(base.copy())

    def test_digest_sees_name_width_and_label(self):
        circuit = QuantumCircuit(2, name="a").cx(0, 1)
        renamed = QuantumCircuit(2, name="b").cx(0, 1)
        wider = QuantumCircuit(3, name="a").cx(0, 1)
        labelled = QuantumCircuit(2, name="a").append(Gate("cx", 2, label="tag"), [0, 1])
        digests = {circuit_content_digest(c) for c in (circuit, renamed, wider, labelled)}
        assert len(digests) == 4

    def test_optimization_level_change_misses(self, transpile_calls):
        solver_name, benchmark, config = SOLVE_CASES["choco-q-subspace"]
        levels = {}
        for level in (2, 1, 2, 1):
            options = EngineOptions(shots=128, seed=3, optimization_level=level)
            levels.setdefault(level, []).append(
                _solve(solver_name, benchmark, options=options, **config)
            )
        assert len(transpile_calls) == 2
        assert levels[1][0].metadata["transpile_report"]["optimization_level"] == 1
        for results in levels.values():
            assert _reported(results[0]) == _reported(results[1])
        DEPTH_MEMO.cache_clear()
        fresh = _solve(
            solver_name, benchmark,
            options=EngineOptions(shots=128, seed=3, optimization_level=1), **config,
        )
        assert _reported(fresh) == _reported(levels[1][0])

    def test_latency_profile_change_misses(self, transpile_calls):
        solver_name, benchmark, config = SOLVE_CASES["choco-q-subspace"]

        def options(model):
            return EngineOptions(shots=128, seed=3, latency_model=model)

        fez = _solve(solver_name, benchmark, options=options(LatencyModel()), **config)
        osaka = _solve(solver_name, benchmark, options=options(LatencyModel(IBM_OSAKA)), **config)
        assert len(transpile_calls) == 2
        assert osaka.metadata["circuit_duration_s"] > fez.metadata["circuit_duration_s"]
        DEPTH_MEMO.cache_clear()
        fresh = _solve(solver_name, benchmark, options=options(LatencyModel(IBM_OSAKA)), **config)
        assert _reported(fresh) == _reported(osaka)

    def test_latency_model_subclass_misses(self):
        class SlowGates(LatencyModel):
            def gate_duration(self, name, num_qubits):
                return 2 * super().gate_duration(name, num_qubits)

        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        base = account_depth(circuit, TranspileOptions(), LatencyModel())
        slow = account_depth(circuit, TranspileOptions(), SlowGates())
        assert slow.circuit_duration > base.circuit_duration


class TestBounds:
    def test_lru_eviction_keeps_capacity(self):
        memo = DepthMemo(capacity=3)
        account = DepthAccount(1, 1, 0, 0.0)
        for key in range(5):
            memo.put(key, account)
            assert len(memo) <= 3
        assert memo.get(0) is None and memo.get(1) is None
        assert memo.get(2) is account  # refreshes 2
        memo.put(5, account)
        assert memo.get(3) is None and memo.get(2) is account
        assert len(memo) == 3

    def test_shared_memo_never_exceeds_capacity(self):
        options, model = TranspileOptions(), LatencyModel()
        for index in range(DEPTH_MEMO_CAPACITY + 20):
            account_depth(QuantumCircuit(1).rz(0.001 * (index + 1), 0), options, model)
            assert len(DEPTH_MEMO) <= DEPTH_MEMO_CAPACITY
        assert len(DEPTH_MEMO) == DEPTH_MEMO_CAPACITY


class TestThreads:
    def test_memo_survives_contention(self):
        """More threads than cores on a tiny memo, switching every few
        bytecodes.  Unlocked, a lookup's refresh can race another thread's
        eviction of the same key (a KeyError) and the bound can slip."""
        memo = DepthMemo(capacity=4)
        account = DepthAccount(1, 1, 0, 0.0)
        errors: list = []
        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def worker(offset: int) -> None:
                try:
                    for index in range(400):
                        key = (offset + index) % 7
                        if memo.get(key) is None:
                            memo.put(key, account)
                        assert len(memo) <= 4
                except Exception as error:  # reported by the main thread
                    errors.append(error)

            threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) <= 4

    def test_concurrent_solves_of_one_spec_agree(self):
        solver_name, benchmark, config = SOLVE_CASES["choco-q-subspace"]
        barrier = threading.Barrier(2)
        results: list = [None, None]

        def worker(slot: int) -> None:
            barrier.wait(timeout=30.0)
            results[slot] = _solve(solver_name, benchmark, **config)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result is not None for result in results)
        assert _reported(results[0]) == _reported(results[1])
        DEPTH_MEMO.cache_clear()
        assert _reported(_solve(solver_name, benchmark, **config)) == _reported(results[0])
