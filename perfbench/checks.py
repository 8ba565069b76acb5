"""Output checks applied to every answer a workload receives.

A failed check marks its operation failed (it counts toward ``failed`` and
``failed_frac``) and is reported by name.  The checks are the paper's
invariants that a faster program must keep:

* ``counts_sum`` — a histogram carries exactly ``shots`` samples;
* ``exact_sum`` — an exact distribution sums to 1 within 1e-9;
* ``choco_feasible`` — noiseless Choco-Q puts no probability outside the
  feasible set: every key of the exact distribution satisfies the
  constraints (exactly), and the reported ``in_constraints_rate`` is 1.0
  up to the rounding of its normalising sum (``RATE_TOLERANCE``; the rate
  reads 0.9999999999999998 on K4 although no infeasible key carries mass);
* ``service_identical`` — a service answer equals an in-process
  ``execute_spec`` of the same spec in metrics (wall-clock ``latency_s``
  aside) and in counts, bit for bit;
* ``sweep_identical`` — sweep scores equal a direct ``batched_expectations``.
"""

from __future__ import annotations

import functools
import json

from repro.run import RunSpec, execute_spec, make_solver, resolve_benchmark
from repro.serialization import json_sanitize
from repro.solvers.variational import batched_expectations

EXACT_SUM_TOLERANCE = 1e-9
RATE_TOLERANCE = 1e-12


@functools.lru_cache(maxsize=64)
def _problem(benchmark: str, case_index: int):
    return resolve_benchmark(benchmark, case_index)


def check_record(record: dict) -> list[str]:
    """Names of the checks a run record (``RunRecord.to_dict()``) fails."""
    spec = record["spec"]
    result = record["result"]
    failed = []
    outcomes = result["outcomes"]
    if sum(outcomes["counts"].values()) != spec["shots"] or outcomes["shots"] != spec["shots"]:
        failed.append("counts_sum")
    exact = result.get("exact_distribution")
    if exact is not None and abs(sum(exact.values()) - 1.0) > EXACT_SUM_TOLERANCE:
        failed.append("exact_sum")
    if spec["solver"] == "choco-q" and not spec.get("noise"):
        problem = _problem(spec["benchmark"], spec["case_index"])
        width = problem.num_variables
        feasible = exact is not None and all(
            problem.is_feasible([int(bit) for bit in key[:width]]) for key in exact
        )
        if not feasible or abs(record["metrics"]["in_constraints_rate"] - 1.0) > RATE_TOLERANCE:
            failed.append("choco_feasible")
    return failed


def _comparable(record: dict) -> dict:
    """The deterministic part of a record, as it reads after a JSON hop."""
    plain = json.loads(json.dumps(json_sanitize(record)))
    metrics = {key: value for key, value in plain["metrics"].items() if key != "latency_s"}
    return {
        "metrics": metrics,
        "counts": plain["result"]["outcomes"]["counts"],
        "exact_distribution": plain["result"]["exact_distribution"],
    }


def check_service_answer(answer: dict) -> list[str]:
    """``service_identical``: re-run the answered spec in-process and compare."""
    local = execute_spec(RunSpec.from_dict(answer["spec"])).to_dict()
    return [] if _comparable(answer) == _comparable(local) else ["service_identical"]


class SweepChecker:
    """Direct ``batched_expectations`` over the sweep ansatz, compiled once."""

    def __init__(self) -> None:
        self._specs: dict[str, object] = {}

    def check(self, request: dict, scores: list[float]) -> list[str]:
        key = json.dumps({k: request[k] for k in ("solver", "benchmark", "case_index", "config")},
                         sort_keys=True)
        ansatz = self._specs.get(key)
        if ansatz is None:
            solver = make_solver(request["solver"], dict(request["config"] or {}) or None)
            built = solver.build_spec(_problem(request["benchmark"], request["case_index"]))
            ansatz = built[0] if isinstance(built, tuple) else built
            self._specs[key] = ansatz
        expected = [float(score) for score in batched_expectations(ansatz, request["parameter_sets"])]
        return [] if expected == list(scores) else ["sweep_identical"]
