"""Backend scaling: serial vs batch-runner wall-clock on a fixed sweep.

Runs the same Figure-5-shaped :class:`ExperimentSpec` through
``SerialBackend`` and ``BatchRunner`` so the pytest-benchmark summary
table shows the fan-out speedup directly (on a multi-core box the runner
should approach ``min(jobs, workloads)``x; on a single core it pays
process overhead and loses).  Also asserts the backends' contract: results
are bit-identical regardless of scheduling.
"""

import os

from repro.experiments import (
    BatchRunner,
    SerialBackend,
    matrix_spec,
    run_experiment,
)
from repro.harness.configs import fig5_configs

from benchmarks.conftest import BENCH_INSTS, BENCH_SUBSET

#: Use the box's parallelism, but keep the comparison meaningful under CI.
POOL_JOBS = max(2, min(4, os.cpu_count() or 1))


def _spec():
    return matrix_spec("backend_scaling", fig5_configs(), BENCH_SUBSET, BENCH_INSTS)


def test_serial_backend(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(_spec(), backend=SerialBackend()), rounds=1, iterations=1
    )
    assert result.benchmarks == BENCH_SUBSET


def test_batch_runner_backend(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(_spec(), backend=BatchRunner(jobs=POOL_JOBS)),
        rounds=1,
        iterations=1,
    )
    assert result.benchmarks == BENCH_SUBSET


def test_backends_agree_bitwise():
    spec = matrix_spec(
        "backend_parity",
        {k: v for k, v in fig5_configs().items() if k in ("baseline", "+SVW+UPD")},
        BENCH_SUBSET[:2],
        BENCH_INSTS // 4,
    )
    serial = run_experiment(spec, backend=SerialBackend())
    pooled = run_experiment(spec, backend=BatchRunner(jobs=POOL_JOBS))
    assert pooled.to_dict() == serial.to_dict()
