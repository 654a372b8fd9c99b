"""Compatibility shim over :mod:`repro.experiments`.

The configuration x benchmark sweep machinery this module used to implement
now lives in the experiments package -- declarative
:class:`~repro.experiments.spec.ExperimentSpec` objects, pluggable
execution backends, and an on-disk result cache.  ``run_matrix`` remains as
the historical one-call entry point, and ``FigureResult``,
``DEFAULT_INSTS``, and ``resolve_benchmarks`` are re-exported for existing
imports.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.experiments.backends import SerialBackend
from repro.experiments.results import FigureResult
from repro.experiments.run import run_experiment
from repro.experiments.spec import DEFAULT_INSTS, matrix_spec, resolve_benchmarks
from repro.isa.inst import Trace
from repro.pipeline.config import MachineConfig

__all__ = ["DEFAULT_INSTS", "FigureResult", "resolve_benchmarks", "run_matrix"]


def run_matrix(
    name: str,
    configs: dict[str, MachineConfig],
    benchmarks: Iterable[str] | None = None,
    n_insts: int = DEFAULT_INSTS,
    baseline: str = "baseline",
    validate: bool = False,
    progress: Callable[[str], None] | None = None,
    traces: dict[str, Trace] | None = None,
    warmup: int | None = None,
) -> FigureResult:
    """Run every config against every benchmark, serially.

    Equivalent to building a spec with
    :func:`~repro.experiments.spec.matrix_spec` and handing it to
    :func:`~repro.experiments.run.run_experiment` with a
    :class:`~repro.experiments.backends.SerialBackend`; use that API
    directly for parallel execution (``BatchRunner``) or cached
    results (``ResultStore``).
    """
    spec = matrix_spec(
        name,
        configs,
        benchmarks=benchmarks,
        n_insts=n_insts,
        baseline=baseline,
        validate=validate,
        traces=traces,
        warmup=warmup,
    )
    return run_experiment(spec, backend=SerialBackend(), progress=progress)
