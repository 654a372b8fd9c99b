"""The benchmark's three workloads and one timed pass of each.

Every pass starts from the same state: a fresh :class:`CostModel`, fresh
trace-cache and result-store directories, and (on ``fleet-short``) a fresh
loopback worker fleet, so neither learned chunking nor worker-side memos
carry over from one pass to the next.  Configurations come from
:mod:`repro.harness.configs`, backends from public
:mod:`repro.experiments` names.

A cell that raises, or commits a number of instructions other than
``budget - warmup``, is recorded as failed; the pass goes on.  When a
pooled or remote sweep aborts on a failing cell, its cells are re-run one
at a time on :class:`SerialBackend` to find which of them failed.
"""

from __future__ import annotations

import random
import tempfile
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.experiments import (
    BatchRunner,
    CostModel,
    ExperimentBuilder,
    FigureResult,
    RemoteBackend,
    ResultStore,
    RunRequest,
    SerialBackend,
    TraceProvider,
    WorkloadSpec,
    local_worker_fleet,
    run_experiment,
)
from repro.harness.configs import fig5_configs, fig6_configs, fig7_configs
from repro.pipeline.processor import Processor
from repro.pipeline.stats import SimStats
from repro.workloads.mutate import MUTATION_KINDS, MutationOp, TraceMutation
from repro.workloads.phased import PHASED_CATALOG
from repro.workloads.spec2000 import SPEC_ORDER, spec_profile
from repro.workloads.trace_cache import TraceCache

from hostspeed import HostSpeed

FIGURES = {"fig5": fig5_configs, "fig6": fig6_configs, "fig7": fig7_configs}

#: core-long: one profile per behaviour the cycle loop is sensitive to.
CORE_PROFILES = ("gcc", "mcf", "vortex", "twolf")
#: core-long machine families.  The fig6/fig7 baselines ride along so the
#: workload can evaluate speedup claims for every figure it touches.
CORE_FAMILIES = (
    ("fig5", "baseline"), ("fig5", "+SVW+UPD"),
    ("fig6", "baseline"), ("fig6", "+SVW+UPD"),
    ("fig7", "baseline"), ("fig7", "+SVW"),
)
#: fleet-short: every mutation kind is applied to these bases.
MUTATION_BASES = ("gcc", "twolf")
#: Mutation rates: the middle of the fuzzer's planning ranges.
MUTATION_RATES = {"alias": 0.25, "wrap": 0.25, "sizemix": 0.15, "storeset": 0.25}

#: Worker processes / agents: the host's 2 vCPUs.
JOBS = 2


@dataclass(frozen=True)
class Sizes:
    """Per-cell instruction budgets (warm-up is a quarter of each)."""

    core: int = 20_000
    paper: int = 5_000
    fleet: int = 3_000


def cell_id(request: RunRequest) -> str:
    return f"{request.experiment}/{request.workload.name}/{request.config_label}"


class LedgerCostModel(CostModel):
    """A fresh cost model that also sums the seconds it is told about --
    the busy time of the backend's workers, as they measured it."""

    def __init__(self) -> None:
        super().__init__()
        self.busy_s = 0.0

    def observe(self, config, n_insts: int, seconds: float) -> None:
        self.busy_s += seconds
        super().observe(config, n_insts, seconds)


@dataclass
class Pass:
    """One timed pass: wall time of the timed region, its own set-up time
    (``None`` when set-up is shared by the run), per-cell results and
    failures, layer counters, and the seconds of each timed unit (a cell
    on core-long, a figure sweep on paper-figs, the remote run on
    fleet-short) so a run can take each unit's median over its passes."""

    wall_s: float
    setup_s: float | None = None
    units: dict[str, float] = field(default_factory=dict)
    stats: dict[str, SimStats] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)


def spec_workloads(names, profile_seed: int | None) -> list[WorkloadSpec]:
    profiles = [spec_profile(name) for name in names]
    if profile_seed is not None:
        profiles = [replace(profile, seed=profile_seed) for profile in profiles]
    return [WorkloadSpec.from_profile(profile) for profile in profiles]


def planted_workload() -> WorkloadSpec:
    """A workload whose trace generation raises (an invalid mix)."""
    return WorkloadSpec.from_profile(
        replace(spec_profile("gcc"), name="planted-fail", load_frac=2.0)
    )


def check(request: RunRequest, stats: SimStats) -> str | None:
    expected = request.n_insts - request.warmup
    if stats.committed != expected:
        return f"committed {stats.committed}, expected {expected}"
    return None


def figure(name: str, labels, benchmarks, requests, stats) -> FigureResult:
    """Assemble a figure from per-cell results (labels[0] is the baseline)."""
    result = FigureResult(name=name, baseline=labels[0], config_order=list(labels),
                          benchmarks=list(benchmarks))
    by_key = {
        (r.experiment, r.workload.name, r.config_label): stats.get(cell_id(r))
        for r in requests
    }
    for bench in benchmarks:
        for label in labels:
            cell = by_key.get((name, bench, label))
            if cell is not None:
                result.stats.setdefault(bench, {})[label] = cell
    return result


def isolate(requests: list[RunRequest], into: Pass) -> None:
    """Attribute a sweep-level failure cell by cell on SerialBackend."""
    for request in requests:
        try:
            stats = SerialBackend().run([request])[0]
        except Exception as exc:  # noqa: BLE001 - a failed cell is data here
            into.failures[cell_id(request)] = f"{type(exc).__name__}: {exc}"
            continue
        into.stats[cell_id(request)] = stats


def record(requests: list[RunRequest], results: list[SimStats], into: Pass) -> None:
    for request, stats in zip(requests, results):
        problem = check(request, stats)
        if problem is None:
            into.stats[cell_id(request)] = stats
        else:
            into.failures[cell_id(request)] = problem


class Workload:
    """Common surface: ``requests``, per-run ``setup``, ``run_pass``,
    the traced-run correctness extras in ``verify``, and ``figures``."""

    name = ""
    #: Figures (and their labels) whose paper claims this workload's
    #: cells can evaluate, and the benchmarks they average over; set by
    #: each workload's constructor.
    figure_labels: dict[str, list[str]]
    figure_benchmarks: list[str]
    #: Cells the traced run re-checks on SerialBackend (0 = none).
    serial_sample = 0

    def __init__(self, sizes: Sizes, seed: int, profile_seed: int | None,
                 plant_failure: bool, workdir: Path) -> None:
        self.sizes = sizes
        self.seed = seed
        self.profile_seed = profile_seed
        self.plant_failure = plant_failure
        self.workdir = workdir
        self.requests: list[RunRequest] = []

    def setup(self) -> float | None:
        """Run-level set-up; returns its seconds, or None if there is none."""
        return None

    def run_pass(self, probe: HostSpeed, ledger=None) -> Pass:
        """One timed pass; ``probe`` watches host speed while its timed
        units and set-up run."""
        raise NotImplementedError

    def verify(self, reference: Pass) -> dict[str, str]:
        """Traced-run extras: cross-check a sample of cells on
        SerialBackend; returns failures by cell id."""
        if not self.serial_sample:
            return {}
        rng = random.Random(self.seed)
        sample = rng.sample(self.requests, min(self.serial_sample, len(self.requests)))
        failures = {}
        for request in sample:
            key = cell_id(request)
            if key not in reference.stats:
                continue
            try:
                stats = SerialBackend().run([request])[0]
            except Exception as exc:  # noqa: BLE001
                failures[key] = f"serial re-run raised {type(exc).__name__}: {exc}"
                continue
            if stats.fingerprint() != reference.stats[key].fingerprint():
                failures[key] = "fingerprint differs from SerialBackend"
        return failures

    def figures(self, stats: dict[str, SimStats]) -> list[FigureResult]:
        return [
            figure(name, labels, self.figure_benchmarks, self.requests, stats)
            for name, labels in self.figure_labels.items()
        ]

    def fresh_dir(self) -> Path:
        self.workdir.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(dir=self.workdir))

    def _requests(self, families, workloads, n_insts: int) -> list[RunRequest]:
        """Cells via ExperimentBuilder: ``families`` maps figure -> labels."""
        requests = []
        for fig, labels in families.items():
            configs = FIGURES[fig]()
            builder = ExperimentBuilder(fig).insts(n_insts).workloads(workloads)
            for label in labels:
                builder.config(label, configs[label])
            requests += builder.build().cells()
        return requests


class CoreLong(Workload):
    """In-process ``Processor(config, trace, warmup=n//4).run()`` cells."""

    name = "core-long"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        families: dict[str, list[str]] = {}
        for fig, label in CORE_FAMILIES:
            families.setdefault(fig, []).append(label)
        self.figure_labels = families
        self.figure_benchmarks = list(CORE_PROFILES)
        self.workloads = spec_workloads(CORE_PROFILES, self.profile_seed)
        if self.plant_failure:
            self.workloads.append(planted_workload())
        self.requests = self._requests(families, self.workloads, self.sizes.core)
        self.traces: dict[str, object] = {}
        self.trace_errors: dict[str, str] = {}

    def setup(self) -> float:
        started = time.perf_counter()
        self.traces, self.trace_errors = {}, {}
        for workload in self.workloads:
            try:
                self.traces[workload.name] = workload.materialize(self.sizes.core)
            except Exception as exc:  # noqa: BLE001
                self.trace_errors[workload.name] = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - started

    def _simulate(self, request: RunRequest, ledger, validate: bool = False):
        trace = self.traces[request.workload.name]
        with ledger.span("processor.init") if ledger else nullcontext():
            started = time.perf_counter()
            processor = Processor(request.config, trace, validate=validate,
                                  warmup=request.warmup)
            built = time.perf_counter()
        with ledger.span("processor.run") if ledger else nullcontext():
            stats = processor.run()
            finished = time.perf_counter()
        return stats, built - started, finished - built

    def run_pass(self, probe: HostSpeed, ledger=None) -> Pass:
        order = list(self.requests)
        random.Random(self.seed).shuffle(order)
        result = Pass(wall_s=0.0)
        counters = result.counters
        counters.update({"processor.init_s": 0.0, "processor.run_s": 0.0})
        started = time.perf_counter()
        with probe.watching():
            for request in order:
                key = cell_id(request)
                if request.workload.name in self.trace_errors:
                    result.failures[key] = self.trace_errors[request.workload.name]
                    continue
                try:
                    stats, init_s, run_s = self._simulate(request, ledger)
                except Exception as exc:  # noqa: BLE001
                    result.failures[key] = f"{type(exc).__name__}: {exc}"
                    continue
                counters["processor.init_s"] += init_s
                counters["processor.run_s"] += run_s
                result.units[key] = init_s + run_s
                record([request], [stats], result)
        result.wall_s = time.perf_counter() - started
        return result

    def verify(self, reference: Pass) -> dict[str, str]:
        """Re-run every cell with ``validate=True`` (golden load values)."""
        failures = {}
        for request in self.requests:
            key = cell_id(request)
            if key not in reference.stats:
                continue
            try:
                stats, _, _ = self._simulate(request, None, validate=True)
            except Exception as exc:  # noqa: BLE001
                failures[key] = f"validate=True raised {type(exc).__name__}: {exc}"
                continue
            if stats.fingerprint() != reference.stats[key].fingerprint():
                failures[key] = "validate=True run differs from the timed run"
        return failures


class PaperFigs(Workload):
    """fig5+fig6+fig7 x all 16 SPEC2000int profiles through
    ``run_experiment`` on ``BatchRunner(jobs=2)``."""

    name = "paper-figs"
    serial_sample = 12

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.figure_labels = {fig: list(make()) for fig, make in FIGURES.items()}
        self.figure_benchmarks = list(SPEC_ORDER)
        workloads = spec_workloads(SPEC_ORDER, self.profile_seed)
        self.specs = []
        for fig, make in FIGURES.items():
            figure_workloads = list(workloads)
            if self.plant_failure and fig == "fig5":
                figure_workloads.append(planted_workload())
            self.specs.append(
                ExperimentBuilder(fig).configs(make()).workloads(figure_workloads)
                .insts(self.sizes.paper).build()
            )
        self.requests = [cell for spec in self.specs for cell in spec.cells()]
        self.workload_count = len(workloads) + (1 if self.plant_failure else 0)

    def run_pass(self, probe: HostSpeed, ledger=None) -> Pass:
        root = self.fresh_dir()
        store = ResultStore(root / "store")
        cache = TraceCache(root / "traces")
        result = Pass(wall_s=0.0)
        counters = result.counters
        counters.update({"traces.generations": 0.0, "traces.disk_hits": 0.0,
                         "batch.busy_s": 0.0, "batch.wall_s": 0.0})
        started = time.perf_counter()
        for spec in self.specs:
            cost_model = LedgerCostModel()
            runner = BatchRunner(jobs=JOBS, trace_cache=cache, cost_model=cost_model)
            sweep_started = time.perf_counter()
            try:
                with probe.watching(), (ledger.span("batch.run") if ledger
                                        else nullcontext()):
                    sweep = run_experiment(spec, backend=runner, store=store)
            except Exception:  # noqa: BLE001 - attributed cell by cell below
                isolate(spec.cells(), result)
            else:
                cells = spec.cells()
                record(cells, [sweep.stats[c.workload.name][c.config_label]
                               for c in cells], result)
            result.units[spec.name] = time.perf_counter() - sweep_started
            counters["batch.wall_s"] += result.units[spec.name]
            counters["batch.busy_s"] += cost_model.busy_s
            if runner.last_provider is not None:
                counters["traces.generations"] += runner.last_provider.generations
                counters["traces.disk_hits"] += runner.last_provider.disk_hits
        result.wall_s = time.perf_counter() - started
        counters["batch.workers"] = JOBS
        self.last_root = root
        return result


class FleetShort(Workload):
    """28 workloads x the 10 fig5+fig6 configs through ``RemoteBackend``
    on a fresh ``local_worker_fleet(2)``, client trace cache pre-warmed."""

    name = "fleet-short"
    serial_sample = 10

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.figure_labels = {fig: list(FIGURES[fig]()) for fig in ("fig5", "fig6")}
        self.figure_benchmarks = list(SPEC_ORDER)
        workloads = spec_workloads(SPEC_ORDER, self.profile_seed)
        for phased in PHASED_CATALOG.values():
            if self.profile_seed is not None:
                phased = replace(phased, seed=self.profile_seed)
            workloads.append(WorkloadSpec.from_phased(phased))
        rng = random.Random(self.seed)
        for base in spec_workloads(MUTATION_BASES, self.profile_seed):
            for kind in MUTATION_KINDS:
                op = MutationOp(kind=kind, rate=MUTATION_RATES[kind],
                                seed=rng.randrange(1 << 32))
                workloads.append(base.mutated(TraceMutation((op,))))
        if self.plant_failure:
            workloads.append(planted_workload())
        self.workloads = workloads
        self.requests = self._requests(self.figure_labels, workloads, self.sizes.fleet)

    def run_pass(self, probe: HostSpeed, ledger=None) -> Pass:
        with ExitStack() as stack:
            set_up = time.perf_counter()
            with probe.watching():
                root = self.fresh_dir()
                provider = TraceProvider(cache=TraceCache(root / "traces"))
                for workload in self.workloads:
                    try:
                        provider.encoded(workload, self.sizes.fleet)
                    except Exception:  # noqa: BLE001 - the cell itself will fail
                        pass
                with ledger.span("fleet.start") if ledger else nullcontext():
                    addresses = stack.enter_context(local_worker_fleet(JOBS))
            result = Pass(wall_s=0.0, setup_s=time.perf_counter() - set_up)
            by_describe = {request.describe(): request for request in self.requests}
            pairs: set[tuple[str, str]] = set()

            def progress(message: str) -> None:
                describe, _, address = message.rpartition(" [done @")
                if describe in by_describe:
                    pairs.add((by_describe[describe].workload.name, address))

            cost_model = LedgerCostModel()
            backend = RemoteBackend(addresses, trace_cache=TraceCache(root / "traces"),
                                    cost_model=cost_model)
            started = time.perf_counter()
            try:
                with probe.watching(), (ledger.span("remote.run") if ledger
                                        else nullcontext()):
                    results = backend.run(self.requests, progress=progress)
            except Exception:  # noqa: BLE001 - attributed cell by cell below
                result.wall_s = time.perf_counter() - started
                isolate(self.requests, result)
            else:
                result.wall_s = time.perf_counter() - started
                record(self.requests, results, result)
            result.units["remote"] = result.wall_s
        provider_stats = backend.last_provider
        result.counters.update({
            "remote.busy_s": cost_model.busy_s,
            "remote.wall_s": result.wall_s,
            "remote.workers": float(len(addresses)),
            "remote.pairs": float(len(pairs)),
            "remote.prefetch_hits": float(backend.prefetch_hits),
            "remote.stragglers": float(backend.stragglers),
            "traces.generations": float(provider_stats.generations if provider_stats else 0),
            "traces.disk_hits": float(provider_stats.disk_hits if provider_stats else 0),
        })
        self.last_root = root
        return result


WORKLOADS = {cls.name: cls for cls in (CoreLong, PaperFigs, FleetShort)}
