"""Probe-column oracle: the processor's inlined SSBF fast path vs the
engine's method path.

For an enabled single-table SSBF the processor precomputes per-seq probe
index columns (``SVWEngine.probe_columns``) and inlines the filter test
and the SSBF update over them; every other organization (dual, banked,
infinite tables, a disabled filter) keeps ``must_reexecute`` /
``record_store``.  The reference side here forces the method path for
*every* configuration by substituting a ``probe_columns`` that declines,
and the two sides must be *bit-identical*: same statistics fingerprint,
same SVW filter counters, for every LSU kind, re-execution mode, and SSBF
organization -- including the ones that stress the fast path's
table-rebinding contract (SSN wrap drains flash-clear and rebind the SSBF
table mid-run).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.ssbf import BankedSSBF, DualBloomSSBF, InfiniteSSBF, SimpleSSBF
from repro.core.svw import SVWConfig, SVWEngine
from repro.harness.bench import bench_configs
from repro.pipeline.config import LSUKind, RexMode, eight_wide
from repro.pipeline.processor import Processor
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace

N = 4000

#: Beyond the bench trio: configurations that exercise the fast path's
#: edge contracts (wrap-drain table rebinding, atomic update stalls, the
#: SVW-as-replacement mode) and the organizations it must fall back on.
EXTRA_CONFIGS = {
    "svw-only": eight_wide(
        "svw-only", lsu=LSUKind.NLQ, rex_mode=RexMode.SVW_ONLY, rex_stages=2,
        store_issue=2, svw=SVWConfig(),
    ),
    "tiny-ssn": eight_wide(
        "tiny-ssn", lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        store_issue=2, svw=SVWConfig(ssn_bits=6),
    ),
    "atomic": eight_wide(
        "atomic", lsu=LSUKind.SSQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        load_latency=2, svw=SVWConfig(speculative_updates=False),
    ),
    "dual-ssbf": eight_wide(
        "dual-ssbf", lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        store_issue=2, svw=SVWConfig(ssbf_kind="dual"),
    ),
    "banked-ssbf": eight_wide(
        "banked-ssbf", lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        store_issue=2, svw=SVWConfig(ssbf_kind="banked"),
    ),
    "disabled-svw": eight_wide(
        "disabled-svw", lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        store_issue=2, svw=SVWConfig(enabled=False),
    ),
}

ALL_CONFIGS = {
    **{kind: config for kind, (_, config) in bench_configs().items()},
    **EXTRA_CONFIGS,
}


def method_path_processor(monkeypatch, config, trace, **kwargs) -> Processor:
    """A processor built while the engine declines to offer probe columns,
    so the re-execution pipe runs ``must_reexecute``/``record_store``."""
    with monkeypatch.context() as patch:
        patch.setattr(SVWEngine, "probe_columns", lambda self, addrs, sizes: None)
        processor = Processor(config, trace, **kwargs)
    assert processor._ssbf_i1 is None
    return processor


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
@pytest.mark.parametrize("workload", ["gcc", "mcf"])
def test_probe_columns_match_method_path(name, workload, monkeypatch):
    """Same trace, same config: fingerprints and filter counters match."""
    config = ALL_CONFIGS[name]
    trace = generate_trace(spec_profile(workload), N)
    fast = Processor(config, trace, warmup=500)
    method = method_path_processor(monkeypatch, config, trace, warmup=500)
    fast_stats = fast.run()
    method_stats = method.run()
    assert fast_stats.fingerprint() == method_stats.fingerprint(), name
    if fast.svw is not None:
        assert fast.svw.filter_tests == method.svw.filter_tests, name
        assert fast.svw.filter_hits == method.svw.filter_hits, name


def test_fast_path_engages_only_for_flat_simple_tables():
    """The probe columns exist exactly when they are sound."""
    trace = generate_trace(spec_profile("gcc"), 500)
    for name in ("nlq", "ssq", "svw-only", "tiny-ssn", "atomic"):
        assert Processor(ALL_CONFIGS[name], trace)._ssbf_i1 is not None, name
    for name in ("dual-ssbf", "banked-ssbf", "disabled-svw", "conventional"):
        assert Processor(ALL_CONFIGS[name], trace)._ssbf_i1 is None, name


def test_probe_columns_match_scalar_indices():
    """``SimpleSSBF.probe_columns`` == ``_indices`` element by element."""
    trace = generate_trace(spec_profile("vortex"), 2000)
    addrs = list(trace.addr)
    sizes = list(trace.size)
    for entries, granularity in ((512, 8), (128, 8), (2048, 8), (1024, 4)):
        ssbf = SimpleSSBF(entries=entries, granularity=granularity)
        first, second = ssbf.probe_columns(addrs, sizes)
        assert len(first) == len(second) == len(addrs)
        for addr, size, got_first, got_second in zip(addrs, sizes, first, second):
            indices = ssbf._indices(addr, size)
            assert got_first == indices[0]
            assert got_second == (indices[1] if len(indices) > 1 else -1)


@pytest.mark.parametrize(
    "geometries",
    [((512, 8), (128, 8)), ((512, 8), (512, 4)), ((2048, 8), (128, 4))],
)
def test_memoized_probe_columns_are_per_geometry(geometries):
    """Two configurations on one trace that differ only in SSBF entries or
    granularity each get their own correct columns from the per-trace
    memo, whichever geometry is built first."""
    trace = generate_trace(spec_profile("vortex"), 2000)
    hot = trace.hot()
    base = ALL_CONFIGS["nlq"]
    processors = []
    for entries, granularity in geometries:
        config = dataclasses.replace(
            base,
            name=f"nlq-{entries}x{granularity}",
            svw=SVWConfig(ssbf_entries=entries, ssbf_granularity=granularity),
        )
        processors.append(Processor(config, trace))
    assert processors[0]._ssbf_i1 is not processors[1]._ssbf_i1
    for processor, (entries, granularity) in zip(processors, geometries):
        ssbf = SimpleSSBF(entries=entries, granularity=granularity)
        for seq, (addr, size) in enumerate(zip(hot.addr, hot.size)):
            indices = ssbf._indices(addr, size)
            assert processor._ssbf_i1[seq] == indices[0]
            assert processor._ssbf_i2[seq] == (indices[1] if len(indices) > 1 else -1)
    # A third processor with the first geometry reuses the memoized columns.
    again = Processor(processors[0].config, trace)
    assert again._ssbf_i1 is processors[0]._ssbf_i1


def test_engine_probe_columns_gating():
    """The engine only offers columns for enabled flat-table organizations."""
    trace = generate_trace(spec_profile("gcc"), 200)
    hot = trace.hot()
    assert SVWEngine(SVWConfig()).probe_columns(hot, {}) is not None
    assert SVWEngine(SVWConfig(enabled=False)).probe_columns(hot, {}) is None
    for kind in ("dual", "infinite", "banked"):
        engine = SVWEngine(SVWConfig(ssbf_kind=kind))
        assert engine.probe_columns(hot, {}) is None
        assert isinstance(
            engine.ssbf, (DualBloomSSBF, InfiniteSSBF, BankedSSBF)
        )


@pytest.mark.parametrize("banks", [(2, 1), (1, 4), (4, 2)])
def test_bank_bits_match_hierarchy_load_bank(banks):
    """The precomputed L1D bank-bit column equals the hierarchy's bank
    mapping, seq by seq -- for two configurations on one trace that differ
    only in L1D banks, each reading its own memoized column."""
    trace = generate_trace(spec_profile("twolf"), 2000)
    base = ALL_CONFIGS["conventional"]
    processors = []
    for count in banks:
        l1d = dataclasses.replace(base.hierarchy.l1d, banks=count)
        hierarchy = dataclasses.replace(base.hierarchy, l1d=l1d)
        config = dataclasses.replace(
            base, name=f"conventional-{count}banks", hierarchy=hierarchy
        )
        processors.append(Processor(config, trace))
    addrs = trace.hot().addr
    for processor in processors:
        assert len(processor._bank_bits) == len(addrs)
        load_bank = processor.hierarchy.load_bank
        for seq, addr in enumerate(addrs):
            assert processor._bank_bits[seq] == 1 << load_bank(addr)
    assert processors[0]._bank_bits is not processors[1]._bank_bits
