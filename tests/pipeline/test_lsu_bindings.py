"""The LSU's bound containers stay the processor's own objects.

Each load-store unit binds the processor containers its per-load hooks
read (the per-seq word tuples, the in-flight store index, the committed
memory's read, the NLQ's unresolved-store heap, the SSQ's bank function)
once, at construction, instead of reaching them through its weak proxy to
the processor on every access.  That is only sound while the processor
never rebinds any of them, so this test runs machines through the events
most likely to: SSN wrap-around drains (which rebind the SSBF table),
flushes, and the warm-up swap of the statistics object -- then checks
every binding with ``is``.  Nothing bound may be a bound method of the
processor itself: that would hold it strongly and recreate the reference
cycle ``test_lifecycle.py`` forbids.
"""

from __future__ import annotations

import pytest

from repro.core.svw import SVWConfig
from repro.pipeline.config import LSUKind, RexMode, eight_wide
from repro.pipeline.processor import Processor
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace

N = 8000

CONFIGS = {
    "nlq": eight_wide(
        "nlq-tiny-ssn", lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        store_issue=2, svw=SVWConfig(ssn_bits=6),
    ),
    "ssq": eight_wide(
        "ssq-tiny-ssn", lsu=LSUKind.SSQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        load_latency=2, svw=SVWConfig(ssn_bits=6),
    ),
    "conventional": eight_wide("conventional"),
}

#: LSU attribute -> the processor object it must be.
BOUND = {
    "_words": lambda proc: proc.meta.words,
    "_store_words": lambda proc: proc.store_words,
    "_unresolved": lambda proc: proc._unresolved,
}

#: LSU attribute -> (object, function) of the bound method it must be.
BOUND_METHODS = {
    "_read": lambda proc: (proc.committed_memory, type(proc.committed_memory).read),
    "_load_bank": lambda proc: (proc.hierarchy, type(proc.hierarchy).load_bank),
}

EXPECTED = {
    "nlq": {"_words", "_store_words", "_read", "_unresolved"},
    "ssq": {"_words", "_store_words", "_read", "_load_bank"},
    "conventional": {"_words", "_store_words", "_read"},
}


@pytest.fixture(scope="module")
def trace():
    return generate_trace(spec_profile("gcc"), N)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bound_containers_survive_drains_and_flushes(name, trace):
    proc = Processor(CONFIGS[name], trace, warmup=N // 4)
    stats = proc.run()
    assert stats.committed == N - N // 4
    assert stats.flushes > 0, "the run must go through a flush"
    if proc.svw is not None:
        assert stats.ssn_drains > 0, "the run must go through an SSN wrap drain"
    # Written through the proxy, so they land in the post-warm-up stats.
    assert stats.forwarded_loads > 0

    lsu = proc.lsu
    seen = set()
    for attr, target in BOUND.items():
        if hasattr(lsu, attr):
            assert getattr(lsu, attr) is target(proc), f"{name}: {attr} rebound"
            seen.add(attr)
    for attr, target in BOUND_METHODS.items():
        if hasattr(lsu, attr):
            method = getattr(lsu, attr)
            owner, function = target(proc)
            assert method.__self__ is owner, f"{name}: {attr} bound to another object"
            assert method.__func__ is function
            seen.add(attr)
    assert seen == EXPECTED[name]
    for attr in seen:
        assert getattr(getattr(lsu, attr), "__self__", None) is not proc
