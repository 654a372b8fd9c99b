"""The issue select when its pop window binds, against a heap reference.

``Processor._do_issue`` scans a ready list kept sorted by
``(seq, tiebreak)`` and puts the entries it defers back in one slice
assignment.  That is only correct because it reproduces, entry for entry,
the min-heap select it replaced: pop at most ``3 x width + 8`` entries in
age order, drop squashed ones (``_ready_stale`` accounting), defer the ones
a full issue class or a busy cache bank turns away, and push the deferred
back.  The figure workloads almost never fill that window, so this test
builds a ready set that does -- a narrow machine with one integer issue
slot and a long run of ready integer ops ahead of loads and branches --
plus a squashed entry whose refetched copy has the same seq, and drives
the select cycle by cycle beside a heap-based reference kept here.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush

from repro.isa.inst import KIND_BRANCH, KIND_LOAD, KIND_OTHER
from repro.isa.ops import OpClass
from repro.pipeline.config import MachineConfig
from repro.pipeline.inflight import InFlight
from repro.pipeline.processor import Processor
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace

CONFIG = MachineConfig(
    name="narrow-select",
    width=2,
    int_issue=1,
    fp_issue=1,
    load_issue=1,
    store_issue=1,
    branch_issue=1,
)


class _Ref:
    """The reference's view of one ready entry."""

    __slots__ = ("seq", "squashed", "issued")

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.squashed = False
        self.issued = False


def reference_select(heap, stale, m_kind, m_iclass, bank_bits, template, max_pops):
    """One cycle of the heap-based select (no FSQ, no SQ-data waits).

    Returns ``(issued seqs in issue order, stale count, pops, remaining)``.
    """
    slots = list(template)
    remaining = sum(template)
    banks_used = 0
    issued = []
    deferred = []
    pops = 0
    while heap and pops < max_pops:
        if remaining <= 0 and stale <= 0:
            break
        pops += 1
        item = heappop(heap)
        ref = item[2]
        if ref.squashed or ref.issued:
            if ref.squashed:
                stale -= 1
            continue
        seq = ref.seq
        iclass = m_iclass[seq]
        if slots[iclass] <= 0:
            deferred.append(item)
            continue
        if m_kind[seq] == KIND_LOAD:
            bank_bit = bank_bits[seq]
            if banks_used & bank_bit:
                deferred.append(item)
                continue
            banks_used |= bank_bit
        ref.issued = True
        issued.append(seq)
        remaining -= 1
        slots[iclass] -= 1
    for item in deferred:
        heappush(heap, item)
    return issued, stale, pops, remaining


def _pick(trace, proc):
    """Seqs for the scenario: a run of integer ops, then loads (two of them
    in one L1D bank) and branches, all younger than the integer run."""
    meta = trace.meta()
    iclass = meta.issue_class
    kind = meta.kind
    ints = [
        s for s in range(len(trace))
        if kind[s] == KIND_OTHER and iclass[s] == int(OpClass.IALU)
    ][:24]
    tail = range(ints[-1] + 1, len(trace))
    loads = [s for s in tail if kind[s] == KIND_LOAD]
    first = loads[0]
    same_bank = next(s for s in loads[1:] if proc._bank_bits[s] == proc._bank_bits[first])
    other = next(s for s in loads[1:] if proc._bank_bits[s] != proc._bank_bits[first])
    branches = [s for s in tail if kind[s] == KIND_BRANCH][:3]
    return ints, [first, same_bank, other], branches


def _entry(proc, seq):
    entry = InFlight(seq, proc._m_pc[seq], proc._m_kind[seq], proc._m_dst[seq])
    if entry.kind == KIND_LOAD:
        entry.addr = proc._m_addr[seq]
        entry.size = proc._m_size[seq]
    return entry


def test_select_matches_heap_reference_when_window_binds():
    trace = generate_trace(spec_profile("gcc"), 3000)
    proc = Processor(CONFIG, trace)
    ints, loads, branches = _pick(trace, proc)
    m_kind = proc._m_kind
    m_iclass = trace.meta().issue_class
    max_pops = proc._max_pops
    assert max_pops == 3 * CONFIG.width + 8

    heap: list = []
    stale = 0
    tiebreak = 0
    entries: list[InFlight] = []

    def insert(seq):
        """Wake one fresh entry through the processor; mirror it in the
        reference heap with the same tiebreak."""
        nonlocal tiebreak
        entry = _entry(proc, seq)
        entry.pending_srcs = 1
        producer = InFlight(-1, 0, KIND_OTHER, -1)
        producer.waiters = [(0, entry)]
        proc._wake(producer)
        tiebreak += 1
        ref = _Ref(seq)
        heappush(heap, (seq, tiebreak, ref))
        entries.append(entry)
        return entry, ref

    # First batch: the integer run's first 18 ops, the loads and branches,
    # in a shuffled order (so the list is built by insort, not appends).
    first_batch = ints[:18] + loads + branches
    random.Random(7).shuffle(first_batch)
    refs = {}
    for seq in first_batch:
        refs[seq] = insert(seq)
    # A squash: one mid-run integer op becomes stale in the ready set and
    # its refetched copy (same seq) is woken again behind it.
    victim = ints[9]
    old_entry, old_ref = refs[victim]
    old_entry.squashed = old_ref.squashed = True
    proc._ready_stale += 1
    stale += 1
    insert(victim)
    assert [item[0] for item in proc._ready].count(victim) == 2

    issued_seen: set[int] = set()
    window_bound = 0
    cycle = 0
    while proc._ready or heap:
        cycle += 1
        assert cycle < 100, "select made no progress"
        if cycle == 3:
            # Later wake-ups, older than entries still deferred.
            for seq in ints[18:]:
                insert(seq)
        proc.cycle = cycle
        proc._do_issue()
        issued = sorted(
            e.seq for e in entries if e.issued and id(e) not in issued_seen
        )
        issued_seen.update(id(e) for e in entries if e.issued)
        expected, stale, pops, remaining = reference_select(
            heap, stale, m_kind, m_iclass, proc._bank_bits,
            proc._slot_template, max_pops,
        )
        assert issued == sorted(expected), f"cycle {cycle}: issued seqs differ"
        assert [(s, t) for s, t, _ in proc._ready] == [(s, t) for s, t, _ in sorted(heap)], (
            f"cycle {cycle}: leftover order differs"
        )
        assert proc._ready_stale == stale
        if pops == max_pops and remaining > 0:
            window_bound += 1
    # The scenario must exercise what it is about: the window bound while
    # issue bandwidth was left, and the stale copy was dropped.
    assert window_bound >= 3
    assert stale == 0
    assert not old_entry.issued
    assert all(e.issued for e in entries if not e.squashed)
