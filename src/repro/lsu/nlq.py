"""Non-associative load queue (Figure 2b; Cain & Lipasti, ISCA 2004).

The LQ's associative search port is removed: stores no longer search the
LQ when their addresses resolve, which frees the machine to issue two
stores per cycle.  Ordering violations are instead caught by in-order
pre-commit load re-execution.  The *natural re-execution filter* is the
scheduler: "only loads that issued in the presence of older stores with
unresolved addresses are re-executed" -- these are the *marked* loads.

Store-load pair training uses the SPCT (section 2.2): on a flush, the
conflicting store's PC is retrieved from the SPCT using the load address
and fed to store-sets.
"""

from __future__ import annotations

from heapq import heappop

from repro.lsu.base import LoadStoreUnit
from repro.pipeline.inflight import InFlight


def older_unresolved_store_exists(unresolved: list[tuple[int, InFlight]], seq: int) -> bool:
    """Is any store older than ``seq`` still of unknown address?

    This is the NLQ-LS natural-filter condition the scheduler evaluates.
    A store's address is known to the scheduler once the store issues
    (AGEN happens in the issue cycle).  ``unresolved`` is the processor's
    min-heap of dispatched ``(seq, store)`` pairs; issued and squashed
    stores are dropped from its top lazily, here.
    """
    while unresolved:
        _, store = unresolved[0]
        if store.squashed or store.issued:
            heappop(unresolved)
            continue
        return unresolved[0][0] < seq
    return False


class NonAssociativeLQ(LoadStoreUnit):
    """Associative SQ for forwarding; re-execution for ordering."""

    __slots__ = ("_unresolved",)

    def __init__(self, proc) -> None:
        super().__init__(proc)
        self._unresolved = proc._unresolved

    # An alias, not a wrapper: the processor binds this hook once and
    # calls it on every load-issue attempt.
    load_must_wait = LoadStoreUnit._sq_data_blocker

    def execute_load(self, load: InFlight) -> None:
        self._assemble(load)  # default visibility: store.done
        # Natural filter: mark loads issuing past unresolved older stores.
        if older_unresolved_store_exists(self._unresolved, load.seq):
            load.marked = True

    def on_rex_failure(self, load: InFlight, store_pc: int | None) -> None:
        """Train a precise store-load pair through the SPCT."""
        if store_pc is not None and self.proc.store_sets is not None:
            self.proc.store_sets.train(load.pc, store_pc)
