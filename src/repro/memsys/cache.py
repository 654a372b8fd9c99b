"""Set-associative cache timing model.

Values live in :class:`~repro.memsys.memimg.MemoryImage`; caches model
*timing* state only (which lines are resident).  LRU replacement, write-back
write-allocate.  The L1D is bank-interleaved by line address; bank conflict
accounting lives in the pipeline's port arbitration, which asks
:meth:`CacheConfig.bank_of` where an access must go.

Sets are allocated on first touch.  Building all of them up front (4096
for the L2) used to dominate the cost of constructing a processor, and a
cell touches only part of them: a 20k-instruction SPEC cell touches
23-75 % of the L2's sets.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int = 64
    latency: int = 2
    banks: int = 1

    def __post_init__(self) -> None:
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(f"{self.name}: set count {sets} not a power of two")
        if self.banks & (self.banks - 1):
            raise ValueError(f"{self.name}: banks must be a power of two")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form (see :mod:`repro.fingerprint`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "CacheConfig":
        return cls(**payload)  # type: ignore[arg-type]

    def line_of(self, addr: int) -> int:
        return addr // self.line_bytes

    def bank_of(self, addr: int) -> int:
        """Bank an access to ``addr`` is routed to (line-interleaved)."""
        return self.line_of(addr) & (self.banks - 1)


class Cache:
    """One level of set-associative cache with LRU replacement."""

    __slots__ = (
        "config",
        "_sets",
        "_stamp",
        "_line_bytes",
        "_set_mask",
        "_assoc",
        "hits",
        "misses",
    )

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        #: Set index -> {line: LRU stamp}; a set exists once touched.
        self._sets: defaultdict[int, dict[int, int]] = defaultdict(dict)
        self._stamp = 0
        # Geometry cached flat: the access path runs once per simulated
        # memory operation and must not chase config attributes.
        self._line_bytes = config.line_bytes
        self._set_mask = config.sets - 1
        self._assoc = config.assoc
        self.hits = 0
        self.misses = 0

    def _locate(self, addr: int) -> tuple[dict[int, int] | None, int]:
        """The set holding ``addr`` (None if never touched) and its line;
        unlike :meth:`access`, locating allocates nothing."""
        line = addr // self._line_bytes
        return self._sets.get(line & self._set_mask), line

    def probe(self, addr: int) -> bool:
        """Check residency without changing replacement state."""
        ways, line = self._locate(addr)
        return ways is not None and line in ways

    def access(self, addr: int) -> bool:
        """Access ``addr``: update LRU, fill on miss.  Returns hit."""
        line = addr // self._line_bytes
        ways = self._sets[line & self._set_mask]
        self._stamp += 1
        if line in ways:
            ways[line] = self._stamp
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self._assoc:
            victim = min(ways, key=ways.get)  # true LRU
            del ways[victim]
        ways[line] = self._stamp
        return False

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr`` (coherence).  Returns present."""
        ways, line = self._locate(addr)
        if ways is not None and line in ways:
            del ways[line]
            return True
        return False

    def flash_clear(self) -> None:
        self._sets.clear()

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0
