"""In-memory span ledger for the traced benchmark run.

Spans are recorded from the benchmark's own code, around calls into each
layer's public functions: :func:`instrumented` swaps a module or class
attribute for a wrapper for the duration of a ``with`` block and puts the
original back afterwards.  Nothing inside ``repro`` is edited, and the
untraced runs never install a wrapper.

Each span has an id, a name, start/end (``perf_counter`` seconds), the id
of the span that was open on the same thread when it started (its parent,
or the pass's root span for spans opened on helper threads) and a few
counts.  :meth:`Ledger.self_seconds` is a span's duration minus the time
its same-thread children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Ledger:
    """Spans of one traced pass, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Parent for spans opened on threads with no open span of their own
        #: (remote dispatch threads, trace prefetch threads).
        self.root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        record = Span(next(self._ids), name, time.perf_counter(), 0.0, parent,
                      threading.get_ident())
        stack.append(record.id)
        try:
            yield record
        finally:
            stack.pop()
            record.end = time.perf_counter()
            self.spans.append(record)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def self_seconds(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        covered: dict[int, float] = {}
        by_id = {span.id: span for span in self.spans}
        for span in self.spans:
            parent = by_id.get(span.parent) if span.parent is not None else None
            if parent is not None and parent.thread == span.thread:
                covered[parent.id] = covered.get(parent.id, 0.0) + span.seconds
        return sum(span.seconds - covered.get(span.id, 0.0) for span in self.named(name))

    def count(self, name: str, key: str) -> float:
        return sum(span.counts.get(key, 0.0) for span in self.named(name))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(span) for span in self.spans]))


def _wrap(ledger: Ledger, name: str, original: Callable, count: Callable | None):
    def wrapper(*args, **kwargs):
        with ledger.span(name) as record:
            result = original(*args, **kwargs)
            if count is not None:
                record.counts.update(count(result))
            return result

    return wrapper


@contextmanager
def instrumented(ledger: Ledger) -> Iterator[None]:
    """Wrap each layer's public entry points in spans while the block runs.

    Each target is patched where its callers look it up: the trace
    provider imports the generator and codec functions into
    :mod:`repro.experiments.traces`, the pooled backends import
    ``publish_trace`` into :mod:`repro.experiments.backends`, and the
    remote client sends frames through
    :func:`repro.experiments.remote.send_trace_frame`.
    """
    from repro.experiments import backends, remote, traces
    from repro.experiments.store import ResultStore
    from repro.workloads.registry import WorkloadSpec
    from repro.workloads.trace_cache import TraceCache

    def generated(trace):
        return {"insts": float(len(trace))}

    def encoded(data):
        return {"bytes": float(len(data))}

    targets = [
        (traces, "generate_trace", "workloads.generate", generated),
        (WorkloadSpec, "materialize", "workloads.generate", generated),
        (traces, "encode_trace", "isa.encode", encoded),
        (traces, "decode_trace", "isa.decode", None),
        (TraceCache, "save", "trace_cache.save", None),
        (TraceCache, "load", "trace_cache.load", None),
        (backends, "publish_trace", "transport.publish", None),
        (ResultStore, "save", "store.save", None),
        (ResultStore, "load", "store.load", None),
        (remote, "send_trace_frame", "remote.send_trace", None),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    try:
        for (owner, attr, name, count), (_, _, original) in zip(targets, originals):
            setattr(owner, attr, _wrap(ledger, name, original, count))
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
