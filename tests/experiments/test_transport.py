"""The trace transport: publish/open/release, carriers, fallback policy."""

from __future__ import annotations

import os

import pytest

import repro.experiments.transport as transport
from repro.experiments.transport import (
    TraceRef,
    open_trace,
    publish_trace,
    release_trace,
)

PAYLOAD = b"svw trace bytes " * 1000


@pytest.mark.parametrize("carrier", ["shm", "file"])
def test_publish_open_release_round_trip(carrier):
    ref = publish_trace("key-1", PAYLOAD, carrier=carrier)
    assert ref.carrier == carrier
    assert ref.size == len(PAYLOAD)
    try:
        with open_trace(ref) as view:
            assert bytes(view) == PAYLOAD
        # A second reader sees the same bytes (the segment outlives readers).
        with open_trace(ref) as view:
            assert bytes(view) == PAYLOAD
    finally:
        release_trace(ref)
    # Released payloads are gone; release is idempotent.
    with pytest.raises((FileNotFoundError, OSError)):
        with open_trace(ref):
            pass
    release_trace(ref)


def test_file_carrier_cleans_up_on_release(tmp_path):
    ref = publish_trace("key-2", PAYLOAD, carrier="file")
    assert os.path.exists(ref.name)
    release_trace(ref)
    assert not os.path.exists(ref.name)


def test_unknown_carrier_rejected():
    with pytest.raises(ValueError, match="transport"):
        publish_trace("key-3", PAYLOAD, carrier="carrier-pigeon")
    with pytest.raises(ValueError, match="transport"):
        release_trace(TraceRef(key="k", carrier="carrier-pigeon", name="x", size=1))


class _NoShm:
    def __init__(self, *args, **kwargs):
        raise OSError("no /dev/shm in this test")


def test_default_carrier_falls_back_to_file(monkeypatch):
    monkeypatch.setattr(transport.shared_memory, "SharedMemory", _NoShm)
    monkeypatch.delenv(transport.TRANSPORT_ENV, raising=False)
    ref = publish_trace("key-4", PAYLOAD)  # automatic choice may fall back
    try:
        assert ref.carrier == "file"
        with open_trace(ref) as view:
            assert bytes(view) == PAYLOAD
    finally:
        release_trace(ref)


def test_explicit_shm_does_not_fall_back(monkeypatch):
    monkeypatch.setattr(transport.shared_memory, "SharedMemory", _NoShm)
    with pytest.raises(OSError, match="no /dev/shm"):
        publish_trace("key-5", PAYLOAD, carrier="shm")
    monkeypatch.setenv(transport.TRANSPORT_ENV, "shm")
    with pytest.raises(OSError, match="no /dev/shm"):
        publish_trace("key-6", PAYLOAD)


def test_env_var_forces_file_carrier(monkeypatch):
    monkeypatch.setenv(transport.TRANSPORT_ENV, "file")
    ref = publish_trace("key-7", PAYLOAD)
    try:
        assert ref.carrier == "file"
    finally:
        release_trace(ref)


class TestCrashCleanup:
    """Shared-memory hygiene when workers die while attached.

    Regression suite for the resource-tracker leak: under the ``spawn``
    start method a worker that attached to a published segment used to
    register it with its *own* resource tracker; if the worker then died,
    its tracker unlinked the parent's live segment (starving surviving
    workers) and sprayed "leaked shared_memory object" warnings at exit.
    Attachments are now untracked (``track=False`` on 3.13+, immediate
    unregister before), so a hard worker crash leaves the segment alone
    and the trackers silent.
    """

    def test_segment_survives_hard_crash_of_attached_spawn_worker(self):
        import subprocess
        import sys

        import repro

        if transport.shared_memory is None:
            pytest.skip("no shared memory on this platform")
        # The child is a fresh interpreter: make the package importable
        # however this suite was launched (pytest's ini `pythonpath`
        # patches sys.path in-process only, not the environment).
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        ref = publish_trace("crash-key", PAYLOAD, carrier="shm")
        try:
            # A spawn-like fresh interpreter attaches through open_trace
            # and dies hard (os._exit skips all cleanup) while attached.
            code = (
                "import os, sys\n"
                "from repro.experiments.transport import TraceRef, open_trace\n"
                f"ref = TraceRef(key={ref.key!r}, carrier='shm', "
                f"name={ref.name!r}, size={ref.size})\n"
                "ctx = open_trace(ref)\n"
                "view = ctx.__enter__()\n"
                "assert len(view) == ref.size\n"
                "os._exit(3)\n"
            )
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                timeout=60,
                env=env,
            )
            assert result.returncode == 3, result.stderr
            # The crashed process's resource tracker must not have unlinked
            # the parent's segment, nor complained about leaking it.
            assert "leaked shared_memory" not in result.stderr
            assert "resource_tracker" not in result.stderr
            with open_trace(ref) as view:
                assert bytes(view) == PAYLOAD
        finally:
            release_trace(ref)
        with pytest.raises((FileNotFoundError, OSError)):
            with open_trace(ref):
                pass

    def test_pool_worker_crash_still_releases_published_segments(self, monkeypatch):
        """A chunk worker dying mid-sweep must not leak the sweep's segments."""
        import repro.experiments.backends as backends_mod
        from repro.experiments.backends import (
            CellExecutionError,
            run_with_published_traces,
        )
        from repro.experiments.spec import WorkloadSpec
        from repro.experiments.traces import TraceProvider, workload_key
        from repro.workloads.spec2000 import spec_profile

        published: list = []
        real_publish = backends_mod.publish_trace

        def recording_publish(key, data):
            ref = real_publish(key, data)
            published.append(ref)
            return ref

        monkeypatch.setattr(backends_mod, "publish_trace", recording_publish)

        provider = TraceProvider()
        workload = WorkloadSpec.from_profile(spec_profile("gcc"))

        class _Request:  # the helper only reads .workload / .n_insts
            def __init__(self):
                self.workload = workload
                self.n_insts = 600

        units = [(workload_key(workload, 600), _Request(), 0)]
        with pytest.raises(CellExecutionError):
            run_with_published_traces(
                1,
                provider,
                units,
                lambda pool, ref, payload: pool.submit(_crash_worker, ref),
                lambda payload, result: None,
                lambda payload: "crash-unit",
            )
        assert published
        for ref in published:
            with pytest.raises((FileNotFoundError, OSError, ValueError)):
                with open_trace(ref):
                    pass


def _crash_worker(ref):
    """Pool target that simulates a hard worker crash while attached."""
    import os

    from repro.experiments.transport import open_trace

    ctx = open_trace(ref)
    ctx.__enter__()
    os._exit(17)


def test_release_stranded_cleans_leftover_publications():
    ref = publish_trace("stranded-key", PAYLOAD, carrier="file")
    assert os.path.exists(ref.name)
    assert transport.release_stranded() >= 1
    assert not os.path.exists(ref.name)
    assert transport.release_stranded() == 0
