"""Column-native vs object-built traces: one stream, two representations.

The simulator, codec and workers consume :class:`ColumnTrace`; kernels and
hand-written tests build :class:`Trace` objects that are columnized once
through :meth:`Trace.columns`.  This suite pins that the two forms of the
same stream are interchangeable:

1. **Representation equivalence**: the lazy ``DynInst`` view of a column
   trace reproduces the objects it was built from, ``TraceMeta`` derived
   from columns equals ``TraceMeta`` built from objects, and a live
   generator trace rebuilt as objects columnizes back to the same wire
   bytes -- for object-built kernel traces and for the live generator
   (:func:`repro.workloads.synthetic.generate_trace`) alike.

2. **Simulator equivalence**: feeding the :class:`Processor` a
   column-native trace produces the exact ``SimStats.fingerprint()`` that
   feeding it the object-built trace does, for every LSU kind, and a
   codec round-trip simulates identically to the original.

The live generator's own trace identity is gated by its golden
fingerprints in ``tests/workloads/test_v2_goldens.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness.bench import bench_configs
from repro.isa.codec import decode_trace, encode_trace
from repro.isa.coltrace import ColumnTrace
from repro.isa.inst import Trace, TraceMeta
from repro.pipeline.processor import Processor
from repro.workloads.kernels import KERNELS, kernel_trace
from repro.workloads.profile import WorkloadProfile
from repro.workloads.spec2000 import SPEC_ORDER, spec_profile
from repro.workloads.synthetic import _BlockGenerator, generate_trace

INSTS = 1500
SEED_SHIFTS = (0, 1, 2)

#: Every shipped profile: the 16 SPEC2000 mixes plus the plain synthetic
#: default (the base profile every mix is derived from).
SHIPPED_PROFILES: dict[str, WorkloadProfile] = {
    name: spec_profile(name) for name in SPEC_ORDER
}
SHIPPED_PROFILES["synthetic-default"] = WorkloadProfile(name="synthetic-default")


def as_objects(column: ColumnTrace) -> Trace:
    """An object-built copy of ``column``: fresh ``Trace``, no attached
    meta or columns, so every derived view goes through the object path."""
    return Trace(
        name=column.name,
        insts=list(column.insts),
        initial_memory=dict(column.initial_memory),
        wrong_path_addrs=dict(column.wrong_path_addrs),
    )


#: Object-built traces under test: every kernel, plus live-generator
#: traces rebuilt as objects (these carry wrong-path address sets, which
#: no kernel does).
OBJECT_SOURCES = [f"kernel:{name}" for name in sorted(KERNELS)] + [
    "generated:gcc",
    "generated:vortex",
]


def object_trace(source: str) -> Trace:
    kind, name = source.split(":")
    if kind == "kernel":
        return kernel_trace(name)
    return as_objects(generate_trace(spec_profile(name), INSTS))


class TestRepresentationEquivalence:
    @pytest.mark.parametrize("source", OBJECT_SOURCES)
    def test_instruction_views_identical(self, source):
        """The lazy DynInst view reproduces the objects exactly."""
        objects = object_trace(source)
        column = ColumnTrace.from_trace(objects)
        assert column.insts == objects.insts
        assert column.wrong_path_addrs == objects.wrong_path_addrs
        assert column.initial_memory == objects.initial_memory

    @pytest.mark.parametrize("source", OBJECT_SOURCES)
    def test_meta_identical(self, source):
        """TraceMeta from columns == TraceMeta from objects."""
        objects = object_trace(source)
        column = ColumnTrace.from_trace(objects).meta()
        built = TraceMeta(objects.insts)
        assert column.kind == built.kind
        assert column.latency == built.latency
        assert column.issue_class == built.issue_class
        assert column.words == built.words
        assert column.signature == built.signature

    @pytest.mark.parametrize("seed_shift", SEED_SHIFTS)
    @pytest.mark.parametrize("name", sorted(SHIPPED_PROFILES))
    def test_generated_wire_bytes_survive_object_rebuild(self, name, seed_shift):
        """encode(generated columns) == encode(objects rebuilt from them)."""
        profile = dataclasses.replace(
            SHIPPED_PROFILES[name], seed=SHIPPED_PROFILES[name].seed + seed_shift
        )
        column = generate_trace(profile, INSTS)
        assert isinstance(column, ColumnTrace)
        objects = as_objects(column)
        assert encode_trace(objects) == encode_trace(column), (name, profile.seed)

    def test_heap_draw_bounds_match_randrange_ceiling(self):
        """The heap-offset candidate counts use ceiling division:
        ``heap_bytes`` is only required to be a multiple of 8, so the
        half-heap widths need not divide 8 evenly and flooring would drop
        the last candidate."""
        profile = dataclasses.replace(
            WorkloadProfile(name="odd-heap"), heap_bytes=(1 << 14) + 8
        )
        generator = _BlockGenerator(profile, 10, 0)
        half = profile.heap_bytes // 2
        assert half % 8  # the odd half-width the ceiling exists for
        assert generator.heap_load_n == -(-(profile.heap_bytes - half) // 8)
        assert generator.heap_store_n == -(-half // 8)


class TestProcessorEquivalence:
    N = 4000

    @pytest.mark.parametrize("kind", sorted(bench_configs()))
    def test_columns_match_objects_per_lsu(self, kind):
        """Processor-on-columns == Processor-on-objects, bit for bit."""
        _, config = bench_configs()[kind]
        column = generate_trace(spec_profile("gcc"), self.N)
        objects = as_objects(column)
        on_objects = Processor(config, objects, validate=True, warmup=500).run()
        on_columns = Processor(config, column, validate=True, warmup=500).run()
        assert on_objects.fingerprint() == on_columns.fingerprint(), kind

    @pytest.mark.parametrize("kind", sorted(bench_configs()))
    def test_kernel_columns_match_objects_per_lsu(self, kind, spill_fill_trace):
        """Fixed (object-built) kernel traces behave identically columnized."""
        _, config = bench_configs()[kind]
        columns = ColumnTrace.from_trace(spill_fill_trace)
        on_objects = Processor(config, spill_fill_trace, validate=True).run()
        on_columns = Processor(config, columns, validate=True).run()
        assert on_objects.fingerprint() == on_columns.fingerprint(), kind

    def test_decoded_trace_matches_generated(self):
        """The codec round-trip simulates identically to the original."""
        _, config = bench_configs()["nlq"]
        column = generate_trace(spec_profile("twolf"), self.N)
        clone = decode_trace(encode_trace(column))
        direct = Processor(config, column, warmup=500).run()
        decoded = Processor(config, clone, warmup=500).run()
        assert direct.fingerprint() == decoded.fingerprint()
