"""Processor lifecycle: a finished cell is freed by reference counting.

A sweep builds one :class:`Processor` per cell.  Nothing the processor
owns may point back at it strongly (the LSU holds a weak proxy), so the
whole machine -- caches, predictor and IT tables, in-flight state --
is reclaimed the moment the last reference drops, with the cyclic
garbage collector switched off, and leaves no cyclic garbage behind for
a later collection to walk.  Checked for every machine of the paper's
figures, the composition study and SVW-as-replacement (``SVW_ONLY``).
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.harness.configs import (
    composition_configs,
    fig5_configs,
    fig6_configs,
    fig7_configs,
    fig8_configs,
    svw_replacement_configs,
)
from repro.pipeline.config import RexMode
from repro.pipeline.processor import Processor
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace

N = 1000

CONFIGS = {
    f"{family.__name__.removesuffix('_configs')}/{label}": config
    for family in (
        fig5_configs,
        fig6_configs,
        fig7_configs,
        fig8_configs,
        composition_configs,
        svw_replacement_configs,
    )
    for label, config in family().items()
}


@pytest.fixture(scope="module")
def trace():
    return generate_trace(spec_profile("gcc"), N)


def test_config_matrix_covers_every_rex_mode():
    modes = {config.rex_mode for config in CONFIGS.values()}
    assert modes == set(RexMode)


@pytest.mark.parametrize("validate", [False, True], ids=["fast", "validate"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_finished_processor_freed_by_refcount(name, validate, trace):
    config = CONFIGS[name]
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        processor = Processor(config, trace, validate=validate, warmup=N // 4)
        stats = processor.run()
        assert stats.committed > 0
        ref = weakref.ref(processor)
        del processor
        assert ref() is None, f"{name}: processor kept alive by a reference cycle"
        assert gc.collect() == 0, f"{name}: finished cell left cyclic garbage"
    finally:
        if was_enabled:
            gc.enable()
