"""No enum-member loads in the cycle loop.

Reading an enum member through its class (``RexMode.REEXECUTE``) costs
several times a module-global load, and the stage methods below run once
per simulated cycle or instruction; ``InFlight.__init__`` runs once per
dispatch.  The processor and ``repro.pipeline.inflight`` hoist every
member they test into a module constant (``_PENDING``, ``_REEXECUTE``,
...), and this test keeps it that way by walking the bytecode for a
global load of an enum class.
"""

from __future__ import annotations

import dis

import pytest

from repro.pipeline.inflight import InFlight
from repro.pipeline.processor import Processor

#: Enum classes the hot path tests members of.
ENUMS = {"RexState", "RexMode", "OpClass", "LSUKind"}

STAGE_METHODS = (
    "_run",
    "_do_complete",
    "_do_commit",
    "_commit_load",
    "_commit_store",
    "_do_rex",
    "_do_issue",
    "_do_dispatch",
    "_dispatch_load",
    "_dispatch_store",
    "_wake",
    "_next_event_cycle",
)

FUNCTIONS = {
    **{f"Processor.{name}": getattr(Processor, name) for name in STAGE_METHODS},
    "InFlight.__init__": InFlight.__init__,
}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_no_enum_class_loads(name):
    loads = [
        f"{ins.argval} (offset {ins.offset})"
        for ins in dis.get_instructions(FUNCTIONS[name])
        if ins.opname == "LOAD_GLOBAL" and ins.argval in ENUMS
    ]
    assert not loads, f"{name} loads enum classes: {', '.join(loads)}"
