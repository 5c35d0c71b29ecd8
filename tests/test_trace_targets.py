"""Every entry point the benchmark's tracer wraps must exist.

``perfbench/tracing.py`` times the program by wrapping named entry points
(``module:Class.attr`` or ``module:function``).  Its self-tests run the
smoke workloads untraced, so a rename in ``src/`` would otherwise show
only in a traced benchmark run.  This test resolves every target the way
``tracing.install`` does — import the module, then look the attribute up
in the owning class's ``__dict__`` — and wraps nothing.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "point", tracing.ENTRY_POINTS, ids=lambda point: point.target
)
def test_entry_point_resolves(point):
    assert point.layer in tracing.LAYERS
    module_name, _, qualname = point.target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert attr in owner.__dict__, (
            f"{point.target}: {owner_name} does not define {attr} itself"
        )
        target = owner.__dict__[attr]
        if isinstance(target, classmethod):
            target = target.__func__
    else:
        target = getattr(module, attr)
    assert callable(target), f"{point.target} is not callable"
