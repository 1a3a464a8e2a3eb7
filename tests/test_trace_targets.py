"""Every layer binding the benchmark tracer wraps resolves in treestats.

``perfbench/tracing.py`` wraps functions by (module, attribute path); a
binding that a refactor drops would otherwise surface only as a crash of
``perfbench/run.py --trace 1``.  The file is read here, not changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)  # its dataclasses look the module up by name

TARGETS = [(layer.name, module, path)
           for layer in tracing.LAYERS for module, path in layer.targets]


@pytest.mark.parametrize("layer, module, path", TARGETS,
                         ids=[f"{module}.{path}" for _, module, path in TARGETS])
def test_layer_target_resolves(layer, module, path):
    owner = importlib.import_module(f"treestats.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"{layer}: treestats.{module}.{path} is gone"
        owner = getattr(owner, part)
    assert callable(owner)
