"""Every layer binding the benchmark tracer wraps resolves in treestats.

``perfbench/tracing.py`` wraps functions by (module, attribute path); a
binding that a refactor drops would otherwise surface only as a crash of
``perfbench/run.py --trace 1``.  The file is read here, not changed.
"""

import importlib
import importlib.util
import sys
from importlib import resources
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


# The SPAN layers bound in cli or pipeline that each command enters through
# those bindings.  dist and nj run no pipeline code, and sample-trees and mean
# none of cli's bindings, so a command that bypasses one of its bindings (by
# a local import, say) leaves that layer at 0 here.  pipeline.induced_subtree
# stays bound but is never called: restriction walks parent links.
ENTERED = [
    (["dist", "fasta", "-o", "d.csv"], {"seqio.mismatch_distance"}),
    (["nj", "d.csv", "-o", "tree.nwk"], {"njtree.neighbor_joining"}),
    *[(["sample-trees", "fasta", "--groups", f"groups{k}", "--k", str(k), "--reps", "20",
        "-o", f"s{k}.json"],
       {"seqio.mismatch_distance", "njtree.neighbor_joining", "njtree.restrict",
        "pipeline.sample_trees"}) for k in (3, 4)],
    *[(["mean", f"s{k}.json", "-o", f"mean{k}.json"],
       {"pipeline.load_sample", "pipeline.canonical_json"}) for k in (3, 4)],
]


def test_bound_layers_are_entered(tmp_path):
    from treestats import cli

    bound = {layer.name for layer in tracing.LAYERS if layer.kind == tracing.SPAN
             and any(module in ("cli", "pipeline") for module, _ in layer.targets)}
    assert set().union(*(names for _, names in ENTERED)) == bound - {"njtree.induced_subtree"}
    data = resources.files("treestats") / "data"
    files = {"fasta": data / "toy_alignment.fasta", "groups3": data / "toy_groups3.csv",
             "groups4": data / "toy_groups4.csv"}
    modules = {module: importlib.import_module(f"treestats.{module}")
               for _, module, _ in TARGETS}
    tracer = tracing.Tracer()
    with tracer.patched(modules):
        for argv, expected in ENTERED:
            tracer.begin_iteration()
            paths = [files[a] if a in files else tmp_path / a if "." in a else a for a in argv]
            assert cli.main([str(a) for a in paths]) == 0, argv
            assert {name for name in bound if tracer.counts[name]} == expected, argv[0]
