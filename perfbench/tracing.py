"""In-process tracing of the program's layers, from outside the program.

Each entry of ``LAYERS`` wraps one public function *as bound in the
module that calls it* (``pipeline.induced_subtree`` is wrapped, the
``njtree``-internal call inside the restriction is not), so a span is
exactly one crossing of a layer boundary.  Spans record (name, start,
end, parent span, op id) and stay in memory until the run writes them
out.  Functions called tens of thousands of times per command
(``t4_distance``, ``frechet_function``, spider point construction) get a
counter only, so that tracing does not swamp the spans around them.

``moves`` records which end-to-end metric, on which workload, the
layer's number should move (and where it should not); later performance
changes claim against these names.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median

SPAN, COUNT = "span", "count"


@dataclass(frozen=True)
class Layer:
    name: str            # metric stem, <module>.<public function>
    targets: tuple       # (module, attribute path) bindings to wrap
    kind: str            # SPAN or COUNT
    metrics: tuple       # suffixes reported: "s", "self_s", "calls"
    moves: str


LAYERS = (
    Layer("seqio.mismatch_distance",
          (("cli", "mismatch_distance"), ("pipeline", "mismatch_distance")), SPAN, ("s",),
          "chain_s on seq_wide (dist and sample-trees); no change on seq_deep_t4"),
    Layer("seqio.DistanceMatrix.from_csv", (("seqio", "DistanceMatrix.from_csv"),), SPAN,
          ("s",), "chain_s (nj) on seq_wide"),
    Layer("njtree.neighbor_joining",
          (("cli", "neighbor_joining"), ("pipeline", "neighbor_joining")), SPAN, ("s",),
          "chain_s (nj, sample-trees) on seq_wide"),
    Layer("njtree.induced_subtree", (("pipeline", "induced_subtree"),), SPAN,
          ("s", "calls"), "chain_s (sample-trees) on seq_deep_t4 and seq_wide"),
    Layer("njtree.restrict",
          (("pipeline", "restrict_to_triplet"), ("pipeline", "restrict_to_quartet")), SPAN,
          ("s",), "chain_s (sample-trees) on seq_deep_t4 and seq_wide"),
    Layer("pipeline.sample_trees", (("pipeline", "sample_trees"),), SPAN, ("self_s",),
          "chain_s (sample-trees) on seq_deep_t4 and seq_wide"),
    Layer("pipeline.canonical_json", (("pipeline", "canonical_json"),), SPAN, ("s",),
          "chain_s (sample-trees, mean) on seq_deep_t4"),
    Layer("pipeline.load_sample", (("pipeline", "load_sample"),), SPAN, ("s",),
          "chain_s (mean) on seq_deep_t4"),
    Layer("t4space.T4Sample.from_dict", (("t4space", "T4Sample.from_dict"),), SPAN, ("s",),
          "chain_s (mean) on seq_deep_t4"),
    Layer("t4space.t4_mean", (("t4space", "t4_mean"),), SPAN, ("s",),
          "chain_s (mean) on seq_deep_t4; absent elsewhere"),
    Layer("t4space.t4_distance", (("t4space", "t4_distance"),), COUNT, ("calls",),
          "chain_s (mean) on seq_deep_t4"),
    Layer("t4space.frechet_function", (("t4space", "frechet_function"),), COUNT,
          ("calls",), "chain_s (mean) on seq_deep_t4"),
    Layer("mcsim.simulate", (("mcsim", "simulate"), ("mcsim", "simulate_openbook")), SPAN,
          ("self_s",), "chain_s (simulate) on limit_laws; no change on seq_wide"),
    Layer("mcsim.draw_spider_sample", (("mcsim", "draw_spider_sample"),), SPAN, ("s",),
          "chain_s (simulate) on limit_laws"),
    Layer("mcsim.draw_openbook_sample", (("mcsim", "draw_openbook_sample"),), SPAN, ("s",),
          "chain_s (simulate) on limit_laws"),
    Layer("spider.SpiderSample.from_arrays", (("spider", "SpiderSample.from_arrays"),),
          SPAN, ("s",), "chain_s (simulate) on limit_laws"),
    Layer("spider.intrinsic_mean", (("spider", "intrinsic_mean"),), SPAN, ("s", "calls"),
          "chain_s (simulate) on limit_laws; no change on seq_wide"),
    Layer("spider.SpiderPoint", (("spider", "SpiderPoint.__post_init__"),), COUNT,
          ("created",), "chain_s (simulate) on limit_laws"),
    Layer("openbook.openbook_mean", (("openbook", "openbook_mean"),), SPAN, ("s",),
          "chain_s (simulate) on limit_laws"),
    Layer("mcsim.kstest", (("mcsim", "kstest"),), SPAN, ("s",),
          "chain_s (simulate) on limit_laws"),
)
ROOT = Layer("cli.main", (), SPAN, ("self_s",),
             "setup_s and chain_s on every workload (argument parsing, file I/O)")
COMMANDS = ("dist", "nj", "sample_trees", "mean", "simulate")


class Tracer:
    """Span and counter recorder; ``patched`` installs the layer wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op)
        self.counts: Counter = Counter()
        self.op = None  # (chain iteration, CLI command) of the running invocation
        self._stack: list[int] = []

    def begin_iteration(self) -> int:
        """Reset the counters; returns the index of the iteration's first span."""
        self.counts = Counter()
        return len(self.spans)

    def wrap(self, name: str, kind: str, fn):
        if kind == COUNT:
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
                self.counts[name] += 1
        return traced

    @contextmanager
    def patched(self, modules: dict):
        """Replace each layer binding in ``modules`` by its wrapper, then restore."""
        saved = []
        try:
            for layer in LAYERS:
                for module, path in layer.targets:
                    owner = modules[module]
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                    saved.append((owner, attr, raw))
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(layer.name, layer.kind, raw.__func__))
                    else:
                        wrapped = self.wrap(layer.name, layer.kind, raw)
                    setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def op_totals(self, first_span: int) -> dict[str, float]:
        """Per-layer totals (s, self_s) over the spans from ``first_span`` on."""
        spans = self.spans[first_span:]
        child_time = defaultdict(float)
        for _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, op) in enumerate(spans, first_span):
            totals[f"{name}.s"] += end - start
            totals[f"{name}.self_s"] += end - start - child_time[k]
            if name == ROOT.name:
                totals[f"cli.{op[1]}.s"] += end - start
        return totals


def iteration_metrics(totals: dict, counts: Counter) -> dict[str, float]:
    """One traced chain's per-layer values (0 for layers it never entered)."""
    out = {}
    for layer in (*LAYERS, ROOT):
        for m in layer.metrics:
            if m in ("calls", "created"):
                out[f"{layer.name}.{m}"] = counts[layer.name]
            else:
                out[f"{layer.name}.{m}"] = totals.get(f"{layer.name}.{m}", 0.0)
    for c in COMMANDS:
        out[f"cli.{c}.s"] = totals.get(f"cli.{c}.s", 0.0)
    return out


def medians(rows: list[dict]) -> dict[str, float]:
    return {k: median(r[k] for r in rows) for k in rows[0]}
