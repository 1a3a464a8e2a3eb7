"""Command-line front end.

Subcommands wire the library end to end: ``dist`` (alignment to distance
CSV), ``nj`` (distance CSV to Newick), ``sample-trees`` (grouped
resampling into tree-space samples), ``mean`` / ``sticky`` (intrinsic
means and stickiness verdicts), ``simulate`` (limit-law checks), and
``plot`` (SVG/CSV exports).  All randomness sits behind ``--seed``;
identical inputs and seed give byte-identical JSON output.

Exit codes: 0 success, 1 internal error, 2 bad input or configuration
(a run too large for memory included).

Commands parse options and read or write files; the dispatch on the sample
space or law kind lives in ``pipeline`` and ``mcsim``.  No treestats module
beyond ``errors`` is imported at module level, so ``--version``, ``--help``
and usage errors load no numpy, and each command loads only the modules it
runs.  The ``seqio`` and ``njtree`` names below stay attributes of this
module, bound on first access; commands call them through ``_self``, so
that a rebinding of the attribute (the layer tracer's wrappers) is what runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, _lazy
from .errors import ConfigError, TreeStatsError

__getattr__ = _lazy(globals(), {
    "DistanceMatrix": "seqio", "GapMode": "seqio", "mismatch_distance": "seqio",
    "parse_fasta": "seqio", "serialize_newick": "seqio", "neighbor_joining": "njtree",
})
_self = sys.modules[__name__]


def _read(path: str) -> str:
    try:  # and drop a leading BOM
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    try:
        obj = json.loads(_read(path))
    except ValueError as exc:  # JSONDecodeError, or an int longer than Python converts
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON (nested too deep)") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _int_from(lo: int, hi: int | None = None):
    """An argparse type: an integer in ``lo..hi``, or ``>= lo`` without ``hi``."""
    bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo or hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be an integer {bounds}, got {value}")
        return value
    return parse


_seed = _int_from(0)  # numpy seeds are integers >= 0
# 17 significant digits write every double so that it reads back exactly
_precision = _int_from(1, 17)


def cmd_dist(args) -> int:
    block = _self.parse_fasta(_read(args.fasta))
    dm = _self.mismatch_distance(block, _self.GapMode(args.gaps), args.strict_n)
    _write(dm.to_csv(), args.output)
    return 0


def cmd_nj(args) -> int:
    dm = _self.DistanceMatrix.from_csv(_read(args.matrix))
    tree = _self.neighbor_joining(dm)
    _write(_self.serialize_newick(tree, args.precision) + "\n", args.output)
    return 0


def cmd_sample_trees(args) -> int:
    from . import pipeline

    block = _self.parse_fasta(_read(args.fasta))
    groups = pipeline.load_groups(_read(args.groups))
    sample = pipeline.sample_trees(
        block, groups, args.k, args.reps, args.seed, args.gaps, args.strict_n
    )
    _write(sample.to_json(), args.output)
    return 0


def cmd_mean(args) -> int:
    from . import pipeline

    obj = _load_json(args.sample)
    detected = pipeline.detect_space(obj)
    space = args.space or detected
    if space != detected:
        raise ConfigError(f"sample looks like {detected!r}, not {space!r}")
    if args.plot and space == "openbook":
        raise ConfigError("--plot supports t3 and t4 samples")
    sample = pipeline.load_sample(obj, space)
    estimate, report = pipeline.mean_report(sample, space, args.tolerance)
    plot = args.plot and pipeline.plot_text(sample, space, "svg", estimate)  # refused: no file
    _write(pipeline.canonical_json(report), args.output)
    if plot:
        _write(plot, args.plot)
    return 0


def cmd_sticky(args) -> int:
    from . import pipeline

    obj = _load_json(args.input)
    axis = args.axis.split(",") if args.axis else None
    report = pipeline.sticky_report(obj, args.tolerance, axis)
    _write(pipeline.canonical_json(report), args.output)
    return 0


def cmd_simulate(args) -> int:
    from . import mcsim, spider

    law = mcsim.law_from_dict(_load_json(args.law))
    report = mcsim.simulate(law, args.n, args.reps, args.seed)
    _write(spider.canonical_json(report.to_dict()), args.output)
    print(f"simulate: {report.replications} replicates in "
          f"{report.runtime_seconds:.2f}s", file=sys.stderr)
    return 0


def cmd_plot(args) -> int:
    from . import pipeline

    obj = _load_json(args.sample)
    space = pipeline.detect_space(obj)
    sample = pipeline.load_sample(obj, space)
    fmt = args.format or ("csv" if (args.output or "").endswith(".csv") else "svg")
    _write(pipeline.plot_text(sample, space, fmt), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treestats",
        description="Statistics on stratified spaces of phylogenetic trees.",
    )
    parser.add_argument("--version", action="version", version=f"treestats {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", help="output file (default: stdout)")

    p = sub.add_parser("dist", help="mismatch-fraction distances of an alignment")
    p.add_argument("fasta", help="aligned FASTA file")
    p.add_argument("--gaps", choices=["ignore", "mismatch"], default="ignore",
                   help="gap handling (default: ignore)")
    p.add_argument("--strict-n", action="store_true",
                   help="make N mismatch everything instead of nothing")
    add_output(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("nj", help="neighbor-joining tree from a distance CSV")
    p.add_argument("matrix", help="distance matrix CSV")
    p.add_argument("--precision", type=_precision, default=6,
                   help="significant digits of branch lengths, 1..17 (default 6)")
    add_output(p)
    p.set_defaults(func=cmd_nj)

    p = sub.add_parser("sample-trees",
                       help="grouped resampling into a tree-space sample")
    p.add_argument("fasta", help="aligned FASTA file")
    p.add_argument("--groups", required=True, help="taxon,group CSV file")
    p.add_argument("--k", type=int, choices=[3, 4], required=True,
                   help="leaves per sample tree (= number of groups)")
    p.add_argument("--reps", type=int, default=10, help="repetitions (default 10)")
    p.add_argument("--seed", type=_seed, default=0, help="random seed >= 0 (default 0)")
    p.add_argument("--gaps", choices=["ignore", "mismatch"], default="ignore")
    p.add_argument("--strict-n", action="store_true")
    add_output(p)
    p.set_defaults(func=cmd_sample_trees)

    p = sub.add_parser("mean", help="intrinsic mean of a tree-space sample")
    p.add_argument("sample", help="sample JSON file")
    p.add_argument("--space", choices=["t3", "t4", "openbook"],
                   help="sample space (default: inferred)")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="boundary tolerance for verdicts (default 0)")
    p.add_argument("--plot", help="also write an SVG plot to this path")
    add_output(p)
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("sticky", help="stickiness verdict of a sample or summary")
    p.add_argument("input", help="sample or summary JSON file")
    p.add_argument("--tolerance", type=float, default=0.0)
    p.add_argument("--axis",
                   help="spine cluster for tree-space samples, e.g. 'a,b'")
    add_output(p)
    p.set_defaults(func=cmd_sticky)

    p = sub.add_parser("simulate", help="Monte Carlo check of the limit laws")
    p.add_argument("law", help="law JSON file")
    p.add_argument("--n", type=int, required=True, help="sample size per replicate")
    p.add_argument("--reps", type=int, required=True, help="number of replicates")
    p.add_argument("--seed", type=_seed, default=0, help="random seed >= 0 (default 0)")
    add_output(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plot", help="SVG (or CSV projection) of a sample")
    p.add_argument("sample", help="sample JSON file")
    p.add_argument("--format", choices=["svg", "csv"],
                   help="output format (default: by extension, else svg)")
    add_output(p)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # MemoryError: a run too large to fit in memory is bad configuration
    except (TreeStatsError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - genuine bugs
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
