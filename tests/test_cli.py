import copy
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treestats
from oracles import serialize_newick_recursive
from treestats import pipeline, spider
from treestats.cli import main
from treestats.errors import ConfigError
from treestats.njtree import neighbor_joining
from treestats.seqio import DistanceMatrix, GapMode, parse_fasta, parse_newick
from treestats.spider import SpiderSample, intrinsic_mean


DATA = resources.files("treestats") / "data"
GOLDEN = Path(__file__).parent / "golden"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture()
def toy(tmp_path):
    fasta = tmp_path / "toy.fasta"
    groups3 = tmp_path / "groups3.csv"
    groups4 = tmp_path / "groups4.csv"
    fasta.write_text((DATA / "toy_alignment.fasta").read_text())
    groups3.write_text((DATA / "toy_groups3.csv").read_text())
    groups4.write_text((DATA / "toy_groups4.csv").read_text())
    return fasta, groups3, groups4


class TestDist:
    def test_csv_shape(self, toy, tmp_path, capsys):
        fasta, _, _ = toy
        out = tmp_path / "d.csv"
        assert main(["dist", str(fasta), "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 13
        assert lines[0].split(",") == [f"s{i:02d}" for i in range(1, 13)]

    def test_missing_file_exit_2(self, capsys):
        assert main(["dist", "/nonexistent/x.fasta"]) == 2
        assert "error" in capsys.readouterr().err

    def test_gap_modes_differ(self, tmp_path, capsys):
        fasta = tmp_path / "two.fasta"
        fasta.write_text(">x\nAC-T\n>y\nACGT\n")
        assert main(["dist", str(fasta), "--gaps", "ignore"]) == 0
        ignore_csv = capsys.readouterr().out
        assert main(["dist", str(fasta), "--gaps", "mismatch"]) == 0
        mismatch_csv = capsys.readouterr().out
        assert ignore_csv.splitlines()[1].split(",")[1] == "0.0"
        assert mismatch_csv.splitlines()[1].split(",")[1] == "0.25"


# Prepended to the scripts of TestImports: any import of scipy fails.
NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None

sys.meta_path.insert(0, NoScipy())
"""


def run_fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter (this one has every module loaded
    by other tests); returns its standard output."""
    src = str(Path(treestats.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_without_scipy(script: str) -> None:
    """Run ``script`` in a fresh interpreter in which importing scipy raises
    ModuleNotFoundError."""
    run_fresh(NO_SCIPY + script)


# treestats submodules each subcommand's process loads (README, Conventions)
CLI_MODULES = {"cli", "errors"}
DIST_MODULES = CLI_MODULES | {"seqio"}
NJ_MODULES = DIST_MODULES | {"njtree"}
T3_MODULES = CLI_MODULES | {"pipeline", "spider"}
T4_MODULES = T3_MODULES | {"t4space"}
SAMPLE_T3_MODULES = T3_MODULES | NJ_MODULES
SAMPLE_T4_MODULES = T4_MODULES | NJ_MODULES
SIMULATE_MODULES = CLI_MODULES | {"kolmogorov", "mcsim", "spider"}


class TestModulesPerCommand:
    """A subcommand's process imports only the modules the command runs, and
    not ``numpy.ma``, which a first ``np.unique`` call imports (about 6 ms)."""

    @pytest.fixture()
    def inputs(self, toy, tmp_path):
        fasta, groups3, groups4 = toy
        files = {"fasta": fasta, "groups3": groups3, "groups4": groups4,
                 "law": DATA / "law_dominant.json",
                 "book_law": DATA / "law_openbook_symmetric.json",
                 "book.json": GOLDEN / "openbook_sample.json",
                 "axis.json": GOLDEN / "plots" / "t4_axis_mean.json"}
        for name in ("d.csv", "s3.json", "s4.json"):
            files[name] = tmp_path / name
        main(["dist", str(fasta), "-o", str(files["d.csv"])])
        for k in (3, 4):
            main(["sample-trees", str(fasta), "--groups", str(files[f"groups{k}"]),
                  "--k", str(k), "--reps", "20", "-o", str(files[f"s{k}.json"])])
        return files

    @pytest.mark.parametrize("argv, code, expected", [
        (["--version"], 0, CLI_MODULES),
        (["--help"], 0, CLI_MODULES),
        (["simulate", "law", "--reps", "10"], 2, CLI_MODULES),  # no --n
        (["dist", "fasta"], 0, DIST_MODULES),
        (["nj", "d.csv"], 0, NJ_MODULES),
        (["sample-trees", "fasta", "--groups", "groups3", "--k", "3"], 0, SAMPLE_T3_MODULES),
        (["mean", "s3.json"], 0, T3_MODULES),
        (["sticky", "s3.json"], 0, T3_MODULES),
        (["plot", "s3.json"], 0, T3_MODULES | {"plots"}),
        (["mean", "book.json"], 0, T3_MODULES | {"openbook"}),
        (["sample-trees", "fasta", "--groups", "groups4", "--k", "4"], 0, SAMPLE_T4_MODULES),
        (["mean", "s4.json"], 0, T4_MODULES),
        (["sticky", "axis.json", "--axis", "a,b"], 0, T4_MODULES | {"openbook"}),
        (["simulate", "law", "--n", "20", "--reps", "10"], 0, SIMULATE_MODULES),
        (["simulate", "book_law", "--n", "20", "--reps", "10"], 0, SIMULATE_MODULES),
    ], ids=["version", "help", "usage_error", "dist", "nj", "sample_trees_k3", "mean_t3",
            "sticky_t3", "plot_t3", "mean_openbook", "sample_trees_k4", "mean_t4",
            "sticky_t4_axis", "simulate_spider", "simulate_openbook"])
    def test_loaded_modules(self, inputs, tmp_path, argv, code, expected):
        argv = [str(inputs.get(a, a)) for a in argv]
        if not argv[0].startswith("--"):
            argv += ["-o", str(tmp_path / "out")]
        out = run_fresh(f"""
import sys
from treestats.cli import main
try:
    code = main({argv!r})
except SystemExit as exc:  # --version, --help and usage errors
    code = exc.code
print(code, *sorted(m for m in sys.modules
                   if m.startswith(("treestats.", "statistics")) or m in ("numpy", "numpy.ma")))
""")
        printed, *loaded = out.splitlines()[-1].split()
        assert printed == str(code)
        assert set(loaded) - {"numpy"} == {f"treestats.{m}" for m in expected}
        # argparse answers these before any command runs: no numpy
        assert ("numpy" in loaded) is (expected != CLI_MODULES)

    def test_import_treestats_loads_nothing(self):
        out = run_fresh("""
import sys
import treestats
print(*sorted(m for m in sys.modules if m.startswith(("treestats", "numpy"))))
""")
        assert out.split() == ["treestats"]

    def test_every_export_resolves(self):
        listed = dir(treestats)
        for name in treestats.__all__:
            module = importlib.import_module(f"treestats.{treestats._MODULE_OF.get(name, name)}")
            expected = module if name == "errors" else getattr(module, name)
            assert getattr(treestats, name) is expected, name
            assert name in listed
        assert "T4Point" in treestats.__all__ and "simulate" in treestats.__all__
        with pytest.raises(AttributeError, match="no_such_name"):
            treestats.no_such_name

    @pytest.mark.parametrize("module", sorted(
        m.name for m in pkgutil.iter_modules(treestats.__path__)))
    def test_every_module_star_import(self, module):
        # a name deleted from a module but left in its __all__ fails the import
        exec(f"from treestats.{module} import *", {})
        listed = getattr(importlib.import_module(f"treestats.{module}"), "__all__", None)
        if listed is not None:
            assert set(treestats._EXPORTS.get(module, ())) <= set(listed)


class TestImports:
    def test_sequence_chain_never_imports_scipy(self, toy, tmp_path):
        fasta, groups3, groups4 = toy
        d, tree, sample, mean, sample4, mean4 = (
            tmp_path / n
            for n in ("d.csv", "t.nwk", "s.json", "m.json", "s4.json", "m4.json")
        )
        run_without_scipy(f"""
from treestats.cli import main
assert main(["dist", {str(fasta)!r}, "-o", {str(d)!r}]) == 0
assert main(["nj", {str(d)!r}, "-o", {str(tree)!r}]) == 0
assert main(["sample-trees", {str(fasta)!r}, "--groups", {str(groups3)!r},
             "--k", "3", "-o", {str(sample)!r}]) == 0
assert main(["mean", {str(sample)!r}, "-o", {str(mean)!r}]) == 0
assert main(["sample-trees", {str(fasta)!r}, "--groups", {str(groups4)!r},
             "--k", "4", "--reps", "30", "-o", {str(sample4)!r}]) == 0
assert main(["mean", {str(sample4)!r}, "--space", "t4", "-o", {str(mean4)!r}]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
""")
        assert json.loads(mean.read_text())["space"] == "t3"
        assert json.loads(mean4.read_text())["space"] == "t4"

    def test_limit_laws_and_intervals_run_without_scipy(self, tmp_path):
        laws = [DATA / "law_dominant.json", DATA / "law_symmetric.json",
                DATA / "law_openbook_symmetric.json",
                Path(__file__).parent / "golden" / "law_boundary.json"]
        outs = [tmp_path / f"sim{i}.json" for i in range(len(laws))]
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({"p": 3, "w": [0.2, 0.5, 0.3], "nu": [1, 1, 1]}))
        run_without_scipy(f"""
import json
import numpy as np
from treestats import mcsim
from treestats.cli import main
from treestats.openbook import OpenBookSample, spine_clt
from treestats.spider import SpiderSample, clt_interval
for law, out in zip({[str(p) for p in laws]!r}, {[str(p) for p in outs]!r}):
    assert main(["simulate", law, "--n", "40", "--reps", "50", "--seed", "1", "-o", out]) == 0
rng = np.random.default_rng(0)
spider = SpiderSample.from_arrays(3, rng.integers(1, 4, 30), rng.exponential(1.0, 30))
assert clt_interval(spider, 0.9).confidence == 0.9
book = OpenBookSample.from_arrays(rng.integers(1, 4, 30), rng.uniform(0, 2, 30),
                                  rng.exponential(1.0, 30))
assert spine_clt(book).lo <= spine_clt(book).hi
law = mcsim.law_from_dict(json.load(open({str(laws[2])!r})))
assert 0 < mcsim.spine_coverage(law, 40, 20, 0.95, seed=2) <= 1
assert main(["sticky", {str(summary)!r}]) == 0
""")
        reports = [json.loads(p.read_text()) for p in outs]
        assert [r["regime"] for r in reports] == ["i", "iii", "iii", "ii"]
        assert reports[0]["ks_pvalue"] is not None and reports[3]["ks_pvalue"] is not None


class TestNj:
    def test_round_trip(self, toy, tmp_path, capsys):
        fasta, _, _ = toy
        csv_path = tmp_path / "d.csv"
        main(["dist", str(fasta), "-o", str(csv_path)])
        assert main(["nj", str(csv_path)]) == 0
        newick = capsys.readouterr().out.strip()
        assert newick.endswith(";")
        from treestats.seqio import parse_newick

        tree = parse_newick(newick)
        assert sorted(tree.leaf_labels()) == [f"s{i:02d}" for i in range(1, 13)]

    def test_identical_sequences_give_a_deep_tree(self, tmp_path, capsys):
        # neighbor joining turns ties into a caterpillar, one level per taxon
        fasta, csv_path = tmp_path / "same.fasta", tmp_path / "d.csv"
        fasta.write_text("".join(f">s{i}\nACGTACGTAC\n" for i in range(500)))
        assert main(["dist", str(fasta), "-o", str(csv_path)]) == 0
        assert main(["nj", str(csv_path)]) == 0
        newick = capsys.readouterr().out
        assert newick.startswith("(" * 400)
        assert sorted(parse_newick(newick).leaf_labels()) == sorted(f"s{i}" for i in range(500))
        # the bytes of the recursive writer, given the stack depth it needs
        tree = neighbor_joining(DistanceMatrix.from_csv(csv_path.read_text()))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 2000)
        try:
            assert newick == serialize_newick_recursive(tree) + "\n"
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize("precision", ["-1", "0", "18", str(2**31)])
    def test_precision_out_of_range(self, toy, tmp_path, capsys, precision):
        # 1..17: seventeen significant digits already write every double exactly
        fasta, _, _ = toy
        csv_path = tmp_path / "d.csv"
        main(["dist", str(fasta), "-o", str(csv_path)])
        with pytest.raises(SystemExit) as exc:
            main(["nj", str(csv_path), "--precision", precision])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "--precision: must be an integer in 1..17" in err


class TestSampleTrees:
    def test_three_groups_ten_reps(self, toy, tmp_path):
        fasta, groups3, _ = toy
        out = tmp_path / "s.json"
        assert main([
            "sample-trees", str(fasta), "--groups", str(groups3),
            "--k", "3", "--reps", "10", "--seed", "42", "-o", str(out),
        ]) == 0
        obj = json.loads(out.read_text())
        assert obj["p"] == 3 and len(obj["points"]) == 10

    def test_four_groups_twenty_reps(self, toy, tmp_path):
        fasta, _, groups4 = toy
        out = tmp_path / "s4.json"
        assert main([
            "sample-trees", str(fasta), "--groups", str(groups4),
            "--k", "4", "--reps", "20", "--seed", "42", "-o", str(out),
        ]) == 0
        obj = json.loads(out.read_text())
        assert obj["labels"] == ["a", "b", "c", "d"]
        assert len(obj["points"]) == 20

    def test_singleton_groups_deterministic(self, tmp_path):
        fasta = tmp_path / "f.fasta"
        fasta.write_text(">x\nACGTACGT\n>y\nACGAACGT\n>z\nTCGAACGA\n")
        groups = tmp_path / "g.csv"
        groups.write_text("x,a\ny,b\nz,c\n")
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        for out in (out1, out2):
            assert main([
                "sample-trees", str(fasta), "--groups", str(groups),
                "--k", "3", "--reps", "1", "--seed", "5", "-o", str(out),
            ]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_group_count_mismatch_exit_2(self, toy, tmp_path):
        fasta, groups3, _ = toy
        assert main([
            "sample-trees", str(fasta), "--groups", str(groups3), "--k", "4",
        ]) == 2

    def test_k_other_than_3_or_4_refused(self, toy):
        # the command line allows only 3 and 4; the library call checks k itself
        fasta, groups3, _ = toy
        block = parse_fasta(fasta.read_text())
        groups = pipeline.load_groups(groups3.read_text())
        with pytest.raises(ConfigError, match=r"^k must be 3 or 4$"):
            pipeline.sample_trees(block, groups, k=5, reps=10, seed=1)


class TestMeanAndSticky:
    def test_mean_t3_report(self, toy, tmp_path):
        fasta, groups3, _ = toy
        sample = tmp_path / "s.json"
        main(["sample-trees", str(fasta), "--groups", str(groups3),
              "--k", "3", "--reps", "10", "--seed", "42", "-o", str(sample)])
        out = tmp_path / "m.json"
        assert main(["mean", str(sample), "--space", "t3", "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["space"] == "t3"
        assert rep["tree_type"].count(",") == 2
        assert len(rep["theta"]) == 3

    def test_mean_matches_library(self, toy, tmp_path):
        fasta, groups3, _ = toy
        sample_path = tmp_path / "s.json"
        main(["sample-trees", str(fasta), "--groups", str(groups3),
              "--k", "3", "--reps", "10", "--seed", "42", "-o", str(sample_path)])
        cli_report_path = tmp_path / "m.json"
        main(["mean", str(sample_path), "-o", str(cli_report_path)])
        cli_report = json.loads(cli_report_path.read_text())

        block = parse_fasta(Path(fasta).read_text())
        groups = pipeline.load_groups(Path(groups3).read_text())
        lib_sample = pipeline.sample_trees(block, groups, 3, 10, 42, GapMode.IGNORE)
        lib_report = intrinsic_mean(lib_sample)
        assert cli_report["theta"] == pytest.approx(list(lib_report.theta))
        assert cli_report["mean"]["u"] == pytest.approx(lib_report.mean.u)

    def test_mean_t4_with_plot(self, toy, tmp_path):
        fasta, _, groups4 = toy
        sample = tmp_path / "s4.json"
        main(["sample-trees", str(fasta), "--groups", str(groups4),
              "--k", "4", "--reps", "12", "--seed", "1", "-o", str(sample)])
        out = tmp_path / "m4.json"
        svg = tmp_path / "m4.svg"
        assert main(["mean", str(sample), "--plot", str(svg), "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["space"] == "t4"
        assert svg.read_text().startswith("<svg")

    def test_nan_weights_exit_2(self, tmp_path, capsys):
        sample = tmp_path / "nan.json"
        sample.write_text('{"p": 3, "points": [{"leg": 1, "u": 1.0}, '
                          '{"leg": 2, "u": 2.0}], "weights": [NaN, NaN]}')
        assert main(["mean", str(sample)]) == 2
        assert "weights must be finite" in capsys.readouterr().err

    def test_space_mismatch_exit_2(self, toy, tmp_path):
        fasta, groups3, _ = toy
        sample = tmp_path / "s.json"
        main(["sample-trees", str(fasta), "--groups", str(groups3),
              "--k", "3", "--reps", "3", "--seed", "1", "-o", str(sample)])
        assert main(["mean", str(sample), "--space", "t4"]) == 2

    def test_sticky_summary(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({
            "p": 3,
            "w": [25 / 59, 16 / 59, 18 / 59],
            "nu": [2.3938, 2.1342, 2.8401],
        }))
        assert main(["sticky", str(summary)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"]["kind"] == "sticky"

    def test_sticky_summary_without_moments_is_strict_json(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        summary.write_text('{"p": 3, "w": [0.2, 0.5, 0.3], "nu": [1, 1, 1]}')
        assert main(["sticky", str(summary)]) == 0
        rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert rep["intrinsic_sd"] is None

    @pytest.mark.parametrize("field, doc", [
        ("w", '"w": [NaN, 0.5, 0.5], "nu": [1, 1, 1]'),
        ("nu", '"w": [0.2, 0.5, 0.3], "nu": [1, Infinity, 1]'),
        ("w0", '"w0": -Infinity, "w": [0.2, 0.5, 0.3], "nu": [1, 1, 1]'),
    ])
    def test_sticky_summary_non_finite_exit_2(self, tmp_path, capsys, field, doc):
        summary = tmp_path / "summary.json"
        summary.write_text('{"p": 3, ' + doc + '}')
        assert main(["sticky", str(summary)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"summary {field} must be finite" in captured.err

    def test_sticky_summary_moment_past_the_bound_exit_2(self, tmp_path, capsys):
        # masses need not sum to 1, so w * nu can exceed the coordinate bound
        summary = tmp_path / "summary.json"
        summary.write_text('{"p": 3, "w": [1e100, 0, 0], "nu": [1e100, 1, 1]}')
        assert main(["sticky", str(summary)]) == 2
        assert "summary w[0] * nu[0] must be in 0..1e+150" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, leg, tree_type", [
        ("mean", {"p": 5, "points": [{"leg": 1, "u": 1}, {"leg": 5, "u": 2}]}, 5, None),
        ("sticky", {"p": 5, "points": [{"leg": 1, "u": 1}, {"leg": 5, "u": 2}]}, 5, None),
        ("sticky", {"p": 5, "w": [0.2, 0, 0, 0, 0.8], "nu": [1, 1, 1, 1, 2]}, 5, None),
        ("mean", {"p": 1, "points": [{"leg": 1, "u": 1}]}, 1, None),
        ("sticky", {"p": 2, "w": [0.2, 0.8], "nu": [1, 1]}, 2, None),
        ("sticky", {"p": 3, "w": [0.2, 0.7, 0.1], "nu": [1, 1, 1]}, 2, "((a,c),b)"),
        ("mean", {"p": 3, "points": [{"leg": 3, "u": 1}]}, 3, "((b,c),a)"),
    ])
    def test_tree_type_names_three_leg_trees_only(self, tmp_path, capsys, command, doc, leg,
                                                   tree_type):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["mean"]["leg"] == leg and rep["tree_type"] == tree_type

    def test_mean_t4_report_keys(self, toy, tmp_path):
        fasta, _, groups4 = toy
        sample = tmp_path / "s4.json"
        main(["sample-trees", str(fasta), "--groups", str(groups4),
              "--k", "4", "--reps", "20", "--seed", "42", "-o", str(sample)])
        out = tmp_path / "m4.json"
        assert main(["mean", str(sample), "-o", str(out)]) == 0
        rep = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert set(rep) == {
            "space", "n", "labels", "tree_type", "intrinsic_sd", "mean", "frechet_value",
        }
        with pytest.raises(SystemExit) as exc:  # the option is gone
            main(["mean", str(sample), "--epochs", "5"])
        assert exc.value.code == 2

    def test_sticky_t4_requires_axis(self, toy, tmp_path, capsys):
        fasta, _, groups4 = toy
        sample = tmp_path / "s4.json"
        main(["sample-trees", str(fasta), "--groups", str(groups4),
              "--k", "4", "--reps", "5", "--seed", "3", "-o", str(sample)])
        assert main(["sticky", str(sample)]) == 2


class TestSimulate:
    def test_spider_law(self, tmp_path, capsys):
        law = tmp_path / "law.json"
        law.write_text((DATA / "law_symmetric.json").read_text())
        out = tmp_path / "report.json"
        assert main(["simulate", str(law), "--n", "50", "--reps", "100",
                     "--seed", "2", "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["regime"] == "iii"
        assert "runtime_seconds" not in rep

    def test_simulate_byte_identical(self, tmp_path):
        law = tmp_path / "law.json"
        law.write_text((DATA / "law_dominant.json").read_text())
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["simulate", str(law), "--n", "40", "--reps", "60",
                         "--seed", "9", "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSeedAndSizeBounds:
    """Seeds, replicate counts and spider leg counts outside their documented
    bounds exit 2 and name the option or field."""

    def test_negative_seed_simulate(self, tmp_path, capsys):
        law = tmp_path / "law.json"
        law.write_text((DATA / "law_symmetric.json").read_text())
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(law), "--n", "10", "--reps", "5", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_negative_seed_sample_trees(self, toy, capsys):
        fasta, groups3, _ = toy
        with pytest.raises(SystemExit) as exc:
            main(["sample-trees", str(fasta), "--groups", str(groups3), "--k", "3",
                  "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_two_word_seed_runs(self, tmp_path):
        law = tmp_path / "law.json"
        law.write_text((DATA / "law_openbook_symmetric.json").read_text())
        out = tmp_path / "report.json"
        assert main(["simulate", str(law), "--n", "20", "--reps", "30",
                     "--seed", str(2**32 + 1), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["replications"] == 30

    def test_too_many_replications(self, tmp_path, capsys):
        law = tmp_path / "law.json"
        law.write_text((DATA / "law_symmetric.json").read_text())
        assert main(["simulate", str(law), "--n", "10", "--reps", str(2**32 + 1)]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "replications" in err

    # sizes past the 64-bit address space, which no host can allocate
    @pytest.mark.parametrize("argv", [
        ["simulate", DATA / "law_dominant.json", "--n", str(10**17), "--reps", "1"],
        ["simulate", DATA / "law_openbook_symmetric.json", "--n", str(10**17), "--reps", "1"],
        ["sample-trees", DATA / "toy_alignment.fasta", "--groups", DATA / "toy_groups3.csv",
         "--k", "3", "--reps", str(10**16)],
    ], ids=["simulate_spider", "simulate_openbook", "sample_trees"])
    def test_run_too_large_for_memory(self, tmp_path, capsys, argv):
        out = tmp_path / "out.json"
        assert main([*map(str, argv), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["mean"], ["sticky"]])
    @pytest.mark.parametrize("p", [10**400, spider.MAX_LEGS + 1])
    def test_leg_count_bound(self, tmp_path, capsys, command, p):
        path = tmp_path / "sample.json"
        path.write_text(json.dumps({"p": p, "points": [{"leg": 1, "u": 1}]}))
        assert main([*command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and f"p must be an integer in 1..{2**16}" in err

    @pytest.mark.parametrize("argv", [["mean"], ["sticky"], ["simulate", "--n", "5"]])
    def test_integer_too_long_to_parse(self, tmp_path, capsys, argv):
        # Python refuses to convert integers of more than 4300 digits
        path = tmp_path / "doc.json"
        path.write_text('{"p": 1' + "0" * 5000 + ', "points": [{"leg": 1, "u": 1}]}')
        assert main([*argv, str(path), *(["--reps", "5"] if "--n" in argv else [])]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "invalid JSON" in err

    @pytest.mark.parametrize("p", [10**400, spider.MAX_LEGS + 1])
    def test_summary_leg_count_bound(self, tmp_path, capsys, p):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({"p": p, "w": [0.2, 0.5, 0.3], "nu": [1, 1, 1]}))
        assert main(["sticky", str(path)]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "summary p must be an integer in" in err


class TestPlotCommand:
    def test_t3_svg(self, toy, tmp_path):
        fasta, groups3, _ = toy
        sample = tmp_path / "s.json"
        main(["sample-trees", str(fasta), "--groups", str(groups3),
              "--k", "3", "--reps", "5", "--seed", "1", "-o", str(sample)])
        out = tmp_path / "plot.svg"
        assert main(["plot", str(sample), "-o", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_t4_csv(self, toy, tmp_path):
        fasta, _, groups4 = toy
        sample = tmp_path / "s4.json"
        main(["sample-trees", str(fasta), "--groups", str(groups4),
              "--k", "4", "--reps", "5", "--seed", "1", "-o", str(sample)])
        out = tmp_path / "proj.csv"
        assert main(["plot", str(sample), "-o", str(out)]) == 0
        assert out.read_text().startswith("kind,split1,split2,s,radius")


class TestGroupsParsing:
    def test_header_optional(self):
        assert pipeline.load_groups("taxon,group\nx,a\n") == {"x": "a"}
        assert pipeline.load_groups("x,a\n") == {"x": "a"}

    def test_header_after_blank_lines(self):
        assert pipeline.load_groups("\n \ntaxon,group\nx,a\n") == {"x": "a"}
        # only the first non-blank line is a header
        assert pipeline.load_groups("x,a\ntaxon,group\n") == {"x": "a", "taxon": "group"}

    def test_blank_first_line_sample_trees(self, toy, tmp_path):
        fasta, groups3, _ = toy
        blank = tmp_path / "blank.csv"
        blank.write_text("\n" + groups3.read_text())
        assert groups3.read_text().startswith("taxon,group\n")
        outs = [tmp_path / "plain.json", tmp_path / "blank.json"]
        for groups, out in zip((groups3, blank), outs):
            assert main(["sample-trees", str(fasta), "--groups", str(groups), "--k", "3",
                         "--reps", "10", "--seed", "7", "-o", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("text", ["taxon,group\n", "\ntaxon,group\n\n"])
    def test_header_only_exit_2(self, toy, tmp_path, capsys, text):
        fasta, _, _ = toy
        groups = tmp_path / "header.csv"
        groups.write_text(text)
        assert main(["sample-trees", str(fasta), "--groups", str(groups), "--k", "3"]) == 2
        assert capsys.readouterr().err == "error: empty group file\n"

    def test_duplicate_taxon(self):
        with pytest.raises(ConfigError):
            pipeline.load_groups("x,a\nx,b\n")

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            pipeline.load_groups("x\n")


class TestSampleJsonRoundTrip:
    def test_spider_sample(self):
        from treestats.spider import SpiderPoint

        s = SpiderSample(3, (SpiderPoint(1, 0.4), SpiderPoint(None, 0.0)))
        assert SpiderSample.from_dict(s.to_dict()) == s

    def test_t4_sample(self):
        from treestats.t4space import T4Point, T4Sample

        L = ("a", "b", "c", "d")
        s = T4Sample(L, (
            T4Point(L, {frozenset(("a", "b")): 0.25}),
            T4Point(L, {}),
        ))
        assert T4Sample.from_dict(s.to_dict()) == s

    def test_openbook_sample(self):
        from treestats.openbook import OpenBookPoint, OpenBookSample

        s = OpenBookSample((OpenBookPoint(2, 0.5, 1.0), OpenBookPoint(None, 0.3, 0.0)))
        assert OpenBookSample.from_dict(s.to_dict()) == s


def uniform_csv(n, value):
    """Distance CSV of ``n`` taxa with every off-diagonal entry ``value``."""
    rows = [",".join("0" if i == j else value for j in range(n)) for i in range(n)]
    return "\n".join([",".join(f"t{i}" for i in range(n)), *rows]) + "\n"


class TestMoreCliEdges:
    def test_nj_too_few_taxa_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "two.csv"
        csv.write_text("a,b\n0.0,1.0\n1.0,0.0\n")
        assert main(["nj", str(csv)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("a,b,c\n0,1,2\n1,0\n2,3,0\n", "matrix row 2 has 2 entries, expected 3"),
        ("a,b,c\n0,1,2\n1,0,3,4\n2,3,0\n", "matrix row 2 has 4 entries, expected 3"),
        ("a,b,a\n0,1,2\n1,0,3\n2,3,0\n", "duplicate taxon label 'a'"),
        # NJ overflow: these gave (a:0,b:0,c:0); and nan branch lengths with exit 0
        pytest.param(uniform_csv(3, "1e308"), "overflow neighbor joining on 3 taxa",
                     id="overflow_3"),
        pytest.param(uniform_csv(20, "1e307"), "overflow neighbor joining on 20 taxa",
                     id="overflow_20"),
    ])
    def test_nj_bad_matrix_exit_2(self, tmp_path, capsys, text, message):
        csv = tmp_path / "bad.csv"
        csv.write_text(text)
        assert main(["nj", str(csv)]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert message in err

    def test_mean_openbook_sample(self, tmp_path):
        sample = tmp_path / "book.json"
        sample.write_text(json.dumps({"points": [
            {"leaf": 1, "x1": 1.0, "x2": 1.0},
            {"leaf": 2, "x1": 1.0, "x2": 1.0},
            {"leaf": 3, "x1": 1.0, "x2": 1.0},
        ]}))
        out = tmp_path / "rep.json"
        assert main(["mean", str(sample), "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["space"] == "openbook"
        assert rep["verdict"]["kind"] == "stuck_to_spine"
        assert rep["x1_star"] == pytest.approx(1.0)

    def test_mean_openbook_plot_rejected(self, tmp_path):
        # refused by the plot, which is built before either file is written
        plot, report = tmp_path / "p.svg", tmp_path / "m.json"
        argv = ["mean", str(GOLDEN / "openbook_sample.json"), "--plot", str(plot), "-o", str(report)]
        assert main(argv) == 2
        assert not plot.exists() and not report.exists()

    def test_plot_format_override(self, toy, tmp_path):
        fasta, _, groups4 = toy
        sample = tmp_path / "s4.json"
        main(["sample-trees", str(fasta), "--groups", str(groups4),
              "--k", "4", "--reps", "4", "--seed", "2", "-o", str(sample)])
        out = tmp_path / "anything.txt"
        assert main(["plot", str(sample), "--format", "csv", "-o", str(out)]) == 0
        assert out.read_text().startswith("kind,")

    def test_sticky_openbook_sample(self, tmp_path, capsys):
        sample = tmp_path / "book.json"
        sample.write_text(json.dumps({"points": [
            {"leaf": 1, "x1": 0.0, "x2": 3.0},
            {"leaf": 2, "x1": 0.0, "x2": 1.0},
            {"leaf": 3, "x1": 0.0, "x2": 1.0},
        ]}))
        assert main(["sticky", str(sample)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"] == {"kind": "non_sticky", "leg": 1}

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["mean", str(bad)]) == 2

    @pytest.mark.parametrize("command, name, text, message", [
        (["mean"], "list.json", "[1]", "{}: expected a JSON object, got list"),
        (["simulate", "--n", "5", "--reps", "5"], "law.json",
         '{"space": "spider", "weights": [1.0], "legs": [3]}',
         "legs[0] must be a distribution object, got 3"),
        (["plot", "--format", "csv"], "t3.json", '{"p": 3, "points": [{"leg": 1, "u": 3}]}',
         "spider samples only plot to SVG"),
        (["mean"], "no_p.json", '{"points": [{"leg": 1, "u": 0.5}]}',
         f"p must be an integer in 1..{spider.MAX_LEGS}, got None"),
        (["nj"], "empty.csv", "", "empty distance CSV"),
        (["dist"], "first.fasta", ">a\n>b\nAC\n", "row for 'a' has length 0, expected >= 1"),
        (["dist"], "last.fasta", ">a\nAC\n>b\n", "row for 'b' has length 0, expected 2"),
        (["dist"], "headless.fasta", "AC\n>a\nAC\n",
         "sequence data before any header at line 1"),
        (["sample-trees", "--groups", str(DATA / "toy_groups3.csv"), "--k", "3", "--reps", "0"],
         "toy.fasta", (DATA / "toy_alignment.fasta").read_text(), "reps must be >= 1"),
    ], ids=["json_list", "law_leg_number", "t3_plot_csv", "spider_without_p", "nj_empty",
            "fasta_first_record_empty", "fasta_last_record_empty", "fasta_data_before_header",
            "sample_trees_reps_zero"])
    def test_bad_input_exit_2(self, tmp_path, capsys, command, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        assert main([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path)}\n"

    @pytest.mark.parametrize("argv, data, message", [
        (["dist", "{}"], b">a\nAC\xff\n>b\nACG\n", "not UTF-8 text (byte 5: invalid start byte)"),
        (["sample-trees", "{}", "--groups", str(DATA / "toy_groups3.csv"), "--k", "3"],
         b">a\nAC\xff\n>b\nACG\n", "not UTF-8 text (byte 5: invalid start byte)"),
        (["nj", "{}"], b"a,b\n0,1\n1,0\xff\n", "not UTF-8 text (byte 11: invalid start byte)"),
        (["sample-trees", str(DATA / "toy_alignment.fasta"), "--groups", "{}", "--k", "3"],
         b"taxon,group\nt\xff,a\n", "not UTF-8 text (byte 13: invalid start byte)"),
        *((argv, b"[" * 100000 + b"]" * 100000, "invalid JSON (nested too deep)")
          for argv in (["mean", "{}"], ["sticky", "{}"], ["plot", "{}"],
                       ["simulate", "{}", "--n", "5", "--reps", "5"])),
    ], ids=["dist_fasta", "sample_trees_fasta", "nj_csv", "sample_trees_groups",
            "mean_deep_json", "sticky_deep_json", "plot_deep_json", "simulate_deep_json"])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, argv, data, message):
        # a file that is not UTF-8, or JSON nested deeper than the parser goes
        path = tmp_path / "input"
        path.write_bytes(data)
        assert main([a.format(path) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_internal_error_exit_1(self, monkeypatch, capsys):
        # a raise that is no bad input is a bug: exit 1, and the error is shown
        def broken(args):
            raise RuntimeError("broken")
        monkeypatch.setattr("treestats.cli.cmd_dist", broken)
        assert main(["dist", "any.fasta"]) == 1
        assert capsys.readouterr().err == "internal error: RuntimeError('broken')\n"

    def test_seed_not_an_integer_usage_error(self, toy, capsys):
        fasta, groups3, _ = toy
        with pytest.raises(SystemExit) as exc:
            main(["sample-trees", str(fasta), "--groups", str(groups3), "--k", "3",
                  "--seed", "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: treestats sample-trees")
        assert "argument --seed: invalid int value: 'abc'" in err


class TestByteOrderMark:
    """An input that starts with a UTF-8 byte order mark reads as the same
    text without it: every command writes the same bytes for both."""

    @pytest.mark.parametrize("argv, source", [
        (["dist", "{}"], DATA / "toy_alignment.fasta"),
        (["nj", "{}"], None),  # the distance CSV that dist writes for the toy alignment
        (["sample-trees", str(DATA / "toy_alignment.fasta"), "--groups", "{}", "--k", "3",
          "--reps", "10", "--seed", "7"], DATA / "toy_groups3.csv"),
        (["mean", "{}"], GOLDEN / "sample_trees_k4_seed7.json"),
        (["simulate", "{}", "--n", "20", "--reps", "10", "--seed", "3"],
         DATA / "law_dominant.json"),
    ], ids=["fasta", "distance_csv", "group_csv", "sample_json", "law_json"])
    def test_same_output_with_and_without(self, tmp_path, argv, source):
        if source is None:
            source = tmp_path / "toy.csv"
            assert main(["dist", str(DATA / "toy_alignment.fasta"), "-o", str(source)]) == 0
        text = source.read_text(encoding="utf-8")
        outputs = []
        for prefix in ("", "\ufeff"):
            path, out = tmp_path / f"input{len(prefix)}", tmp_path / f"output{len(prefix)}"
            path.write_text(prefix + text, encoding="utf-8")
            assert main([a.format(path) for a in argv] + ["-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert "\ufeff".encode() not in outputs[1]


T3_DOC = {"p": 3, "points": [{"leg": 1, "u": 3}, {"leg": 2, "u": 1}, {"leg": 3, "u": 1}]}
T4_DOC = {"labels": ["a", "b", "c", "d"],
          "points": [{"splits": [{"cluster": ["a", "b"], "length": 1.0}]}]}
BOOK_DOC = {"points": [{"leaf": 1, "x1": 1, "x2": 1}, {"leaf": 2, "x1": 0.5, "x2": 0}]}


@pytest.mark.parametrize("doc, space", [
    (T3_DOC, "t3"), (BOOK_DOC, "openbook"),
    ({"p": 3, "w": [0.2, 0.5, 0.3], "nu": [1, 1, 1]}, "summary")])
def test_sticky_axis_refused_off_four_leaf(doc, space, tmp_path, capsys):
    sample = tmp_path / "doc.json"
    sample.write_text(json.dumps(doc))
    assert main(["sticky", str(sample), "--axis", "a,b"]) == 2
    assert capsys.readouterr().err == (
        f"error: --axis applies to four-leaf samples only (this document: {space})\n")


class TestBadSampleExit2:
    """Malformed samples and summaries are bad input: exit 2, field named."""

    @pytest.mark.parametrize("command, doc, field", [
        (["mean"], {"p": 3, "points": [{"leg": 1, "u": -1}]}, "points[0].u"),
        (["mean"], {"p": 3, "points": [{"leg": 5, "u": 1}]}, "points[0].leg"),
        (["mean"], {"p": 3}, "points"),
        (["mean", "--space", "openbook"],
         {"points": [{"leaf": 1, "x1": -1, "x2": 1}]}, "points[0].x1"),
        (["sticky"], {"p": 3, "w": [0.2, 0.5, 0.3], "nu": [1, 1, -1]}, "nu[2]"),
        (["mean", "--tolerance", "nan"], T3_DOC, "tolerance"),
        (["mean", "--tolerance", "-1"], T3_DOC, "tolerance"),
        (["mean", "--tolerance", "inf"], T3_DOC, "tolerance"),
        (["sticky", "--tolerance", "nan"], T3_DOC, "tolerance"),
        (["sticky", "--axis", "a,zz"], T4_DOC, "axis"),
        (["sticky", "--axis", "a,b,c,d"], T4_DOC, "axis"),
        (["mean", "--space", "t4", "--tolerance", "nan"], T4_DOC, "tolerance"),
        (["mean", "--space", "t4", "--tolerance", "-5"], T4_DOC, "tolerance"),
        (["mean"], {**T3_DOC, "weights": ["0.5", "0.25", "0.25"]}, "weights"),
        (["mean"], {"p": 3, "points": [{"leg": 1, "u": 1}, {"leg": 2, "u": 10**400}]},
         "points[1].u"),
        (["mean", "--space", "openbook"],
         {"points": [{"leaf": 1, "x1": 10**400, "x2": 1}]}, "points[0].x1"),
        (["mean", "--space", "t4"],
         {**T4_DOC, "points": [*T4_DOC["points"],
                               {"splits": [{"cluster": ["a", "c"], "length": 10**400}]}]},
         "points[1].splits"),
        (["sticky"], {"p": 3, "w": [0.2, 0.5, 0.3], "nu": [1, 1, 10**400]}, "nu[2]"),
        (["sticky"], {"p": 3, "w": [10**400, 0.5, 0.3], "nu": [1, 1, 1]}, "w[0]"),
        (["sticky"], {"p": 3, "w0": 10**400, "w": [0.2, 0.5, 0.3], "nu": [1, 1, 1]}, "w0"),
        (["sticky"], {"p": 3, "w": 5, "nu": [1, 1, 1]}, "summary w"),
        (["sticky"], {"p": 3, "w": [0.2, 0.5, 0.3], "nu": {"a": 1}}, "summary nu"),
        (["sticky"], {"w": 5, "nu": [1, 1, 1]}, "summary w"),
        (["sticky"], {"p": "x", "w": [0.2, 0.5, 0.3], "nu": [1, 1, 1]}, "summary p"),
        (["sticky"], {"p": 3.7, "w": [0.2, 0.5, 0.3], "nu": [1, 1, 1]}, "summary p"),
        (["sticky"], {"p": True, "w": [0.2, 0.5, 0.3], "nu": [1, 1, 1]}, "summary p"),
        (["sticky"], {"p": 0, "w": [], "nu": []}, "summary p"),
        (["sticky"], {"p": 3, "w0": "0.5", "w": [0.2, 0.5, 0.3], "nu": [1, 1, 1]}, "summary w0"),
        (["sticky"], {"p": 3, "w": [0.2, 0.5, True], "nu": [1, 1, 1]}, "summary w[2]"),
        (["sticky"], {"p": 3, "w": [1.7e308, 1.7e308, 0.3], "nu": [1, 1, 1]}, "summary w[0]"),
        *((["mean"], {**T3_DOC, "weights": w}, "weights") for w in (0, [], {}, False)),
        *((["mean", "--space", space], {**doc, "weights": False}, "weights")
          for space, doc in (("openbook", BOOK_DOC), ("t4", T4_DOC))),
        *(([command], {"points": [x]}, "points[0]")
          for command in ("mean", "sticky", "plot") for x in (1, None)),
        *(([command], {"points": 5}, "points") for command in ("mean", "sticky", "plot")),
        (["mean"], {"p": 3, "points": [{"leg": 1, "u": 1e155}]}, "points[0].u"),
        (["mean"], {"p": 3, "points": [{"leg": False, "u": 0}]}, "points[0].leg"),
        (["mean"], {**BOOK_DOC, "points": [{"leaf": 1, "x1": 1.7e308, "x2": 1}]},
         "points[0].x1"),
        (["mean"], {**T4_DOC, "points": [{"splits": [{"cluster": ["a", "b"], "length": 1e155}]}]},
         "points[0].splits"),
        (["mean"], {**T4_DOC, "points": [{"splits": [{"cluster": ["a", "b"], "length": True}]}]},
         "points[0].splits[0].length"),
    ])
    def test_exit_2_names_field(self, tmp_path, capsys, command, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([*command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert field in err

    @pytest.mark.parametrize("space, doc, field, n", [
        ("t3", T3_DOC, "leg", 3),
        ("openbook", {"points": [{"leaf": 1, "x1": 1, "x2": 1}, {"leaf": 2, "x1": 0, "x2": 2}]},
         "leaf", 3)])
    @pytest.mark.parametrize("code, text", [  # a long number is cut like any shown value
        (2**63, "9223372036854775808"), (-2**63 - 1, "-9223372036854775809"),
        (10**400, "1" + "0" * 76 + "...")], ids=["2**63", "-2**63-1", "10**400"])
    def test_code_outside_int64_named_exactly(self, tmp_path, capsys, space, doc, field, n, code,
                                              text):
        for i in (0, 1):  # the first point, or one after a good point
            points = copy.deepcopy(doc["points"])
            points[i][field] = code
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({**doc, "points": points}))
            assert main(["mean", "--space", space, str(path)]) == 2
            err = capsys.readouterr().err
            assert f"points[{i}].{field} must be in 1..{n} where" in err
            assert err.rstrip().endswith(f"got {text}")

    @pytest.mark.parametrize("doc, message", [
        ({**T4_DOC, "labels": ["a", "b", "c", "c"]}, "labels must be four distinct strings"),
        ({**T4_DOC, "points": [*T4_DOC["points"], {"splits": [
            {"cluster": c, "length": x}
            for c, x in ((["a", "b"], 1), (["a", "e"], 2), (["a", "c"], 0), (["a", "d"], 0))]}]},
         "points[1].splits: a four-leaf tree has at most two distinct compatible splits"),
        # the clusters as the document lists them, never split bitmasks
        ({**T4_DOC, "points": [*T4_DOC["points"], {"splits": [
            {"cluster": ["b", "a"], "length": 1}, {"cluster": ["c", "d"], "length": 0},
            {"cluster": ["a", "c"], "length": 2}]}]},
         "points[1].splits: a four-leaf tree has at most two distinct compatible splits of 2 "
         "or 3 leaves, got clusters [['b', 'a'], ['a', 'c']]\n"),
        ({**T4_DOC, "points": [{"splits": [{"cluster": ["a", "x"], "length": 1}]}]},
         "points[0].splits: a four-leaf tree has at most two distinct compatible splits of 2 "
         "or 3 leaves, got clusters [['a', 'x']]\n"),
        *(({**T4_DOC, "points": [point]},
           "error: points[0].splits must be a list of {cluster, length} objects\n")
          for point in ({"splits": 5}, {"splits": [{"cluster": "ab", "length": 1}]},
                        {"splits": [{"cluster": ["a", 1], "length": 1}]}, {"splits": [5]},
                        {})),
    ])
    def test_t4_message(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["mean", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_t4_negative_length(self, toy, tmp_path, capsys):
        fasta, _, groups4 = toy
        sample = tmp_path / "s4.json"
        main(["sample-trees", str(fasta), "--groups", str(groups4),
              "--k", "4", "--reps", "5", "--seed", "1", "-o", str(sample)])
        doc = json.loads(sample.read_text())
        i = next(k for k, pt in enumerate(doc["points"]) if pt["splits"])
        doc["points"][i]["splits"][0]["length"] = -1
        sample.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["mean", "--space", "t4", str(sample)]) == 2
        err = capsys.readouterr().err
        assert f"points[{i}].splits" in err and "length" in err


_DROP = object()


def _law(name, *path, value=_DROP):
    """A bundled law as JSON text with the field at ``path`` set to ``value``
    (or dropped); ``"RAW:<text>"`` is written as the bare JSON token
    ``<text>``, e.g. ``1e400`` or ``Infinity``."""
    doc = json.loads((DATA / name).read_text())
    if path:
        *parents, key = path
        owner = doc
        for part in parents:
            owner = owner[part]
        if value is _DROP:
            del owner[key]
        else:
            owner[key] = value
    return re.sub(r'"RAW:([^"]*)"', r"\1", json.dumps(doc))


SPIDER, BOOK = "law_dominant.json", "law_openbook_symmetric.json"
SYMMETRIC = "law_symmetric.json"


def _nested(depth: int):
    return [_nested(depth - 1)] if depth else []


class TestLongBadValueExit2:
    """A bad value of any size is named by its field and shown cut short."""

    @pytest.mark.parametrize("command, doc, field", [
        (["mean"], {"p": 3, "points": "x" * 100_000}, "points must be a list"),
        (["mean"], {"p": 3, "points": [{"leg": 1, "u": "x" * 100_000}]}, "points[0].u"),
        (["mean"], {"p": 3, "points": [{"leg": "x" * 100_000, "u": 1}]}, "points[0].leg"),
        (["mean"], {"p": [1] * 100_000, "points": []}, "p must be an integer"),
        (["simulate", "--n", "5", "--reps", "2"], {"weights": [1], "legs": ["z" * 100_000]},
         "legs[0] must be a distribution object"),
        (["mean"], {"labels": _nested(500), "points": []}, "labels must be four distinct"),
        (["simulate", "--n", "5", "--reps", "2"],
         {"weights": [1], "legs": [{"kind": "uniform", "lo": 0, "hi": 1, "z" * 100_000: 1}]},
         "legs[0].zzz"),
        (["mean"], {"p": 10**4298, "points": []}, "p must be an integer"),
    ], ids=["points", "u", "leg", "p", "law_leg", "nested_labels", "law_key", "long_p"])
    def test_message_is_short(self, tmp_path, capsys, command, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([command[0], str(path), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert field in err and len(err.encode()) < 300


class TestBadLawExit2:
    """Malformed law files are bad input: exit 2, field named."""

    @pytest.mark.parametrize("law, args, field", [
        (_law("law_symmetric.json", "legs", 0, "rate", value=-1), [], "legs[0].rate"),
        (_law("law_symmetric.json", "legs", 0, "rate", value="RAW:Infinity"), [],
         "legs[0].rate"),
        (_law(SPIDER, "legs", 0, "kind", value="gamma"), [], "legs[0].kind"),
        (_law(SPIDER, "legs", 0, "hi"), [], "legs[0].hi"),
        (_law(SPIDER, "legs", 0, "mode", value=1.0), [], "legs[0].mode"),
        (_law(SPIDER, "legs", 0, "hi", value="nan"), [], "legs[0].hi"),
        (_law(SPIDER, "legs", 0, "hi", value="RAW:1e400"), [], "legs[0].hi"),
        (_law(SPIDER, "legs"), [], "legs is missing"),
        (_law(BOOK, "leaves", 0, "x1"), [], "leaves[0].x1"),
        (_law(SPIDER, "legs", 2), [], "weights"),
        (_law(SPIDER, "weights", value=["0.6", "0.2", "0.2"]), [], "weights"),
        (_law(SPIDER, "legs", 0, value={"kind": "point_mass", "u": 0}), [], "legs[0].u"),
        (_law(SPIDER), ["--n", "0"], "n must be >= 1"),
        (_law(SPIDER), ["--reps", "0"], "replications must be >= 1"),
        (_law(SPIDER, "legs", 0, "hi", value=1e155), [], "legs[0].hi"),
        (_law(SPIDER, "legs", 0, "hi", value=1.7e308), [], "legs[0].hi"),
        (_law(SYMMETRIC, "legs", 0, "rate", value=1e-310), [], "legs[0].rate"),
        (_law(SYMMETRIC, "legs", 0, "rate", value=1e-160), [], "legs[0].rate"),
        (_law(SYMMETRIC, "legs", 0, "rate", value=1e-200), [], "legs[0].rate"),
        (_law(SYMMETRIC, "legs", 0, "rate", value="RAW:1" + "0" * 400), [], "legs[0].rate"),
        (_law(SPIDER, "weights", value=["RAW:6" + "0" * 400, 0.2, 0.2]), [], "weights"),
        (_law(BOOK, "leaves", 2, "x1", "hi", value=1e155), [], "leaves[2].x1.hi"),
        (json.dumps({"weights": [0.5, 0.5000000001],
                     "legs": [{"kind": "point_mass", "u": 1.3407807929942596e154}] * 2}),
         [], "legs: the law's second moment"),
        (_law(BOOK, "leaves", 2), [], "leaves: an open-book law has exactly three, got 2"),
        (_law(BOOK, "leaves", 0, value=5), [], "leaves[0] must be an object with x1 and x2"),
    ], ids=["rate_negative", "rate_infinite", "kind_unknown", "hi_missing", "extra_key",
            "hi_string", "hi_overflow", "legs_missing", "x1_missing", "weights_extra",
            "weights_strings", "point_mass_at_center", "n_zero", "reps_zero",
            "second_moment_overflow", "hi_near_max", "mean_overflow", "rate_squared_subnormal",
            "rate_squared_zero", "rate_huge_int", "weights_huge_int", "x1_second_moment",
            "mixture_second_moment", "two_leaves", "leaf_not_object"])
    def test_exit_2_names_field(self, tmp_path, capsys, law, args, field):
        path = tmp_path / "law.json"
        path.write_text(law)
        argv = ["simulate", str(path), "--n", "20", "--reps", "10", *args]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "tolerance" not in err
        assert field in err


class TestDrawsOutOfBoundExit2:
    """A valid law whose draws leave 0..1e150 exits 2 naming the law field
    that drew the value, the value and its replicate."""

    @pytest.mark.parametrize("law, message", [
        (_law(SPIDER, "legs", 0, "hi", value=1e152),
         "legs[0] draws must be finite and in 0..1e+150, got "),
        (_law(BOOK, "leaves", 0, "x1", value={"kind": "point_mass", "u": 5e150}),
         "leaves[0].x1 draws must be finite and in 0..1e+150, got 5e+150 in replicate 0"),
    ], ids=["uniform_leg", "point_mass_x1"])
    def test_exit_2_names_law_field(self, tmp_path, capsys, law, message):
        path = tmp_path / "law.json"
        path.write_text(law)
        assert main(["simulate", str(path), "--n", "20", "--reps", "10"]) == 2
        err = capsys.readouterr().err
        assert message in err and "in replicate " in err
        assert "points[" not in err and "internal error" not in err


class TestGroupCanonicalization:
    def test_merged_split_canonical_in_group_space(self):
        # picks that straddle exactly two of the root's children with a
        # 2+2 split hit the merged (degree-2 induced root) case; the
        # merged split must be labeled by the smallest *group*, not the
        # smallest taxon.  Here the taxon-level rule would give
        # {s01,s02} = {c,d}; the group-level rule gives {a,b}.
        from treestats.njtree import induced_subtree, neighbor_joining
        from treestats.pipeline import sample_trees
        from treestats.seqio import GapMode, mismatch_distance

        block = parse_fasta((DATA / "toy_alignment.fasta").read_text())
        tree = neighbor_joining(mismatch_distance(block, GapMode.IGNORE))
        sub = induced_subtree(tree, ("s01", "s02", "s05", "s09"))
        assert len(sub.children) == 2  # the merged case is actually hit
        groups = {"s01": "c", "s02": "d", "s05": "a", "s09": "b"}
        sample = sample_trees(block, groups, k=4, reps=1, seed=0)
        (point,) = sample.points
        assert len(point.support) == 1
        assert point.support[0] == frozenset({"a", "b"})


# ---------------------------------------------------------------------------
# law documents from hypothesis: bad input exits 2, never 1, and no NaN
# ---------------------------------------------------------------------------

_odd_numbers = st.sampled_from([0.0, -0.0, -1.0, 1.0, 2.0, 5e-324, 1e-310, 1e-160, 1e-200,
                                1e155, 1.7e308, 10**400, -(10**400), 2**63, 3])
_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just({}),
                  st.floats(allow_nan=True, allow_infinity=True), _odd_numbers,
                  st.lists(st.integers(0, 2), max_size=2))


def _param(lo=0.01, hi=5.0):
    """Mostly a float in ``[lo, hi]``, one time in six an odd number."""
    odd = st.one_of(st.floats(0.0, 1e300), _odd_numbers)
    return st.integers(0, 5).flatmap(lambda i: odd if i == 0 else st.floats(lo, hi))


_dist_doc = st.one_of(
    st.builds(lambda u: {"kind": "point_mass", "u": u}, _param()),
    st.builds(lambda lo, hi: {"kind": "uniform", "lo": lo, "hi": hi}, _param(), _param(5, 10)),
    st.builds(lambda rate: {"kind": "exponential", "rate": rate}, _param()))


@st.composite
def law_docs(draw):
    """A spider or open-book law document, then up to three of its fields
    dropped or replaced by a value of another type."""
    book = draw(st.booleans())
    p = 3 if book else draw(st.integers(1, 4))
    w = draw(st.lists(st.floats(0.05, 1.0), min_size=p, max_size=p))
    for a in draw(st.sets(st.integers(0, p - 1), max_size=p - 1)):
        w[a] = 0.0
    doc = {"space": "openbook" if book else "spider", "weights": [x / sum(w) for x in w]}
    if book:
        doc["leaves"] = [{"x1": draw(_dist_doc), "x2": draw(_dist_doc)} for _ in range(p)]
    else:
        doc["legs"] = [draw(_dist_doc) for _ in range(p)]
    return _mutate(draw, doc, _junk)


def _mutate(draw, doc, junk):
    """``doc`` with up to three of its fields, at any depth, dropped or
    replaced by a value drawn from ``junk``."""
    for _ in range(draw(st.one_of(st.just(0), st.integers(1, 3)))):
        owner, key = doc, draw(st.sampled_from(sorted(doc)))
        while isinstance(owner[key], (dict, list)) and owner[key] and draw(st.booleans()):
            owner = owner[key]
            key = draw(st.sampled_from(sorted(owner) if isinstance(owner, dict)
                                       else range(len(owner))))
        if isinstance(owner, dict) and draw(st.booleans()):
            del owner[key]
        else:
            owner[key] = draw(junk)
        if not doc:
            break
    return doc


class TestSimulateLawFuzz:
    @settings(max_examples=400, deadline=None)
    @given(law_docs(), *[st.one_of(st.integers(1, 5), st.integers(-1, 0))] * 2)
    def test_exit_0_or_2_and_no_nan(self, law, n, reps):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "law.json"
            path.write_text(json.dumps(law))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["simulate", str(path), "--n", str(n), "--reps", str(reps)])
        assert code in (0, 2), err.getvalue()
        assert "NaN" not in out.getvalue()
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# sample and summary documents from hypothesis: mean, sticky and plot exit 0
# or 2, never 1, and their JSON holds no NaN or Infinity
# ---------------------------------------------------------------------------

_coord = st.one_of(st.just(0), st.floats(0.0, 5.0))
_T4_SUPPORTS = ([], [["a", "b"]], [["c", "d"]], [["a", "b"], ["a", "b", "c"]],
                [["a", "c"], ["b", "d"]])
_nested_junk = st.one_of(_junk, st.sampled_from([[None], [[0.5]], [{}], {"cluster": 1},
                                                 {"leg": [1]}, [10**400], {"points": []}])
                         .map(copy.deepcopy))  # a later mutation may write into it


@st.composite
def sample_docs(draw):
    """A spider (t3), open-book or tree-space (t4) sample or a (w, nu)
    summary, then up to three of its fields dropped or replaced by junk."""
    kind = draw(st.sampled_from(["t3", "openbook", "t4", "summary"]))
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if kind == "summary":
        doc = {"p": p, **{k: draw(st.lists(_coord, min_size=p, max_size=p)) for k in ("w", "nu")}}
        if draw(st.booleans()):
            doc["w0"] = draw(_coord)
        return _mutate(draw, doc, _nested_junk)
    if kind == "t3":
        doc = {"p": p, "points": [{"leg": draw(st.integers(1, p)), "u": draw(_coord)}
                                  for _ in range(n)]}
    elif kind == "openbook":
        doc = {"points": [{"leaf": draw(st.integers(1, 3)), "x1": draw(_coord),
                           "x2": draw(_coord)} for _ in range(n)]}
    else:
        doc = {"labels": ["a", "b", "c", "d"], "points": [
            {"splits": [{"cluster": list(c), "length": draw(_coord)}
                        for c in draw(st.sampled_from(_T4_SUPPORTS))]} for _ in range(n)]}
    if draw(st.booleans()):
        doc["weights"] = [1 / n] * n
    return _mutate(draw, doc, _nested_junk)


class TestSampleDocumentFuzz:
    @settings(max_examples=300, deadline=None)
    @given(sample_docs())
    @example({"points": [1]})
    @example({"points": [None]})
    @example({"points": 5})
    @example({"p": 3, "w0": "0.5", "w": [0.2, 0.5, 0.3], "nu": [1, 1, 1]})
    @example({"p": 3, "w": [0.2, 0.5, True], "nu": [1, 1, 1]})
    @example({**T3_DOC, "weights": 0})
    @example({**T3_DOC, "weights": []})
    @example({**T3_DOC, "weights": {}})
    @example({**T3_DOC, "weights": False})
    @example({"p": 5, "points": [{"leg": 1, "u": 1}, {"leg": 5, "u": 2}]})
    @example({"p": 5, "w": [0.2, 0, 0, 0, 0.8], "nu": [1, 1, 1, 1, 2]})
    @example({"p": 1, "points": [{"leg": 1, "u": 1}]})
    @example({"p": 2, "w": [0.2, 0.8], "nu": [1, 1]})
    @example({"p": 3, "points": [{"leg": 1, "u": 1}, {"leg": 2, "u": 10**400}]})
    @example({"p": 3, "w": [0.2, 0.5, 0.3], "nu": [1, 1, 10**400]})
    @example({**T4_DOC, "points": [{"splits": [{"cluster": ["a", "c"], "length": 10**400}]}]})
    @example({"p": 3, "points": [{"leg": 1, "u": 1e155}, {"leg": 2, "u": 1}]})
    @example({"p": 3, "w": [1.7e308, 1.7e308, 0.3], "nu": [1.7e308, 1, 1]})
    @example({"points": [{"leaf": 1, "x1": 1e155, "x2": 1}, {"leaf": 2, "x1": 0, "x2": 1}]})
    @example({**T4_DOC, "points": [{"splits": [{"cluster": ["a", "b"], "length": 1e155}]}]})
    def test_exit_0_or_2_and_no_nan(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            axis = ["--axis", "a,b"] if "labels" in doc else []  # other documents refuse it
            for argv in (["mean"], ["sticky", *axis], ["plot"]):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main([*argv, str(path)])
                assert code in (0, 2) and "internal error" not in err.getvalue(), err.getvalue()
                if code == 0 and argv[0] != "plot":
                    json.loads(out.getvalue(), parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# FASTA headers, distance CSVs and group CSVs from hypothesis: dist, nj and
# sample-trees exit 0 or 2, and what they write reads back with its labels
# ---------------------------------------------------------------------------

# plain labels, and labels of characters that CSV or Newick syntax, or
# str.strip and str.splitlines, treat specially
_label = st.one_of(st.text("abcdef", min_size=1, max_size=3),
                   st.text(st.sampled_from("ab,():; \t\u00a0\x0b\x1c'[]#-"), min_size=1,
                           max_size=3))
_edit = st.lists(st.sampled_from([*"ab,;:() \n\t-.e019", "nan", "1e400", "\u00a0"]),
                 max_size=3).map("".join)


@st.composite
def _edited(draw, text):
    """``text`` with up to three short runs replaced by junk."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(_edit) + text[j:]
    return text


@st.composite
def distance_csvs(draw):
    taxa = draw(st.lists(st.text("abc", min_size=1, max_size=2), min_size=3, max_size=5,
                         unique=True))
    n = len(taxa)
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = draw(st.lists(st.floats(0.0, 2.0), min_size=n * (n - 1) // 2,
                                             max_size=n * (n - 1) // 2))
    return draw(_edited(DistanceMatrix(tuple(taxa), d + d.T).to_csv()))


class TestSequenceInputFuzz:
    @staticmethod
    def run(*argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([str(a) for a in argv])
        assert code in (0, 2) and "internal error" not in err.getvalue(), err.getvalue()
        return code, out.getvalue()

    def nj_reads_back(self, csv: Path):
        taxa = DistanceMatrix.from_csv(csv.read_text()).taxa
        code, newick = self.run("nj", csv)
        if code == 0:
            assert sorted(parse_newick(newick).leaf_labels()) == sorted(taxa)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_label, st.text("ACGT-N", min_size=6, max_size=6)),
                    min_size=3, max_size=5, unique_by=lambda record: record[0]))
    @example([("a,x", "ACGTAC"), ("b", "ACGTTC"), ("c", "ACCTTC")])
    @example([("a x", "ACGTAC"), ("b", "ACGTTC"), ("c", "ACCTTC")])
    @example([("a(", "ACGTAC"), ("b", "ACGTTC"), ("c", "ACCTTC")])
    def test_fasta_headers(self, records):
        taxa = [t for t, _ in records]
        with tempfile.TemporaryDirectory() as tmp:
            fasta, csv, groups = (Path(tmp) / name for name in ("a.fasta", "d.csv", "g.csv"))
            fasta.write_text("".join(f">{t}\n{r}\n" for t, r in records))
            if self.run("dist", fasta, "-o", csv)[0] == 0:
                assert DistanceMatrix.from_csv(csv.read_text()).taxa == parse_fasta(
                    fasta.read_text()).taxa
                self.nj_reads_back(csv)
            groups.write_text("".join(f"{t},{'xyz'[i % 3]}\n" for i, t in enumerate(taxa)))
            code, text = self.run("sample-trees", fasta, "--groups", groups, "--k", "3",
                                  "--reps", "3")
            if code == 0:
                json.loads(text, parse_constant=_reject_constant)

    @settings(max_examples=200, deadline=None)
    @given(distance_csvs())
    @example(",b,c\n0,1,1\n1,0,1\n1,1,0\n")
    def test_distance_csvs(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            csv = Path(tmp) / "d.csv"
            csv.write_text(text)
            try:
                DistanceMatrix.from_csv(text)
            except treestats.TreeStatsError:
                assert self.run("nj", csv)[0] == 2
            else:
                self.nj_reads_back(csv)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([3, 4]), st.data())
    def test_group_csvs(self, k, data):
        groups_text = data.draw(_edited((DATA / f"toy_groups{k}.csv").read_text()))
        with tempfile.TemporaryDirectory() as tmp:
            fasta, groups = Path(tmp) / "a.fasta", Path(tmp) / "g.csv"
            fasta.write_text((DATA / "toy_alignment.fasta").read_text())
            groups.write_text(groups_text)
            code, text = self.run("sample-trees", fasta, "--groups", groups, "--k", str(k),
                                  "--reps", "3")
            if code == 0:
                json.loads(text, parse_constant=_reject_constant)
