import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from treestats.cli import main
from treestats.errors import InvalidSampleError
from treestats.plots import petersen_csv, petersen_layout, petersen_svg, spider_svg
from treestats.spider import SpiderPoint, SpiderSample, intrinsic_mean
from treestats.t4space import T4Point, T4Sample, all_splits


def spider_sample():
    return SpiderSample(3, (SpiderPoint(1, 0.5), SpiderPoint(2, 1.0), SpiderPoint(3, 0.2)))


def t4_sample():
    L = ("a", "b", "c", "d")
    pts = (
        T4Point(L, {frozenset(("a", "b")): 0.5}),
        T4Point(L, {frozenset(("a", "b")): 0.3, frozenset(("a", "b", "c")): 0.4}),
        T4Point(L, {}),
        T4Point(L, {frozenset(("a", "c")): 0.2, frozenset(("b", "d")): 0.2}),
    )
    return T4Sample(L, pts)


def test_spider_svg_deterministic():
    s = spider_sample()
    one = spider_svg(s, intrinsic_mean(s))
    two = spider_svg(s, intrinsic_mean(s))
    assert one == two
    assert one.startswith("<svg")
    assert one.count("<circle") == len(s) + 1  # points plus the center dot


def test_petersen_layout_places_all_axes():
    layout = petersen_layout(("a", "b", "c", "d"))
    assert len(layout) == 10
    assert set(layout) == set(all_splits(("a", "b", "c", "d")))
    radii = {round(math.hypot(x - 240.0, y - 240.0), 6) for x, y in layout.values()}
    assert len(radii) == 2  # outer pentagon and inner pentagram


def test_petersen_svg_renders_edges_and_points():
    svg = petersen_svg(t4_sample())
    assert svg.count("<line") == 15
    assert svg == petersen_svg(t4_sample())


def test_petersen_svg_with_origin_mean():
    L = ("a", "b", "c", "d")
    svg = petersen_svg(t4_sample(), mean=T4Point(L, {}))
    assert "origin" in svg


def test_petersen_csv():
    csv = petersen_csv(t4_sample())
    lines = csv.strip().splitlines()
    assert lines[0] == "kind,split1,split2,s,radius"
    assert lines[1].startswith("vertex,{a;b},,0,")
    assert lines[2].startswith("edge,{a;b},{a;b;c},")
    assert lines[3] == "origin,,,,0"
    assert lines[4].startswith("edge,{a;c},{b;d},0.5,")


DATA = Path(__file__).resolve().parents[1] / "src" / "treestats" / "data"
MARKUP = ("a&b", "c<d", "e>f", "g--h")  # XML text and comment breakers


def label_sample(labels) -> T4Sample:
    L = tuple(sorted(labels))
    return T4Sample(L, (T4Point(L, {frozenset(L[:2]): 0.5}),
                        T4Point(L, {frozenset(L[1:]): 0.3, frozenset(L[2:]): 0.4})))


def vertex_labels(svg_path) -> list[str]:
    """The split names written beside the ten vertices, read back by an XML parser."""
    root = ET.parse(svg_path).getroot()
    return [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")
            if el.text.startswith("{")]


def split_names(labels) -> list[str]:
    return ["{" + ";".join(sorted(s)) + "}" for s in all_splits(tuple(sorted(labels)))]


@pytest.mark.parametrize("labels", [MARKUP, ("a&b", "c<d", "e", "f--g"), ("a-", "-b", "c---", "d"),
                                    ("a\tb", "c\x7f", "d\x85", "e\U0001f600\ufffd")])
def test_svg_carries_any_label(labels, tmp_path):
    """``plot`` and ``mean --plot`` write well-formed XML whatever the labels hold."""
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps(label_sample(labels).to_dict()))
    assert main(["plot", str(sample), "-o", str(tmp_path / "plot.svg")]) == 0
    assert main(["mean", str(sample), "--plot", str(tmp_path / "mean.svg"),
                 "-o", str(tmp_path / "mean.json")]) == 0
    for name in ("plot.svg", "mean.svg"):
        assert sorted(vertex_labels(tmp_path / name)) == sorted(split_names(labels))


def test_svg_after_sample_trees_with_markup_group(tmp_path):
    """The whole chain: a group named ``a&<x>`` reaches the plot."""
    groups = (DATA / "toy_groups4.csv").read_text().replace(",a\n", ",a&<x>\n")
    (tmp_path / "groups.csv").write_text(groups)
    sample = tmp_path / "sample.json"
    assert main(["sample-trees", str(DATA / "toy_alignment.fasta"), "--groups",
                 str(tmp_path / "groups.csv"), "--k", "4", "--reps", "5", "--seed", "7",
                 "-o", str(sample)]) == 0
    labels = json.loads(sample.read_text())["labels"]
    assert "a&<x>" in labels
    assert main(["plot", str(sample), "-o", str(tmp_path / "plot.svg")]) == 0
    assert sorted(vertex_labels(tmp_path / "plot.svg")) == sorted(split_names(labels))


@pytest.mark.parametrize("bad", ["a,b", "a;b", "{a", "a}", 'a"b', "a\nb", "a\rb", "a\ud800",
                                 "\udfff"])
def test_csv_refuses_labels_that_break_cells(bad, tmp_path, capsys):
    labels = (bad, "x", "y", "z")
    with pytest.raises(InvalidSampleError, match="cannot carry the labels"):
        petersen_csv(label_sample(labels))
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps(label_sample(labels).to_dict()))
    out = tmp_path / "plot.csv"
    assert main(["plot", str(sample), "--format", "csv", "-o", str(out)]) == 2
    assert repr(bad) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["a\x00", "a\x01", "\x08", "a\x0bb", "\x0c", "\x0e", "a\x1f",
                                 "a\ud800", "\udc00b", "\udfff", "a\ufffe", "\uffff"])
def test_svg_refuses_labels_that_xml_excludes(bad, tmp_path, capsys):
    """``plot`` and ``mean --plot`` exit 2 naming the label, and write no file."""
    labels = (bad, "x", "y", "z")
    message = (f"the Petersen SVG cannot carry the labels [{bad!r}]: a label holds no character "
               "that XML 1.0 excludes even escaped: U+0000-U+0008, U+000B, U+000C, "
               "U+000E-U+001F, U+D800-U+DFFF (lone surrogates), U+FFFE, U+FFFF")
    with pytest.raises(InvalidSampleError) as exc:
        petersen_svg(label_sample(labels))
    assert str(exc.value) == message
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps(label_sample(labels).to_dict()))
    plot, report, mean_plot = (tmp_path / name for name in ("plot.svg", "mean.json", "mean.svg"))
    assert main(["plot", str(sample), "-o", str(plot)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["mean", str(sample), "--plot", str(mean_plot), "-o", str(report)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not plot.exists() and not report.exists() and not mean_plot.exists()
