"""Seeded simulate output pinned byte for byte.

The fixtures under ``golden/`` were written by ``simulate`` /
``simulate_openbook`` (n=60, 150 replicates) and ``spine_coverage`` before
the samples became array-backed; a change to a seeded stream or to the
float expressions of the moment gaps shows up here as a byte difference.
"""

import json
from pathlib import Path

import pytest

from treestats import mcsim
from treestats.pipeline import canonical_json

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent.parent / "src" / "treestats" / "data"
LAWS = {
    "dominant": DATA / "law_dominant.json",
    "symmetric": DATA / "law_symmetric.json",
    "openbook_symmetric": DATA / "law_openbook_symmetric.json",
    "boundary": GOLDEN / "law_boundary.json",
}
N, REPS = 60, 150


def load_law(name):
    return mcsim.law_from_dict(json.loads(LAWS[name].read_text()))


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name", sorted(LAWS))
def test_simulate_matches_golden(name, seed):
    law = load_law(name)
    if isinstance(law, mcsim.SpiderLaw):
        report = mcsim.simulate(law, N, REPS, seed)
    else:
        report = mcsim.simulate_openbook(law, N, REPS, seed)
    expected = (GOLDEN / f"simulate_{name}_seed{seed}.json").read_text()
    assert canonical_json(report.to_dict(include_runtime=False)) == expected


def test_spine_coverage_matches_golden():
    law = load_law("openbook_symmetric")
    expected = json.loads((GOLDEN / "spine_coverage_openbook_symmetric.json").read_text())
    for seed in (3, 11):
        assert mcsim.spine_coverage(law, N, REPS, 0.95, seed) == expected[str(seed)]
