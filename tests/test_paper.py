"""The committed paper results are what the timing model produces.

Every entry of :mod:`repro.paper` is recomputed and compared with the
SHA-256 and check verdict pinned in ``PAPER_RESULTS.json``, and every
generated block of ``EXPERIMENTS.md`` must equal the rendering of that
file.  A deliberate model change regenerates both with
``python -m repro paper`` and lists what moved in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.paper as paper
from repro.__main__ import main as repro_main
from repro.paper import ablations, figures
from repro.paper.harness import Entry

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = json.loads((ROOT / paper.RESULTS_FILE).read_text())


def test_committed_entries_are_the_registry():
    assert sorted(COMMITTED) == sorted(paper.ENTRIES)


@pytest.mark.parametrize("name", list(paper.ENTRIES))
def test_series_matches_committed_digest(name):
    res = paper.result(paper.ENTRIES[name])
    assert res["sha256"] == COMMITTED[name]["sha256"], (
        f"{name} moved: regenerate with `python -m repro paper` and note it in CHANGES.md"
    )
    assert res["series"] == COMMITTED[name]["series"]
    assert res["check"] == COMMITTED[name]["check"]


#: The entries that take a workload seed, each with a seed it is not
#: committed at: ablation_cult's PHOLD runs at seed 99, so it is held
#: out at 7 as perfbench holds out; Figures 7 and 8 already run their
#: SyntheticModel at seed 7, so they are held out at 1.
HELD_OUT_SEEDS = {"fig7": 1, "fig8": 1, "ablation_cult": 7}


@pytest.mark.parametrize("name", sorted(HELD_OUT_SEEDS))
def test_check_holds_at_a_held_out_seed(name, monkeypatch):
    seed = HELD_OUT_SEEDS[name]
    monkeypatch.setattr(figures, "TIMEWARP_SEED", seed)
    monkeypatch.setitem(ablations.PHOLD, "seed", seed)
    entry = paper.ENTRIES[name]
    series = paper.measure(entry)
    assert series != COMMITTED[name]["series"]
    entry.check(series)


def test_experiments_tables_render_the_committed_results():
    text = (ROOT / paper.EXPERIMENTS_FILE).read_text()
    found = [(m.group(1), m.group(0)) for m in paper.BLOCK.finditer(text)]
    assert sorted(name for name, _ in found) == sorted(paper.ENTRIES)
    for name, block in found:
        assert block == paper.render(name, COMMITTED[name]), name


def _fake(name, value, bound):
    def check(s):
        assert s["x"] < bound

    return Entry(name, lambda: {"x": value}, check, lambda s: [["x"], [s["x"]]])


def test_a_failed_check_is_reported_not_swallowed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(paper, "ENTRIES", {
        "fake_holds": _fake("fake_holds", 1, 2),
        "fake_fails": _fake("fake_fails", 3, 2),
    })
    (tmp_path / paper.EXPERIMENTS_FILE).write_text(
        "prose\n<!-- paper:fake_fails -->\nstale\n<!-- /paper:fake_fails -->\nmore prose\n"
    )

    assert repro_main(["paper"]) == 1
    assert "1 of 2 paper checks fail: fake_fails" in capsys.readouterr().out

    results = json.loads((tmp_path / paper.RESULTS_FILE).read_text())
    assert results["fake_fails"]["series"] == {"x": 3}
    assert results["fake_fails"]["check"].startswith('fails: assert s["x"] < bound')
    assert results["fake_holds"]["check"] == "holds"
    text = (tmp_path / paper.EXPERIMENTS_FILE).read_text()
    assert "stale" not in text and "**fails:" in text
    assert text.startswith("prose\n") and text.endswith("more prose\n")
