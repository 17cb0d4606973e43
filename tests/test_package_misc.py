"""Remaining odds and ends: package demo, small helpers, docs."""

import pathlib

import pytest

from repro.core.context import set_current_machine

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestPackageDemo:
    def test_main_module_runs(self, capsys):
        import repro.__main__ as demo

        set_current_machine(None)
        try:
            demo.main()
        finally:
            set_current_machine(None)
        out = capsys.readouterr().out
        assert "Logged Virtual Memory" in out
        assert "addr=" in out

    def test_version_exposed(self):
        import repro

        assert repro.__version__


class TestSmallHelpers:
    def test_indexed_log_with_values_sizes(self, machine, proc):
        from repro.core.log_segment import LogSegment
        from repro.core.region import StdRegion
        from repro.core.segment import StdSegment
        from repro.hw.logger import LogMode

        seg = StdSegment(4096, machine=machine)
        region = StdRegion(seg)
        log = LogSegment(machine=machine)
        region.log(log, mode=LogMode.INDEXED)
        va = region.bind(proc.address_space())
        for v in (1, 2, 3):
            proc.write(va, v)
        machine.quiesce()
        # Indexed entries are bare 4-byte values at 4-byte stride.
        assert log.append_offset == 3 * 4
        assert list(log.values()) == [1, 2, 3]


class TestDocumentationDeliverables:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/TUTORIAL.md"]
    )
    def test_doc_exists_and_substantial(self, name):
        path = REPO / name
        assert path.exists(), f"{name} missing"
        assert len(path.read_text()) > 2000, f"{name} looks like a stub"

    def test_design_confirms_paper_identity(self):
        text = (REPO / "DESIGN.md").read_text()
        assert "Cheriton" in text and "SOSP 1995" in text

    def test_experiments_covers_every_table_and_figure(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for item in ["Table 2", "Table 3"] + [f"Figure {n}" for n in range(7, 13)]:
            assert item in text, f"EXPERIMENTS.md missing {item}"
