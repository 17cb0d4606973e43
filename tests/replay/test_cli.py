"""Tests: the ``python -m repro replay`` CLI smokes."""

import pytest

from repro.replay.cli import main


class TestReplayCli:
    def test_seek_smoke(self, capsys):
        assert main(["seek", "--writes", "80", "--interval", "16"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out

    def test_diverge_smoke(self, capsys):
        assert main(["diverge", "--workload", "copy"]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out and "identically" in out

    def test_diverge_perturb_detects(self, capsys):
        assert main(["diverge", "--perturb", "--writes", "40"]) == 0
        out = capsys.readouterr().out
        assert "perturbation caught" in out
        assert "first divergence at write 20" in out

    def test_crash_smoke(self, capsys):
        assert main(["crash"]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out

    def test_crash_unknown_site_fails(self, capsys):
        assert main(["crash", "--site", "rvm.commit.durable", "--nth", "999"]) == 1
        assert "never fired" in capsys.readouterr().err

    def test_crash_site_must_be_registered(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["crash", "--site", "no.such.site"])
        assert exc.value.code != 0
        assert "invalid choice: 'no.such.site'" in capsys.readouterr().err

    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
