"""Tests for the calibration self-check."""

import pytest

from repro.experiments import validate


@pytest.fixture(scope="module")
def result():
    return validate.run()


def test_all_checks_pass(result):
    assert result.ok, result.render()


def test_expected_checks_present(result):
    names = [c.name for c in result.checks]
    assert any("XFS" in n for n in names)
    assert any("DYAD" in n and "produce" in n for n in names)
    assert any("ratio" in n for n in names)
    assert any("RDMA" in n for n in names)
    assert any("Lustre" in n for n in names)


def test_production_ratio_near_paper(result):
    ratio = next(c for c in result.checks if "ratio" in c.name)
    assert ratio.measured == pytest.approx(1.4, abs=0.15)


def test_check_failure_detection():
    check = validate.Check("synthetic", predicted=1.0, measured=2.0)
    assert not check.ok
    bad = validate.ValidationResult(checks=[check])
    assert not bad.ok
    assert "FAIL" in bad.render()


def test_render_formats(result):
    text = result.render()
    assert "predicted" in text and "measured" in text
    assert "1.4" in text  # the dimensionless ratio line


def test_registered_in_cli(capsys):
    from repro.experiments.__main__ import main

    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_failed_check_fails_the_cli(monkeypatch, capsys):
    from repro.experiments.__main__ import main

    failing = validate.ValidationResult(checks=[
        validate.Check("synthetic", predicted=1.0, measured=2.0)])
    monkeypatch.setattr(validate, "run", lambda *args: failing)
    assert main(["validate"]) == 1
    assert "CHECK FAILURES" in capsys.readouterr().out
    assert failing.failures == [str(failing.checks[0])]
