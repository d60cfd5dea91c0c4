"""Unit tests for unit helpers."""

import pytest

from repro import units


def test_size_constants():
    assert units.KiB == 1024
    assert units.MiB == 1024 ** 2
    assert units.GiB == 1024 ** 3
    assert units.GB == 10 ** 9


def test_size_helpers_round():
    assert units.mib(2.46) == round(2.46 * 1024 ** 2)


def test_time_helpers():
    assert units.usec(10) == pytest.approx(1e-5)
    assert units.to_usec(1e-6) == pytest.approx(1.0)
    assert units.to_msec(0.5) == pytest.approx(500.0)


def test_bandwidth_helpers():
    assert units.gb_per_s(4) == 4e9
    assert units.mb_per_s(350) == 3.5e8


def test_fmt_bytes():
    assert units.fmt_bytes(512) == "512 B"
    assert units.fmt_bytes(round(644.21 * units.KiB)) == "644.21 KiB"
    assert units.fmt_bytes(units.mib(28.48)) == "28.48 MiB"
    assert units.fmt_bytes(2 * units.GiB) == "2.00 GiB"


def test_fmt_time():
    assert units.fmt_time(5e-7) == "0.50 us"
    assert units.fmt_time(2.5e-3) == "2.50 ms"
    assert units.fmt_time(1.5) == "1.500 s"
    assert units.fmt_time(90) == "1.50 min"
    assert units.fmt_time(-2.5e-3) == "-2.50 ms"
