"""Unit helpers used throughout the library.

All simulation times are ``float`` **seconds** and all sizes are ``int``
**bytes**. These helpers exist so that device configurations and experiment
definitions read like the paper ("644.21 KiB", "2 GB/s", "20 us") instead of
bare magic numbers.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Sizes (bytes)
# ---------------------------------------------------------------------------

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB
TiB: int = 1024 * GiB

KB: int = 1000
MB: int = 1000 * KB
GB: int = 1000 * MB


def mib(n: float) -> int:
    """Return ``n`` MiB as an integer byte count (rounded)."""
    return int(round(n * MiB))


# ---------------------------------------------------------------------------
# Times (seconds)
# ---------------------------------------------------------------------------

USEC: float = 1e-6
MSEC: float = 1e-3
MINUTE: float = 60.0


def usec(n: float) -> float:
    """Return ``n`` microseconds in seconds."""
    return n * USEC


def to_usec(seconds: float) -> float:
    """Convert seconds to microseconds (for reporting, cf. Fig. 5a/7a)."""
    return seconds / USEC


def to_msec(seconds: float) -> float:
    """Convert seconds to milliseconds (for reporting, cf. Fig. 5b/8)."""
    return seconds / MSEC


# ---------------------------------------------------------------------------
# Bandwidth (bytes / second)
# ---------------------------------------------------------------------------


def gb_per_s(n: float) -> float:
    """Decimal gigabytes per second, as disk/NIC vendors quote them."""
    return n * GB


def mb_per_s(n: float) -> float:
    """Decimal megabytes per second."""
    return n * MB


def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count, binary units (e.g. ``'28.48 MiB'``)."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.2f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def fmt_time(seconds: float) -> str:
    """Human-readable duration with an auto-selected unit."""
    if seconds < 0:
        return "-" + fmt_time(-seconds)
    if seconds < 1e-3:
        return f"{seconds / USEC:.2f} us"
    if seconds < 1.0:
        return f"{seconds / MSEC:.2f} ms"
    if seconds < MINUTE:
        return f"{seconds:.3f} s"
    return f"{seconds / MINUTE:.2f} min"
