"""Node-local NVMe SSD device model.

The device is modelled as two fluid-flow channels (read and write — NVMe
devices have independent read/write data paths to a first approximation)
plus a fixed per-operation latency with multiplicative lognormal jitter.
Concurrent operations of the same kind share their channel's bandwidth,
which is what couples the producer/consumer pairs in the single-node
experiments (Fig. 5).

Capacity is tracked so tests can assert the 3.5 TB Corona budget is
respected; exceeding it raises :class:`repro.errors.StorageError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError, StorageError
from repro.sim.core import Environment
from repro.sim.fluid import FluidNetwork
from repro.sim.resources import SharedBandwidth
from repro.sim.rng import RngStreams
from repro.units import TiB, gb_per_s, usec

__all__ = ["SSDConfig", "SSDModel"]


@dataclass(frozen=True)
class SSDConfig:
    """Performance envelope of a node-local NVMe SSD.

    Defaults approximate the 3.5 TB NVMe devices in Corona compute nodes.

    Attributes
    ----------
    read_bandwidth / write_bandwidth:
        Effective stream bandwidth of the local I/O path in bytes/second,
        shared among concurrent operations of that kind. These model the
        *application-visible* path including the page cache (writes return
        after the cache copy; dirty writeback is asynchronous), which is
        why they exceed raw device speeds.
    read_latency / write_latency:
        Fixed per-operation setup cost in seconds (submission, doorbell,
        FTL lookup). Writes are costlier than reads on NVMe.
    capacity:
        Usable bytes.
    jitter_cv:
        Coefficient of variation of the lognormal latency jitter; 0
        disables jitter (deterministic mode, used by unit tests).
    """

    read_bandwidth: float = gb_per_s(6.0)
    write_bandwidth: float = gb_per_s(5.0)
    read_latency: float = usec(10.0)
    write_latency: float = usec(20.0)
    capacity: int = int(3.5 * TiB)
    jitter_cv: float = 0.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on non-physical values."""
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ConfigError("SSD bandwidth must be positive")
        if self.read_latency < 0 or self.write_latency < 0:
            raise ConfigError("SSD latency must be non-negative")
        if self.capacity <= 0:
            raise ConfigError("SSD capacity must be positive")
        if self.jitter_cv < 0:
            raise ConfigError("jitter_cv must be non-negative")


@dataclass
class SSDStats:
    """Lifetime operation counters for one device."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


class SSDModel:
    """One NVMe SSD attached to a node.

    All data operations are generator methods intended to be driven from a
    simulation process (``yield from ssd.write(n)``); each returns the
    elapsed device time for the operation.
    """

    def __init__(
        self,
        env: Environment,
        config: SSDConfig,
        rng: RngStreams,
        name: str = "ssd",
        fluid: Optional[FluidNetwork] = None,
    ) -> None:
        config.validate()
        self.env = env
        self.config = config
        self.name = name
        self._rng = rng
        if fluid is not None:
            self._read_chan = fluid.link(config.read_bandwidth,
                                         label=f"{name}.read")
            self._write_chan = fluid.link(config.write_bandwidth,
                                          label=f"{name}.write")
        else:
            self._read_chan = SharedBandwidth(env, config.read_bandwidth)
            self._write_chan = SharedBandwidth(env, config.write_bandwidth)
        self._used = 0
        self._degraded = 1.0
        self.stats = SSDStats()
        self._m_used = None  # used-bytes gauge when metered

    def channels(self):
        """Both device channels, for kernel-health aggregation."""
        yield self._read_chan
        yield self._write_chan

    # -- telemetry -----------------------------------------------------------
    def attach_metrics(self, timeline, label: str) -> None:
        """Meter the device as ``{label}.read`` / ``{label}.write`` channel
        gauge families plus a ``{label}.used_bytes`` occupancy gauge.

        On a DYAD staging node the occupancy gauge doubles as the staging
        area's fill level over time.
        """
        self._read_chan.attach_metrics(timeline, f"{label}.read")
        self._write_chan.attach_metrics(timeline, f"{label}.write")
        self._m_used = timeline.gauge(f"{label}.used_bytes")
        self._m_used.set(float(self._used))

    # -- fault injection -----------------------------------------------------
    @property
    def degraded(self) -> float:
        """Current slowdown factor (1.0 = healthy)."""
        return self._degraded

    def degrade(self, factor: float) -> None:
        """Throttle both channels to ``1/factor`` of configured bandwidth.

        Models device-level degradation (thermal throttling, worn flash,
        background garbage collection). In-flight transfers slow down
        mid-stream; ``restore`` reverses the effect.
        """
        if factor < 1.0:
            raise ValueError(f"degrade factor must be >= 1, got {factor}")
        self._degraded = float(factor)
        self._read_chan.set_bandwidth(self.config.read_bandwidth / factor)
        self._write_chan.set_bandwidth(self.config.write_bandwidth / factor)

    def restore(self) -> None:
        """Return both channels to their configured bandwidth."""
        self._degraded = 1.0
        self._read_chan.set_bandwidth(self.config.read_bandwidth)
        self._write_chan.set_bandwidth(self.config.write_bandwidth)

    # -- capacity ------------------------------------------------------------
    @property
    def used(self) -> int:
        """Bytes currently allocated on the device."""
        return self._used

    @property
    def free(self) -> int:
        """Bytes still available."""
        return self.config.capacity - self._used

    def allocate(self, nbytes: int) -> None:
        """Reserve space for a file; raises when the device would overflow."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if self._used + nbytes > self.config.capacity:
            raise StorageError(
                f"{self.name}: allocation of {nbytes} B exceeds capacity "
                f"({self.free} B free)"
            )
        self._used += nbytes
        if self._m_used is not None:
            self._m_used.set(float(self._used))

    def release(self, nbytes: int) -> None:
        """Return space freed by an unlink/truncate."""
        if nbytes < 0:
            raise ValueError(f"negative release: {nbytes}")
        if nbytes > self._used:
            raise StorageError(f"{self.name}: releasing more than allocated")
        self._used -= nbytes
        if self._m_used is not None:
            self._m_used.set(float(self._used))

    # -- data path -----------------------------------------------------------
    def _latency(self, stream: str, base: float) -> float:
        if self.config.jitter_cv == 0.0:
            return base
        return self._rng.jitter(f"{self.name}.{stream}", base, self.config.jitter_cv)

    def write(self, nbytes: int):
        """Generator: write ``nbytes``; returns elapsed seconds."""
        if nbytes < 0:
            raise ValueError(f"negative write size: {nbytes}")
        start = self.env._now
        yield self.env.timeout(
            self._latency("wlat", self.config.write_latency))
        if nbytes:
            yield self._write_chan.transfer(nbytes)
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        return self.env._now - start

    def read(self, nbytes: int):
        """Generator: read ``nbytes``; returns elapsed seconds."""
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        start = self.env._now
        yield self.env.timeout(
            self._latency("rlat", self.config.read_latency))
        if nbytes:
            yield self._read_chan.transfer(nbytes)
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        return self.env._now - start
