"""Fixtures shared by the service tests."""

import pickle
import zlib
from types import SimpleNamespace

import pytest

from repro.experiments import persist


@pytest.fixture()
def undecodable_entry():
    """Cache-entry bytes whose framing checks out (magic, length, CRC)
    around a pickle that is cut short, so only unpickling fails."""
    payload = pickle.dumps(SimpleNamespace(makespan=1.0))[:-3]
    return persist._ENTRY_HEADER.pack(
        persist._ENTRY_MAGIC, len(payload), zlib.crc32(payload)) + payload
