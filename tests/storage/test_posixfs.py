"""Unit tests for the POSIX namespace/handle layer (via the XFS model)."""

import pytest

from repro.cluster.node import Node, NodeConfig
from repro.cluster.network import Fabric, FabricConfig
from repro.errors import (
    FileExists,
    FileNotFound,
    InvalidHandle,
    IsADirectory,
    NotADirectory,
    StorageError,
)
from repro.sim.rng import RngStreams
from repro.storage.posixfs import normalize
from repro.storage.xfs import XFSFileSystem


@pytest.fixture
def fs(env):
    fabric = Fabric(env, FabricConfig(), RngStreams(0))
    node = Node(env, "node00", NodeConfig(), fabric, RngStreams(0))
    return XFSFileSystem(node, store_data=True)


def _drive(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def test_normalize():
    assert normalize("a/b") == "/a/b"
    assert normalize("/a//b/") == "/a/b"
    assert normalize("/a/./b/../c") == "/a/c"
    # posixpath keeps exactly two leading slashes; this namespace has one root
    assert normalize("//dyad/pair0/f") == "/dyad/pair0/f"
    assert normalize("///dyad//f") == "/dyad/f"
    assert normalize("//") == "/"
    with pytest.raises(StorageError):
        normalize("")


def test_create_write_read_roundtrip(env, fs):
    def flow():
        handle = yield from fs.open("/f.bin", "w")
        yield from handle.write(5, b"hello")
        yield from handle.close()
        handle = yield from fs.open("/f.bin", "r")
        count, payload = yield from handle.read()
        yield from handle.close()
        return count, payload

    count, payload = _drive(env, flow())
    assert count == 5 and payload == b"hello"


def test_open_missing_for_read_raises(env, fs):
    def flow():
        yield from fs.open("/missing", "r")

    with pytest.raises(FileNotFound):
        _drive(env, flow())


def test_exclusive_create(env, fs):
    def flow():
        handle = yield from fs.open("/x", "x")
        yield from handle.write(1, b"a")
        yield from handle.close()
        yield from fs.open("/x", "x")

    with pytest.raises(FileExists):
        _drive(env, flow())


def test_truncate_on_w(env, fs):
    def flow():
        h = yield from fs.open("/t", "w")
        yield from h.write(4, b"abcd")
        yield from h.close()
        h = yield from fs.open("/t", "w")  # truncates
        yield from h.close()
        st = yield from fs.stat("/t")
        return st.size

    assert _drive(env, flow()) == 0


def test_append_mode(env, fs):
    def flow():
        h = yield from fs.open("/a", "w")
        yield from h.write(3, b"one")
        yield from h.close()
        h = yield from fs.open("/a", "a")
        yield from h.write(3, b"two")
        yield from h.close()
        h = yield from fs.open("/a", "r")
        count, payload = yield from h.read()
        return payload

    assert _drive(env, flow()) == b"onetwo"


def test_seek_and_partial_read(env, fs):
    def flow():
        h = yield from fs.open("/s", "w")
        yield from h.write(10, b"0123456789")
        yield from h.close()
        h = yield from fs.open("/s", "r")
        h.seek(4)
        count, payload = yield from h.read(3)
        return count, payload

    assert _drive(env, flow()) == (3, b"456")


def test_read_past_eof_truncated(env, fs):
    def flow():
        h = yield from fs.open("/e", "w")
        yield from h.write(3, b"abc")
        yield from h.close()
        h = yield from fs.open("/e", "r")
        count, payload = yield from h.read(100)
        return count, payload

    assert _drive(env, flow()) == (3, b"abc")


def test_write_to_readonly_handle_rejected(env, fs):
    def flow():
        h = yield from fs.open("/r", "w")
        yield from h.write(1, b"x")
        yield from h.close()
        h = yield from fs.open("/r", "r")
        yield from h.write(1, b"y")

    with pytest.raises(InvalidHandle):
        _drive(env, flow())


def test_read_from_writeonly_handle_rejected(env, fs):
    def flow():
        h = yield from fs.open("/w", "w")
        yield from h.read()

    with pytest.raises(InvalidHandle):
        _drive(env, flow())


def test_use_after_close_rejected(env, fs):
    def flow():
        h = yield from fs.open("/c", "w")
        yield from h.close()
        yield from h.write(1, b"z")

    with pytest.raises(InvalidHandle):
        _drive(env, flow())


def test_double_close_is_noop(env, fs):
    def flow():
        h = yield from fs.open("/d", "w")
        yield from h.close()
        second = yield from h.close()
        return second

    assert _drive(env, flow()) == 0.0


def test_makedirs_and_listdir(env, fs):
    fs.makedirs("/a/b/c")
    assert fs.exists("/a/b/c")
    assert fs.listdir("/a") == ["b"]
    fs.makedirs("/a/b")  # idempotent


def test_makedirs_through_file_rejected(env, fs):
    def flow():
        h = yield from fs.open("/file", "w")
        yield from h.close()

    _drive(env, flow())
    with pytest.raises(NotADirectory):
        fs.makedirs("/file/sub")


def test_open_directory_rejected(env, fs):
    fs.makedirs("/dir")

    def flow():
        yield from fs.open("/dir", "w")

    with pytest.raises(IsADirectory):
        _drive(env, flow())


def test_stat_fields(env, fs):
    def flow():
        h = yield from fs.open("/st", "w")
        yield from h.write(7, b"0123456")
        yield from h.close()
        st = yield from fs.stat("/st")
        return st

    st = _drive(env, flow())
    assert st.size == 7
    assert not st.is_dir
    assert st.version == 1
    assert st.mtime >= st.ctime


def test_version_bumps_on_writes(env, fs):
    def flow():
        h = yield from fs.open("/v", "w")
        yield from h.write(1, b"a")
        yield from h.write(1, b"b")
        yield from h.close()
        st = yield from fs.stat("/v")
        return st.version

    assert _drive(env, flow()) == 2


def test_unlink_removes(env, fs):
    def flow():
        h = yield from fs.open("/u", "w")
        yield from h.write(2, b"xy")
        yield from h.close()
        yield from fs.unlink("/u")
        return fs.exists("/u")

    assert _drive(env, flow()) is False


def test_unlink_missing_raises(env, fs):
    def flow():
        yield from fs.unlink("/nope")

    with pytest.raises(FileNotFound):
        _drive(env, flow())


def test_unlink_frees_ssd_space(env, fs):
    node = fs.node

    def flow():
        h = yield from fs.open("/big", "w")
        yield from h.write(1000, b"\0" * 1000)
        yield from h.close()
        used_before = node.ssd.used
        yield from fs.unlink("/big")
        return used_before, node.ssd.used

    before, after = _drive(env, flow())
    assert before == 1000 and after == 0


def test_payload_size_mismatch_rejected(env, fs):
    def flow():
        h = yield from fs.open("/m", "w")
        yield from h.write(5, b"abc")

    with pytest.raises(StorageError):
        _drive(env, flow())


def test_unsupported_mode_rejected(env, fs):
    def flow():
        yield from fs.open("/q", "rw+")

    with pytest.raises(StorageError):
        _drive(env, flow())


def test_overwrite_in_place_via_rplus(env, fs):
    def flow():
        h = yield from fs.open("/p", "w")
        yield from h.write(6, b"abcdef")
        yield from h.close()
        h = yield from fs.open("/p", "r+")
        yield from h.write(2, b"XY")
        yield from h.close()
        h = yield from fs.open("/p", "r")
        _, payload = yield from h.read()
        return payload

    assert _drive(env, flow()) == b"XYcdef"
