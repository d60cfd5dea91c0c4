"""Tests for the workflow CLI."""

import pytest

from repro.errors import WorkflowError
from repro.workflow.__main__ import build_parser, build_spec, main
from repro.workflow.spec import Placement, SyncMode, System, Topology


def parse(*argv):
    return build_parser().parse_args(list(argv))


def test_spec_defaults():
    spec = build_spec(parse("--system", "dyad"))
    assert spec.system is System.DYAD
    assert spec.model.name == "JAC"
    assert spec.stride == 880
    assert spec.placement is Placement.SPLIT


def test_spec_xfs_defaults_single_node():
    spec = build_spec(parse("--system", "xfs", "--pairs", "2"))
    assert spec.placement is Placement.SINGLE_NODE


def test_spec_model_and_stride():
    spec = build_spec(parse("--system", "lustre", "--model", "stmv",
                            "--stride", "10"))
    assert spec.model.name == "STMV"
    assert spec.stride == 10


def test_spec_sync_mode():
    spec = build_spec(parse("--system", "lustre", "--sync", "polling"))
    assert spec.sync_mode is SyncMode.POLLING


def test_sync_ignored_for_dyad():
    spec = build_spec(parse("--system", "dyad", "--sync", "polling"))
    assert spec.sync_mode is SyncMode.COARSE  # spec default; no error


def test_unknown_system_rejected():
    with pytest.raises(SystemExit):
        parse("--system", "nfs")


def test_spec_topology_args():
    spec = build_spec(parse("--system", "dyad", "--topology", "fanout",
                            "--consumers", "8"))
    assert spec.topology is Topology.FANOUT
    assert (spec.producers, spec.consumers, spec.pairs) == (1, 8, 1)


def test_topology_without_sizes_rejected():
    with pytest.raises(WorkflowError, match="consumers >= 1"):
        build_spec(parse("--system", "dyad", "--topology", "fanout"))


def test_pairwise_rejects_stray_topology_sizes():
    # The flags must not be silently ignored for pairwise runs.
    with pytest.raises(WorkflowError, match="sizes via pairs"):
        build_spec(parse("--system", "dyad", "--producers", "3"))


def test_unknown_topology_rejected():
    with pytest.raises(SystemExit):
        parse("--system", "dyad", "--topology", "ring")


def test_main_runs_and_prints(capsys):
    rc = main(["--system", "dyad", "--frames", "4", "--pairs", "1",
               "--runs", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "production movement" in out
    assert "makespan" in out


def test_main_writes_trace(tmp_path, capsys):
    trace_path = tmp_path / "run.json"
    rc = main(["--system", "dyad", "--frames", "3", "--pairs", "1",
               "--trace", str(trace_path)])
    assert rc == 0
    assert trace_path.exists()


def test_trace_runs_each_repetition_once(tmp_path, monkeypatch, capsys):
    # the traced repetition is repetition 0 itself, not an extra run
    import repro.workflow.__main__ as cli
    from repro.workflow import runner

    calls = []
    real = runner.run_workflow

    def counted(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "run_workflow", counted)
    monkeypatch.setattr(cli, "run_workflow", counted, raising=False)
    rc = main(["--system", "dyad", "--frames", "3", "--pairs", "1",
               "--runs", "2", "--jobs", "1",
               "--trace", str(tmp_path / "run.json")])
    assert rc == 0
    assert len(calls) == len(set(calls)) == 2
    assert f"wrote {tmp_path / 'run.json'}" in capsys.readouterr().out
