"""Seed handling and output checks of the workloads, on shrunken inputs."""

import numpy as np
import pytest

import workloads
from workloads import DEFAULT_SEED, Extend, Netpriv, Stream, Sweep


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_HOMES", 2)
    monkeypatch.setattr(workloads, "EXTEND_HOMES", 2)
    monkeypatch.setattr(workloads, "STREAM_HOMES", 2)
    monkeypatch.setattr(workloads, "STREAM_DAYS", 1)


def _one_round(cls, seed, work_dir):
    workload = cls(seed, work_dir)
    workload.setup()
    return workload, workload.run_round()


def test_same_seed_same_digests_other_seed_other_inputs(small, tmp_path):
    first, a = _one_round(Sweep, 5, tmp_path)
    again, b = _one_round(Sweep, 5, tmp_path)
    other, c = _one_round(Sweep, 6, tmp_path)
    assert a.failed == b.failed == c.failed == 0
    assert a.units == 2 * 8
    assert first.digests() == again.digests()
    assert set(first.digests().values()).isdisjoint(other.digests().values())


def test_stream_inputs_follow_the_seed_and_pass_their_checks(small, tmp_path):
    a, b, c = (Stream(seed, tmp_path) for seed in (5, 5, 6))
    for workload in (a, b, c):
        workload.setup()
    assert all(
        np.array_equal(x.values, y.values) for x, y in zip(a.traces, b.traces)
    )
    assert not np.array_equal(a.traces[0].values, c.traces[0].values)
    result = a.run_round()
    assert result.failed == 0 and result.units == len(a.traces[0])
    assert len(result.latencies) == -(-result.units // workloads.STREAM_CHUNK)


def test_stream_clients_split_the_homes_and_pool_their_rounds(small, tmp_path):
    workload = Stream(5, tmp_path)
    workload.setup()
    rounds = workload.measure(0.0)
    assert sorted(r.client for r in rounds) == [0, 1]
    assert all(r.failed == 0 and r.latencies and r.calibration_s > 0 for r in rounds)
    assert workloads.throughput(rounds, reference=False) == pytest.approx(
        sum(r.throughput for r in rounds)
    )


def test_stream_check_catches_a_diverging_attack(small, tmp_path):
    workload = Stream(5, tmp_path)
    workload.setup()
    edges, features, occupancy = workload.reference(0)
    workload.references[0] = (edges[1:], features, occupancy)
    result = workload.run_round()
    assert result.failed == result.units
    assert any("edges" in line for line in result.wrong)


def test_extend_hits_must_reproduce_what_setup_wrote(small, tmp_path):
    workload, result = _one_round(Extend, 5, tmp_path)
    assert result.failed == 0 and result.units == 2 * 16
    label = next(iter(workload.filled))
    workload.filled[label] = "not the digest set-up wrote"
    tampered = workload.run_round()
    assert tampered.wrong == [f"{label}: cache hit differs from what set-up wrote"]
    assert tampered.failed == 2


def test_digest_pins_apply_to_the_default_seed_only(tmp_path):
    pinned = Sweep(DEFAULT_SEED, tmp_path)
    pinned.pinned = {"cell": "pin"}
    assert pinned.check_digests({"cell": "pin"}) == []
    assert pinned.check_digests({"cell": "other"}) == ["cell"]
    unpinned = Sweep(7, tmp_path)
    assert unpinned.check_digests({"cell": "first"}) == []
    assert unpinned.check_digests({"cell": "second"}) == ["cell"]


@pytest.mark.parametrize("cls", [Sweep, Extend, Netpriv])
def test_every_default_seed_output_has_a_pin(cls, tmp_path, monkeypatch):
    workload = cls(DEFAULT_SEED, tmp_path)
    # the grids alone, without the extension's cache fill
    monkeypatch.setattr(workloads.SweepRunner, "run", lambda self, grid: _Empty())
    workload.setup()
    if cls is Netpriv:
        labels = {job.preset for job in workload.timed.jobs_for(workload.timed.cells())}
    else:
        labels = {cell.label() for cell in workload.timed.cells()}
    assert labels == set(workload.pinned)


class _Empty:
    cells = ()
