"""Fast self-tests of the benchmark. From the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import pytest

import instances
import run
from laddermod import Matrix, MorphismMatrix, ladder
from hostspeed import NOMINAL_S, SAMPLES_PER_PROBE, HostSpeed, at_nominal
from tracing import Tracer
from workloads import WORKLOADS, trace_targets


def benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_digest(name, tmp_path):
    wl = WORKLOADS[name]
    a = instances.digest(wl.build(5, 2, str(tmp_path)))
    b = instances.digest(wl.build(5, 2, str(tmp_path)))
    c = instances.digest(wl.build(6, 2, str(tmp_path)))
    assert a == b != c


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_recorded_digests_pin_the_load(name, tmp_path):
    wl = WORKLOADS[name]
    for seed in (1, run.HELD_OUT_SEED):
        digest = instances.digest(wl.build(seed, wl.pool_size, str(tmp_path)))
        assert run.check_digest(wl, seed, digest) is None


def test_metric_lists_match_benchmark_json():
    spec = benchmark_json()
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in run.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(trace, monkeypatch, capsys):
    wl = WORKLOADS["certified-cli"]
    monkeypatch.setattr(wl, "pool_size", 2)
    monkeypatch.setattr(wl, "trace_count", 2)
    monkeypatch.setattr(run, "MIN_SAMPLES", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    run.main(["--workload", wl.name, "--seed", "99", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = benchmark_json()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(names)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_matching_counts_as_failure(monkeypatch, tmp_path):
    wl = WORKLOADS["ladder-wide"]
    job = wl.job

    def corrupting_job(inst):
        dec, chi, cost = job(inst)
        m = dec.matching
        data = list(m.entries.data)
        data[data.index(m.field.one())] = m.field.zero()
        entries = Matrix(m.field, m.entries.rows, m.entries.cols, data)
        bad = MorphismMatrix(m.row_gens, m.col_gens, entries)
        return dataclasses.replace(dec, matching=bad), chi, cost

    pool = wl.build(1, 1, str(tmp_path))
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    lat, _, failed = run.measure(wl, pool, 0, run.Checker(wl), HostSpeed())
    assert failed == 0
    monkeypatch.setattr(wl, "job", corrupting_job)
    checker = run.Checker(wl)
    lat, _, failed = run.measure(wl, pool, 0, checker, HostSpeed())
    assert failed / len(lat) > 0
    assert "verify_decomposition" in checker.messages[0]


def test_tracer_self_times_and_restored_bindings():
    original = ladder.decompose
    tracer = Tracer()
    tracer.install(trace_targets())
    assert ladder.decompose is not original
    tracer.uninstall()
    assert ladder.decompose is original

    tracer.instance = 0
    inner = tracer.wrap(lambda: None, "inner")
    tracer.span("outer", lambda: [inner(), inner()])
    (outer_rec, in1, in2) = tracer.spans
    assert in1[3] == in2[3] == 0 and outer_rec[3] is None
    selfs = tracer.self_times()
    assert selfs["inner"][0] == 2
    span = outer_rec[2] - outer_rec[1]
    covered = (in1[2] - in1[1]) + (in2[2] - in2[1])
    assert selfs["outer"][1] == pytest.approx(span - covered)


def test_times_scale_to_nominal_host_speed():
    assert at_nominal(2.0, NOMINAL_S, NOMINAL_S) == pytest.approx(2.0)
    # a host running at half speed doubles both the job and the probes
    assert at_nominal(4.0, 2 * NOMINAL_S, 2 * NOMINAL_S) == pytest.approx(2.0)
    assert at_nominal(3.0, NOMINAL_S, 2 * NOMINAL_S) == pytest.approx(2.0)
    speed = HostSpeed()
    assert speed.probe() > 0 and len(speed.samples) == SAMPLES_PER_PROBE
