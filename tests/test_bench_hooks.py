"""The benchmark tracer still finds every call edge it patches.

bench/spans.py rebinds module attributes of spincat and wraps the formula
of every FAMILIES row; a catalogue or import change that breaks it only
shows in the traced benchmark run, which is too slow for this suite.
"""
import sys
import time
from pathlib import Path

import pytest

import spincat.closedform
from spincat import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench import refclock, spans, workloads  # noqa: E402


def test_tracer_counts_formula_calls_and_restores_everything(capsys):
    patched = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in spans._PATCHES}
    families = dict(spincat.closedform.FAMILIES)
    with spans.Tracer() as tracer:
        code = cli.main(["verify", "--family", "half_z_phi0", "--res", "3"])
    capsys.readouterr()
    assert code == 0
    summary = tracer.summary()
    assert summary.count("closedform.formula") == 9
    assert summary.count("closedform.sweep_family.half_z_phi0") == 1
    for (owner, attr), original in patched.items():
        assert owner.__dict__[attr] is original, (owner, attr)
    assert spincat.closedform.FAMILIES.keys() == families.keys()
    for case, defn in families.items():
        assert spincat.closedform.FAMILIES[case] is defn, case


@pytest.mark.parametrize(
    "argv,span",
    [
        (["scan", "--j", "0.5", "--gen", "z", "--res", "3"], "scan.grid_scan"),
        (
            ["scan", "--j", "0.5", "--gen", "z", "--res", "3", "--output", "{tmp}/g.csv"],
            "scan.to_csv",
        ),
        (["verify", "--family", "half_z_phi0", "--res", "3"], "closedform.sweep_family.half_z_phi0"),
        (["find-hl", "--j", "0.5", "--gen", "z", "--seeds", "1"], "scan.find_hl.2j1_z"),
    ],
)
def test_tracer_sees_the_cli_call_edge(capsys, tmp_path, argv, span):
    # the handlers must look these names up in spincat.cli when they run,
    # so that a tracer rebinding them sees the call
    argv = [a.format(tmp=tmp_path) for a in argv]
    with spans.Tracer() as tracer:
        code = cli.main(argv)
    capsys.readouterr()
    assert code == 0
    assert tracer.summary().count(span) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_passes_its_own_checks(name, tmp_path):
    # one untimed pass of the benchmark's job and its output checks: a change
    # that fails the benchmark's correctness gate fails here first
    wl = workloads.WORKLOADS[name](1, tmp_path)
    tally = workloads.Tally()
    wl.check(wl.run_pass(workloads.make_api()), tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.messages


def test_traced_measurement_runs_in_process(monkeypatch, tmp_path):
    # bench/run.py reaches library attributes by name, such as
    # build_operators.cache_clear, and the tracer rebinds others: a renamed
    # one fails this traced pass of scan-half, with every per-layer metric
    # of BENCHMARK.json reported and the output checks passed
    import json
    import os

    bench = Path(__file__).resolve().parents[1] / "bench"
    # bench/run.py pins the thread pools through the environment when imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.syspath_prepend(str(bench))
    from bench import run

    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "OUTDIR", tmp_path)
    wl = workloads.WORKLOADS["scan-half"](1, tmp_path)
    tally = workloads.Tally()
    metrics, notes = run.measure_traced(wl, tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.messages
    spec = json.loads((bench.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
    assert (tmp_path / "spans-scan-half.csv").is_file(), notes


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeError,
    reason="RefClock.normalized raises 'no reference samples' for an interval "
    "that ends before the timer's first 20 ms tick; ROADMAP Order 0 puts its "
    "fix first among changes to bench/, and that change removes this mark",
)
def test_the_reference_clock_normalizes_a_pass_shorter_than_one_tick():
    # a 5 ms pass, well inside the first 20 ms interval, gets no sample
    with refclock.RefClock() as clock:
        start = time.perf_counter()
        time.sleep(0.005)
        end = time.perf_counter()
    if clock.stamps:
        pytest.xfail("the host stalled past the first tick, so the pass had a sample")
    assert clock.normalized(start, end) > 0.0
