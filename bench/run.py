#!/usr/bin/env python3
"""spincat benchmark: three fixed workloads through the public surface.

    python3 bench/run.py --workload scan-half --seed 1 --seconds 30 --trace 0

    for w in scan-half verify-all scalar-search; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

Run from the root of a source checkout; the library is imported from
``src/`` there, never from an installed copy. Workloads:

  scan-half      scan --j 0.5 --gen z --phi2 pi --res 201 --output <tmp>
  verify-all     verify --all --res 50 --tol 1e-9
  scalar-search  20,000 seeded cat_crb point queries interleaved with a
                 find-hl --format json campaign over four (j, G) specs

Everything runs in this one single-threaded process (BLAS and OpenMP
pinned to one thread, no --workers). After an untimed warm-up pass the
workload repeats for --seconds and each timing is the median over passes.
Timings are taken with refclock.RefClock, which factors out how fast the
shared host happens to run; the plain wall-clock medians are printed too.

With --trace 0 the end-to-end metrics are reported: setup_s (median over
fresh interpreters of importing spincat and making the first call at each
(j, G) the workload uses), peak_rss_mb, items_per_s (scan cells, verify
points or point queries per second) and job_s (time of the scan, the
verify or the find-hl campaign). With --trace 1 one untraced and one
traced pass, both by wall clock, give the per-layer metrics; the spans
are written to .bench-out/spans-<workload>.csv.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. attempted and failed count output checks; fail_ratio
is failed / attempted. The lines before it record the seed, the
environment and every metric by name with its unit.
"""
from __future__ import annotations

import os

# pin native thread pools before NumPy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUTDIR = ROOT / ".bench-out"

SETUP_PROBES = 5
DIMS = (2, 3, 4, 17, 65)
LAYERS = ("cli", "scan", "closedform", "metrology", "catstate", "coherent", "dicke")

# a fresh interpreter: import the library and the CLI and make the first
# call at each (2j, G) given, with the reference clock sampling every 5 ms
# once NumPy is in; prints the end time, the kernel's total and mean time
_PROBE = """
import math, statistics, sys, time
sys.path[:0] = sys.argv[1:3]
from refclock import NOMINAL_S, RefClock
with RefClock(0.005) as clock:
    import spincat, spincat.cli
    from spincat import CatParams, CoherentParams, Generator, SpinJ, cat_crb
    for pair in sys.argv[3].split(","):
        two_j, g = pair.split(":")
        cat_crb(CatParams(SpinJ(int(two_j)), CoherentParams(0.4, 0.3), CoherentParams(2.0, 1.7)), Generator(g))
    end = time.monotonic()
print(end, math.fsum(clock.costs), statistics.fmean(clock.costs) if clock.costs else NOMINAL_S)
"""


def _import_spincat():
    """Import spincat from this checkout's src/ and nowhere else."""
    if not (SRC / "spincat" / "__init__.py").is_file():
        raise SystemExit(f"error: no spincat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spincat

    if Path(spincat.__file__).resolve().parent != SRC / "spincat":
        raise SystemExit(f"error: imported spincat from {spincat.__file__}, not {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> str:
    import numpy

    threads = " ".join(
        f"{v}={os.environ[v]}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    )
    return (
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={len(os.sched_getaffinity(0))} cpu={_cpu_model()!r} {threads}"
    )


def _setup_seconds(pairs) -> float:
    """Set-up time of one fresh interpreter, at the reference clock's speed."""
    from refclock import NOMINAL_S

    spec = ",".join(f"{tj}:{g}" for tj, g in pairs)
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), str(BENCH), spec],
        check=True, capture_output=True, text=True, timeout=120,
    )
    end, kernel_s, kernel_mean = (float(x) for x in done.stdout.split())
    return (end - t0 - kernel_s) * NOMINAL_S / kernel_mean


def _quantile(sorted_values, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def measure(wl, seconds: float, tally) -> tuple[dict, list[str]]:
    """End-to-end metrics, tracing off.

    Timings are medians over passes, each pass timed with a RefClock so
    that the host's changing load is factored out; the raw wall-time
    medians are printed alongside. setup_s is the median over fresh
    interpreters spread through the run.
    """
    from refclock import RefClock
    from workloads import make_api

    setup = [_setup_seconds(wl.pairs) for _ in range(SETUP_PROBES)]
    api = make_api()
    wl.check(wl.run_pass(api), tally)  # warm-up, untimed
    items_s, job_s, raw_items_s, raw_job_s = [], [], [], []
    latencies = array("d")
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with RefClock() as clock:
            rec = wl.run_pass(api)
        items_s.append(math.fsum(clock.normalized(a, b) for a, b in rec.item_spans))
        job_s.append(math.fsum(clock.normalized(a, b) for a, b in rec.job_spans))
        raw_items_s.append(math.fsum(b - a for a, b in rec.item_spans))
        raw_job_s.append(math.fsum(b - a for a, b in rec.job_spans))
        latencies.extend(rec.latencies)
        wl.check(rec, tally)
        setup.append(_setup_seconds(wl.pairs))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    passes = len(job_s)
    items = rec.items
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "items_per_s": (statistics.median(items / t for t in items_s), "1/s"),
        "job_s": (statistics.median(job_s), "s"),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters",
        f"{wl.item_name} = {metrics['items_per_s'][0]:.6g} 1/s "
        f"(reported as items_per_s), {statistics.median(items / t for t in raw_items_s):.6g} 1/s "
        f"by wall clock; medians of {passes} passes",
        f"{wl.job_name} = {metrics['job_s'][0]:.6g} s (reported as job_s), "
        f"{statistics.median(raw_job_s):.6g} s by wall clock; medians of {passes} passes",
    ]
    if latencies:
        latencies = sorted(latencies)
        notes.append(
            f"crb_p50_us = {1e6 * _quantile(latencies, 0.5):.6g} us, "
            f"crb_p99_us = {1e6 * _quantile(latencies, 0.99):.6g} us by wall clock "
            f"({len(latencies)} queries)"
        )
    return metrics, notes


def _per_layer(s, outputs: dict, untraced_s: float, cold_ms: dict) -> dict:
    """Per-layer metrics from one traced pass, every name on every workload."""
    from spincat import ClosedFormCase
    from workloads import ScalarSearch

    m = {}
    wall = s.wall_s
    layer_self = {layer: s.layer_self_s(layer) for layer in LAYERS}
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (untraced_s, "s")
    m["trace.overhead"] = (wall / untraced_s, "ratio")
    m["trace.layer_share"] = (sum(layer_self.values()) / wall, "ratio")
    m["bench.self_s"] = (s.layer_self_s("bench"), "s")
    m["cli.self_ms"] = (1e3 * layer_self["cli"], "ms")
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")

    m["coherent.state_us"] = (s.mean_us("coherent.coherent_state"), "us")
    m["coherent.state_calls"] = (s.count("coherent.coherent_state"), "count")
    m["catstate.cat_state_us"] = (s.mean_us("catstate.cat_state"), "us")
    m["catstate.cat_state_calls"] = (s.count("catstate.cat_state"), "count")
    m["dicke.vector_us"] = (s.mean_us("dicke.DickeVector"), "us")
    m["dicke.vector_calls"] = (s.count("dicke.DickeVector"), "count")
    m["dicke.build_operators_ms"] = (sum(cold_ms.values()), "ms")
    for d in DIMS:
        m[f"dicke.build_operators_ms.d{d}"] = (cold_ms.get(d, 0.0), "ms")

    flops = nbytes = calls = 0
    for d in DIMS:
        name = f"metrology.qfi_pure.d{d}"
        m[f"metrology.qfi_us.d{d}"] = (s.mean_us(name), "us")
        n = s.count(name)
        calls += n
        flops += 8 * d * d * n
        nbytes += 16 * d * d * n
    m["metrology.qfi_calls"] = (calls, "count")
    m["metrology.cat_crb_us"] = (s.mean_us("metrology.cat_crb"), "us")
    m["metrology.cat_crb_calls"] = (s.count("metrology.cat_crb"), "count")
    m["metrology.kernel_flops_computed"] = (flops, "flop")
    m["metrology.kernel_bytes_computed"] = (nbytes, "B")

    grid_s = s.total("scan.grid_scan")
    cells = outputs.get("cells", 0)
    csv_s = s.total("scan.to_csv")
    m["scan.grid_s"] = (grid_s, "s")
    m["scan.cell_us"] = (1e6 * grid_s / cells if cells else 0.0, "us")
    m["scan.cells_degenerate"] = (outputs.get("degenerate", 0), "count")
    m["scan.cells_overflow"] = (outputs.get("overflow", 0), "count")
    m["scan.csv_s"] = (csv_s, "s")
    m["scan.csv_mb_per_s"] = (outputs.get("csv_bytes", 0) / 1e6 / csv_s if csv_s else 0.0, "MB/s")

    evals = 0
    hl_s = 0.0
    for tj, g in ScalarSearch.specs:
        name = f"scan.find_hl.2j{tj}_{g}"
        n = s.children_under("metrology.cat_crb", name)
        m[f"scan.find_hl_evals.2j{tj}_{g}"] = (n, "count")
        evals += n
        hl_s += s.total(name)
    m["scan.find_hl_evals"] = (evals, "count")
    m["scan.find_hl_us_per_eval"] = (1e6 * hl_s / evals if evals else 0.0, "us")
    m["scan.find_hl_points"] = (outputs.get("hl_points", 0), "count")

    m["closedform.formula_us"] = (s.mean_us("closedform.formula"), "us")
    m["closedform.formula_calls"] = (s.count("closedform.formula"), "count")
    m["closedform.sweep_s"] = (
        sum(s.total(n) for n in s.with_prefix("closedform.sweep_family.")), "s"
    )
    for case in ClosedFormCase:
        m[f"closedform.sweep_s.{case.value}"] = (s.total(f"closedform.sweep_family.{case.value}"), "s")
    return m


def measure_traced(wl, tally) -> tuple[dict, list[str]]:
    """Per-layer metrics: one untraced pass, then one traced pass."""
    from spincat import SpinJ
    from spincat.dicke import build_operators
    from spans import Tracer
    from workloads import make_api

    api = make_api()
    wl.check(wl.run_pass(api), tally)  # warm-up, untimed
    cold_ms = {}
    build_operators.cache_clear()
    for tj in sorted({tj for tj, _ in wl.pairs}):
        t0 = time.perf_counter()
        build_operators(SpinJ(tj))
        cold_ms[tj + 1] = 1e3 * (time.perf_counter() - t0)
    t0 = time.perf_counter()
    untraced = wl.run_pass(api)
    untraced_s = time.perf_counter() - t0
    wl.check(untraced, tally)
    tracer = Tracer()
    traced_api = make_api(tracer.wrap)
    with tracer:
        traced = wl.run_pass(traced_api)
    wl.check(traced, tally)
    spans_path = OUTDIR / f"spans-{wl.name}.csv"
    tracer.write_csv(spans_path)
    metrics = _per_layer(tracer.summary(), wl.outputs(traced), untraced_s, cold_ms)
    notes = [f"{len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_spincat()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUTDIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUTDIR)
    tally = Tally()
    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# {_environment()}")
    if args.trace:
        metrics, notes = measure_traced(wl, tally)
    else:
        metrics, notes = measure(wl, args.seconds, tally)
    for note in notes:
        print(f"# {note}")
    fail_ratio = tally.failed / tally.attempted
    print(f"fail_ratio = {fail_ratio:.6g} ({tally.failed} of {tally.attempted} checks failed)")
    for message in tally.messages:
        print(f"  check failed: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
