"""The three fixed workloads and the output checks behind fail_ratio.

Each workload runs in passes. A pass is the workload's whole job, issued
through spincat's public surface: ``spincat.cli.main(argv)``, the code
behind the installed command, and ``spincat.cat_crb`` for point queries.
``run_pass`` times the job and keeps its outputs; ``check`` compares those
outputs with an independent oracle outside the timed region. Checks compare
parsed numbers at a tolerance and never output bytes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import spincat
import spincat.cli
from spincat import (
    FAMILIES,
    CatParams,
    ClosedFormCase,
    CoherentParams,
    Generator,
    SpinJ,
    cat_crb,
    cat_state,
    qfi_sld_oracle,
)
from spincat.catstate import DEGENERACY_FLOOR
from spincat.metrology import QFI_DIVERGENCE_FLOOR

RTOL = 1e-9


@dataclass
class Api:
    """The entry points a pass calls; span-recording wrappers when traced."""

    main: Callable
    query: Callable


def make_api(wrap=None) -> Api:
    """Entry points for a pass. wrap(name, fn) returns a traced stand-in."""
    if wrap is None:
        def wrap(name, fn):
            return fn
    crb_fn = wrap("metrology.cat_crb", cat_crb)
    cat_params = wrap("catstate.CatParams", CatParams)
    coherent_params = wrap("coherent.CoherentParams", CoherentParams)

    def point_query(j, g, t1, p1, t2, p2):
        return crb_fn(cat_params(j, coherent_params(t1, p1), coherent_params(t2, p2)), g).crb

    return Api(main=wrap("cli.main", spincat.cli.main), query=wrap("bench.query", point_query))


class Tally:
    """Checks attempted and failed, with the first few failures kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: Callable[[], str]) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(what())


def _rel_close(value: float, expected: float) -> bool:
    if math.isinf(expected) or math.isinf(value):
        return value == expected
    return abs(value - expected) <= RTOL * abs(expected)


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@dataclass
class CliRun:
    argv: list[str]
    rc: int
    out: str
    err: str
    start: float
    end: float


def timed_cli(main, argv: list[str]) -> CliRun:
    start = time.perf_counter()
    rc, out, err = run_cli(main, argv)
    return CliRun(argv, rc, out, err, start, time.perf_counter())


@dataclass
class PassRecord:
    """Outputs and timings of one pass.

    item_spans are the perf_counter intervals spent on the work counted by
    items_per_s, job_spans those of the job behind job_s.
    """

    items: int
    item_spans: list[tuple[float, float]]
    job_spans: list[tuple[float, float]]
    runs: list[CliRun]
    latencies: array = field(default_factory=lambda: array("d"))
    crbs: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# scan-half

class ScanHalf:
    """scan --j 0.5 --gen z --phi2 pi --res 201 to a CSV file.

    The panel is the HALF_Z_PHIPI closed-form family, so every CSV row is
    checked against that formula. The inputs do not depend on the seed.
    """

    name = "scan-half"
    item_name = "scan_cells_per_s"
    job_name = "scan_s"
    pairs = ((1, "z"),)
    resolution = 201
    cap = 20.0

    def __init__(self, seed: int, outdir: Path):
        self.csv_path = outdir / "scan-half.csv"
        self.argv = [
            "scan", "--j", "0.5", "--gen", "z", "--phi2", "pi",
            "--res", str(self.resolution), "--output", str(self.csv_path),
        ]
        n = self.resolution
        self.theta = [math.pi * (a / (n - 1)) for a in range(n)]
        formula = FAMILIES[ClosedFormCase.HALF_Z_PHIPI].formula
        # expected (degenerate, overflow, value) per cell, row-major; the
        # cat norm^2 at j = 1/2, dphi = pi is 2 + 2 cos((t1 + t2)/2)
        self.expected = []
        for t1 in self.theta:
            for t2 in self.theta:
                f = formula({"theta1": t1, "theta2": t2})
                if 2.0 + 2.0 * math.cos((t1 + t2) / 2) <= DEGENERACY_FLOOR:
                    self.expected.append((True, False, f))
                else:
                    self.expected.append((False, f > self.cap, f))

    def run_pass(self, api: Api) -> PassRecord:
        run = timed_cli(api.main, self.argv)
        cells = self.resolution**2
        span = [(run.start, run.end)]
        return PassRecord(cells, span, span, [run])

    def check(self, rec: PassRecord, tally: Tally) -> None:
        run = rec.runs[0]
        tally.check(run.rc == 0, lambda: f"scan exited {run.rc}: {run.err.strip()}")
        n = self.resolution
        theta, expected, cap = self.theta, self.expected, self.cap
        counts = [0, 0]
        with open(self.csv_path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            tally.check(header == "theta1,theta2,crb,overflow,degenerate",
                        lambda: f"csv header {header!r}")
            rows = 0
            for idx, line in enumerate(fh):
                rows += 1
                if idx >= n * n:
                    continue
                i, k = divmod(idx, n)
                deg_x, over_x, f = expected[idx]
                try:
                    a, b, crb, over, deg = line.split(",")
                    a, b, crb, over, deg = float(a), float(b), float(crb), int(over), int(deg)
                except ValueError:
                    tally.check(False, lambda: f"unparsable csv row {line!r}")
                    continue
                counts[0] += over
                counts[1] += deg
                ok = abs(a - theta[i]) <= 1e-11 and abs(b - theta[k]) <= 1e-11
                if deg_x:
                    ok = ok and deg == 1 and over == 0 and math.isnan(crb) and math.isinf(f)
                elif over_x:
                    ok = ok and deg == 0 and over == 1 and crb == cap
                else:
                    ok = ok and deg == 0 and over == 0 and _rel_close(crb, f)
                tally.check(ok, lambda: f"cell ({i},{k}) row {line.strip()!r}, formula {f!r}")
        tally.check(rows == n * n, lambda: f"csv has {rows} rows, expected {n * n}")
        m = re.search(r"(\d+)x\1 grid.*; (\d+) overflow, (\d+) degenerate cells", run.out)
        tally.check(
            m is not None and int(m.group(1)) == n and [int(m.group(2)), int(m.group(3))] == counts,
            lambda: f"summary {run.out.strip()!r} vs csv counts {counts}",
        )

    def outputs(self, rec: PassRecord) -> dict:
        """Cell counts from the summary line and the CSV size, for the trace."""
        m = re.search(r"(\d+) overflow, (\d+) degenerate cells", rec.runs[0].out)
        return {
            "cells": rec.items,
            "overflow": int(m.group(1)) if m else 0,
            "degenerate": int(m.group(2)) if m else 0,
            "csv_bytes": self.csv_path.stat().st_size,
        }


# ---------------------------------------------------------------------------
# verify-all

class VerifyAll:
    """verify --all --res 50 --tol 1e-9: every closed form against the engine.

    The inputs do not depend on the seed.
    """

    name = "verify-all"
    item_name = "verify_points_per_s"
    job_name = "verify_s"
    pairs = ((1, "z"), (1, "x"), (2, "z"))
    argv = ["verify", "--all", "--res", "50", "--tol", "1e-9"]
    families = 22
    points_per_family = 2500

    def __init__(self, seed: int, outdir: Path):
        self.cases = {c.value for c in ClosedFormCase}

    def outputs(self, rec: PassRecord) -> dict:
        return {}

    _LINE = re.compile(
        r"^(\S+)\s+points=(\d+) finite=\d+ max_dev=\S+ event_mismatches=(\d+) (PASS|FAIL)$"
    )

    def _rows(self, out: str) -> list[tuple[str, int, int, str]]:
        rows = []
        for line in out.splitlines():
            m = self._LINE.match(line.strip())
            if m:
                rows.append((m.group(1), int(m.group(2)), int(m.group(3)), m.group(4)))
        return rows

    def run_pass(self, api: Api) -> PassRecord:
        run = timed_cli(api.main, self.argv)
        points = sum(r[1] for r in self._rows(run.out))
        span = [(run.start, run.end)]
        return PassRecord(points, span, span, [run])

    def check(self, rec: PassRecord, tally: Tally) -> None:
        run = rec.runs[0]
        tally.check(run.rc == 0, lambda: f"verify exited {run.rc}")
        rows = self._rows(run.out)
        tally.check(
            len(rows) == self.families and {r[0] for r in rows} == self.cases,
            lambda: f"verify reported {len(rows)} families",
        )
        for name, points, mismatches, verdict in rows:
            tally.check(
                verdict == "PASS" and mismatches == 0 and points == self.points_per_family,
                lambda: f"{name}: points={points} event_mismatches={mismatches} {verdict}",
            )


# ---------------------------------------------------------------------------
# scalar-search

class ScalarSearch:
    """Seeded single cat_crb queries interleaved with a find-hl campaign.

    The query stream is 20,000 (2j, G, angles) tuples drawn from the seed:
    2j in {1, 2, 3, 16, 64}, G in {x, y, z}, theta uniform on [0, pi], phi
    uniform on [0, 2 pi). A pass runs a quarter of the stream, then one
    find-hl spec, four times over, so both halves see the same machine.
    """

    name = "scalar-search"
    item_name = "crb_queries_per_s"
    job_name = "find_hl_s"
    two_js = (1, 2, 3, 16, 64)
    generators = ("x", "y", "z")
    n_queries = 20_000
    n_checked = 250
    specs = ((1, "z"), (2, "z"), (3, "y"), (64, "y"))  # find-hl (2j, G)
    hl_tolerance = 1e-3  # the find-hl default the campaign runs with

    def __init__(self, seed: int, outdir: Path):
        rng = random.Random(seed)
        spins = {tj: SpinJ(tj) for tj in self.two_js}
        gens = {g: Generator(g) for g in self.generators}
        self.queries = [
            (
                spins[rng.choice(self.two_js)],
                gens[rng.choice(self.generators)],
                rng.uniform(0.0, math.pi),
                rng.uniform(0.0, 2 * math.pi),
                rng.uniform(0.0, math.pi),
                rng.uniform(0.0, 2 * math.pi),
            )
            for _ in range(self.n_queries)
        ]
        self.checked = sorted(rng.sample(range(self.n_queries), self.n_checked))
        self.pairs = tuple(sorted({(tj, g) for tj in self.two_js for g in self.generators}))
        self.argvs = [
            ["find-hl", "--j", f"{tj / 2:g}", "--gen", g, "--format", "json"] for tj, g in self.specs
        ]

    def run_pass(self, api: Api) -> PassRecord:
        n = self.n_queries
        lat = array("d", bytes(8 * n))
        crbs = [0.0] * n
        queries, query = self.queries, api.query
        clock = time.perf_counter
        runs = []
        chunks = []
        size = n // len(self.argvs)
        for c, argv in enumerate(self.argvs):
            lo, hi = c * size, n if c == len(self.argvs) - 1 else (c + 1) * size
            start = clock()
            for i in range(lo, hi):
                j, g, t1, p1, t2, p2 = queries[i]
                t0 = clock()
                crbs[i] = query(j, g, t1, p1, t2, p2)
                lat[i] = clock() - t0
            chunks.append((start, clock()))
            runs.append(timed_cli(api.main, argv))
        spans = [(r.start, r.end) for r in runs]
        return PassRecord(n, chunks, spans, runs, latencies=lat, crbs=crbs)

    def check(self, rec: PassRecord, tally: Tally) -> None:
        for i in self.checked:
            j, g, t1, p1, t2, p2 = self.queries[i]
            qfi = qfi_sld_oracle(cat_state(CatParams(j, CoherentParams(t1, p1), CoherentParams(t2, p2))), g)
            expected = math.inf if qfi <= QFI_DIVERGENCE_FLOOR else 1.0 / math.sqrt(qfi)
            got = rec.crbs[i]
            tally.check(_rel_close(got, expected),
                        lambda: f"query {i} (2j={j.two_j}, {g.name}): crb {got!r}, oracle {expected!r}")
        for (two_j, g), run in zip(self.specs, rec.runs):
            self._check_find_hl(SpinJ(two_j), Generator(g), run, tally)

    def _check_find_hl(self, spin: SpinJ, gen: Generator, run: CliRun, tally: Tally) -> None:
        try:
            points = json.loads(run.out)["points"] if run.rc == 0 else []
        except (ValueError, KeyError):
            points = []
        tally.check(run.rc == 0 and len(points) >= 1,
                    lambda: f"find-hl j={spin} {gen.name}: exit {run.rc}, {len(points)} points")
        accept = (1.0 / (2.0 * spin.j)) * (1.0 + self.hl_tolerance)
        for p in points:
            cat = CatParams(spin, CoherentParams(p["theta1"], p["phi1"]), CoherentParams(p["theta2"], p["phi2"]))
            again = cat_crb(cat, gen).crb
            tally.check(
                p["crb"] <= accept and _rel_close(again, p["crb"]),
                lambda: f"find-hl j={spin} {gen.name}: point {p} re-evaluates to {again!r}, limit {accept!r}",
            )

    def outputs(self, rec: PassRecord) -> dict:
        total = 0
        for run in rec.runs:
            with contextlib.suppress(ValueError, KeyError):
                total += len(json.loads(run.out)["points"])
        return {"hl_points": total}


WORKLOADS = {w.name: w for w in (ScanHalf, VerifyAll, ScalarSearch)}
