"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion lines and timings. Tolerances are pinned here, not deferred:
golden sequence values at 1e-12, polygon invariants at 1e-9, raster
invariants at the grid tolerance 8 * h * perimeter, and the convergence
experiment thresholds spelled out inline.
"""

import math
import time

import numpy as np

from conftest import mirror_gap, random_convex_polygon, random_raster
from kfsteiner.cli import main as cli_main
from kfsteiner.discrepancy import star_discrepancy
from kfsteiner.metrics import d1, grid_tolerance, moment_of_inertia
from kfsteiner.partitions import TRIVIAL, alpha_refine, interval_counts
from kfsteiner.polygons import Ball, ConvexPolygon, steiner_polygon
from kfsteiner.process import ProcessConfig, builtin_seed, run_process
from kfsteiner.rasters import AlignedRun, GridSpec, rasterize, steiner_raster
from kfsteiner.sequences import (
    GAMMA,
    checkpoint_index,
    fib,
    kf_point,
    kf_points,
    vdc_points,
)

G = GAMMA


def report(number, detail, elapsed, limit):
    line = f"ACCEPTANCE {number} PASS: {detail} ({elapsed:.3f}s, limit {limit:g}s)"
    print(line)
    assert elapsed < limit, f"criterion {number} exceeded its runtime budget"


def test_criterion_01_golden_sequence():
    golden = [
        G, G**2, G**3, G**3 + G, G**4, G**4 + G, G**4 + G**2,
        G**5, G**5 + G, G**5 + G**2, G**5 + G**3, G**5 + G**3 + G,
    ]
    kf_points(12)  # warm the enumeration cache
    t0 = time.perf_counter()
    pts = kf_points(12)
    elapsed = time.perf_counter() - t0
    worst = float(np.abs(pts - np.array(golden)).max())
    assert worst < 1e-12, f"worst deviation {worst}"
    report(1, f"first 12 points match, worst |err| {worst:.2e}", elapsed, 1e-3)


def test_criterion_02_fibonacci_partition_identities():
    t0 = time.perf_counter()
    part = TRIVIAL
    for n in range(26):
        if n > 0:
            part = alpha_refine(part, G)
        t, long_n, short_n = interval_counts(part, n)
        assert (t, long_n, short_n) == (fib(n + 2), fib(n + 1), fib(n)), f"level {n}"
        lengths = part.lengths
        ok = (np.abs(lengths - G**n) <= 1e-10) | (
            np.abs(lengths - G ** (n + 1)) <= 1e-10
        )
        assert ok.all(), f"level {n} has a foreign interval length"
    elapsed = time.perf_counter() - t0
    report(2, "counts equal (F(n+2), F(n+1), F(n)) for n = 0..25", elapsed, 1.0)


def test_criterion_03_points_versus_partition():
    t0 = time.perf_counter()
    part = TRIVIAL
    worst = 0.0
    for k in range(1, 16):
        part = alpha_refine(part, G)
        t_k = part.n_intervals
        pts = np.sort(kf_points(t_k - 1))
        interior = part.breakpoints[1:-1]
        worst = max(worst, float(np.abs(pts - interior).max()))
    assert worst < 1e-12
    elapsed = time.perf_counter() - t0
    report(3, f"first t_k - 1 points are the level-k endpoints, worst {worst:.2e}",
           elapsed, 1.0)


def test_criterion_04_checkpoint_identity():
    t0 = time.perf_counter()
    for k in range(2, 16):
        assert abs(kf_point(checkpoint_index(k)) - G**k) < 1e-12
    # the successor identity holds on its domain k >= 3: the integer
    # 2**(k-1) + 1 must itself avoid adjacent binary ones, which fails
    # only for k = 2 where G**2 + G = 1 is not a sequence value at all;
    # there the next point is G**3
    for k in range(3, 16):
        assert abs(kf_point(checkpoint_index(k) + 1) - (G**k + G)) < 1e-12
    assert abs((G**2 + G) - 1.0) < 1e-15
    assert abs(kf_point(checkpoint_index(2) + 1) - G**3) < 1e-15
    elapsed = time.perf_counter() - t0
    report(4, "gamma**k at fib(k+1) and gamma**k + gamma right after (k >= 3)",
           elapsed, 1.0)


def test_criterion_05_low_discrepancy():
    t0 = time.perf_counter()
    sizes = [100, 1_000, 10_000, 100_000]
    for name, pts in (("kf", kf_points(100_000)), ("vdc2", vdc_points(100_000, 2))):
        stars = {n: star_discrepancy(pts[:n]) for n in sizes}
        for n in sizes:
            assert stars[n] <= 3.0 * math.log(n) / n, f"{name} at N={n}"
        assert stars[100] / stars[100_000] >= 100.0, name
    elapsed = time.perf_counter() - t0
    report(5, "D*_N <= 3 ln N / N for kf and vdc2 up to N = 1e5, 100x decay",
           elapsed, 30.0)


def test_criterion_06_polygon_invariants():
    rng = np.random.default_rng(61803398)
    t0 = time.perf_counter()

    sq = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    rect = steiner_polygon(sq, math.pi / 2)
    want = np.array([(0, -0.5), (1, -0.5), (1, 0.5), (0, 0.5)])
    got = rect.vertices[np.lexsort((rect.vertices[:, 1], rect.vertices[:, 0]))]
    assert np.abs(got - want[np.lexsort((want[:, 1], want[:, 0]))]).max() < 1e-9

    tri = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
    kite = steiner_polygon(tri, math.pi / 2)
    want = np.array([(0, -0.5), (1, 0.0), (0, 0.5)])
    got = kite.vertices[np.lexsort((kite.vertices[:, 1], kite.vertices[:, 0]))]
    assert np.abs(got - want[np.lexsort((want[:, 1], want[:, 0]))]).max() < 1e-9

    for i in range(1000):
        poly = random_convex_polygon(rng, n_points=int(rng.integers(4, 10)))
        theta = rng.random() * math.pi
        out = steiner_polygon(poly, theta)
        assert abs(out.area() - poly.area()) <= 1e-9 * poly.area(), f"pair {i}"
        assert mirror_gap(out, theta) <= 1e-9, f"pair {i}"
        assert (
            out.moment_about_origin() <= poly.moment_about_origin() + 1e-9
        ), f"pair {i}"
        again = steiner_polygon(out, theta)
        assert len(again) == len(out) and np.abs(
            np.sort(again.vertices, axis=0) - np.sort(out.vertices, axis=0)
        ).max() <= 1e-9, f"pair {i}"
    elapsed = time.perf_counter() - t0
    report(6, "1000 random pairs: area, symmetry, idempotence, moment at 1e-9",
           elapsed, 10.0)


def test_criterion_07_raster_invariants():
    rng = np.random.default_rng(2584)
    grid = GridSpec.cover(1.0, n=256)
    t0 = time.perf_counter()

    ball = rasterize(Ball(0.8), grid)
    out = steiner_raster(ball, 1.234)
    assert d1(out, ball) <= grid_tolerance(ball)

    for i in range(30):
        rs = random_raster(rng, grid)
        theta = rng.random() * math.pi
        run = AlignedRun(rs).apply(theta)
        res = run.world_raster()
        assert abs(res.mass() - rs.mass()) <= 1e-9 * rs.mass(), f"set {i}"
        assert abs(run.mass_drift) <= 0.01, f"set {i}"
        assert moment_of_inertia(res) <= moment_of_inertia(rs) + grid_tolerance(rs)

    for i in range(100):
        a = random_raster(rng, grid)
        b = random_raster(rng, grid)
        theta = rng.random() * math.pi
        tol = max(grid_tolerance(a), grid_tolerance(b))
        before = d1(a, b)
        after = d1(steiner_raster(a, theta), steiner_raster(b, theta))
        assert after <= before + tol, f"pair {i}"
        # mapping each set to its centered ball of equal area contracts too
        assert abs(a.area() - b.area()) <= before + tol, f"pair {i}"
    elapsed = time.perf_counter() - t0
    report(7, "256^2 suite: mass, moment, contraction, ball fixed point",
           elapsed, 120.0)


def test_criterion_08_convergence_to_the_ball():
    t0 = time.perf_counter()

    cfg = ProcessConfig(sequence="kf", seed="builtin:square", steps=200, cadence=1)
    res = run_process(cfg)
    mus = [rec.metrics.mu for rec in res.records]
    assert all(b <= a + 1e-9 for a, b in zip(mus, mus[1:]))
    lam = res.records[0].metrics.area
    final = res.records[-1].metrics.d1_to_ball
    assert final / lam < 0.02, f"square run ended at {final / lam:.4f}"
    poly_detail = f"square d1/area {final / lam:.2e}"

    ratios = []
    for name in ("lshape", "two-component", "annulus"):
        seed = builtin_seed(name, resolution=512)
        tol = grid_tolerance(seed)
        cfg = ProcessConfig(
            sequence="kf", seed=f"builtin:{name}", steps=400, cadence=1,
            resolution=512,
        )
        res = run_process(cfg)
        mus = [rec.metrics.mu for rec in res.records]
        assert all(b <= a + tol for a, b in zip(mus, mus[1:])), name
        d_first = res.records[0].metrics.d1_to_ball
        d_last = res.records[-1].metrics.d1_to_ball
        assert d_last <= d_first / 5.0, f"{name}: {d_first:.4f} -> {d_last:.4f}"
        ratios.append(f"{name} {d_first / d_last:.1f}x")
    elapsed = time.perf_counter() - t0
    report(8, poly_detail + "; " + ", ".join(ratios), elapsed, 300.0)


def test_criterion_09_contrast_schedules():
    t0 = time.perf_counter()
    flat = run_process(
        ProcessConfig(sequence="constant:0.35", seed="builtin:square",
                      steps=100, cadence=1)
    )
    d1s = [rec.metrics.d1_to_ball for rec in flat.records[1:]]
    assert max(d1s) - min(d1s) <= 1e-12  # exact plateau after one step

    moving = run_process(
        ProcessConfig(sequence="kf", seed="builtin:square", steps=100, cadence=1)
    )
    series = [rec.metrics.d1_to_ball for rec in moving.records]
    assert series[100] < series[1]
    elapsed = time.perf_counter() - t0
    report(9, "constant direction plateaus exactly; kf strictly improves",
           elapsed, 60.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    pairs = []
    for i in (0, 1):
        base = tmp_path / f"round{i}"
        base.mkdir()
        cli_main(["seq", "--kind", "kf", "--n", "2000",
                  "--out", str(base / "seq.csv")])
        cli_main(["partition", "--alpha", "gamma", "--level", "18",
                  "--out", str(base / "part.csv")])
        cli_main(["disc", "--kind", "vdc:2", "--ns", "100,10000",
                  "--extreme", "--out", str(base / "disc.csv")])
        cli_main(["process", "--seed", "builtin:annulus", "--kind", "kf",
                  "--steps", "25", "--cadence", "5", "--resolution", "128",
                  "--out", str(base / "run")])
        cli_main(["compare", "--seed", "builtin:square", "--kinds",
                  "kf,vdc2,kronecker", "--steps", "20", "--cadence", "5",
                  "--out", str(base / "cmp")])
        pairs.append(base)
    for rel in ("seq.csv", "part.csv", "disc.csv", "run/trace.csv",
                "cmp/compare.csv"):
        a = (pairs[0] / rel).read_bytes()
        b = (pairs[1] / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
    elapsed = time.perf_counter() - t0
    report(10, "repeated runs produce byte-identical CSVs", elapsed, 60.0)
