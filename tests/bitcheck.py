"""Print a sha256 digest per kernel group (per kernel for the rasters) and
per CLI output file, on fixed seeded inputs, so that two checkouts compare
bit for bit (the tests judge kernels only within bounds of exact oracles).
pytest does not collect this file; run it as python tests/bitcheck.py >
after.txt.
"""

import contextlib
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import random_convex_polygon  # noqa: E402
from kfsteiner import cli, discrepancy, partitions, polygons, rasters  # noqa: E402
from kfsteiner.metrics import d1_to_ball, measure  # noqa: E402
from kfsteiner.process import BUILTIN_SEEDS, RASTER_SEEDS, builtin_seed  # noqa: E402
from kfsteiner.sequences import sequence_values  # noqa: E402

KF = [math.pi * float(x) for x in sequence_values("kf", 40)]


def digest(values):
    h = hashlib.sha256()
    for value in values:
        for item in value if isinstance(value, tuple) else [value]:
            if isinstance(item, np.ndarray):
                h.update(f"{item.dtype.str}{item.shape}".encode() + item.tobytes())
            else:
                h.update(repr(item).encode())  # repr keeps every bit of a float
    return h.hexdigest()


def polygons_of(seed, count):
    """Seeded random polygons, every third off the origin."""
    rng = np.random.default_rng(seed)
    return [random_convex_polygon(rng, int(rng.integers(3, 40)),
                                  center=rng.uniform(-3.0, 3.0, 2) * (k % 3 == 2))
            for k in range(count)]


def polygon_inputs():
    """Seeded random polygons and two saturated symmetrals."""
    polys = polygons_of(1, 60) + [builtin_seed("square"), builtin_seed("ellipse")]
    for theta in KF[:30]:
        polys[-2:] = [polygons.steiner_polygon(poly, theta) for poly in polys[-2:]]
    return polys


def polygon_kernels():
    for k, poly in enumerate(polygon_inputs()):
        r_eq = math.sqrt(poly.area() / math.pi)
        yield poly.area(), poly.moment_about_origin(), poly.perimeter(), poly.contains_origin()
        for r in (0.5 * r_eq, r_eq, 2.0 * poly.circumradius()):
            yield polygons.disk_intersection_area(poly, r), polygons.ball_hausdorff(poly, r)
        yield measure(poly, with_hausdorff=True, with_perimeter=True)
        for theta in (0.0, 0.5 * math.pi, 0.3 + k, KF[k % 40]):
            xs, ell = polygons._chord_profile(polygons._frame(poly, 0.5 * math.pi - theta))
            out = polygons.steiner_polygon(poly, theta)
            yield xs, ell, out.vertices, polygons.hausdorff(poly, out)


def profile_kernels():
    """The area, moment and d1 of symmetrals of the polygon inputs, read
    from their profiles: none of them is drawn."""
    for k, poly in enumerate(polygon_inputs()):
        for theta in (0.0, 0.5 * math.pi, 0.3 + k, KF[k % 40]):
            out = polygons.steiner_polygon(poly, theta)
            yield out.area(), out.moment_about_origin(), d1_to_ball(out)
            if out._vertices is not None:
                raise SystemExit("a symmetral was drawn")


def raster_kernels():
    """Each raster kernel's outputs on one set of seeded inputs, and the
    world draws of turned staircases, by name."""
    rng = np.random.default_rng(3)
    cases = []
    for k in range(40):
        n = int(rng.integers(4, 64))
        grid = rasters.GridSpec(nx=n, ny=n, h=float(rng.choice([0.05, 0.1, 0.37, 1.0])))
        v = polygons_of(100 + k, 1)[0].vertices * (0.1 * n * grid.h)
        area = math.pi * ((0.05 + 0.9 * rng.random()) * 0.5 * n * grid.h) ** 2
        occ = rng.random((n, n))
        occ[occ < 0.4] = 0.0 if k % 2 else -0.0
        cases.append((grid, v, polygons._rotation(0.7 * k).T, area, occ))
    edges = [rasters._raster_edges(occ, grid) for grid, *_, occ in cases]
    masses = []
    for (grid, v, turn, _, _), (p, q, w) in zip(cases, edges):
        masses.append(rasters._column_masses(v @ turn, np.roll(v, -1, axis=0) @ turn, 1.0, grid))
        masses.append(rasters._column_masses(p @ turn, q @ turn, w, grid))
    draws = []
    for name in RASTER_SEEDS:
        run = rasters.AlignedRun(builtin_seed(name, resolution=512))
        for theta in KF[:12]:
            draws.append(run.apply(theta).world_raster().occ)
    return {
        "_rasterize_polygon": [rasters._rasterize_polygon(v, grid) for grid, v, *_ in cases],
        "_column_masses": masses,
        "_raster_edges": edges,
        "_ball_table": [rasters._ball_table(grid, area) for grid, _, _, area, _ in cases],
        "world_draws": draws,
    }


def one_dimensional_kernels():
    rng = np.random.default_rng(4)
    block = discrepancy.STAR_BLOCK
    for n in (1, 2, 7, 1000, block - 1, block, block + 1, 2 * block + 1):
        for pts in (sequence_values("kf", n), rng.integers(0, 257, n) / 256, rng.random(n)):
            pts = np.sort(pts)
            yield discrepancy._star_sorted(pts), discrepancy._extreme_sorted(pts, 0.0)
    for spec in ("kf", "vdc", "vdc:3", "vdc:10", "kronecker", "kronecker:0.25", "random:3",
                 "constant:0.3", "geomdecay:0.3:0.5"):
        yield sequence_values(spec, 70000)
        yield discrepancy.discrepancy_curve(spec, [2, 10, 1000, 65537], include_extreme=True)
    for alpha, level in ((partitions.GAMMA, 24), (0.3, 120), (0.5, 16), (0.7, 120)):
        yield partitions.kakutani_level(alpha, level).breakpoints


def cli_outputs(tmp):
    """(name, path) of each output file of a fixed set of CLI runs."""
    hexagon, pgm = tmp / "hexagon.txt", tmp / "seed.pgm"
    polygons.save_polygon(hexagon, polygons.regular_polygon(0.4, 6, center=(0.05, -0.02)))
    rasters.write_pgm(pgm, rasters.rasterize(polygons.ConvexPolygon(
        [(-0.5, -0.3), (0.4, -0.4), (0.6, 0.2), (-0.1, 0.5)]), rasters.GridSpec.cover(1.0, n=96)))
    runs = {
        "seq-kf": "seq --kind kf --n 5000",
        "seq-vdc3": "seq --kind vdc:3 --n 5000",
        "seq-kronecker": "seq --kind kronecker:0.25 --n 5000",
        "partition": f"partition --alpha gamma --level 20 --dump-breakpoints {tmp}/breakpoints.txt",
        "partition-alpha": "partition --alpha 0.3 --level 30",
        "disc-kf": "disc --kind kf --ns 10,1000,65537 --extreme",
        "disc-vdc": "disc --kind vdc --ns 10,1000,65537 --extreme",
        "symmetrize-polygon": f"symmetrize --in {hexagon} --theta 0.3",
        "symmetrize-pgm": f"symmetrize --in {pgm} --x 0.61",
        "symmetrize-ascii": f"symmetrize --in {pgm} --theta 2.2 --ascii",
        "compare": "compare --seed builtin:square --kinds kf,vdc2,kronecker --steps 20 --cadence 5",
    }
    for seed in (hexagon, pgm, *(f"builtin:{name}" for name in BUILTIN_SEEDS)):
        runs[f"process-{Path(str(seed).replace(':', '-')).name}"] = (
            f"process --seed {seed} --kind kf --steps 12 --resolution 96 "
            "--frames --perimeter --hausdorff")
    for name, argv in runs.items():
        out = tmp / name
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv.split() + ["--out", str(out)]):
                raise SystemExit(f"{name}: nonzero exit")
        for path in sorted(out.iterdir()) if out.is_dir() else [out]:
            yield f"cli.{name}/{path.name}", path
    yield "cli.partition/breakpoints.txt", tmp / "breakpoints.txt"


def main():
    print(f"kernels.polygons {digest(polygon_kernels())}", flush=True)
    print(f"kernels.polygons.profile {digest(profile_kernels())}", flush=True)
    for name, outputs in raster_kernels().items():
        print(f"kernels.rasters.{name} {digest(outputs)}", flush=True)
    print(f"kernels.one-dimensional {digest(one_dimensional_kernels())}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, path in cli_outputs(Path(tmp)):
            print(f"{name} {hashlib.sha256(path.read_bytes()).hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
