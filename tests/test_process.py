import math

import numpy as np
import pytest

from kfsteiner.metrics import d1_to_ball, grid_tolerance, measure
from kfsteiner.polygons import Ball, ConvexPolygon, steiner_polygon, symmetry_defect
from kfsteiner.process import (
    BUILTIN_SEEDS,
    CheckpointRecord,
    ProcessConfig,
    TraceRecord,
    _walk,
    builtin_seed,
    checkpoint_probe,
    compare_csv,
    compare_sequences,
    load_seed,
    run_process,
    trace_csv,
)
from kfsteiner.rasters import (
    AlignedRun,
    GridSpec,
    RasterSet,
    rasterize,
    write_pgm,
)
from kfsteiner.sequences import GAMMA, checkpoint_index, sequence_values


def test_config_validation():
    with pytest.raises(ValueError):
        ProcessConfig(sequence="kf", seed="builtin:square", steps=0)
    with pytest.raises(ValueError):
        ProcessConfig(sequence="kf", seed="builtin:square", steps=5, cadence=0)


def test_builtin_seeds_exist():
    for name in BUILTIN_SEEDS:
        seed = builtin_seed(name, resolution=96)
        assert seed is not None
    with pytest.raises(ValueError, match="square"):
        builtin_seed("blob")


def test_ball_seed_stays_fixed(tmp_path):
    grid = GridSpec.cover(1.0, n=128)
    ball = rasterize(Ball(0.8), grid)
    path = tmp_path / "ball.pgm"
    write_pgm(path, ball)
    cfg = ProcessConfig(sequence="kf", seed=str(path), steps=50, cadence=5,
                        resolution=128)
    res = run_process(cfg)
    tol = grid_tolerance(ball)
    for rec in res.records:
        assert rec.metrics.d1_to_ball <= tol, f"step {rec.step}"


def test_polygon_square_run_converges():
    cfg = ProcessConfig(sequence="kf", seed="builtin:square", steps=60)
    res = run_process(cfg)
    mus = [rec.metrics.mu for rec in res.records]
    for prev, cur in zip(mus, mus[1:]):
        assert cur <= prev + 1e-9
    areas = [rec.metrics.area for rec in res.records]
    assert max(areas) - min(areas) <= 1e-9 * areas[0]
    assert res.records[-1].metrics.d1_to_ball / areas[0] < 0.02


def test_vdc_lshape_run_renormalizes_through_a_rounding_gap():
    # at step 73 the pairwise and the sequential mass sums straddle the
    # target, which once stopped the run
    cfg = ProcessConfig(sequence="vdc", seed="builtin:lshape", steps=80, cadence=80)
    res = run_process(cfg)
    assert res.records[-1].step == 80


def test_raster_lshape_run_improves():
    cfg = ProcessConfig(
        sequence="kf", seed="builtin:lshape", steps=80, cadence=4, resolution=256
    )
    res = run_process(cfg)
    seed = builtin_seed("lshape", resolution=256)
    tol = grid_tolerance(seed)
    mus = [rec.metrics.mu for rec in res.records]
    for prev, cur in zip(mus, mus[1:]):
        assert cur <= prev + tol
    areas = [rec.metrics.area for rec in res.records]
    assert max(areas) - min(areas) <= 1e-9 * areas[0]
    assert res.records[-1].metrics.d1_to_ball < res.records[0].metrics.d1_to_ball


def test_checkpoint_probe_polygon():
    cfg = ProcessConfig(sequence="kf", seed="builtin:offset-square", steps=40)
    records = checkpoint_probe(cfg)
    orders = [rec.order for rec in records]
    assert orders == [1, 2, 3, 4, 5, 6, 7, 8]
    steps = [rec.step for rec in records]
    assert steps == [1, 2, 3, 5, 8, 13, 21, 34]
    for rec in records:
        assert rec.theta == pytest.approx(math.pi * GAMMA**rec.order, abs=1e-12)
        assert rec.defect <= 1e-9


def test_checkpoint_probe_raster():
    for seed in ("builtin:annulus", "builtin:lshape"):
        cfg = ProcessConfig(
            sequence="kf", seed=seed, steps=34, cadence=34, resolution=128
        )
        records = checkpoint_probe(cfg)
        assert [rec.order for rec in records] == [1, 2, 3, 4, 5, 6, 7, 8], seed
        # an interval plane is symmetric about its midline by construction
        for rec in records:
            assert rec.defect == 0.0, f"{seed} order {rec.order}"


def test_checkpoint_probe_requires_kf():
    cfg = ProcessConfig(sequence="vdc2", seed="builtin:square", steps=10)
    with pytest.raises(ValueError):
        checkpoint_probe(cfg)


def test_constant_schedule_plateaus():
    cfg = ProcessConfig(sequence="constant:0.35", seed="builtin:square", steps=40,
                        cadence=1)
    res = run_process(cfg)
    after_first = [rec.metrics.d1_to_ball for rec in res.records[1:]]
    assert max(after_first) - min(after_first) <= 1e-12
    # and the moment is flat too once the single symmetral is taken
    mus = [rec.metrics.mu for rec in res.records[1:]]
    assert max(mus) - min(mus) <= 1e-12


def test_geomdecay_contrast_on_ellipse():
    res_kf = run_process(
        ProcessConfig(sequence="kf", seed="builtin:ellipse", steps=300, cadence=100)
    )
    res_decay = run_process(
        ProcessConfig(
            sequence="geomdecay:0.9:0.9", seed="builtin:ellipse", steps=300,
            cadence=100
        )
    )
    lam = res_kf.records[0].metrics.area
    final_kf = res_kf.records[-1].metrics.d1_to_ball
    final_decay = res_decay.records[-1].metrics.d1_to_ball
    # directions thinning out geometrically stall far from the ball
    assert final_decay / lam > 0.05
    assert final_kf / lam < 1e-3
    assert final_kf < final_decay


def test_file_schedule(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text("# custom schedule\n0.5\n0.25\n0.75\n0.5\n")
    cfg = ProcessConfig(sequence=f"file:{path}", seed="builtin:square", steps=4)
    res = run_process(cfg)
    assert [rec.x for rec in res.records[1:]] == [0.5, 0.25, 0.75, 0.5]
    short = ProcessConfig(sequence=f"file:{path}", seed="builtin:square", steps=9)
    with pytest.raises(ValueError, match="values"):
        run_process(short)


def test_snapshots_and_callback():
    seen = []
    cfg = ProcessConfig(sequence="kf", seed="builtin:square", steps=10, cadence=5)
    res = run_process(cfg, snapshot_steps=(3, 10), callback=lambda k, s: seen.append(k))
    assert sorted(res.snapshots) == [3, 10]
    assert seen == [0, 5, 10]
    assert isinstance(res.snapshots[3], ConvexPolygon)


def test_compare_alignment_and_determinism():
    ids, rows = compare_sequences(
        "builtin:square", ["kf", "vdc2", "kronecker"], steps=12, cadence=4
    )
    assert [row["step"] for row in rows] == [0, 4, 8, 12]
    csv_a = compare_csv(ids, rows)
    ids2, rows2 = compare_sequences(
        "builtin:square", ["kf", "vdc2", "kronecker"], steps=12, cadence=4
    )
    assert compare_csv(ids2, rows2) == csv_a
    header = csv_a.splitlines()[0].split(",")
    assert header[0] == "step"
    assert "d1_to_ball:kf" in header and "mu:vdc2" in header


def test_compare_requires_two_ids():
    with pytest.raises(ValueError):
        compare_sequences("builtin:square", ["kf"], steps=5)


def test_compare_parallel_matches_serial():
    ids, rows = compare_sequences("builtin:square", ["kf", "vdc2"], steps=8,
                                  cadence=2, jobs=2)
    ids_s, rows_s = compare_sequences("builtin:square", ["kf", "vdc2"], steps=8,
                                      cadence=2, jobs=1)
    assert compare_csv(ids, rows) == compare_csv(ids_s, rows_s)


def test_trace_csv_shape():
    cfg = ProcessConfig(sequence="kf", seed="builtin:square", steps=6, cadence=2,
                        with_hausdorff=True, with_perimeter=True)
    res = run_process(cfg)
    text = trace_csv(res.records)
    lines = text.strip().splitlines()
    assert lines[0] == "step,x,theta,area,mu,d1_to_ball,hausdorff,perimeter"
    assert len(lines) == 1 + len(res.records)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "" and first[2] == ""
    assert all(len(line.split(",")) == 8 for line in lines[1:])


def test_load_seed_polygon_file(tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("0 0\n1 0\n1 1\n0 1\n")
    seed = load_seed(str(path))
    assert isinstance(seed, ConvexPolygon)


def test_polygon_reflection_defect_before_the_first_step(tmp_path):
    # Step 0 reads the defect of the row flip (direction pi/2), as
    # AlignedRun does, instead of failing on an unset direction.
    path = tmp_path / "poly.txt"
    path.write_text("0 0\n1 0\n1 1\n0 1\n")
    for seed, want in [("builtin:square", 0.0), (str(path), 1.0)]:
        k, _, _, run = next(_walk(load_seed(seed), []))
        assert k == 0
        assert run.reflection_defect() == pytest.approx(want, abs=1e-15), seed


@pytest.mark.parametrize("name", BUILTIN_SEEDS)
def test_every_builtin_seed_moves_toward_the_ball(name):
    cfg = ProcessConfig(
        sequence="kf", seed=f"builtin:{name}", steps=100, cadence=50,
        resolution=192
    )
    res = run_process(cfg)
    assert res.records[-1].metrics.d1_to_ball <= res.records[0].metrics.d1_to_ball


# ---------------------------------------------------------------------------
# one loop per backend, as run_process and checkpoint_probe were written
# before both ran through one loop: the oracle for that loop
# ---------------------------------------------------------------------------


def _looped_process(cfg, snapshot_steps):
    """(records, snapshots, callback calls, final set) of a run."""
    xs = sequence_values(cfg.sequence, cfg.steps)
    seed = load_seed(cfg.seed, resolution=cfg.resolution, grid=cfg.grid)
    driver = AlignedRun(seed) if isinstance(seed, RasterSet) else None
    current = seed

    def frame():
        return driver.frame_raster() if driver is not None else current

    def world():
        return driver.world_raster() if driver is not None else current

    records, snapshots, calls = [], {}, []

    def record(step, x, theta):
        rec = measure(frame(), with_hausdorff=cfg.with_hausdorff,
                      with_perimeter=cfg.with_perimeter)
        records.append(TraceRecord(step=step, x=x, theta=theta, metrics=rec))
        calls.append((step, world()))

    record(0, None, None)
    if 0 in snapshot_steps:
        snapshots[0] = world()
    for k in range(1, cfg.steps + 1):
        x = float(xs[k - 1])
        theta = math.pi * x
        if driver is not None:
            driver.apply(theta)
        else:
            current = steiner_polygon(current, theta)
        if k in snapshot_steps:
            snapshots[k] = world()
        if k % cfg.cadence == 0 or k == cfg.steps:
            record(k, x, theta)
    return records, snapshots, calls, world()


def _looped_checkpoints(cfg):
    xs = sequence_values(cfg.sequence, cfg.steps)
    probe = {}
    k = 1
    while checkpoint_index(k) <= cfg.steps:
        probe[checkpoint_index(k)] = k
        k += 1
    seed = load_seed(cfg.seed, resolution=cfg.resolution, grid=cfg.grid)
    driver = AlignedRun(seed) if isinstance(seed, RasterSet) else None
    current = seed
    out = []
    for step in range(1, max(probe) + 1):
        theta = math.pi * float(xs[step - 1])
        if driver is not None:
            driver.apply(theta)
        else:
            current = steiner_polygon(current, theta)
        if step in probe:
            defect = (driver.reflection_defect() if driver is not None
                      else symmetry_defect(current, theta))
            out.append(CheckpointRecord(order=probe[step], step=step,
                                        theta=math.pi * GAMMA ** probe[step],
                                        defect=defect))
    return out


def _same_set(a, b):
    if isinstance(a, ConvexPolygon):
        return isinstance(b, ConvexPolygon) and np.array_equal(a.vertices, b.vertices)
    return a.grid == b.grid and np.array_equal(a.occ, b.occ)


@pytest.mark.parametrize("seed, steps, resolution", [
    ("builtin:offset-square", 40, 512),
    ("builtin:lshape", 34, 96),
])
def test_shared_loop_equals_the_per_backend_loops(seed, steps, resolution):
    cfg = ProcessConfig(sequence="kf", seed=seed, steps=steps, cadence=3,
                        resolution=resolution, with_hausdorff=True,
                        with_perimeter=True)
    wanted = (0, 13, steps)
    calls = []
    res = run_process(cfg, snapshot_steps=wanted,
                      callback=lambda k, s: calls.append((k, s)))
    records, snapshots, ref_calls, final = _looped_process(cfg, wanted)
    assert list(res.records) == records
    assert sorted(res.snapshots) == sorted(snapshots) == list(wanted)
    for k in wanted:
        assert _same_set(res.snapshots[k], snapshots[k]), k
    assert [k for k, _ in calls] == [k for k, _ in ref_calls]
    for (k, got), (_, want) in zip(calls, ref_calls):
        assert _same_set(got, want), k
    assert _same_set(res.final, final)
    assert checkpoint_probe(cfg) == _looped_checkpoints(cfg)


# ---------------------------------------------------------------------------
# a run's rasters measure as the trace does, without help from the caller
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, n", [("lshape", 128), ("two-component", 256)])
def test_run_rasters_measure_as_their_trace(name, n):
    cfg = ProcessConfig(sequence="kf", seed=f"builtin:{name}", steps=5,
                        resolution=n)
    records = run_process(cfg).records
    run = AlignedRun(builtin_seed(name, resolution=n))
    for rec in records:
        if rec.step:
            run.apply(rec.theta)
        frame = run.frame_raster()
        assert d1_to_ball(frame) == rec.metrics.d1_to_ball, rec.step
        assert measure(frame) == rec.metrics, rec.step


def test_world_raster_at_turn_zero_measures_as_the_frame_raster():
    # the one direction is the seed's column direction, so the world
    # raster turns by -0.0 and its plane is the frame's intervals
    cfg = ProcessConfig(sequence="constant:0.5", seed="builtin:lshape", steps=1,
                        resolution=128)
    res = run_process(cfg)
    run = AlignedRun(load_seed(cfg.seed, resolution=128)).apply(0.5 * math.pi)
    assert np.array_equal(res.final.occ, run.occ)
    assert measure(res.final) == res.records[-1].metrics
