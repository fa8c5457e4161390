"""Drive composed symmetrizations T_k = S(x_k) ... S(x_1) over a seed set.

A run is fully determined by its configuration: the direction sequence,
the seed (builtin fixture or file), the step count, and the recording
cadence. Polygon seeds use the exact chord backend (PolygonRun); raster
seeds use the occupancy-grid backend (rasters.AlignedRun). Both backends
run through one step loop, `_walk`, which run_process and
checkpoint_probe share. A recorded step hands metrics.measure the run's
frame raster and nothing else: a raster run's rasters carry what their
functionals need, the comparison ball included. Checkpoint probing
verifies that at the enumerated checkpoint steps the applied direction
is pi * gamma**k and measures the reflection defect of the current set
about that line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics as _metrics
from .polygons import (
    ConvexPolygon,
    load_polygon,
    regular_polygon,
    steiner_polygon,
    symmetry_defect,
)
from .rasters import (
    AlignedRun,
    GridSpec,
    RasterSet,
    annulus_fixture,
    rasterize,
    read_pgm,
)
from .sequences import GAMMA, checkpoint_index, parse_sequence_id, sequence_values

__all__ = [
    "ProcessConfig",
    "TraceRecord",
    "ProcessResult",
    "CheckpointRecord",
    "BUILTIN_SEEDS",
    "builtin_seed",
    "load_seed",
    "run_process",
    "checkpoint_probe",
    "compare_sequences",
    "trace_csv",
    "compare_csv",
]

BUILTIN_SEEDS = (
    "square",
    "offset-square",
    "ellipse",
    "lshape",
    "two-component",
    "annulus",
)

#: Largest gap allowed between a checkpoint value and gamma**order.
CHECKPOINT_TOL = 1e-12


@dataclass(frozen=True)
class ProcessConfig:
    """Everything that determines a run; no hidden state."""

    sequence: str
    seed: str
    steps: int
    cadence: int = 1
    resolution: int = 512
    grid: GridSpec | None = None
    with_hausdorff: bool = False
    with_perimeter: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.cadence < 1:
            raise ValueError(f"cadence must be >= 1, got {self.cadence}")


@dataclass(frozen=True)
class TraceRecord:
    """One recorded step: the applied value/angle and the diagnostics."""

    step: int
    x: float | None
    theta: float | None
    metrics: _metrics.MetricsRecord


@dataclass(frozen=True)
class ProcessResult:
    final: object
    records: tuple
    snapshots: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CheckpointRecord:
    order: int
    step: int
    theta: float
    defect: float


def builtin_seed(name, resolution=512, grid=None):
    """Construct one of the builtin seed fixtures.

    Polygon seeds: square (centered unit square), offset-square
    (unit square centered at (0.4, 0.3)), ellipse (2:1 polygon).
    Raster seeds: lshape, two-component, annulus; these are rasterized
    on an origin-centered grid sized to the seed's circumradius.
    """
    if name == "square":
        return ConvexPolygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    if name == "offset-square":
        return ConvexPolygon(
            [(-0.1, -0.2), (0.9, -0.2), (0.9, 0.8), (-0.1, 0.8)]
        )
    if name == "ellipse":
        ang = 2.0 * math.pi * np.arange(128) / 128
        return ConvexPolygon(
            np.column_stack([0.64 * np.cos(ang), 0.32 * np.sin(ang)])
        )
    if name == "lshape":
        g = grid or GridSpec.cover(math.sqrt(0.5), n=resolution)
        a = rasterize(
            ConvexPolygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.0), (-0.5, 0.0)]), g
        )
        b = rasterize(
            ConvexPolygon([(-0.5, 0.0), (0.0, 0.0), (0.0, 0.5), (-0.5, 0.5)]), g
        )
        return RasterSet(np.clip(a.occ + b.occ, 0.0, 1.0), g)
    if name == "two-component":
        g = grid or GridSpec.cover(0.85, n=resolution)
        left = rasterize(regular_polygon(0.28, 96, center=(-0.55, 0.0)), g)
        right = rasterize(regular_polygon(0.28, 96, center=(0.55, 0.0)), g)
        return RasterSet(np.clip(left.occ + right.occ, 0.0, 1.0), g)
    if name == "annulus":
        g = grid or GridSpec.cover(0.8, n=resolution)
        return annulus_fixture(0.45, 0.8, g)
    raise ValueError(
        f"unknown builtin seed {name!r}; available: {', '.join(BUILTIN_SEEDS)}"
    )


def _read_set(path):
    """A P2/P5 PGM raster or a polygon text file, told apart by the first
    two bytes of the file."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic in (b"P2", b"P5"):
        return read_pgm(path)
    try:
        return load_polygon(path)
    except ValueError as exc:
        raise ValueError(
            f"{path}: neither a P2/P5 PGM raster nor a polygon text file ({exc})"
        ) from exc


def load_seed(spec, resolution=512, grid=None):
    """Resolve a seed spec: ``builtin:NAME``, a PGM file or a polygon file."""
    if spec.startswith("builtin:"):
        return builtin_seed(spec[len("builtin:") :], resolution=resolution, grid=grid)
    return _read_set(spec)


class PolygonRun:
    """Exact chord symmetrals of one polygon, with AlignedRun's methods.

    The polygon keeps no frame: both accessors return it.
    """

    def __init__(self, poly):
        self.poly = poly
        # angle of the last applied direction; before the first step the
        # seed's frame 0, direction pi/2, as in AlignedRun (a row flip)
        self.theta = math.pi / 2

    def apply(self, direction):
        self.poly = steiner_polygon(self.poly, direction)
        self.theta = direction
        return self

    def frame_raster(self):
        return self.poly

    world_raster = frame_raster

    def reflection_defect(self):
        """Vertex mismatch against the reflection about the last direction."""
        return symmetry_defect(self.poly, self.theta)


def _walk(seed, xs):
    """Yield (0, None, None, run), then (k, x, theta, run) after step k,
    theta = pi * x; `run` is one AlignedRun or PolygonRun throughout."""
    run = AlignedRun(seed) if isinstance(seed, RasterSet) else PolygonRun(seed)
    yield 0, None, None, run
    for k, x in enumerate(xs, start=1):
        x = float(x)
        theta = math.pi * x
        yield k, x, theta, run.apply(theta)


def run_process(cfg, snapshot_steps=(), callback=None):
    """Run the composed symmetrization described by `cfg`.

    Metrics are recorded at step 0, every `cadence` steps, and at the
    final step. `snapshot_steps` asks for world-frame copies of the
    evolving set at those step numbers (returned in
    ProcessResult.snapshots); `callback` is invoked as
    callback(step, set) at every recorded step.

    Raster seeds run through AlignedRun, which keeps the grid in the
    frame of the last direction between steps; the recorded functionals
    are invariant under that frame rotation, and d1_to_ball compares
    every step against the run's one ball of the seed's area.
    """
    seq = parse_sequence_id(cfg.sequence)
    xs = sequence_values(seq, cfg.steps)
    seed = load_seed(cfg.seed, resolution=cfg.resolution, grid=cfg.grid)

    wanted = set(int(s) for s in snapshot_steps)
    snapshots = {}
    records = []
    for k, x, theta, run in _walk(seed, xs):
        if k in wanted:
            snapshots[k] = run.world_raster()
        if k % cfg.cadence == 0 or k == cfg.steps:
            rec = _metrics.measure(
                run.frame_raster(),
                with_hausdorff=cfg.with_hausdorff,
                with_perimeter=cfg.with_perimeter,
            )
            records.append(TraceRecord(step=k, x=x, theta=theta, metrics=rec))
            if callback is not None:
                callback(k, run.world_raster())
    return ProcessResult(final=run.world_raster(), records=tuple(records),
                         snapshots=snapshots)


def checkpoint_probe(cfg):
    """Verify checkpoint directions and measure reflection defects.

    Only meaningful for the golden-ratio sequence: at the enumerated
    checkpoint steps the applied value is gamma**k, so the freshly
    symmetrized set should be symmetric about the line orthogonal to
    that direction. The defect is the vertex mismatch (polygon) or the
    d1 distance to the reflected set (raster, measured exactly in the
    aligned frame). A raster's defect is exactly 0.0: its frame plane is
    a column of intervals centred on the midline, whose ends and row
    edges are exact, so the plane is symmetric bit for bit.
    """
    seq = parse_sequence_id(cfg.sequence)
    if seq.kind != "kf":
        raise ValueError("checkpoint probing requires the kf sequence")
    xs = sequence_values(seq, cfg.steps)
    orders = {}
    k = 1
    while checkpoint_index(k) <= cfg.steps:
        orders[checkpoint_index(k)] = k
        k += 1
    for p, order in orders.items():
        if abs(float(xs[p - 1]) - GAMMA**order) > CHECKPOINT_TOL:
            raise AssertionError(
                f"checkpoint {order}: value at step {p} is {xs[p - 1]!r}, "
                f"expected gamma**{order}"
            )

    seed = load_seed(cfg.seed, resolution=cfg.resolution, grid=cfg.grid)
    return [
        CheckpointRecord(order=orders[step], step=step,
                         theta=math.pi * GAMMA ** orders[step],
                         defect=run.reflection_defect())
        for step, _, _, run in _walk(seed, xs[: max(orders)])
        if step in orders
    ]


def _records(cfg):
    """The trace of a run and nothing else, which is all a comparison reads:
    a worker sends back no set (a raster run's sets carry the run)."""
    return run_process(cfg).records


def compare_sequences(seed, sequence_ids, steps, cadence=1, resolution=512,
                      jobs=1):
    """Run several sequences on the same seed and align their traces.

    Returns (ids, rows) where each row is a dict with the step and, per
    sequence id, that run's d1_to_ball and mu values.
    """
    ids = list(sequence_ids)
    if len(ids) < 2:
        raise ValueError("need at least two sequence ids to compare")
    cfgs = [
        ProcessConfig(
            sequence=sid,
            seed=seed,
            steps=steps,
            cadence=cadence,
            resolution=resolution,
        )
        for sid in ids
    ]
    if jobs > 1:
        # only parallel runs pay for importing the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            traces = list(pool.map(_records, cfgs))
    else:
        traces = [_records(c) for c in cfgs]
    rows = []
    for i, first in enumerate(traces[0]):
        row = {"step": first.step}
        for sid, records in zip(ids, traces):
            rec = records[i]
            row[f"d1_to_ball:{sid}"] = rec.metrics.d1_to_ball
            row[f"mu:{sid}"] = rec.metrics.mu
        rows.append(row)
    return ids, rows


# ---------------------------------------------------------------------------
# CSV rendering (15 significant digits, blank for missing)
# ---------------------------------------------------------------------------


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.15g}"


def trace_csv(records):
    lines = ["step,x,theta,area,mu,d1_to_ball,hausdorff,perimeter"]
    for rec in records:
        m = rec.metrics
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    rec.step,
                    rec.x,
                    rec.theta,
                    m.area,
                    m.mu,
                    m.d1_to_ball,
                    m.hausdorff_to_ball,
                    m.perimeter,
                )
            )
        )
    return "\n".join(lines) + "\n"


def compare_csv(ids, rows):
    cols = ["step"]
    for sid in ids:
        cols.extend([f"d1_to_ball:{sid}", f"mu:{sid}"])
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in cols))
    return "\n".join(lines) + "\n"
