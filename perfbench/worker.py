"""One timed unit of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the workload, its input, whether to trace, and where to write
the result. The worker imports kfsteiner, loads the input through the
public loader (the set-up the parent times), runs the workload once (the
run it times itself) unless SPEC asks for set-up only, checks the outputs
with the gates, and writes one JSON result. Exit status 3 means set-up failed; a failing gate or an
exception in the run still exits 0 and is reported in the result.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
import traceback

import gates
from spans import Tracer, summarize

RASTER_STEPS = 100
#: Perimeter snapshots every this many steps; one estimate is about a
#: quarter to a third of a 100-step 512x512 run.
PERIMETER_EVERY = 100
#: Past step 20 the vertex count sits near its 60k plateau, so every later
#: step costs what a step of the 200-step acceptance run costs.
POLYGON_STEPS = 50
#: The polygon's accuracy is read at this step. Later, breakpoint merging
#: holds d1_to_ball / area on a floor near 2e-7 that varies threefold
#: between nearby seeds, so the last step cannot carry a bound.
POLYGON_ACCURACY_STEP = 20
#: Short enough that the vertex count still doubles at every step.
FRAMES_STEPS = 6


def _n_vertices(args, result):
    return len(args[0])


def _targets(kf):
    """(owner, attribute, span name, count) for every traced call site."""
    cli, disc, metrics, parts, process, rasters = (
        kf.cli, kf.discrepancy, kf.metrics, kf.partitions, kf.process, kf.rasters
    )
    return [
        (cli, "main", "cli.main", None),
        (process, "run_process", "process.run_process", None),
        (cli, "run_process", "process.run_process", None),
        (process, "load_seed", "process.load_seed", None),
        (process, "trace_csv", "process.trace_csv", None),
        (cli, "trace_csv", "process.trace_csv", None),
        (process, "sequence_values", "sequences.sequence_values", None),
        (disc, "sequence_values", "sequences.sequence_values", None),
        (process, "steiner_polygon", "polygons.steiner_polygon", _n_vertices),
        (metrics, "disk_intersection_area", "polygons.disk_intersection_area", None),
        (kf.polygons.ConvexPolygon, "moment_about_origin",
         "polygons.moment_about_origin", None),
        (rasters.AlignedRun, "apply", "rasters.apply", None),
        (rasters.AlignedRun, "world_raster", "rasters.world_raster", None),
        (cli, "rasterize", "rasters.rasterize", _n_vertices),
        (cli, "write_pgm", "rasters.write_pgm",
         lambda args, result: os.path.getsize(args[0])),
        (process, "read_pgm", "rasters.read_pgm", None),
        (rasters, "read_pgm", "rasters.read_pgm", None),
        (metrics, "measure", "metrics.measure", None),
        (metrics, "perimeter_estimate", "metrics.perimeter_estimate", None),
        (parts, "kakutani_level", "partitions.kakutani_level",
         lambda args, result: result.n_intervals),
        (disc, "discrepancy_curve", "discrepancy.discrepancy_curve", None),
        (disc, "star_discrepancy", "discrepancy.star", None),
        (disc, "extreme_discrepancy", "discrepancy.extreme", None),
    ]


def timed(kf, fn, tracer):
    """Run fn once; return (result, wall seconds).

    Traced, the seconds are the root span's duration, so the self times
    of all spans add up to them exactly.
    """
    if tracer is None:
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start
    for owner, attr, name, count in _targets(kf):
        tracer.patch(owner, attr, name, count)
    try:
        result = tracer.run(fn)
    finally:
        tracer.restore()
    root = tracer.spans[0]
    return result, root[2] - root[1]


def _series(records):
    return ([r.metrics.area for r in records], [r.metrics.mu for r in records],
            [r.metrics.d1_to_ball for r in records])


def run_raster(kf, spec, loaded, tracer):
    cfg = kf.process.ProcessConfig(sequence="kf", seed=spec["input"],
                                   steps=RASTER_STEPS, cadence=1)
    marks = list(range(PERIMETER_EVERY, RASTER_STEPS + 1, PERIMETER_EVERY))

    def work():
        res = kf.process.run_process(cfg, snapshot_steps=marks)
        return res, [kf.metrics.perimeter_estimate(res.snapshots[s]) for s in marks]

    (res, perimeters), run_s = timed(kf, work, tracer)
    areas, mus, d1s = _series(res.records)
    tol = kf.metrics.grid_tolerance(loaded)
    errors = gates.raster_gate(areas, mus, d1s, spec["ref"]["area"], tol, perimeters)
    return {"run_s": run_s, "work": RASTER_STEPS, "final_err": d1s[-1] / areas[-1],
            "errors": errors}


def run_polygon(kf, spec, loaded, tracer):
    cfg = kf.process.ProcessConfig(sequence="kf", seed=spec["input"],
                                   steps=POLYGON_STEPS, cadence=1)
    res, run_s = timed(kf, lambda: kf.process.run_process(cfg), tracer)
    areas, mus, d1s = _series(res.records)
    errors = gates.polygon_gate(areas, mus, d1s, spec["ref"]["area"])
    k = POLYGON_ACCURACY_STEP
    return {"run_s": run_s, "work": POLYGON_STEPS, "final_err": d1s[k] / areas[k],
            "errors": errors}


def run_frames(kf, spec, loaded, tracer):
    outdir = os.path.join(spec["workdir"], f"frames-{spec['unit']}")
    argv = ["process", "--seed", spec["input"], "--kind", "kf",
            "--steps", str(FRAMES_STEPS), "--cadence", "1", "--frames",
            "--out", outdir]

    def work():
        status = kf.cli.main(argv)
        loaded = [kf.rasters.read_pgm(p) for p in gates.frame_paths(outdir)]
        return status, loaded

    (status, _), run_s = timed(kf, work, tracer)
    try:
        if status != 0:
            return {"run_s": run_s, "work": FRAMES_STEPS, "final_err": None,
                    "errors": [f"kfsteiner process exited with {status}"]}
        with open(os.path.join(outdir, "trace.csv"), encoding="utf-8") as fh:
            rows = gates.parse_trace(fh.read())
        frames = {}
        for path in gates.frame_paths(outdir):
            with open(path, "rb") as fh:
                frames[int(os.path.basename(path)[6:-4])] = fh.read()
        errors = gates.frames_gate(rows, frames, spec["ref"]["area"], FRAMES_STEPS)
        return {"run_s": run_s, "work": FRAMES_STEPS,
                "final_err": rows[-1]["d1_to_ball"] / rows[-1]["area"],
                "errors": errors, "digest": gates.output_digest(outdir)}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def run_onedim(kf, spec, loaded, tracer):
    level, ns = spec["ref"]["level"], loaded
    if ns != spec["ref"]["ns"]:
        raise ValueError("sizes file does not match the generated ladder")

    def work():
        part = kf.partitions.kakutani_level(kf.sequences.GAMMA, level)
        rows = kf.discrepancy.discrepancy_curve("kf", ns, include_extreme=True)
        return part, rows

    (part, rows), run_s = timed(kf, work, tracer)
    counts = kf.partitions.interval_counts(part, level)
    points = kf.sequences.kf_points(ns[-1])
    errors = gates.onedim_gate(points, part.breakpoints, counts, level, ns, rows)
    return {"run_s": run_s, "work": ns[-1], "final_err": rows[-1]["normalized"],
            "errors": errors}


WORKLOADS = {"raster": run_raster, "polygon": run_polygon,
             "frames": run_frames, "onedim": run_onedim}


def setup(spec):
    """Import kfsteiner from the checkout and load the input."""
    import kfsteiner
    import kfsteiner.cli  # noqa: F401  (not imported by the package root)

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(kfsteiner.__file__).startswith(src + os.sep):
        raise ImportError(f"kfsteiner imported from {kfsteiner.__file__}, not {src}")
    if spec["workload"] == "onedim":
        with open(spec["input"], encoding="ascii") as fh:
            return kfsteiner, [int(tok) for tok in fh.read().split()]
    return kfsteiner, kfsteiner.process.load_seed(spec["input"])


def measure(kf, spec, loaded):
    """Run the workload once, traced if the spec asks; return its result."""
    tracer = Tracer(spec["run_id"]) if spec["trace"] else None
    try:
        out = WORKLOADS[spec["workload"]](kf, spec, loaded, tracer)
    except Exception as exc:
        traceback.print_exc()
        out = {"errors": [f"{type(exc).__name__}: {exc}"]}
    if tracer is not None and tracer.spans and tracer.spans[0] is not None:
        summary = summarize(tracer.spans)
        out["layers"] = summary
        if "run_s" in out:
            gap = gates.self_time_gap(summary["self_s"], out["run_s"])
            if gap > 1e-9 * out["run_s"]:
                out["errors"].append(f"self times miss run_s by {gap:.3g} s")
        with open(spec["spans_path"], "a", encoding="utf-8") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")
    return out


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        kf, loaded = setup(spec)
    except Exception:
        traceback.print_exc()
        return 3
    t_ready = time.monotonic()
    out = {} if spec["setup_only"] else measure(kf, spec, loaded)
    out["t_ready"] = t_ready
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
