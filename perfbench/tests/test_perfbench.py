"""Tests of the benchmark's own parts: inputs, gates, spans and metric tables.

Run from the repository root with
``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gates  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from spans import ROOT as ROOT_SPAN, Tracer, summarize  # noqa: E402

WORKLOADS = ("raster", "polygon", "onedim", "frames")


@pytest.fixture
def dirs(tmp_path):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    return tmp_path


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_always_generates_the_same_input(workload, dirs):
    a = inputs.make_input(workload, 7, str(dirs / "a"))
    b = inputs.make_input(workload, 7, str(dirs / "b"))
    c = inputs.make_input(workload, 8, str(dirs / "c"))
    assert a["sha256"] == b["sha256"]
    assert a["sha256"] != c["sha256"]


def test_generated_polygon_is_what_the_loader_reads(tmp_path):
    from kfsteiner.process import load_seed

    made = inputs.make_input("polygon", 3, str(tmp_path))
    poly = load_seed(made["path"])
    assert len(poly) == inputs.POLYGON_VERTICES
    assert abs(poly.area() - made["ref"]["area"]) <= 1e-12


def test_generated_raster_area_is_what_the_loader_reads(tmp_path):
    from kfsteiner.process import load_seed

    made = inputs.make_input("raster", 3, str(tmp_path))
    rs = load_seed(made["path"])
    assert rs.grid.nx == inputs.RASTER_N
    assert abs(rs.area() - made["ref"]["area"]) <= 1e-12 * made["ref"]["area"]


def _polygon_series(steps=30):
    from kfsteiner.process import ProcessConfig, run_process

    res = run_process(ProcessConfig(sequence="kf", seed="builtin:square",
                                    steps=steps, cadence=1))
    return ([r.metrics.area for r in res.records], [r.metrics.mu for r in res.records],
            [r.metrics.d1_to_ball for r in res.records])


def test_polygon_gate_accepts_a_real_run_and_rejects_a_perturbed_area():
    areas, mus, d1s = _polygon_series()
    assert gates.polygon_gate(areas, mus, d1s, 1.0) == []
    bad = list(areas)
    bad[10] *= 1.0 + 1e-7
    assert gates.polygon_gate(bad, mus, d1s, 1.0)
    assert gates.polygon_gate(areas, mus, d1s, 1.0 + 1e-7)


def test_polygon_gate_rejects_a_rising_moment_and_a_far_final_set():
    areas, mus, d1s = _polygon_series()
    bad_mu = list(mus)
    bad_mu[5] = bad_mu[4] + 1e-6
    assert gates.polygon_gate(areas, bad_mu, d1s, 1.0)
    assert gates.polygon_gate(areas, mus, d1s[:-1] + [0.05], 1.0)


def test_raster_gate_rejects_mass_drift_and_a_stalled_run():
    areas = [0.5] * 11
    mus = list(np.linspace(0.1, 0.05, 11))
    d1s = list(np.geomspace(0.3, 0.01, 11))
    assert gates.raster_gate(areas, mus, d1s, 0.5, 1e-3, [2.5]) == []
    drift = areas[:-1] + [0.5 * (1.0 + 1e-8)]
    assert gates.raster_gate(drift, mus, d1s, 0.5, 1e-3, [2.5])
    assert gates.raster_gate(areas, mus, d1s[:-1] + [0.1], 0.5, 1e-3, [2.5])
    assert gates.raster_gate(areas, mus, d1s, 0.5, 1e-3, [float("nan")])


def _onedim(level):
    from kfsteiner.discrepancy import discrepancy_curve
    from kfsteiner.partitions import interval_counts, kakutani_level
    from kfsteiner.sequences import GAMMA, kf_points

    part = kakutani_level(GAMMA, level)
    ns = [100, 1000, part.n_intervals - 1]
    rows = discrepancy_curve("kf", ns, include_extreme=True)
    points = kf_points(ns[-1])
    return part, interval_counts(part, level), ns, rows, points


def test_onedim_gate_accepts_the_cascade_and_rejects_a_shifted_breakpoint():
    level = 16
    part, counts, ns, rows, points = _onedim(level)
    bp = part.breakpoints
    assert gates.onedim_gate(points, bp, counts, level, ns, rows) == []
    shifted = bp.copy()
    shifted[len(bp) // 2] += 1e-9
    assert gates.onedim_gate(points, shifted, counts, level, ns, rows)
    assert gates.onedim_gate(points, bp, (counts[0], counts[2], counts[1]),
                             level, ns, rows)


def test_onedim_gate_rejects_discrepancies_out_of_bounds():
    level = 16
    part, counts, ns, rows, points = _onedim(level)
    high = [dict(r) for r in rows]
    high[0]["d_star"] = 3.0 * math.log(high[0]["N"]) / high[0]["N"] * 1.01
    assert gates.onedim_gate(points, part.breakpoints, counts, level, ns, high)
    low = [dict(r) for r in rows]
    low[-1]["d_extreme"] = low[-1]["d_star"] * 0.5
    assert gates.onedim_gate(points, part.breakpoints, counts, level, ns, low)


def test_frames_gate_accepts_real_frames_and_rejects_a_corrupted_one(tmp_path):
    from kfsteiner.cli import main

    made = inputs.make_input("frames", 5, str(tmp_path))
    out = tmp_path / "out"
    steps = 2
    assert main(["process", "--seed", made["path"], "--kind", "kf", "--steps",
                 str(steps), "--frames", "--resolution", "64",
                 "--out", str(out)]) == 0
    rows = gates.parse_trace((out / "trace.csv").read_text())
    frames = {int(os.path.basename(p)[6:-4]): Path(p).read_bytes()
              for p in gates.frame_paths(str(out))}
    area = made["ref"]["area"]
    assert gates.frames_gate(rows, frames, area, steps) == []
    assert gates.frames_gate(rows, frames, area * (1.0 + 1e-6), steps)

    vals, _ = gates.parse_pgm(frames[1])
    i, j = np.argwhere(vals == inputs.PGM_MAXVAL)[0]
    header = frames[1][: len(frames[1]) - vals.nbytes]
    corrupt = vals.copy()
    corrupt[i, j] = inputs.PGM_MAXVAL // 2
    bad = dict(frames)
    bad[1] = header + corrupt[::-1, :].astype(">u2").tobytes()
    assert gates.frames_gate(rows, bad, area, steps)
    del bad[2]
    assert gates.frames_gate(rows, bad, area, steps)


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer("t")

    def leaf(x):
        return sum(range(x))

    def middle():
        return wrapped_leaf(2000) + wrapped_leaf(3000)

    wrapped_leaf = tracer.span("leaf", leaf, count=lambda args, result: args[0])
    tracer.run(tracer.span("middle", middle))
    root = tracer.spans[0]
    assert root[0] == ROOT_SPAN
    summary = summarize(tracer.spans)
    assert summary["counts"]["leaf"] == 5000
    assert len(summary["calls_ms"]["leaf"]) == 2
    assert gates.self_time_gap(summary["self_s"], root[2] - root[1]) <= 1e-12


def test_tracer_restores_what_it_patched():
    import kfsteiner.metrics as metrics

    original = metrics.measure
    tracer = Tracer("t")
    tracer.patch(metrics, "measure", "metrics.measure")
    assert metrics.measure is not original
    tracer.restore()
    assert metrics.measure is original


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (unit, _, _) in run.PER_LAYER.items()
    ]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
