import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kfsteiner
from kfsteiner import cli, process
from kfsteiner.cli import (
    DISC_BYTES_PER_POINT,
    MEMORY_BUDGET,
    PARTITION_BYTES_PER_INTERVAL,
    PLANE_BYTES_PER_CELL,
    SEQ_BYTES_PER_POINT,
    build_parser,
    main,
)
from kfsteiner.polygons import Ball, load_polygon
from kfsteiner.rasters import GridSpec, RasterSet, rasterize, read_pgm, write_pgm
from kfsteiner.sequences import GAMMA
from test_refusals import far_hexagon


def run_cli(args, capsys=None):
    code = main(args)
    return code


def test_seq_kf_golden(tmp_path):
    out = tmp_path / "seq.csv"
    assert main(["seq", "--kind", "kf", "--n", "12", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,x,theta"
    assert len(lines) == 13
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(GAMMA, abs=1e-14)
    assert float(first[2]) == pytest.approx(math.pi * GAMMA, abs=1e-14)
    twelfth = lines[12].split(",")
    assert float(twelfth[1]) == pytest.approx(GAMMA**5 + GAMMA**3 + GAMMA, abs=1e-12)


def test_seq_vdc(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["seq", "--kind", "vdc", "--n", "4", "--out", str(out)]) == 0
    xs = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert xs == [0.5, 0.25, 0.75, 0.125]


def test_seq_rejects_zero_n(capsys):
    assert main(["seq", "--kind", "kf", "--n", "0"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["kronecker:nan", "kronecker:inf", "file"])
def test_seq_rejects_non_finite_values(kind, tmp_path, capsys):
    if kind == "file":
        sched = tmp_path / "sched.txt"
        sched.write_text("0.5\nnan\n0.25\n")
        kind = f"file:{sched}"
    out = tmp_path / "seq.csv"
    assert main(["seq", "--kind", kind, "--n", "3", "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_seq_overflowing_kronecker_alpha_fails(tmp_path, capsys):
    out = tmp_path / "seq.csv"
    assert main(["seq", "--kind", "kronecker:1e308", "--n", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "kronecker alpha 1e+308" in err
    assert "nan" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind, message", [
    ("vdc:1", "base must be >= 2"),
    ("constant:2", "constant schedule value must lie in [0, 1]"),
    ("geomdecay:0.5:1.5", "geomdecay needs start in [0, 1] and ratio in (0, 1)"),
])
def test_seq_parameter_out_of_range_fails_before_output(kind, message, tmp_path, capsys):
    out = tmp_path / "seq.csv"
    assert main(["seq", "--kind", kind, "--n", "3", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sequence_flags_of_their_own_kind_apply(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["seq", "--kind", "vdc:3", "--n", "3", "--out", str(out)]) == 0
    xs = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert xs == pytest.approx([1 / 3, 2 / 3, 1 / 9], abs=1e-15)
    assert main(["seq", "--kind", "kronecker:0.25", "--n", "3", "--out", str(out)]) == 0
    xs = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert xs == pytest.approx([0.25, 0.5, 0.75], abs=1e-15)


@pytest.mark.parametrize("argv, flag", [
    (["process", "--seed", "builtin:square", "--kind", "kf", "--steps", "0"], "--steps"),
    (["process", "--seed", "builtin:lshape", "--kind", "kf", "--steps", "-2"], "--steps"),
    (["process", "--seed", "builtin:square", "--kind", "kf", "--steps", "2",
      "--cadence", "0"], "--cadence"),
    (["compare", "--seed", "builtin:square", "--kinds", "kf,vdc2", "--steps", "0"],
     "--steps"),
    (["compare", "--seed", "builtin:square", "--kinds", "kf,vdc2", "--steps", "2",
      "--cadence", "-1"], "--cadence"),
], ids=["process-steps-0", "process-steps-negative", "process-cadence",
        "compare-steps", "compare-cadence"])
def test_nonpositive_steps_or_cadence_is_a_usage_error(argv, flag, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and flag in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["process", "--seed", "builtin:square", "--kind", "kf"],
    ["compare", "--seed", "builtin:square", "--kinds", "kf,vdc2"],
], ids=["process", "compare"])
def test_out_naming_a_file_is_a_usage_error_before_any_run(argv, tmp_path, capsys,
                                                           monkeypatch):
    runs = []
    monkeypatch.setattr(process, "_walk", lambda seed, xs: runs.append(xs))
    out = tmp_path / "out"
    out.write_text("keep")
    assert main(argv + ["--steps", "2", "--out", str(out)]) == 2
    assert f"usage error: --out {out} is not a directory" in capsys.readouterr().err
    assert runs == [] and out.read_text() == "keep"


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # only `compare --jobs N` with N > 1 needs concurrent.futures.process
    src = os.path.dirname(os.path.dirname(kfsteiner.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, kfsteiner.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_partition_gamma_table(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["partition", "--alpha", "gamma", "--level", "5",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,t,l,s"
    assert lines[-1] == "5,13,8,5"


def test_partition_dyadic_table(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["partition", "--alpha", "0.5", "--level", "3",
                 "--out", str(out)]) == 0
    assert out.read_text().strip().splitlines()[-1] == "3,8,8,0"


def test_partition_breakpoint_dump(tmp_path):
    out = tmp_path / "p.csv"
    dump = tmp_path / "bp.txt"
    assert main(["partition", "--alpha", "gamma", "--level", "3",
                 "--out", str(out), "--dump-breakpoints", str(dump)]) == 0
    vals = [float(v) for v in dump.read_text().split()]
    assert len(vals) == 6  # t_3 + 1 breakpoints
    assert vals[0] == 0.0 and vals[-1] == 1.0


def test_partition_rejects_bad_alpha(capsys):
    assert main(["partition", "--alpha", "1.2", "--level", "3"]) == 2


def test_disc_table(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["disc", "--kind", "kf", "--ns", "100,1000", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,d_star,d_extreme,normalized"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["100", "1000"]
    assert all(r[2] == "" for r in rows)  # extreme skipped without the flag
    assert float(rows[0][3]) <= 3.0


def test_disc_extreme_flag(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["disc", "--kind", "kronecker:0.5", "--ns", "100", "--extreme",
                 "--out", str(out)]) == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert float(row[1]) >= 0.49
    assert float(row[2]) >= float(row[1]) - 1e-12


def test_disc_requires_ns(capsys):
    with pytest.raises(SystemExit) as err:
        main(["disc", "--kind", "kf"])
    assert err.value.code == 2


def test_disc_kf_two_million_points(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["disc", "--kind", "kf", "--ns", "2000000", "--out", str(out)]) == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert row[0] == "2000000"
    assert 0.0 < float(row[3]) <= 3.0


@pytest.mark.parametrize("ns", ["1", "0", "100,1", "1,1000"])
def test_disc_sizes_below_two_are_a_usage_error(ns, tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["disc", "--kind", "kf", "--ns", ns, "--out", str(out)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, per_point", [
    ("seq", "--n", SEQ_BYTES_PER_POINT),
    ("disc", "--ns", DISC_BYTES_PER_POINT),
], ids=["seq", "disc"])
def test_sizes_over_the_memory_budget_are_a_usage_error(command, flag, per_point,
                                                         tmp_path, capsys):
    # the smallest size over the budget; it is refused before anything
    # is allocated, so it costs nothing
    points = MEMORY_BUDGET // per_point + 1
    out = tmp_path / "out.csv"
    size = str(points) if command == "seq" else f"1000,{points}"
    assert main([command, "--kind", "vdc", flag, size, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"usage error: {flag} {points} needs about" in err
    assert f"({per_point} B a point)" in err and "memory budget" in err
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_seq_of_a_million_points_stays_small():
    # rows are written as they are formatted: a million points held as
    # text lines peaked at 218 MB. VmHWM is the peak of the child's own
    # memory; its ru_maxrss would include this process's, which it
    # inherits at exec.
    code = ("import os; from kfsteiner.cli import main; "
            "main(['seq', '--kind', 'kf', '--n', '1000000', '--out', os.devnull]); "
            "print(open('/proc/self/status').read())")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kfsteiner.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    peak_kb = int(next(line for line in out.splitlines() if line.startswith("VmHWM:")).split()[1])
    assert peak_kb < 100 * 1024, f"seq --n 1000000 peaked at {peak_kb / 1024:.0f} MB"


#: The smallest --resolution whose raster plane is over the memory budget.
OVER_BUDGET_RESOLUTION = math.isqrt(MEMORY_BUDGET // PLANE_BYTES_PER_CELL) + 1


@pytest.mark.parametrize("argv, flag, message", [
    (["process", "--seed", "builtin:lshape", "--resolution", str(OVER_BUDGET_RESOLUTION)],
     "--resolution", f"({PLANE_BYTES_PER_CELL} B a cell)"),
    (["compare", "--seed", "builtin:two-component", "--kinds", "kf,vdc,random",
      "--resolution", str(OVER_BUDGET_RESOLUTION)],
     "--resolution", f"({PLANE_BYTES_PER_CELL} B a cell)"),
    # each of three concurrent runs holds its own planes
    (["compare", "--seed", "builtin:lshape", "--kinds", "kf,vdc,random", "--jobs", "4",
      "--resolution", str(OVER_BUDGET_RESOLUTION * 3 // 5)],
     "--resolution", "cell in each of 3 concurrent runs"),
], ids=["process-resolution", "compare", "compare-jobs"])
def test_raster_grids_over_the_memory_budget_are_a_usage_error(argv, flag, message,
                                                               tmp_path, capsys):
    # refused before the seed is built, so the test allocates nothing
    kind = ["--kind", "kf"] if argv[0] == "process" else []
    assert main(argv + kind + ["--steps", "2", "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"usage error: {flag} " in err and message in err and "memory budget" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, flag, unit", [
    (["process", "--kind", "kf", "--steps", "2", "--seed"], "--seed",
     f"({PLANE_BYTES_PER_CELL} B a cell)"),
    (["compare", "--kinds", "kf,vdc", "--jobs", "2", "--steps", "2", "--seed"], "--seed",
     f"({PLANE_BYTES_PER_CELL} B a cell in each of 2 concurrent runs)"),
    (["symmetrize", "--theta", "1.0", "--in"], "--in", f"({PLANE_BYTES_PER_CELL} B a cell)"),
], ids=["process", "compare", "symmetrize"])
def test_pgm_over_the_memory_budget_is_refused_from_its_header(argv, flag, unit,
                                                               tmp_path, capsys):
    # a header with no samples: it is refused before the body is read
    big = tmp_path / "big.pgm"
    big.write_bytes(b"P5\n# a header alone\n100000 100000\n255\n")
    out = ["--out", str(tmp_path / ("out.pgm" if argv[0] == "symmetrize" else "run"))]
    assert main(argv + [str(big)] + out) == 2
    err = capsys.readouterr().err
    assert f"usage error: {flag} {big} (100000x100000 cells) needs about" in err
    assert unit in err
    assert f"over the {MEMORY_BUDGET / 2**30:g} GiB memory budget" in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "out.pgm").exists()


def test_polygon_seed_runs_at_any_resolution(tmp_path):
    # a polygon seed builds no grid from --resolution; its frames draw at
    # most 256x256 cells
    outdir = tmp_path / "run"
    assert main(["process", "--seed", "builtin:square", "--kind", "kf", "--steps", "2",
                 "--resolution", str(100 * OVER_BUDGET_RESOLUTION), "--frames",
                 "--out", str(outdir)]) == 0
    assert read_pgm(outdir / "frame_2.pgm").grid.nx == 256


def test_partition_cap_names_the_level(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert main(["partition", "--alpha", "0.5", "--level", "10",
                 "--max-intervals", "500", "--out", str(out)]) == 1
    assert "level 9 exceeds the cap of 500 intervals" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("level", ["0", "40"])
def test_partition_cap_over_the_memory_budget_is_a_usage_error(level, tmp_path, capsys):
    # the smallest cap over the budget; it is refused before level 0 is
    # built, so it costs nothing
    cap = MEMORY_BUDGET // PARTITION_BYTES_PER_INTERVAL + 1
    out, dump = tmp_path / "p.csv", tmp_path / "bp.txt"
    assert main(["partition", "--alpha", "gamma", "--level", level,
                 "--max-intervals", str(cap), "--out", str(out),
                 "--dump-breakpoints", str(dump)]) == 2
    err = capsys.readouterr().err
    assert f"usage error: --max-intervals {cap} needs about" in err
    assert f"({PARTITION_BYTES_PER_INTERVAL} B an interval)" in err
    assert "memory budget" in err
    assert not out.exists() and not dump.exists()


def test_partition_cap_at_the_memory_budget_runs(tmp_path):
    cap = MEMORY_BUDGET // PARTITION_BYTES_PER_INTERVAL
    out = tmp_path / "p.csv"
    assert main(["partition", "--alpha", "gamma", "--level", "3",
                 "--max-intervals", str(cap), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == "3,5,3,2"


def test_partition_dump_is_the_kakutani_level(tmp_path):
    from kfsteiner.partitions import kakutani_level

    for alpha, text in ((GAMMA, "gamma"), (0.3, "0.3")):
        out, dump = tmp_path / "p.csv", tmp_path / "bp.txt"
        assert main(["partition", "--alpha", text, "--level", "12",
                     "--out", str(out), "--dump-breakpoints", str(dump)]) == 0
        vals = np.array([float(v) for v in dump.read_text().split()])
        # the dump is written at 15 significant digits
        assert np.abs(vals - kakutani_level(alpha, 12).breakpoints).max() <= 1e-15


def test_symmetrize_polygon(tmp_path):
    src = tmp_path / "sq.txt"
    src.write_text("0 0\n1 0\n1 1\n0 1\n")
    dst = tmp_path / "out.txt"
    assert main(["symmetrize", "--in", str(src), "--x", "0.5",
                 "--out", str(dst)]) == 0
    poly = load_polygon(dst)
    ys = sorted(poly.vertices[:, 1])
    assert ys[0] == pytest.approx(-0.5, abs=1e-12)
    assert ys[-1] == pytest.approx(0.5, abs=1e-12)


def test_symmetrize_raster_ball_fixed(tmp_path):
    grid = GridSpec.cover(1.0, n=128)
    ball = rasterize(Ball(0.8), grid)
    src = tmp_path / "ball.pgm"
    write_pgm(src, ball)
    dst = tmp_path / "out.pgm"
    assert main(["symmetrize", "--in", str(src), "--theta", "0.9",
                 "--out", str(dst)]) == 0
    back = read_pgm(dst)
    gap = np.abs(back.occ - ball.occ).sum() * grid.h**2
    assert gap < 8 * grid.h * 2 * math.pi * 0.8


def test_symmetrize_rejects_both_angles(tmp_path, capsys):
    src = tmp_path / "sq.txt"
    src.write_text("0 0\n1 0\n1 1\n0 1\n")
    with pytest.raises(SystemExit) as err:
        main(["symmetrize", "--in", str(src), "--x", "0.5", "--theta", "1.0",
              "--out", str(tmp_path / "o.txt")])
    assert err.value.code == 2


def test_symmetrize_ascii_on_a_polygon_is_a_usage_error(tmp_path, capsys):
    # --ascii picks the PGM encoding; a polygon result has none to pick
    src = tmp_path / "sq.txt"
    src.write_text("0 0\n1 0\n1 1\n0 1\n")
    out = tmp_path / "o.txt"
    assert main(["symmetrize", "--in", str(src), "--x", "0.5", "--ascii",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"usage error: --ascii needs a PGM raster; {src} is a polygon\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", ["builtin:lshape", "header.pgm"])
def test_process_hausdorff_on_a_raster_seed_is_a_usage_error(seed, tmp_path, capsys):
    # a raster run has no Hausdorff distance to fill the column with; the
    # seed is told apart from its name or its PGM header, so a file with no
    # samples is refused by the flag, before it is read
    if seed.endswith(".pgm"):
        seed = tmp_path / seed
        seed.write_bytes(b"P5\n4 4\n255\n")
    out = tmp_path / "run"
    assert main(["process", "--seed", str(seed), "--kind", "kf", "--steps", "2",
                 "--resolution", "64", "--hausdorff", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"usage error: --hausdorff needs a polygon seed; {seed} is a raster\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5\n4 4\n255\n" + bytes(10), "expected 16 samples, got 10"),
        (b"P5\n2 2\n65535\n" + bytes(7), "expected 4 samples, got 3"),
        (b"P2\n2 2\n0\n0 0\n0 0\n", "maxval 0 outside 1..65535"),
        (b"P5\n2 2\n70000\n" + bytes(8), "maxval 70000 outside 1..65535"),
        (b"P5\n4", "header ends before width, height and maxval"),
        (b"P5\nx 2\n255\n" + bytes(4), "header token b'x' is not an integer"),
        (b"P5\n" + b"1" * 5000 + b" 2\n255\n", "header token of 5000 digits is too long"),
        (b"P5\n0 2\n255\n", "image size 0x2 has no cells"),
        (b"P2\n2 2\n10\n0 5 11 10", "sample 11 outside 0..10"),
        (b"P5\n2 2\n10\n" + bytes([0, 5, 11, 10]), "sample 11 outside 0..10"),
        (b"P2\n2 2\n10\n0 -5 1 10", "sample -5 outside 0..10"),
        (b"P2\n2 2\n10\n0 x 1 2",
         "P2 sample is not an integer (invalid literal for int() with base 10: b'x')"),
        (b"P5\n# cellsize=inf ox=0 oy=0\n2 2\n255\n" + bytes(4),
         "cell size and center must be finite"),
        (b"P5\n# cellsize=0.1 ox=nan oy=0\n2 2\n255\n" + bytes(4),
         "cell size and center must be finite"),
    ],
    ids=["truncated-8bit", "truncated-16bit", "maxval-0", "maxval-too-big",
         "header-ends-early", "width-not-a-number", "width-too-long", "width-zero",
         "p2-sample-above-maxval", "p5-sample-above-maxval", "p2-negative-sample",
         "p2-sample-not-an-integer",
         "cellsize-inf", "origin-nan"],
)
def test_symmetrize_malformed_pgm_names_the_file(data, message, tmp_path, capsys):
    src = tmp_path / "bad.pgm"
    src.write_bytes(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["symmetrize", "--in", str(src), "--theta", "1.1",
                     "--out", str(tmp_path / "out.pgm")])
    assert code == 1
    assert f"error: {src}: {message}" in capsys.readouterr().err
    assert caught == []
    assert not (tmp_path / "out.pgm").exists()


def test_symmetrize_unparseable_input(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00\x01\x02junk")
    code = main(["symmetrize", "--in", str(bad), "--x", "0.5",
                 "--out", str(tmp_path / "o.txt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_process_writes_trace(tmp_path):
    outdir = tmp_path / "run"
    assert main(["process", "--seed", "builtin:square", "--kind", "kf",
                 "--steps", "10", "--cadence", "5", "--out", str(outdir)]) == 0
    lines = (outdir / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "step,x,theta,area,mu,d1_to_ball,hausdorff,perimeter"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "5", "10"]


def test_process_frames(tmp_path):
    outdir = tmp_path / "run"
    assert main(["process", "--seed", "builtin:annulus", "--kind", "kf",
                 "--steps", "4", "--cadence", "2", "--resolution", "96",
                 "--frames", "--out", str(outdir)]) == 0
    names = sorted(os.listdir(outdir))
    assert "frame_0.pgm" in names and "frame_4.pgm" in names
    read_pgm(outdir / "frame_4.pgm")


def test_process_frames_of_a_polygon_keep_its_area(tmp_path):
    outdir = tmp_path / "run"
    assert main(["process", "--seed", "builtin:square", "--kind", "kf",
                 "--steps", "6", "--cadence", "2", "--resolution", "128",
                 "--frames", "--out", str(outdir)]) == 0
    steps = [0, 2, 4, 6]
    assert sorted(n for n in os.listdir(outdir) if n.endswith(".pgm")) == [
        f"frame_{s}.pgm" for s in steps
    ]
    for step in steps:
        rs = read_pgm(outdir / f"frame_{step}.pgm")
        assert rs.grid.nx == 128
        # full cells are stored exactly; a partial cell is rounded to the
        # nearest of 65535 levels
        partial = np.count_nonzero((rs.occ > 0.0) & (rs.occ < 1.0))
        bound = 0.5 * partial / 65535 * rs.h**2 + 1e-12
        assert abs(rs.area() - 1.0) <= bound, f"frame {step}"


@pytest.mark.parametrize("seed", ["builtin:ellipse", "builtin:offset-square"])
def test_polygon_trace_does_not_depend_on_drawing(seed, tmp_path):
    # frames, Hausdorff distances and perimeters draw each symmetral's
    # vertices; the area, mu and d1_to_ball columns read its profile alone
    columns = []
    for extra in ([], ["--frames", "--hausdorff", "--perimeter"]):
        outdir = tmp_path / f"run{len(extra)}"
        assert main(["process", "--seed", seed, "--kind", "kf", "--steps", "12",
                     "--resolution", "64", "--out", str(outdir), *extra]) == 0
        rows = (outdir / "trace.csv").read_text().splitlines()
        assert rows[0].split(",")[3:6] == ["area", "mu", "d1_to_ball"]
        columns.append([row.split(",")[3:6] for row in rows])
    assert columns[0] == columns[1]


@pytest.mark.parametrize("centre, change", [(1e6, 1e-9), (1e8, 1e-7), (1e10, 1e-5)])
def test_far_off_hexagon_keeps_its_area(centre, change, tmp_path):
    # a symmetral's area is the trapezoid sum of its profile, whose
    # breakpoints differ by the polygon's width: its rounding is that of
    # the coordinates, ulp(centre) against the width, not their squares
    seed, outdir = tmp_path / "hexagon.txt", tmp_path / "run"
    seed.write_text("".join(
        f"{centre + 0.5 * math.cos(a)!r} {0.5 * math.sin(a)!r}\n"
        for a in 2.0 * math.pi * np.arange(6) / 6))
    assert main(["process", "--seed", str(seed), "--kind", "kf", "--steps", "6",
                 "--out", str(outdir)]) == 0
    rows = (outdir / "trace.csv").read_text().splitlines()[1:]
    areas = [float(row.split(",")[3]) for row in rows]
    assert max(abs(a - areas[0]) for a in areas) <= change * areas[0]


@pytest.mark.parametrize("argv", [
    ["process", "--seed", "builtin:square", "--kind", "kf", "--steps", "2",
     "--resolution", "0"],
    ["process", "--seed", "builtin:lshape", "--kind", "kf", "--steps", "2",
     "--resolution", "-4"],
    ["compare", "--seed", "builtin:square", "--kinds", "kf,vdc2", "--steps", "2",
     "--resolution", "0"],
    ["compare", "--seed", "builtin:square", "--kinds", "kf,vdc2", "--steps", "2",
     "--jobs", "0"],
])
def test_nonpositive_resolution_or_jobs_is_a_usage_error(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_process_unknown_builtin(tmp_path, capsys):
    code = main(["process", "--seed", "builtin:blob", "--kind", "kf",
                 "--steps", "3", "--out", str(tmp_path)])
    assert code == 1
    msg = capsys.readouterr().err
    assert "square" in msg and "annulus" in msg  # lists the builtins


def test_process_reads_a_pgm_seed_without_the_suffix(tmp_path):
    # raster or polygon is decided by the P2/P5 magic, not by the name
    grid = GridSpec.cover(1.0, n=64)
    seed = tmp_path / "blob.img"
    write_pgm(seed, rasterize(Ball(0.6), grid))
    outdir = tmp_path / "run"
    assert main(["process", "--seed", str(seed), "--kind", "kf",
                 "--steps", "3", "--out", str(outdir)]) == 0
    lines = (outdir / "trace.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]


def test_process_pgm_sample_above_maxval_names_the_file(tmp_path, capsys):
    seed = tmp_path / "over.pgm"
    seed.write_bytes(b"P2\n2 2\n10\n0 5 11 10")
    code = main(["process", "--seed", str(seed), "--kind", "kf",
                 "--steps", "3", "--out", str(tmp_path / "run")])
    assert code == 1
    assert f"error: {seed}: sample 11 outside 0..10" in capsys.readouterr().err


def test_process_binary_non_pgm_seed_names_the_file(tmp_path, capsys):
    seed = tmp_path / "blob.img"
    seed.write_bytes(b"\xfa\x00\x01\x02junk")
    code = main(["process", "--seed", str(seed), "--kind", "kf",
                 "--steps", "3", "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {seed}: neither a P2/P5 PGM raster nor a polygon text file" in err


@pytest.mark.parametrize("argv, message", [
    (["process", "--seed", "builtin:square", "--kind", "bogus"],
     "unknown sequence id 'bogus'"),
    (["compare", "--seed", "builtin:lshape", "--kinds", "kf,bogus", "--resolution", "64"],
     "unknown sequence id 'bogus'"),
    (["process", "--seed", "builtin:square", "--kind", "vdc:1"],
     "sequence id 'vdc:1': base must be >= 2"),
    (["compare", "--seed", "builtin:square", "--kinds", "kf,random:-1"],
     "sequence id 'random:-1': seed must be >= 0"),
    (["process", "--seed", "builtin:square", "--kind", "file:{missing}"], "{missing}"),
    (["compare", "--seed", "builtin:square", "--kinds", "file:{missing},kf"], "{missing}"),
    (["process", "--seed", "builtin:square", "--kind", "file:{schedule}"],
     "{schedule}:3: could not convert string to float: 'abc'"),
    (["process", "--seed", "builtin:lshape", "--kind", "kronecker:1e308",
      "--resolution", "64", "--frames"], "kronecker alpha 1e+308"),
    (["process", "--seed", "{polygon}", "--kind", "kf", "--frames"],
     "{polygon}:3: expected 'x y' per line, got 'not a vertex\\n'"),
    (["compare", "--seed", "{polygon}", "--kinds", "kf,vdc"],
     "{polygon}:3: expected 'x y' per line, got 'not a vertex\\n'"),
], ids=["process", "compare", "process-vdc-base", "compare-random-seed",
        "process-missing-schedule", "compare-missing-schedule", "process-bad-schedule",
        "process-kronecker-overflow", "process-malformed-polygon",
        "compare-malformed-polygon"])
def test_unknown_sequence_id_fails_before_any_run_or_output(argv, message, tmp_path,
                                                            capsys, monkeypatch):
    # a bad id, schedule file, alpha or seed file stops the command before
    # its first step and before --out is made
    runs = []
    walk = process._walk

    def record(seed, xs):
        runs.append(len(xs))
        return walk(seed, xs)

    monkeypatch.setattr(process, "_walk", record)
    polygon = tmp_path / "seed.txt"
    polygon.write_text("0 0\n1 0\nnot a vertex\n")
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("0.5\n# a comment\nabc\n")
    files = {"missing": tmp_path / "missing.txt", "polygon": polygon, "schedule": schedule}
    argv = [arg.format(**files) for arg in argv]
    outdir = tmp_path / "run"
    assert main(argv + ["--steps", "8", "--out", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(**files) in err
    assert runs == []
    assert not outdir.exists()


def run_recording_warnings(argv):
    """(exit code, stderr, RuntimeWarnings) of main(argv), every warning
    recorded rather than raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [w for w in caught if issubclass(w.category, RuntimeWarning)]


def square_file(path, side):
    half = 0.5 * side
    corners = ((-half, -half), (half, -half), (half, half), (-half, half))
    path.write_text("".join(f"{x!r} {y!r}\n" for x, y in corners))


def block_pgm(path, h, side=8):
    """A 32x32 PGM at cell size h: a side x side block of ones in the middle."""
    occ = np.pad(np.ones((side, side)), 16 - side // 2)
    write_pgm(path, RasterSet(occ, GridSpec(nx=32, ny=32, h=h)))


#: Seed files without a finite, nonzero measure that fits their grid: the
#: file's name, its writer and the refusal that follows its path.
BAD_SEEDS = {
    "square-1e80": ("s.txt", lambda p: square_file(p, 1e80),
                    ":1: coordinates must be finite and at most 1e+60 in magnitude"),
    "square-1e308": ("s.txt", lambda p: square_file(p, 1e308),
                     ":1: coordinates must be finite and at most 1e+60 in magnitude"),
    "square-1e-7": ("s.txt", lambda p: square_file(p, 1e-7),
                    ": degenerate polygon with area 9.999999999999998e-15, below 1e-12"),
    "triangle-1e-200": ("s.txt", lambda p: p.write_text("1e-200 1e-200\n3e-200 1e-200\n"
                                                        "2e-200 3e-200\n"),
                        ": degenerate polygon with area 0.0, below 1e-12"),
    "pgm-cellsize-1e300": ("s.pgm", lambda p: block_pgm(p, 1e300),
                           ": cell size 1e+300 outside 1e-60..1e+60"),
    "pgm-cellsize-1e-300": ("s.pgm", lambda p: block_pgm(p, 1e-300),
                            ": cell size 1e-300 outside 1e-60..1e+60"),
    "pgm-ball-off-grid": ("s.pgm", lambda p: block_pgm(p, 0.1, side=32),
                          ": the ball of the seed's area, radius 1.80541, exceeds the "
                          "grid's half extents (1.6, 1.6)"),
}


@pytest.mark.parametrize("command", ["process", "compare"])
@pytest.mark.parametrize("name", list(BAD_SEEDS))
def test_seed_without_a_finite_measure_is_refused_naming_the_file(name, command, tmp_path):
    filename, write, message = BAD_SEEDS[name]
    seed, outdir = tmp_path / filename, tmp_path / "run"
    write(seed)
    argv = {"process": ["process", "--kind", "kf", "--frames"],
            "compare": ["compare", "--kinds", "kf,vdc"]}[command]
    code, err, runtime = run_recording_warnings(
        argv + ["--seed", str(seed), "--steps", "3", "--out", str(outdir)])
    assert code == 1
    assert err.startswith(f"error: {seed}{message}") and err.count("\n") == 1
    assert err.count(str(seed)) == 1
    assert not outdir.exists()
    assert runtime == []


@pytest.mark.parametrize("name, argv", [
    ("s.pgm", ["--steps", "5"]),
    ("set", ["--steps", "3"]),
], ids=["pgm-block-leaves-its-grid", "far-hexagon-frame-drawn"])
def test_run_failing_mid_run_leaves_no_frames(name, argv, tmp_path):
    # a 24x24 block at h = 0.1 fits its grid at load, and its first
    # staircase leaves the grid's inscribed disk; the far hexagon's frame
    # at step 2 is refused by the constructor. Frames 0 and 1 were written
    seed, outdir = tmp_path / name, tmp_path / "run"
    if name.endswith(".pgm"):
        block_pgm(seed, 0.1, side=24)
    else:
        far_hexagon(tmp_path)
    code, err, _ = run_recording_warnings(
        ["process", "--seed", str(seed), "--kind", "kf", "--frames", *argv,
         "--out", str(outdir)])
    assert code == 1
    assert err.startswith(f"error: {seed}: ") and err.count("\n") == 1
    assert not outdir.exists()


def test_far_hexagon_runs_with_hausdorff_and_perimeter(tmp_path):
    # every column of a symmetral's trace reads its profile, which holds
    # the hexagon's digits at 1e10 from the origin; its drawn vertices do not
    seed, outdir = far_hexagon(tmp_path), tmp_path / "run"
    assert main(["process", "--seed", seed, "--kind", "kf", "--steps", "3",
                 "--hausdorff", "--perimeter", "--out", str(outdir)]) == 0
    rows = (outdir / "trace.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    for row in rows:
        values = row.split(",")[3:]
        assert len(values) == 5 and all(math.isfinite(float(v)) for v in values), row


@pytest.mark.parametrize("filename, write", [
    ("s.txt", lambda p: square_file(p, 1e40)),
    ("s.txt", lambda p: square_file(p, 1e-5)),
    ("s.pgm", lambda p: block_pgm(p, 1e-6)),
    ("s.pgm", lambda p: block_pgm(p, 1e6)),
], ids=["square-1e40", "square-1e-5", "pgm-cellsize-1e-6", "pgm-cellsize-1e6"])
def test_seed_near_the_bounds_runs_cleanly(filename, write, tmp_path):
    seed, outdir = tmp_path / filename, tmp_path / "run"
    write(seed)
    polygon = ["--hausdorff"] if filename.endswith(".txt") else []
    code, err, runtime = run_recording_warnings(
        ["process", "--seed", str(seed), "--kind", "kf", "--steps", "3", "--frames",
         "--perimeter", *polygon, "--out", str(outdir)])
    assert (code, err, runtime) == (0, "", [])
    lines = (outdir / "trace.csv").read_text().splitlines()
    assert len(lines) == 5
    assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(",") if v)


#: The scales of the property test's polygons: below DEGENERATE_AREA at
#: 1e-7 and below, past MAX_COORDINATE at 1e80 and above.
POLYGON_SCALES = (1e-200, 1e-7, 1.0, 1e40, 1e80, 1e308)
MALFORMED_LINES = ("vertex", "nan 0", "0 inf", "0.5", "1 2 3")


@st.composite
def polygon_files(draw):
    """Text of a polygon seed file of at most 8 lines: the vertices of a
    convex n-gon at one of POLYGON_SCALES, as they are, shifted, reversed,
    with one vertex repeated or with one malformed line added."""
    n = draw(st.sampled_from(range(9)))
    scale = draw(st.sampled_from(POLYGON_SCALES))
    phase = draw(st.floats(0.0, 1.0))
    edit = draw(st.sampled_from(("none", "shift", "reverse", "repeat", "malformed")))
    sx, sy = draw(st.sampled_from(((0.3, -0.2), (4.0, 3.0)))) if edit == "shift" else (0, 0)
    # Python floats: a shift at 1e308 overflows to inf, which the file spells
    angles = [2.0 * math.pi * (k + phase) / max(n, 3) for k in range(n)]
    pts = [(scale * (math.cos(a) + sx), scale * (0.5 * math.sin(a) + sy)) for a in angles]
    if edit == "reverse":
        pts.reverse()
    elif edit == "repeat" and pts:
        k = draw(st.integers(0, len(pts) - 1))
        pts.insert(k, pts[k])
    lines = [f"{x!r} {y!r}" for x, y in pts]
    if edit == "malformed":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(MALFORMED_LINES)))
    return "".join(line + "\n" for line in lines[:8])


def finite_numbers(path):
    """Whether every number in a CSV table or polygon file is finite."""
    text = path.read_text()
    if path.suffix == ".csv":
        text = text.split("\n", 1)[1]
    values = [v for line in text.splitlines() if not line.startswith("#")
              for v in line.replace(",", " ").split()]
    return bool(values) and all(math.isfinite(float(v)) for v in values)


@settings(max_examples=200, deadline=None)
@given(polygon_files())
def test_polygon_seed_file_runs_cleanly_or_fails_naming_the_file(text):
    # every polygon file either runs to finite numbers or stops at once with
    # one line naming it, and no run warns or leaves output behind
    with tempfile.TemporaryDirectory() as tmp:
        seed, out = Path(tmp) / "seed.txt", Path(tmp) / "out"
        seed.write_text(text)
        runs = [
            (["process", "--seed", str(seed), "--kind", "kf", "--steps", "2", "--frames",
              "--perimeter", "--hausdorff", "--out", str(out)], out / "trace.csv"),
            (["symmetrize", "--in", str(seed), "--theta", "0.3", "--out", str(out)], out),
        ]
        for argv, table in runs:
            code, err, runtime = run_recording_warnings(argv)
            assert runtime == []
            if code == 0:
                assert err == "" and finite_numbers(table)
                if out.is_dir():
                    for path in out.iterdir():
                        path.unlink()
                    out.rmdir()
                else:
                    out.unlink()
            else:
                assert code == 1
                assert err.startswith(f"error: {seed}") and err.count("\n") == 1
                assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["partition", "--alpha", "gamma", "--level", "-1"], "--level"),
    (["disc", "--kind", "kf", "--ns", "x,1"], "--ns"),
    (["disc", "--kind", "kf", "--ns", ","], "--ns"),
    (["compare", "--seed", "builtin:square", "--kinds", "kf", "--steps", "2"], "--kinds"),
], ids=["partition-level", "disc-ns-word", "disc-ns-empty", "compare-one-kind"])
def test_malformed_size_or_list_is_a_usage_error(argv, flag, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and flag in err
    assert not out.exists()


def test_compare_writes_csv(tmp_path):
    outdir = tmp_path / "cmp"
    assert main(["compare", "--seed", "builtin:square", "--kinds", "kf,vdc2",
                 "--steps", "6", "--cadence", "3", "--out", str(outdir)]) == 0
    lines = (outdir / "compare.csv").read_text().strip().splitlines()
    assert lines[0].split(",") == [
        "step", "d1_to_ball:kf", "mu:kf", "d1_to_ball:vdc2", "mu:vdc2"
    ]
    assert len(lines) == 4


def test_identical_argv_byte_identical_outputs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["seq", "--kind", "kf", "--n", "500"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_help_on_every_subcommand(capsys):
    parser = build_parser()
    for cmd in ("seq", "partition", "disc", "symmetrize", "process", "compare"):
        with pytest.raises(SystemExit) as err:
            parser.parse_args([cmd, "--help"])
        assert err.value.code == 0
        assert "--" in capsys.readouterr().out


def test_every_readme_command_line_parses():
    # the README's Command line block runs nothing here: each of its
    # kfsteiner lines, with continuations joined, must parse
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    lines = [line.split() for line in block.splitlines() if line.startswith("kfsteiner ")]
    assert {words[1] for words in lines} == {
        "seq", "partition", "disc", "symmetrize", "process", "compare"}
    parser = build_parser()
    for words in lines:
        assert parser.parse_args(words[1:]).command == words[1]
