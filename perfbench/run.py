"""kfsteiner benchmark: one seeded workload, timed in fresh worker processes.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload raster --seed 1 --seconds 20 --trace 0

Workloads: raster, polygon, onedim, frames (see README.md in this
directory). The seed generates the input the program receives. Units of
the workload run one after another, each in a fresh single-threaded
interpreter, until --seconds of wall time have passed (at least
MIN_UNITS units). With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics (medians over the units); with --trace 1 untraced and
traced units alternate and it carries the per-layer metrics instead.
Every unit's outputs pass a correctness gate or count as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import inputs
from spans import ROOT

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
RUN_DIR = os.path.join(CHECKOUT, ".perfbench_run")
WORKER = os.path.join(HERE, "worker.py")

WORKLOAD_NAMES = ("raster", "polygon", "onedim", "frames")
MIN_UNITS = {0: 3, 1: 2}
#: Set-up-only workers started before the units of an untraced run; with
#: the units' own set-ups they give the set-up median.
SETUP_PROBES = 16
#: No new unit starts after this many seconds, whatever --seconds says,
#: so that a run ends well within three minutes.
LAST_START_S = 100.0
UNIT_TIMEOUT_S = 60.0
POLL_S = 0.02

END_TO_END = (
    ("run_s", "s"),
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("final_err_rel", "ratio"),
)

#: Per-layer metric -> (unit, statistic, span name). Every "self" entry is
#: a span's duration minus its traced children, so together they add up to
#: trace.run_s.
PER_LAYER = {
    "rasters.apply_s": ("s", "self", "rasters.apply"),
    "rasters.apply_ms_p50": ("ms", "p50", "rasters.apply"),
    "rasters.apply_ms_p95": ("ms", "p95", "rasters.apply"),
    "rasters.world_raster_s": ("s", "self", "rasters.world_raster"),
    "rasters.rasterize_s": ("s", "self", "rasters.rasterize"),
    "rasters.rasterize_vertices": ("count", "count", "rasters.rasterize"),
    "rasters.write_pgm_s": ("s", "self", "rasters.write_pgm"),
    "rasters.read_pgm_s": ("s", "self", "rasters.read_pgm"),
    "rasters.pgm_bytes": ("bytes", "count", "rasters.write_pgm"),
    "metrics.measure_s": ("s", "self", "metrics.measure"),
    "metrics.measure_ms_p50": ("ms", "p50", "metrics.measure"),
    "metrics.measure_ms_p95": ("ms", "p95", "metrics.measure"),
    "metrics.perimeter_estimate_s": ("s", "self", "metrics.perimeter_estimate"),
    "polygons.steiner_polygon_s": ("s", "self", "polygons.steiner_polygon"),
    "polygons.steiner_polygon_ms_p50": ("ms", "p50", "polygons.steiner_polygon"),
    "polygons.steiner_polygon_ms_p95": ("ms", "p95", "polygons.steiner_polygon"),
    "polygons.disk_intersection_area_s":
        ("s", "self", "polygons.disk_intersection_area"),
    "polygons.moment_about_origin_s": ("s", "self", "polygons.moment_about_origin"),
    "polygons.vertices_mean": ("count", "mean_count", "polygons.steiner_polygon"),
    "sequences.sequence_values_s": ("s", "self", "sequences.sequence_values"),
    "partitions.kakutani_level_s": ("s", "self", "partitions.kakutani_level"),
    "partitions.intervals": ("count", "count", "partitions.kakutani_level"),
    "discrepancy.star_s": ("s", "self", "discrepancy.star"),
    "discrepancy.extreme_s": ("s", "self", "discrepancy.extreme"),
    "discrepancy.curve_self_s": ("s", "self", "discrepancy.discrepancy_curve"),
    "process.load_seed_s": ("s", "self", "process.load_seed"),
    "process.run_process_self_s": ("s", "self", "process.run_process"),
    "process.trace_csv_s": ("s", "self", "process.trace_csv"),
    "cli.main_self_s": ("s", "self", "cli.main"),
    "bench.self_s": ("s", "self", ROOT),
    "trace.run_s": ("s", "run", None),
    "trace.overhead": ("ratio", "overhead", None),
}


def environment():
    """Machine facts recorded with every result."""
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, entry, key), encoding="ascii") as fh:
                    fields[key] = fh.read().strip()
            caches[f"L{fields['level']}-{fields['type']}"] = fields["size"]
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caches": caches,
        "platform": platform.platform(),
    }


def worker_env():
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def wait(proc, timeout):
    """Reap proc with os.wait4; kill it on timeout or on any interruption.

    Returns (exit code, resource usage, timed out).
    """
    start = time.monotonic()
    pid = 0
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - start > timeout:
                break
            time.sleep(POLL_S)
    finally:
        if not pid:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, not pid


def run_unit(spec, workdir):
    """Run one worker; return its result with setup_s and peak_rss_mb added."""
    spec_path = os.path.join(workdir, f"unit-{spec['unit']}.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    log_path = os.path.join(workdir, f"unit-{spec['unit']}.log")
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, WORKER, spec_path], cwd=CHECKOUT,
                                env=worker_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        code, usage, timed_out = wait(proc, UNIT_TIMEOUT_S)
    with open(log_path, "rb") as fh:
        log_text = fh.read().decode("utf-8", "replace")
    if code == 3 or (spec["setup_only"] and code != 0):
        raise SystemExit(f"worker set-up failed:\n{log_text}")
    if timed_out or code != 0:
        why = "timed out" if timed_out else f"exited with {code}"
        return {"errors": [f"worker {why}: {log_text[-2000:]}"]}
    with open(spec["result_path"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result.pop("t_ready") - start
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    return result


def end_to_end(units, probes):
    done = [u for u in units if u.get("final_err") is not None]
    if not done:
        raise SystemExit("no unit completed its run")
    values = {
        "run_s": [u["run_s"] for u in done],
        "work_per_s": [u["work"] / u["run_s"] for u in done],
        "setup_s": probes + [u["setup_s"] for u in units if "setup_s" in u],
        "peak_rss_mb": [u["peak_rss_mb"] for u in done],
        "final_err_rel": [u["final_err"] for u in done],
    }
    return {name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in END_TO_END}


def per_layer(units):
    traced = [u for u in units if "layers" in u and "run_s" in u]
    plain = [u for u in units if "layers" not in u and "run_s" in u]
    if not traced or not plain:
        raise SystemExit("need at least one traced and one untraced unit")
    out = {}
    for name, (unit, stat, span) in PER_LAYER.items():
        if stat == "self":
            value = statistics.fmean(u["layers"]["self_s"].get(span, 0.0) for u in traced)
        elif stat in ("p50", "p95"):
            calls = [ms for u in traced for ms in u["layers"]["calls_ms"].get(span, [])]
            q = 50 if stat == "p50" else 95
            value = float(np.percentile(calls, q)) if calls else 0.0
        elif stat == "count":
            value = statistics.fmean(u["layers"]["counts"].get(span, 0.0) for u in traced)
        elif stat == "mean_count":
            total = sum(u["layers"]["counts"].get(span, 0.0) for u in traced)
            calls = sum(len(u["layers"]["calls_ms"].get(span, [])) for u in traced)
            value = total / calls if calls else 0.0
        elif stat == "run":
            value = statistics.fmean(u["run_s"] for u in traced)
        else:
            value = (statistics.median(u["run_s"] for u in traced)
                     / statistics.median(u["run_s"] for u in plain) - 1.0)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its worker on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "kfsteiner", "__init__.py")):
        print(f"no kfsteiner sources under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{tag}-", dir=RUN_DIR)
    spans_path = os.path.join(RUN_DIR, "results", f"spans-{tag}.jsonl")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    try:
        made = inputs.make_input(args.workload, args.seed, workdir)

        def spec(k, setup_only):
            return {
                "workload": args.workload, "unit": k, "run_id": f"{tag}-u{k}",
                "setup_only": setup_only, "trace": bool(args.trace and k % 2 == 1),
                "input": made["path"], "ref": made["ref"], "src": SRC,
                "workdir": workdir, "spans_path": spans_path,
                "result_path": os.path.join(workdir, f"unit-{k}.result.json"),
            }

        clock = time.monotonic()
        probes = [] if args.trace else [
            run_unit(spec(f"probe{k}", True), workdir)["setup_s"]
            for k in range(SETUP_PROBES)
        ]
        units = []
        while len(units) < MIN_UNITS[args.trace] or (
            time.monotonic() - clock < min(args.seconds, LAST_START_S)
        ):
            units.append(run_unit(spec(len(units), False), workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = next((u["digest"] for u in units if "digest" in u), None)
    for u in units:
        if u.get("digest", first) != first:
            u["errors"].append("frames and trace.csv differ from the first unit's")
    failed = sum(1 for u in units if u.get("errors"))
    metrics = per_layer(units) if args.trace else end_to_end(units, probes)
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "input_sha256": made["sha256"], "environment": environment(),
        "setup_probes_s": probes,
        "units": [{k: v for k, v in u.items() if k != "layers"} for u in units],
    }
    with open(os.path.join(RUN_DIR, "results", f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"context": context, "metrics": metrics}, fh, indent=1)
    for u in units:
        for err in u.get("errors", []):
            print(f"gate failed: {err}", file=sys.stderr)
    print(json.dumps({"context": {k: v for k, v in context.items() if k != "units"}}))
    print(json.dumps({"correct": failed == 0, "attempted": len(units),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
