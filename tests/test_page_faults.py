"""Page-fault budgets of the heavy loops, each in a fresh interpreter.

A saturated polygon step frees a few MB of temporaries per call. Unless
the package keeps glibc from trimming its heap, every step faults those
pages in again (about 1 100 a step), at a few microseconds each. A raster
perimeter estimate holds under half a plane and faults in nothing, with
or without that. A one-dimensional run
faults in every page of memory it asks for, so there the budget counts
the arrays it allocates.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import resource  # noqa: F401
except ImportError:
    resource = None

pytestmark = pytest.mark.skipif(
    resource is None or platform.libc_ver()[0] != "glibc",
    reason="counts minor faults of glibc's heap through resource.getrusage",
)

SRC = Path(__file__).resolve().parents[1] / "src"

#: Minor faults allowed per polygon step over steps 30-40 (about 1 100
#: without the freed block, 0 with it).
POLYGON_STEP_FAULTS = 100
#: Minor faults allowed per perimeter estimate of the 512² lshape seed
#: (0, with the freed block or without it).
PERIMETER_FAULTS = 1000
#: Minor faults allowed for golden level 27 and the two-sided discrepancy
#: of the first t_27 - 1 = 514 228 kf points (about 5 100 while each level
#: copied its merged array and the two-sided pass held three arrays of the
#: sample, about 2 500 without).
ONEDIM_FAULTS = 4000

_PRELUDE = """
import json, resource
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
"""


def _run(code):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run([sys.executable, "-c", _PRELUDE + code], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_polygon_steps_reuse_their_heap():
    counts = _run("""
from kfsteiner.process import ProcessConfig, run_process
seen = {}
cfg = ProcessConfig(sequence="kf", seed="builtin:ellipse", steps=40)
run_process(cfg, callback=lambda k, s: seen.__setitem__(k, faults()))
print(json.dumps([seen[30], seen[40]]))
""")
    per_step = (counts[1] - counts[0]) / 10
    assert per_step <= POLYGON_STEP_FAULTS, f"{per_step} minor faults a step"


def test_perimeter_estimates_reuse_their_heap():
    counts = _run("""
from kfsteiner.metrics import perimeter_estimate
from kfsteiner.process import builtin_seed
seed = builtin_seed("lshape")
perimeter_estimate(seed)
start = faults()
perimeter_estimate(seed)
perimeter_estimate(seed)
print(json.dumps([start, faults()]))
""")
    per_call = (counts[1] - counts[0]) / 2
    assert per_call <= PERIMETER_FAULTS, f"{per_call} minor faults a call"


def test_one_dimensional_run_allocates_little():
    counts = _run("""
from kfsteiner.discrepancy import discrepancy_curve
from kfsteiner.partitions import kakutani_level
from kfsteiner.sequences import GAMMA
start = faults()
kakutani_level(GAMMA, 27)
discrepancy_curve("kf", [514228], include_extreme=True)
print(json.dumps([start, faults()]))
""")
    used = counts[1] - counts[0]
    assert used <= ONEDIM_FAULTS, f"{used} minor faults"
