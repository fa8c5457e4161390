"""Page-fault budgets of the heavy loops, each in a fresh interpreter.

A saturated polygon step and a raster perimeter estimate free a few MB of
temporaries per call. Unless the package keeps glibc from trimming its
heap, every call faults those pages in again (about 1 100 a step and
64 000 an estimate), at a few microseconds each.
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
#: (about 64 000 without the freed block, 0 with it).
PERIMETER_FAULTS = 1000

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
