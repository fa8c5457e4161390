"""Golden-ratio splitting sequences and planar Steiner symmetrization.

The package builds the Kakutani-Fibonacci point sequence through the
golden-ratio radical inverse, measures discrepancy exactly, symmetrizes
planar sets in two backends (exact convex polygons and occupancy-grid
rasters), and instruments long composition runs that shrink any seed of
finite area toward the centered ball of equal area.
"""

import numpy as _np

# A polygon step or a perimeter estimate frees a few MB of temporaries,
# more than glibc's heap trim threshold, so each call would hand its heap
# back to the kernel and fault it in again. mallopt(3), "dynamic mmap
# threshold": freeing an mmapped block larger than the mmap threshold (and
# at most 32 MiB) raises that threshold to the block's size and the trim
# threshold to twice it. The block is never written, so it never becomes
# resident; other allocators ignore it.
_np.empty(16 << 20, dtype=_np.uint8)

from .discrepancy import discrepancy_curve, extreme_discrepancy, star_discrepancy
from .metrics import (
    MetricsRecord,
    area,
    d1,
    d1_to_ball,
    grid_tolerance,
    hausdorff,
    moment_of_inertia,
    perimeter_estimate,
)
from .partitions import (
    Partition,
    TRIVIAL,
    alpha_refine,
    interval_counts,
    kakutani_level,
    ud_ratio,
)
from .polygons import (
    Ball,
    ConvexPolygon,
    ball_of_same_area,
    load_polygon,
    regular_polygon,
    reflect_polygon,
    save_polygon,
    steiner_polygon,
)
from .process import (
    BUILTIN_SEEDS,
    CheckpointRecord,
    ProcessConfig,
    ProcessResult,
    TraceRecord,
    builtin_seed,
    checkpoint_probe,
    compare_sequences,
    run_process,
)
from .rasters import (
    AlignedRun,
    GridSpec,
    RasterSet,
    annulus_fixture,
    rasterize,
    read_pgm,
    steiner_raster,
    write_pgm,
)
from .sequences import (
    GAMMA,
    DirectionAngle,
    admissible_integers,
    checkpoint_index,
    fib,
    gamma_radical_inverse,
    is_admissible,
    kf_point,
    kf_points,
    kronecker_point,
    kronecker_points,
    to_direction,
    vdc_point,
    vdc_points,
)

__version__ = "0.1.0"
