"""Golden-ratio splitting sequences and planar Steiner symmetrization.

The package builds the Kakutani-Fibonacci point sequence through the
golden-ratio radical inverse, measures discrepancy exactly, symmetrizes
planar sets in two backends (exact convex polygons and occupancy-grid
rasters), and instruments long composition runs that shrink any seed of
finite area toward the centered ball of equal area.
"""

import numpy as _np

# A saturated polygon step frees a few MB of temporaries, more than
# glibc's heap trim threshold, so each step would hand its heap back to
# the kernel and fault it in again: a 50-step run of a 16-vertex polygon
# takes about 1 650 minor faults with this block and 57 000 without.
# mallopt(3), "dynamic mmap
# threshold": freeing an mmapped block larger than the mmap threshold (and
# at most 32 MiB) raises that threshold to the block's size and the trim
# threshold to twice it. The block is never written, so it never becomes
# resident; other allocators ignore it.
_np.empty(16 << 20, dtype=_np.uint8)

__version__ = "0.1.0"
