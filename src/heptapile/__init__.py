"""Abelian sandpiles on balls of the degree-7 hyperbolic triangulation.

The package builds the combinatorial balls, relaxes sandpile states on them,
decomposes relaxations into waves, evaluates the closed-form predictions for
single- and multi-site perturbations of the maximal stable state, and renders
states on an isometric embedding in the hyperbolic plane.

Importing the package sets one heap policy for the whole process, in
``_keep_freed_pages``: glibc's mmap threshold is fixed at 32 MiB, the largest
value it accepts on 64-bit, and its trim threshold at 1 GiB.  Every
relaxation returns fresh n-sized int64 arrays, and ``validate_ball`` works in
per-block temporaries.  Under glibc's default policy these come back as
freshly faulted pages on every call: about 2,150 minor faults per
relaxation from the root at radius 12, up to 7,053 in a second
``validate_ball`` of that ball (the count depends on the heap's history),
and 17,029 (70 MB) per ``single_source_m12`` benchmark task.
With both thresholds fixed, blocks up to 32 MiB come from the heap, their
freed pages stay mapped for the next call, and each of those counts is 0.
Arrays above 32 MiB (int64 fields from radius 15 on) are still mmapped.
One threshold alone does not do it: a trim threshold alone leaves glibc
mmapping every block above 128 KiB, and an mmap threshold alone lets freed
pages be trimmed.  The cost: freed memory stays with the process until it
exits, so its RSS stays at its high-water mark, and the radius-15 ``bench``
peaks sit about 15 MiB higher.  Where the C library has no ``mallopt``
(off glibc) or refuses the setting, nothing changes.
"""

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages() -> None:
    """Keep heap blocks up to 32 MiB, and their freed pages, in the process."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a trim threshold without the mmap one makes glibc mmap every block
    # above 128 KiB, so it is set only once the mmap threshold holds
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_pages()

from .ball import (Ball, DEGREE, VertexType, build_ball, distance_profile,
                   load_ball, save_ball, validate_ball)
from .closed_form import (alpha, ball_size, fib, level_counts, mass_loss,
                          mass_loss_ratio, predicted_beta, predicted_odometer,
                          total_topplings)
from .errors import CapacityError, FormatError, InvariantError
from .geometry import (EDGE_LENGTH, Embedding, build_embedding, edge_lengths,
                       hyperbolic_distance, interior_angles, klein)
from .render import DEFAULT_PALETTE, cell_fills, color_histogram, render_state
from .sandpile import (Odometer, RelaxResult, State, is_legal, is_stable,
                       laplacian_delta, load_odometer, load_state, mass,
                       max_stable, perturb, relax, relax_batch, relax_random,
                       save_odometer, save_state, topple)
from .waves import WaveResult, wave, wave_relax, wave_relax_multi

__version__ = "0.1.0"

__all__ = [
    "Ball", "DEGREE", "VertexType", "build_ball", "distance_profile",
    "load_ball", "save_ball", "validate_ball",
    "alpha", "ball_size", "fib", "level_counts", "mass_loss",
    "mass_loss_ratio", "predicted_beta", "predicted_odometer",
    "total_topplings",
    "CapacityError", "FormatError", "InvariantError",
    "EDGE_LENGTH", "Embedding", "build_embedding", "edge_lengths",
    "hyperbolic_distance", "interior_angles", "klein",
    "DEFAULT_PALETTE", "cell_fills", "color_histogram", "render_state",
    "Odometer", "RelaxResult", "State", "is_legal", "is_stable",
    "laplacian_delta", "load_odometer", "load_state", "mass", "max_stable",
    "perturb", "relax", "relax_batch", "relax_random", "save_odometer",
    "save_state",
    "topple",
    "WaveResult", "wave", "wave_relax", "wave_relax_multi",
    "__version__",
]
