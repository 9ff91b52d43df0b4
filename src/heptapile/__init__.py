"""Abelian sandpiles on balls of the degree-7 hyperbolic triangulation.

The package builds the combinatorial balls, relaxes sandpile states on them,
decomposes relaxations into waves, evaluates the closed-form predictions for
single- and multi-site perturbations of the maximal stable state, and renders
states on an isometric embedding in the hyperbolic plane.
"""

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
