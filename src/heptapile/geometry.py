"""Hyperboloid-model embedding of tiling balls.

Vertices are placed on the upper sheet of x^2 + y^2 - z^2 = -1 (Minkowski
form diag(1, 1, -1)).  All triangles of the tiling are equilateral with angle
2*pi/7 at every corner, so the edge length d satisfies

    cosh(d) = cos(2*pi/7) / (1 - cos(2*pi/7)).

The root goes to the apex and its neighbor fan to a regular heptagon around
it; every later vertex is placed by rotating a down-neighbor's position
around an already-placed vertex by multiples of 2*pi/7, following the
rotational neighbor order of the ``ball.link_cycles`` table.  The walk takes
one ring at a time (in batches of ring vertices) and computes all of its
(vertex, slot) rotations at once: the first (vertex, slot) in ring order that
reaches an unplaced vertex places it, and every other reach is compared with
the placed position.  It runs in 80-bit extended precision, with stacked
longdouble matmuls, and renormalizes every placed point back onto the
sheet; the stored coordinates are float64.  The dual cells are built in
one pass over the same table.

The Klein projection (x/z, y/z) maps the sheet onto the open unit disk and
sends geodesics to straight chords, which is what the renderer draws.
"""

from __future__ import annotations

import math

import numpy as np

from .ball import DEGREE, Ball, link_cycles
from .errors import InvariantError

_COS = math.cos(2.0 * math.pi / DEGREE)
EDGE_COSH = _COS / (1.0 - _COS)
EDGE_LENGTH = math.acosh(EDGE_COSH)


def minkowski_dot(u, v):
    """Bilinear form of signature (2,1); -1 on sheet points, broadcasting."""
    u = np.asarray(u)
    v = np.asarray(v)
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]


def sheet_normalize(p):
    """Rescale a timelike vector onto the unit hyperboloid sheet."""
    p = np.asarray(p)
    q = -minkowski_dot(p, p)
    if np.any(q <= 0):
        raise ValueError("vector is not timelike")
    return p / np.sqrt(q)[..., None] if p.ndim > 1 else p / np.sqrt(q)


def hyperbolic_distance(u, v):
    """Geodesic distance between sheet points."""
    c = np.maximum(-minkowski_dot(u, v), 1.0)
    return np.arccosh(c)


def translation_to(p) -> np.ndarray:
    """The symmetric Minkowski boost taking the apex (0,0,1) to p.

    Takes a (..., 3) stack of points to a (..., 3, 3) stack of matrices.
    Works in the dtype of ``p``, so extended-precision inputs stay extended.
    """
    p = np.asarray(p)
    p = p.astype(np.result_type(p.dtype, np.float64))
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    w = 1.0 + z
    xy = x * y / w
    return np.stack((np.stack((1.0 + x * x / w, xy, x), axis=-1),
                     np.stack((xy, 1.0 + y * y / w, y), axis=-1), p), axis=-2)


class Embedding:
    """Vertex coordinates plus the dual cell around each vertex.

    ``vertex_pos[v]`` is the sheet point of vertex v.  The cells are stored
    once, CSR-style like the ball's adjacency: ``cell(v)``, which is
    ``corners[cell_ptr[v]:cell_ptr[v + 1]]``, holds the corners of the
    colored polygon drawn for v, the centers of the triangles around v in
    rotational order.  Interior vertices get the full heptagon of seven
    centers; a boundary vertex, whose outer triangles are missing, gets a fan
    clipped through its own position (listed first).
    """

    __slots__ = ("ball", "vertex_pos", "corners", "cell_ptr")

    def __init__(self, ball: Ball, vertex_pos: np.ndarray, corners: np.ndarray,
                 cell_ptr: np.ndarray):
        self.ball = ball
        self.vertex_pos = vertex_pos
        self.corners = corners
        self.cell_ptr = cell_ptr

    def cell(self, v: int) -> np.ndarray:
        return self.corners[self.cell_ptr[v]:self.cell_ptr[v + 1]]


# vertices per batch of the walk and of the cell build, which bounds their
# temporaries
_BATCH = 1024

# largest disagreement, relative to the z coordinate, between two placements
# of one vertex that the walk accepts
_PLACEMENT_TOL = 1e-6


def _build_cells(pos: np.ndarray, cyc: np.ndarray):
    """Corners and cell_ptr of every dual cell, from the link-cycle table."""
    valid = (cyc >= 0) & (np.roll(cyc, -1, axis=1) >= 0)  # slot i: triangle (i, i+1)
    count = valid.sum(axis=1)
    clipped = count < DEGREE
    # the valid slots of a clipped fan form one cyclic arc; it starts at the
    # valid slot after the gap (slot 0 for a full heptagon)
    first = np.argmax(valid & ~np.roll(valid, 1, axis=1), axis=1)
    cell_ptr = np.concatenate(([0], np.cumsum(np.where(clipped, 1 + count, DEGREE))))
    corners = np.empty((cell_ptr[-1], 3))
    corners[cell_ptr[:-1][clipped]] = pos[clipped]
    for lo in range(0, len(pos), _BATCH):
        k = count[lo:lo + _BATCH]
        v = np.repeat(np.arange(lo, lo + k.size), k)
        j = np.arange(v.size) - np.repeat(np.cumsum(k) - k, k)  # index within the fan
        slot = (first[v] + j) % DEGREE
        a, b = cyc[v, slot], cyc[v, (slot + 1) % DEGREE]
        corners[cell_ptr[v] + clipped[v] + j] = sheet_normalize(pos[v] + pos[a] + pos[b])
    return corners, cell_ptr


def build_embedding(ball: Ball) -> Embedding:
    """Place every vertex on the sheet and build the dual cells.

    Each vertex beyond the first ring is written once; when the walk reaches
    an already-placed vertex the two positions are compared, and a relative
    disagreement beyond ``_PLACEMENT_TOL`` means the rotational orders are
    inconsistent, which is an internal error (``InvariantError``).
    """
    n = ball.n
    cyc = link_cycles(ball)
    # chained rotations at coordinate scale cosh(m*d) overrun float64 well
    # before the radius-5 tolerance, so the walk runs in extended precision
    ld = np.longdouble
    pi = 2 * np.arcsin(ld(1))
    ch = ld(np.cos(2 * pi / DEGREE))
    ch = ch / (1 - ch)
    sh = np.sqrt(ch * ch - 1)
    pos = np.zeros((n, 3), dtype=ld)
    pos[0] = (0.0, 0.0, 1.0)
    placed = np.zeros(n, dtype=bool)
    placed[0] = True
    if ball.radius >= 1:
        ang = 2 * pi * np.arange(DEGREE) / DEGREE
        pos[ball.neighbors(0)] = np.stack(
            (sh * np.cos(ang), sh * np.sin(ang), np.full(DEGREE, ch)), axis=-1)
        placed[ball.neighbors(0)] = True
    turn = np.arange(1, DEGREE) * (2 * pi / DEGREE)
    cos, sin = np.cos(turn), np.sin(turn)
    # J B J for the symmetric boost B: entries negated in the last row and column
    flip = np.array([[1, 1, -1], [1, 1, -1], [-1, -1, 1]], dtype=ld)
    worst = 0.0
    for lvl in range(1, ball.radius):
        ring = ball.ring(lvl)
        for lo in range(ring.start, ring.stop, _BATCH):
            v = np.arange(lo, min(lo + _BATCH, ring.stop))
            # pull each down-anchor into its vertex's apex frame once, then
            # spin it by k * 2pi/7 there; one boost in and one out per
            # neighbor keeps the error growth per level linear instead of
            # compounding through repeated matrix application
            boost = translation_to(pos[v])
            local = ((flip * boost) @ pos[cyc[v, 0], :, None])[..., 0]
            lx, ly, lz = local[:, :1], local[:, 1:2], local[:, 2:]
            spun = np.stack((cos * lx - sin * ly, sin * lx + cos * ly,
                             np.broadcast_to(lz, (len(v), DEGREE - 1))), axis=-1)
            q = (boost[:, None] @ spun[..., None]).reshape(-1, 3)
            # the first (vertex, slot) in ring order that reaches an unplaced
            # vertex places it; every other reach is compared
            target = cyc[v, 1:].ravel()
            place = np.zeros(target.size, dtype=bool)
            place[np.unique(target, return_index=True)[1]] = True
            place &= ~placed[target]
            pos[target[place]] = sheet_normalize(q[place])
            placed[target[place]] = True
            seen = pos[target[~place]]
            err = np.abs(seen - q[~place]).max(axis=1, initial=0.0)
            worst = max(worst, float(np.max(
                err.astype(np.float64) / seen[:, 2].astype(np.float64), initial=0.0)))
    if not placed.all():
        raise InvariantError("embedding walk missed a vertex")
    if worst > _PLACEMENT_TOL:
        raise InvariantError(
            f"inconsistent placement: positions disagree by {worst:.3e}")
    pos = pos.astype(np.float64)
    return Embedding(ball, pos, *_build_cells(pos, cyc))


def klein(points) -> np.ndarray:
    """Klein disk projection (x/z, y/z) of sheet points."""
    p = np.asarray(points, dtype=np.float64)
    return p[..., :2] / p[..., 2:3]


def radial_scale(points, ratio: float) -> np.ndarray:
    """Klein coordinates after scaling hyperbolic distance from the root.

    A point at geodesic polar coordinates (r, theta) moves to (ratio * r,
    theta); ratio 1 is the plain Klein projection.  Small ratios spread the
    exponentially crowded outer rings into visibly separated bands, which is
    how the branch-structure plots are produced.
    """
    p = np.asarray(points, dtype=np.float64)
    if ratio == 1.0:
        return klein(p)
    z = np.clip(p[..., 2], 1.0, None)
    r = np.arccosh(z)
    theta = np.arctan2(p[..., 1], p[..., 0])
    rho = np.tanh(ratio * r)
    return np.stack((rho * np.cos(theta), rho * np.sin(theta)), axis=-1)


def edge_lengths(emb: Embedding) -> np.ndarray:
    """Geodesic length of every stored edge, one entry per (u < v) pair."""
    u, v = emb.ball.edges()
    return hyperbolic_distance(emb.vertex_pos[u], emb.vertex_pos[v])


def interior_angles(emb: Embedding) -> np.ndarray:
    """Angles between rotationally consecutive edges at interior vertices.

    Returns one row of 7 angles per vertex of level < radius; each should be
    2*pi/7 up to numerical error.
    """
    ball = emb.ball
    stop = int(ball.level_start[ball.radius])
    p = emb.vertex_pos[:stop, None, :]
    nbr = emb.vertex_pos[link_cycles(ball)[:stop]]
    # unit tangents at each interior vertex toward its seven neighbors
    t = nbr + minkowski_dot(nbr, p)[..., None] * p
    t /= np.sqrt(minkowski_dot(t, t))[..., None]
    cosang = minkowski_dot(t, np.roll(t, -1, axis=1))
    return np.arccos(np.clip(cosang, -1.0, 1.0))


# Gram entries per block of nearest_neighbor_mismatches (8 MiB of float64)
_GRAM_BLOCK = 1 << 20


def nearest_neighbor_mismatches(emb: Embedding) -> list:
    """Interior vertices whose 7 nearest embedded points are not their neighbors."""
    ball = emb.ball
    pos = emb.vertex_pos
    interior_stop = int(ball.level_start[ball.radius]) if ball.radius else ball.n
    bad = []
    rows = max(1, _GRAM_BLOCK // ball.n)
    for lo in range(0, interior_stop, rows):
        v = np.arange(lo, min(lo + rows, interior_stop))
        # cosh(distance) = -minkowski dot, monotone, so compare dots directly
        gram = -minkowski_dot(pos[v, None, :], pos)
        gram[np.arange(v.size), v] = np.inf
        nearest = np.sort(np.argpartition(gram, DEGREE, axis=1)[:, :DEGREE], axis=1)
        nbrs = ball.indices[ball.indptr[v, None] + np.arange(DEGREE)]
        bad += v[np.any(nearest != nbrs, axis=1)].tolist()
    return bad
