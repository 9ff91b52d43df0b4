"""Hyperboloid-model embedding of tiling balls.

Vertices are placed on the upper sheet of x^2 + y^2 - z^2 = -1 (Minkowski
form diag(1, 1, -1)).  All triangles of the tiling are equilateral with angle
2*pi/7 at every corner, so the edge length d satisfies

    cosh(d) = cos(2*pi/7) / (1 - cos(2*pi/7)).

The root goes to the apex and its neighbor fan to a regular heptagon around
it; every later vertex is placed by rotating its parent's position around an
already-placed vertex by multiples of 2*pi/7, following the rotational
neighbor order from ``ball.link_cycle``.  The walk runs in 80-bit extended
precision and renormalizes every placed point back onto the sheet; the stored
coordinates are float64.

The Klein projection (x/z, y/z) maps the sheet onto the open unit disk and
sends geodesics to straight chords, which is what the renderer draws.
"""

from __future__ import annotations

import math

import numpy as np

from .ball import DEGREE, Ball, link_cycle
from .errors import InvariantError

_COS = math.cos(2.0 * math.pi / DEGREE)
EDGE_COSH = _COS / (1.0 - _COS)
EDGE_LENGTH = math.acosh(EDGE_COSH)

_J = np.diag([1.0, 1.0, -1.0])


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

    Works in the dtype of ``p``, so extended-precision inputs stay extended.
    """
    p = np.asarray(p)
    dt = np.result_type(p.dtype, np.float64)
    x, y, z = p.astype(dt)
    w = 1.0 + z
    return np.array([
        [1.0 + x * x / w, x * y / w, x],
        [x * y / w, 1.0 + y * y / w, y],
        [x, y, z],
    ], dtype=dt)


def rotation_about(p, angle) -> np.ndarray:
    """Isometry fixing sheet point p, rotating its tangent plane by ``angle``."""
    c, s = np.cos(angle), np.sin(angle)
    dt = np.result_type(np.asarray(p).dtype, np.asarray(angle).dtype, np.float64)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], dtype=dt)
    b = translation_to(np.asarray(p).astype(dt))
    binv = _J.astype(dt) @ b @ _J.astype(dt)  # symmetric Minkowski-orthogonal
    return b @ rz @ binv


def isometry_residual(mat: np.ndarray) -> float:
    """How far a matrix is from preserving the Minkowski form (max abs entry)."""
    return float(np.abs(mat.T @ _J @ mat - _J).max())


class Embedding:
    """Vertex coordinates plus the dual cell around each vertex.

    ``vertex_pos[v]`` is the sheet point of vertex v.  ``cells[v]`` holds the
    corners of the colored polygon drawn for v: the centers of the triangles
    around v, in rotational order.  Interior vertices get the full heptagon of
    seven centers; a boundary vertex, whose outer triangles are missing, gets
    a fan clipped through its own position (listed first).
    """

    __slots__ = ("ball", "vertex_pos", "cells")

    def __init__(self, ball: Ball, vertex_pos: np.ndarray, cells: list):
        self.ball = ball
        self.vertex_pos = vertex_pos
        self.cells = cells


def _triangle_center(a, b, c):
    return sheet_normalize(a + b + c)


def _build_cells(ball: Ball, pos: np.ndarray) -> list:
    cells = []
    for v in range(ball.n):
        cyc = link_cycle(ball, v)
        corners = []
        clipped = False
        for i in range(DEGREE):
            a, b = cyc[i], cyc[(i + 1) % DEGREE]
            if a < 0 or b < 0:
                clipped = True
                continue
            corners.append(_triangle_center(pos[v], pos[a], pos[b]))
        if clipped and corners:
            # reorder so the fan is contiguous: valid corner slots form one
            # cyclic arc; start after the gap
            valid = [i for i in range(DEGREE)
                     if cyc[i] >= 0 and cyc[(i + 1) % DEGREE] >= 0]
            arc = valid
            for k in range(1, len(valid)):
                if (valid[k] - valid[k - 1]) % DEGREE > 1:
                    arc = valid[k:] + valid[:k]
                    break
            index_of = {slot: j for j, slot in enumerate(valid)}
            corners = [corners[index_of[slot]] for slot in arc]
            corners = [pos[v]] + corners
        cells.append(np.array(corners) if corners else pos[v][None, :])
    return cells


def build_embedding(ball: Ball, *, tol: float = 1e-6) -> Embedding:
    """Place every vertex on the sheet and build the dual cells.

    Each vertex beyond the first ring is written once; when the walk reaches
    an already-placed vertex the two positions are compared, and disagreement
    beyond ``tol`` means the rotational orders are inconsistent, which is an
    internal error.
    """
    n = ball.n
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
        for k, v in enumerate(ball.neighbors(0).tolist()):
            ang = 2 * pi * k / DEGREE
            pos[v] = (sh * np.cos(ang), sh * np.sin(ang), ch)
            placed[v] = True
    step = 2 * pi / DEGREE
    jj = _J.astype(ld)
    worst = 0.0
    for lvl in range(1, ball.radius):
        for v in ball.ring(lvl):
            cyc = link_cycle(ball, v)
            # pull the down-anchor into v's apex frame once, then spin it by
            # k * 2pi/7 there; one boost in and one out per neighbor keeps the
            # error growth per level linear instead of compounding through
            # repeated matrix application
            boost = translation_to(pos[v])
            local = (jj @ boost @ jj) @ pos[cyc[0]]
            for k, u in enumerate(cyc[1:], start=1):
                c, s = np.cos(k * step), np.sin(k * step)
                q = boost @ np.array(
                    (c * local[0] - s * local[1],
                     s * local[0] + c * local[1], local[2]), dtype=ld)
                if placed[u]:
                    scale = float(pos[u][2])
                    worst = max(worst, float(np.abs(pos[u] - q).max()) / scale)
                else:
                    pos[u] = sheet_normalize(q)
                    placed[u] = True
    if not placed.all():
        raise InvariantError("embedding walk missed a vertex")
    if worst > tol:
        raise InvariantError(
            f"inconsistent placement: positions disagree by {worst:.3e}")
    pos = pos.astype(np.float64)
    return Embedding(ball, pos, _build_cells(ball, pos))


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
    ball = emb.ball
    pairs = [(u, v) for u, v in ball.edges()]
    if not pairs:
        return np.zeros(0)
    uu = emb.vertex_pos[[p[0] for p in pairs]]
    vv = emb.vertex_pos[[p[1] for p in pairs]]
    return hyperbolic_distance(uu, vv)


def interior_angles(emb: Embedding) -> np.ndarray:
    """Angles between rotationally consecutive edges at interior vertices.

    Returns one row of 7 angles per vertex of level < radius; each should be
    2*pi/7 up to numerical error.
    """
    ball = emb.ball
    pos = emb.vertex_pos
    rows = []
    for lvl in range(ball.radius):
        for v in ball.ring(lvl):
            p = pos[v]
            cyc = link_cycle(ball, v)
            tangents = []
            for u in cyc:
                t = pos[u] + minkowski_dot(pos[u], p) * p
                tangents.append(t / math.sqrt(minkowski_dot(t, t)))
            row = []
            for i in range(DEGREE):
                cosang = minkowski_dot(tangents[i], tangents[(i + 1) % DEGREE])
                row.append(math.acos(min(1.0, max(-1.0, float(cosang)))))
            rows.append(row)
    return np.array(rows) if rows else np.zeros((0, DEGREE))


def nearest_neighbor_mismatches(emb: Embedding) -> list:
    """Interior vertices whose 7 nearest embedded points are not their neighbors."""
    ball = emb.ball
    pos = emb.vertex_pos
    interior_stop = int(ball.level_start[ball.radius]) if ball.radius else ball.n
    bad = []
    # cosh(distance) = -minkowski dot, monotone, so compare dots directly
    gram = -(pos[:interior_stop, 0][:, None] * pos[:, 0][None, :]
             + pos[:interior_stop, 1][:, None] * pos[:, 1][None, :]
             - pos[:interior_stop, 2][:, None] * pos[:, 2][None, :])
    for v in range(interior_stop):
        row = gram[v].copy()
        row[v] = np.inf
        nearest = set(np.argpartition(row, DEGREE)[:DEGREE].tolist())
        if nearest != set(ball.neighbors(v).tolist()):
            bad.append(v)
    return bad
