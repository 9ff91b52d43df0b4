import hashlib
import math

import numpy as np
import pytest

from heptapile import (EDGE_LENGTH, InvariantError, build_ball, build_embedding,
                       edge_lengths, hyperbolic_distance, interior_angles, klein)
from heptapile import geometry
from heptapile.ball import link_cycles
from heptapile.geometry import (Embedding, minkowski_dot,
                                nearest_neighbor_mismatches, radial_scale,
                                sheet_normalize, translation_to)

SEPTANGLE = 2.0 * math.pi / 7.0

_J = np.diag([1.0, 1.0, -1.0])


def isometry_residual(mat: np.ndarray) -> float:
    """How far a matrix is from preserving the Minkowski form (max abs entry)."""
    return float(np.abs(mat.T @ _J @ mat - _J).max())


def test_edge_length_constant():
    assert math.isclose(math.cosh(EDGE_LENGTH),
                        math.cos(SEPTANGLE) / (1.0 - math.cos(SEPTANGLE)))
    assert abs(math.cosh(EDGE_LENGTH) - 1.65597) < 1e-5


def test_embedding_of_point_ball():
    emb = build_embedding(build_ball(0))
    assert np.allclose(emb.vertex_pos, [[0.0, 0.0, 1.0]])
    assert len(emb.cell_ptr) - 1 == 1


@pytest.fixture(scope="module")
def emb3():
    return build_embedding(build_ball(3))


def test_all_points_on_sheet(emb3):
    p = emb3.vertex_pos
    assert np.abs(p[:, 0] ** 2 + p[:, 1] ** 2 - p[:, 2] ** 2 + 1.0).max() < 1e-9
    assert (p[:, 2] > 0).all()


def test_edges_equilateral(emb3):
    lens = edge_lengths(emb3)
    assert np.abs(lens - EDGE_LENGTH).max() < 1e-9


def test_interior_angles(emb3):
    angs = interior_angles(emb3)
    assert np.abs(angs - SEPTANGLE).max() < 1e-6
    # each interior corner sees exactly seven angles summing to a full turn
    assert np.abs(angs.sum(axis=1) - 2.0 * math.pi).max() < 1e-6


def test_klein_inside_unit_disk():
    emb = build_embedding(build_ball(8))
    radii = np.hypot(*klein(emb.vertex_pos).T)
    assert float(radii.max()) < 1.0


def test_nearest_neighbors_recover_adjacency(emb3):
    assert nearest_neighbor_mismatches(emb3) == []


def test_translation_moves_apex():
    target = sheet_normalize(np.array([0.3, -0.2, 1.2]))
    mat = translation_to(target)
    assert isometry_residual(mat) < 1e-12
    moved = mat @ np.array([0.0, 0.0, 1.0])
    assert np.allclose(moved, target)


def test_distance_of_known_pair():
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([math.sinh(1.25), 0.0, math.cosh(1.25)])
    assert math.isclose(float(hyperbolic_distance(a, b)), 1.25, rel_tol=1e-12)


def test_minkowski_dot_signature():
    p = np.array([0.0, 0.0, 1.0])
    assert minkowski_dot(p, p) == -1.0
    q = np.array([1.0, 2.0, 0.0])
    assert minkowski_dot(q, q) == 5.0


def test_cells_interior_are_heptagons(emb3):
    ball = emb3.ball
    for v in range(ball.n):
        k = emb3.cell(v).shape[0]
        if ball.level[v] < 3:
            assert k == 7
        else:
            assert k < 7


def test_radial_scale_identity_and_shrink(emb3):
    pts = emb3.vertex_pos
    assert np.array_equal(radial_scale(pts, 1.0), klein(pts))
    half = radial_scale(pts, 0.5)
    full = klein(pts)
    r_half = np.hypot(half[:, 0], half[:, 1])
    r_full = np.hypot(full[:, 0], full[:, 1])
    assert (r_half <= r_full + 1e-15).all()
    # angles preserved where defined
    inner = r_full > 1e-9
    assert np.allclose(np.arctan2(half[inner, 1], half[inner, 0]),
                       np.arctan2(full[inner, 1], full[inner, 0]))


def test_embedding_deterministic():
    a = build_embedding(build_ball(2)).vertex_pos
    b = build_embedding(build_ball(2)).vertex_pos
    assert np.array_equal(a, b)


# sha256 of vertex_pos.tobytes(), of the concatenated cell corners and of the
# cell sizes (int64), measured before the walk and the cells were batched
EMBEDDING_DIGESTS = {
    0: ("04ae04134c8318578c932394683055fea108f3f586ff5b055613752c5f03e6f5",
        "04ae04134c8318578c932394683055fea108f3f586ff5b055613752c5f03e6f5",
        "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8"),
    1: ("57109b81c45b3081d2b2968f58d12e9aa0e2d4aa8cde956b459d1cc0101eb872",
        "0bc3b6e1e913f58ea8dcaadb6a0d8375eb69abc539e905b50cbca241ba66f9ff",
        "c7ff64dc0d31df8345be8a0535dd6afda85d77d8fb89141b041150ee095eee25"),
    2: ("d97c7e7155807d66f74a6efb6fd8b7c8310cb663578cb000e7bed26aca2eef1c",
        "1edc6a4e7f2464f3dd86ea95e0fb6a3d7fb6762f3dee0a3001f2b4a44345c30b",
        "c88ea86adb637e9760f343418d60a00f605233724fc2c1fd7cb0055b65d4e146"),
    5: ("94ea9a18d6ac970b3a10aa80b998ac9a24b3e835a7905cc99351454230e736a6",
        "7ad09977156870b97156b161dba42b6ebd106a6857c0c371ceaa2bd9e53c59aa",
        "51d9c791165bec4d09ddc4f2789fe5d4ed34fef2c2280a0f519175dc796be0ec"),
    8: ("bc804c80795e78a83f73bc05a282b9af4f4387722d6b53aa6f5f555366469249",
        "f58bdc95b62e46556e473c0f942efe17dbff2baa756309d42c05df8462a0219b",
        "7a3928f5f6b4f5036ed5b9b780337f58e936efdedb9f8c74976d68b29e053d69"),
}


@pytest.mark.parametrize("m", sorted(EMBEDDING_DIGESTS))
def test_embedding_bytes_pinned(m, ball_cache):
    emb = build_embedding(ball_cache(m))
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (
        emb.vertex_pos, emb.corners, np.diff(emb.cell_ptr).astype(np.int64)))
    assert got == EMBEDDING_DIGESTS[m]


def test_walk_rejects_inconsistent_cycle(monkeypatch, ball_cache):
    ball = ball_cache(4)
    v = ball.ring(2).start + 3

    def swapped(b):
        cyc = link_cycles(b)
        cyc[v, [3, 4]] = cyc[v, [4, 3]]  # two up-slots of a ring-2 vertex
        return cyc

    monkeypatch.setattr(geometry, "link_cycles", swapped)
    with pytest.raises(InvariantError, match="inconsistent placement"):
        build_embedding(ball)


def test_radius_ten_embedding(ball_cache):
    emb = build_embedding(ball_cache(10))  # the walk's own check passes
    p = emb.vertex_pos
    # rounding to float64 alone leaves an absolute residual near 1e-16 * z**2
    # (z reaches 2.1e4 here), so the sheet residual is taken relative to z**2
    residual = np.abs(p[:, 0] ** 2 + p[:, 1] ** 2 - p[:, 2] ** 2 + 1.0) / p[:, 2] ** 2
    assert residual.max() < 1e-9
    assert float(np.hypot(*klein(p).T).max()) < 1.0


def test_nearest_neighbors_report_a_moved_vertex(emb3):
    pos = emb3.vertex_pos.copy()
    v = 5
    pos[v] = pos[-1]  # onto a far boundary vertex
    moved = Embedding(emb3.ball, pos, emb3.corners, emb3.cell_ptr)
    assert v in nearest_neighbor_mismatches(moved)
