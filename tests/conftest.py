import numpy as np
import pytest

from heptapile import Ball, build_ball

_BALLS = {}


@pytest.fixture(scope="session")
def ball_cache():
    """Shared immutable balls; construction dominates test time otherwise."""
    def get(m: int):
        if m not in _BALLS:
            _BALLS[m] = build_ball(m)
        return _BALLS[m]
    return get


def _crossed(b, x, y, z, w):
    """``b`` with edges x-y and z-w crossed into x-w and z-y, in all four rows."""
    rows = [b.neighbors(v).tolist() for v in range(b.n)]
    for u, old, new in ((x, y, w), (y, x, z), (z, w, y), (w, z, x)):
        assert old in rows[u] and new not in rows[u]
        rows[u] = sorted(set(rows[u]) - {old} | {new})
    return Ball(b.radius, b.level, b.vtype, b.indptr,
                np.concatenate(rows).astype(np.int32))


def _reflected(b):
    """``b`` with ring position j renumbered -j mod |ring| on every ring."""
    start = b.level_start[b.level]
    size = np.diff(b.level_start)[b.level]
    image = start + (start - np.arange(b.n)) % size  # an involution
    rows = [np.sort(image[b.neighbors(v)]) for v in image]
    indptr = np.concatenate(([0], np.cumsum(np.diff(b.indptr)[image])))
    return Ball(b.radius, b.level, b.vtype[image], indptr,
                np.concatenate(rows).astype(np.int32))


@pytest.fixture(scope="session")
def forged_balls():
    """Radius-4 graphs that keep every degree, level and type, but are not the ball."""
    b = build_ball(4)
    return {"crossed": _crossed(b, 8, 29, 11, 37), "reflected": _reflected(b)}


def _wave_sites(ball):
    """The root and the last vertex, and up to radius 4 the first of every ring."""
    starts = ball.level_start[:-1] if ball.radius <= 4 else [0]
    return sorted({0, ball.n - 1} | set(int(v) for v in starts))


@pytest.fixture(scope="session")
def wave_cases(ball_cache):
    """(ball, site) pairs at radii 0..8 for the wave slice and round tests."""
    return [(ball_cache(m), site) for m in range(0, 9) for site in _wave_sites(ball_cache(m))]
