"""Closed-form combinatorics and predictions for the tiling ball sandpile.

Everything here is exact integer or rational arithmetic, independent of the
simulation engines; tests compare the two routes against each other.

With u_k the Fibonacci numbers (u_0 = 0, u_1 = 1), ring ``l`` of the ball
holds ``7 u_{2l-1}`` vertices of type 1 and ``7 u_{2l-2}`` of type 2, and the
radius-m ball has ``7 u_{2m+1} - 6`` vertices in total.

Relaxing the maximal stable state plus one extra grain on each vertex of a
nonempty set P lands in a universal family of final states indexed only by
``s = min level of P``, and the odometer is ``min(m+1-level(v), m+1-s)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from .ball import DEGREE, Ball
from .errors import CapacityError
from .sandpile import Odometer, State

_INT64_MAX = 2**63 - 1


def _fib(n: int) -> int:
    if n < 0:
        raise ValueError("index must be nonnegative")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fib(n: int) -> int:
    """Fibonacci number u_n; refuses results beyond signed 64 bits."""
    value = _fib(n)
    if value > _INT64_MAX:
        raise OverflowError(f"u_{n} = {value} exceeds signed 64-bit range")
    return value


class LevelCounts(NamedTuple):
    first: int
    second: int


def level_counts(m: int) -> LevelCounts:
    """Vertices of each type on ring m (m >= 1): (7 u_{2m-1}, 7 u_{2m-2})."""
    if m < 1:
        raise ValueError("rings are numbered from 1")
    return LevelCounts(7 * fib(2 * m - 1), 7 * fib(2 * m - 2))


def ball_size(m: int) -> int:
    """|ball of radius m| = 7 u_{2m+1} - 6."""
    if m < 0:
        raise ValueError("radius must be nonnegative")
    value = 7 * _fib(2 * m + 1) - 6
    if value > _INT64_MAX:
        raise CapacityError(
            f"ball of radius {m} has {value} vertices, beyond 64-bit indexing")
    return value


def alpha(s: int, ball: Ball) -> State:
    """Universal final state with index s, restricted to the ball.

    For s >= 1: 6 below level s, then 2/3 by type on level s itself, and 3/5
    by type beyond it.  For s = 0 the root carries -1 (a bookkeeping value,
    not a real grain count) and every other vertex carries 3 or 5 by type.
    Two of these states agree everywhere outside the ball of radius s.
    """
    if s < 0:
        raise ValueError("index must be nonnegative")
    vals = ball.vtype.astype(np.int64)
    vals *= 2
    vals += 1  # 3 or 5 by type (the root, type 0, gets 1)
    if s == 0:
        vals[0] = -1
        return State(ball, vals)
    start = ball.level_start
    lo, hi = (int(start[s]), int(start[s + 1])) if s <= ball.radius else (ball.n, ball.n)
    vals[:lo] = 6  # levels are id-contiguous, so each is one slice
    vals[lo:hi] //= 2
    vals[lo:hi] += 1  # 3 or 5 becomes 2 or 3 on level s
    return State(ball, vals)


def _site_levels(ball: Ball, sites: Iterable[int]) -> tuple:
    sites = sorted(set(int(p) for p in sites))
    if not sites:
        raise ValueError("perturbation set must be nonempty")
    if sites[0] < 0 or sites[-1] >= ball.n:
        raise ValueError("perturbation site outside ball")
    return sites, min(int(ball.level[p]) for p in sites)


def predicted_beta(ball: Ball, sites: Iterable[int]) -> State:
    """Predicted relaxation of (max stable + one grain on each site).

    Equals alpha(min level of sites) plus the added grains; stable by
    construction, which is asserted rather than assumed.
    """
    sites, s = _site_levels(ball, sites)
    vals = alpha(s, ball).grains
    for p in sites:
        vals[p] += 1
    if vals.max() >= DEGREE:
        raise AssertionError("predicted final state came out unstable")
    return State(ball, vals)


def predicted_odometer(ball: Ball, sites: Iterable[int]) -> Odometer:
    """Predicted topple counts: min(m+1-level(v), m+1-min level of sites)."""
    _, s = _site_levels(ball, sites)
    m = ball.radius
    counts = np.subtract(m + 1, ball.level, dtype=np.int64)
    np.minimum(counts, m + 1 - s, out=counts)
    return Odometer(ball, counts)


def mass_loss(m: int) -> int:
    """Grains lost relaxing (max stable + 1 at the root) on the radius-m ball.

    Every boundary type-1 vertex leaks 4 grains and every type-2 leaks 3, once
    each; the Fibonacci form 7 (u_{2m} + u_{2m+2}) is the same number.
    """
    if m < 1:
        raise ValueError("defined for radius >= 1")
    return 7 * (fib(2 * m) + fib(2 * m + 2))


def mass_loss_ratio(m: int) -> Fraction:
    """mass_loss(m) / ball_size(m), exact; tends to sqrt(5) as m grows."""
    return Fraction(mass_loss(m), ball_size(m))


def total_topplings(m: int, s: int = 0) -> int:
    """Sum of the predicted odometer over the radius-m ball, for min level s.

    The k-th wave front is the ball of radius m + 1 - k, for k = 1..m+1-s, so
    the total is the sum of ball_size(j) over j = s..m.
    """
    if not 0 <= s <= m:
        raise ValueError("need 0 <= s <= m")
    return sum(ball_size(j) for j in range(s, m + 1))
