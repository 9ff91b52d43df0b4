"""Wave decomposition of sandpile relaxations.

Adding one grain to the maximal stable state triggers an avalanche that splits
into waves: if site p holds 6 grains and some neighbor v also holds 6, force a
topple at p and at v, and let the avalanche run.  Within one wave every vertex
topples at most once, so a wave is a front sweeping the ball; successive fronts
shrink.  Fronts are swept directly, not by calling ``sandpile.relax``: each
round fires every unstable vertex at once, which the abelian property allows.
Iterating waves at p until p is no longer at 6 next to a 6 (plus one last
forced topple when p alone is left at 6) reproduces the direct relaxation of
``max_stable + one grain at p`` exactly, state and odometer both.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .ball import DEGREE, Ball
from .errors import InvariantError
from .sandpile import Odometer, State, is_stable, max_stable


class WaveResult(NamedTuple):
    state: State
    odometer: Odometer
    wave_count: int
    fronts: list


_FULL = DEGREE - 1  # a site must sit at 6 for a wave to start


def _wave_candidates(state: State, site: int) -> list:
    if state.grains[site] != _FULL:
        return []
    return [v for v in state.ball.neighbors(site).tolist()
            if state.grains[v] == _FULL]


def _forced_wave(state: State, site: int, via: int) -> tuple:
    """Force topples at site and via, sweep the front, return (state, front ids)."""
    g = state.grains.copy()
    ball = state.ball
    ptr = ball.indptr
    toppled = np.zeros(ball.n, dtype=bool)
    fire = np.array([site, via], dtype=np.int64)
    while fire.size:
        if toppled[fire].any():
            raise InvariantError("a vertex toppled twice within one wave")
        toppled[fire] = True
        g[fire] -= DEGREE
        start, deg = ptr[fire], ptr[fire + 1] - ptr[fire]
        # positions of the fired vertices' CSR rows in indices, concatenated
        rows = np.repeat(start - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())
        hit, grains = np.unique(ball.indices[rows], return_counts=True)
        g[hit] += grains
        fire = hit[g[hit] >= DEGREE]
    return State(ball, g), np.flatnonzero(toppled)


def wave(state: State, site: int) -> State:
    """Apply one wave at ``site``; a state with no wave to run returns unchanged.

    The wave needs 6 grains at the site and at some stored neighbor; the
    lowest-id such neighbor seeds the sweep.  When several neighbors qualify,
    the wave is run again through the highest-id one, and a result that
    depends on that choice raises ``InvariantError``.
    """
    if not 0 <= site < state.ball.n:
        raise ValueError(f"site {site} out of range")
    if state.grains.min() < 0 or not is_stable(state):
        raise ValueError("waves are defined on stable nonnegative states")
    candidates = _wave_candidates(state, site)
    if not candidates:
        return state.copy()
    out, front = _forced_wave(state, site, candidates[0])
    if len(candidates) > 1:
        alt, alt_front = _forced_wave(state, site, candidates[-1])
        if not (np.array_equal(out.grains, alt.grains)
                and np.array_equal(front, alt_front)):
            raise InvariantError("wave result depends on the seed neighbor")
    return out


def wave_relax(ball: Ball, site: int) -> WaveResult:
    """Relax ``max_stable + one grain at site`` by iterated waves.

    Returns the final state, the odometer (each front adds one topple to its
    members), the number of waves, and the fronts themselves.  The trailing
    forced topple, needed when the site still holds 6 with no 6-neighbor,
    counts as a final one-vertex wave.
    """
    if not 0 <= site < ball.n:
        raise ValueError(f"site {site} out of range")
    state = max_stable(ball)
    counts = np.zeros(ball.n, dtype=np.int64)
    fronts = []
    for _ in range(ball.radius + 2):
        candidates = _wave_candidates(state, site)
        if not candidates:
            break
        state, front = _forced_wave(state, site, candidates[0])
        counts[front] += 1
        fronts.append(front)
    else:
        raise InvariantError("wave iteration failed to terminate")
    g = state.grains.copy()
    g[site] += 1
    if g[site] >= DEGREE:
        g[site] -= DEGREE
        g[ball.neighbors(site)] += 1
        counts[site] += 1
        fronts.append(np.array([site], dtype=np.int64))
    final = State(ball, g)
    if not is_stable(final):
        raise InvariantError("wave relaxation ended on an unstable state")
    return WaveResult(final, Odometer(ball, counts), len(fronts), fronts)


def wave_relax_multi(ball: Ball, sites: Iterable[int]) -> WaveResult:
    """Wave route for a multi-site perturbation of the maximal stable state.

    Runs the wave relaxation at the lowest-id site of minimal level, then
    drops the remaining grains onto the result; that sum is already stable,
    and the odometer is unchanged by the extra grains.
    """
    sites = sorted(set(int(p) for p in sites))
    if not sites:
        raise ValueError("perturbation set must be nonempty")
    if sites[0] < 0 or sites[-1] >= ball.n:
        raise ValueError("perturbation site outside ball")
    anchor = min(sites, key=lambda p: (int(ball.level[p]), p))
    result = wave_relax(ball, anchor)
    g = result.state.grains.copy()
    for p in sites:
        if p != anchor:
            g[p] += 1
    final = State(ball, g)
    if not is_stable(final):
        raise InvariantError("wave route produced an unstable multi-site state")
    return WaveResult(final, result.odometer, result.wave_count, result.fronts)
