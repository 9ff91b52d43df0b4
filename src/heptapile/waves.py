"""Wave decomposition of sandpile relaxations.

Adding one grain to the maximal stable state triggers an avalanche that splits
into waves: if site p holds 6 grains and some neighbor v also holds 6, force a
topple at p and at v, and let the avalanche run.  Within one wave every vertex
topples at most once, so a wave is a front sweeping the ball; successive fronts
shrink.  Fronts are swept in rounds, not by calling ``sandpile.relax``:
each round fires every unstable vertex once, which the abelian property
allows, through ``relax_batch``'s round kernel ``sandpile._topple_round``.
A fire set read from a span of at most ``sandpile._FIRE_BLOCK`` ids, or
after one whose runs average fewer than ``sandpile._LONG_RUN`` ids, is
held as int32 ids, any other as run bounds, ascending (start, stop) pairs
of consecutive ids: a front from the all-sixes state is a few rings or
arcs.  The kernel fires each run of at least ``sandpile._LONG_RUN`` ids,
and each slice of ids that is one run, in place, adds one grain per row
entry, and reads the next fire set from the span of ids the round fired or
fed, so a round's temporaries stay a few MiB at any radius.  One scratch
mask of toppled vertices serves every wave of a relaxation: the kernel
tests and marks each piece it fires in it, a run through a slice of it,
and each wave's front is collected from, and cleared over, only the span
of ids the wave fired.
The working grains are int8: a wave starts on a stable state and fires
each vertex once, so on a ball from ``build_ball`` or ``load_ball``, where
a vertex is listed in at most 7 rows, no count passes 13.  On any other
CSR a count may pass 127 and wrap; since a topple takes 7 from 6 or more,
only upward wraps occur, each leaving the grains' sum 256 short, so the
route checks that sum against the start plus its topples' grains and
refuses a mismatch.
Iterating waves at p until p is no longer at 6 next to a 6 (plus one last
forced topple when p alone is left at 6) reproduces the direct relaxation of
``max_stable + one grain at p`` exactly, state and odometer both.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from . import sandpile as _sandpile
from .ball import DEGREE, Ball
from .errors import InvariantError
from .sandpile import Odometer, State, is_stable


class WaveResult(NamedTuple):
    """``fronts`` holds each wave's toppled vertex ids, ascending, as int32."""

    state: State
    odometer: Odometer
    wave_count: int
    fronts: list


_FULL = DEGREE - 1  # a site must sit at 6 for a wave to start


def _wave_candidates(ball: Ball, g: np.ndarray, site: int) -> list:
    if g[site] != _FULL:
        return []
    return [v for v in ball.neighbors(site).tolist() if g[v] == _FULL]


def _check_mass(ball: Ball, g: np.ndarray, counts: np.ndarray, start: int) -> None:
    """Require ``g`` to hold ``start`` grains plus what the topples ``counts`` give.

    Each topple at v takes 7 grains and gives one per entry of v's row.
    int8 grains are exact modulo 256, and only a count passing 127 can
    wrap, since a topple takes 7 from 6 or more, so each wrap leaves their
    sum 256 short.
    """
    ptr, block = ball.indptr, _sandpile._SUM_BLOCK
    want = start
    for lo in range(0, ball.n, block):
        hi = min(lo + block, ball.n)
        want += int(np.dot(counts[lo:hi], np.diff(ptr[lo:hi + 1]) - DEGREE))
    if int(g.sum(dtype=np.int64)) != want:
        raise InvariantError("wave grains differ from the start plus their topples")


def _forced_wave(ball: Ball, g: np.ndarray, counts: np.ndarray, toppled: np.ndarray,
                 site: int, via: int) -> np.ndarray:
    """Force topples at site and via and sweep the front, in place on the grains g.

    Returns the front, the ids of the vertices that toppled, ascending, as
    int32; ``counts`` gains one topple at each.  ``toppled`` is the
    caller's scratch mask, all false on entry and again on return.  Each
    round fires its fire set once through ``sandpile._topple_round``, which
    tests and marks each vertex it fires in ``toppled`` and returns every
    vertex then holding 7 or more grains, as ids or as run bounds, so a
    vertex that toppled and reaches 7 again trips the toppled-twice check
    when it is fired again.  The front is collected from the span of ids
    the wave fired, which is then cleared.
    """
    fire = np.array(sorted((site, via)), dtype=np.int32)
    first = last = site
    while fire.size:
        if fire.ndim == 1:
            first, last = min(first, int(fire[0])), max(last, int(fire[-1]))
        else:  # run bounds
            first, last = min(first, int(fire[0, 0])), max(last, int(fire[-1, 1]) - 1)
        fire = _sandpile._topple_round(g, counts, ball, fire, toppled)
    span = toppled[first:last + 1]
    front = _sandpile._ids(span, first)
    span[:] = False
    return front


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
    ball = state.ball
    candidates = _wave_candidates(ball, state.grains, site)
    if not candidates:
        return State(ball, state.grains.copy())
    # int8 working grains, as in wave_relax
    out = state.grains.astype(np.int8)
    counts = np.zeros(ball.n, dtype=np.int64)  # scratch: a wave keeps no odometer
    toppled = np.zeros(ball.n, dtype=bool)
    front = _forced_wave(ball, out, counts, toppled, site, candidates[0])
    _check_mass(ball, out, counts, int(state.grains.sum()))
    if len(candidates) > 1:
        alt = state.grains.astype(np.int8)
        alt_front = _forced_wave(ball, alt, counts, toppled, site, candidates[-1])
        if not (np.array_equal(out, alt) and np.array_equal(front, alt_front)):
            raise InvariantError("wave result depends on the seed neighbor")
    return State(ball, out)


def wave_relax(ball: Ball, site: int) -> WaveResult:
    """Relax ``max_stable + one grain at site`` by iterated waves.

    Returns the final state, the odometer (each front adds one topple to its
    members), the number of waves, and the fronts themselves.  The trailing
    forced topple, needed when the site still holds 6 with no 6-neighbor,
    counts as a final one-vertex wave.  The waves sweep one grain array in
    place and share one scratch mask of toppled vertices.  The grains are
    int8, widened in place to the int64 state at the end: no count passes
    13 on a ball from ``build_ball`` or ``load_ball``, and on any other CSR
    a count that wraps past 127 leaves the grains' sum 256 short, which the
    mass check refuses.
    """
    if not 0 <= site < ball.n:
        raise ValueError(f"site {site} out of range")
    # the int8 grains are the first n bytes of the int64 state, whose other
    # pages stay untouched until the grains are widened in place
    wide = np.empty(ball.n, dtype=np.int64)
    g = wide.view(np.int8)[:ball.n]
    g[:] = _FULL
    counts = np.zeros(ball.n, dtype=np.int64)
    toppled = np.zeros(ball.n, dtype=bool)  # every wave's scratch mask
    fronts = []
    for _ in range(ball.radius + 2):
        candidates = _wave_candidates(ball, g, site)
        if not candidates:
            break
        fronts.append(_forced_wave(ball, g, counts, toppled, site, candidates[0]))
    else:
        raise InvariantError("wave iteration failed to terminate")
    del toppled  # held through the stability scan below, it would raise the peak by n bytes
    g[site] += 1
    if g[site] >= DEGREE:
        g[site] -= DEGREE
        np.add.at(g, ball.neighbors(site), g.dtype.type(1))
        counts[site] += 1
        fronts.append(np.array([site], dtype=np.int32))
    if not (g < DEGREE).all():
        raise InvariantError("wave relaxation ended on an unstable state")
    _sandpile._widen(wide)
    _check_mass(ball, wide, counts, _FULL * ball.n + 1)
    return WaveResult(State(ball, wide), Odometer(ball, counts), len(fronts), fronts)


def wave_relax_multi(ball: Ball, sites: Iterable[int]) -> WaveResult:
    """Wave route for a multi-site perturbation of the maximal stable state.

    Runs the wave relaxation at the lowest-id site of minimal level, then
    drops the remaining grains onto its state in place, with no copy of the
    grains; that sum is already stable, and the odometer is unchanged by the
    extra grains.
    """
    sites = sorted(set(int(p) for p in sites))
    if not sites:
        raise ValueError("perturbation set must be nonempty")
    if sites[0] < 0 or sites[-1] >= ball.n:
        raise ValueError("perturbation site outside ball")
    anchor = min(sites, key=lambda p: (int(ball.level[p]), p))
    result = wave_relax(ball, anchor)
    result.state.grains[[p for p in sites if p != anchor]] += 1
    if not is_stable(result.state):
        raise InvariantError("wave route produced an unstable multi-site state")
    return result
