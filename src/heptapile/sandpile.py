"""Sandpile states and relaxation on tiling balls.

A state assigns a grain count to every vertex, and an odometer a topple
count: an int8 array as given, any other values as int64.  ``perturb`` and
``topple`` return int64 where int8 would leave -128..127.  A vertex with at
least 7 grains may topple: it loses 7 and each stored neighbor gains 1, so
boundary vertices leak grains out of the ball.  Relaxation topples until every
vertex is below 7; the toppling odometer counts topples per vertex.  Every
sum of grains or counts is exact in int64 whatever the dtypes.  Three
routes, none of which runs another's relaxation code, must agree exactly,
by the abelian property and by least action:

- ``relax`` fires in rounds, every vertex holding 7 or more grains once per
  round, through ``_topple_round``, the kernel the wave route shares, and
  scatters one grain per neighbor id; ``relax`` sets out how it holds its
  fire sets, and when its counts are int8.
- ``relax_least`` topples nothing: it raises the odometer to the least
  fixed point of the least-action operator by sweeps that pull neighbor
  sums of it, and returns the state that odometer gives.
- ``relax_random`` is the scalar reference, one topple and one grain at a
  time in random legal order, in int64; it draws its choices in blocks of
  uniform integers and checks the budget once per block.

``relax`` and ``relax_random`` re-check the identity ``relaxed = start +
laplacian(odometer)``, summed in int64, after every run instead of
trusting it, so it refuses an int8 count that wrapped.  States and
odometers are saved as sparse text files, and a file loads only when it is
byte for byte what the writer writes for the values it holds.
"""

from __future__ import annotations

import io
import re
import warnings
from typing import Iterable, NamedTuple

import numpy as np

from . import ball as _ball
from .ball import (DEGREE, Ball, _check_stream, _compare_lines, _format_ints, _sign,
                   _write_signed)
from .errors import FormatError, InvariantError

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _field(values) -> np.ndarray:
    """``values`` as a field's array: an int8 array as given, any other values as int64."""
    if isinstance(values, np.ndarray) and values.dtype == np.int8:
        return values
    return np.asarray(values, dtype=np.int64)


class State:
    """Grain counts over a ball, int8 or int64. Value-like: ops return new states."""

    __slots__ = ("ball", "grains")

    def __init__(self, ball: Ball, grains):
        arr = _field(grains)
        if arr.shape != (ball.n,):
            raise ValueError(f"expected {ball.n} grain counts, got shape {arr.shape}")
        self.ball = ball
        self.grains = arr

    def __eq__(self, other) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self.ball == other.ball and np.array_equal(self.grains, other.grains)

    def __repr__(self) -> str:
        return f"State(m={self.ball.radius}, n={self.ball.n})"


class Odometer:
    """Per-vertex topple counts from one relaxation, int8 or int64."""

    __slots__ = ("ball", "counts")

    def __init__(self, ball: Ball, counts):
        arr = _field(counts)
        if arr.shape != (ball.n,):
            raise ValueError(f"expected {ball.n} counts, got shape {arr.shape}")
        if arr.size and arr.min() < 0:
            raise ValueError("odometer counts must be nonnegative")
        self.ball = ball
        self.counts = arr

    def __eq__(self, other) -> bool:
        if not isinstance(other, Odometer):
            return NotImplemented
        return self.ball == other.ball and np.array_equal(self.counts, other.counts)

    def __repr__(self) -> str:
        return f"Odometer(m={self.ball.radius}, n={self.ball.n})"


class RelaxResult(NamedTuple):
    state: State
    odometer: Odometer
    topples: int
    dequeues: int


def max_stable(ball: Ball) -> State:
    """The all-sixes state, the largest state stable everywhere, in int8."""
    return State(ball, np.full(ball.n, DEGREE - 1, dtype=np.int8))


def _added(grains: np.ndarray, ids: list, add) -> np.ndarray:
    """A copy of ``grains`` plus ``add`` at the distinct ``ids``, int64 where int8 would wrap."""
    new = grains[ids] + np.asarray(add, dtype=np.int64)
    wraps = grains.dtype == np.int8 and ((new < -128) | (new > 127)).any()
    out = grains.astype(np.int64 if wraps else grains.dtype)
    out[ids] = new
    return out


def perturb(state: State, sites: Iterable[int]) -> State:
    """Add one grain at each site (duplicates collapse: sites form a set); int8 widens at a 127."""
    sites = sorted(set(int(s) for s in sites))
    for v in sites:
        if not 0 <= v < state.ball.n:
            raise ValueError(f"site {v} outside ball")
    return State(state.ball, _added(state.grains, sites, 1))


def laplacian_delta(ball: Ball, v: int) -> dict:
    """Grain change from one topple at v: -7 there, +1 per stored neighbor."""
    if not 0 <= v < ball.n:
        raise ValueError(f"vertex {v} out of range")
    delta = {v: -DEGREE}
    for u in ball.neighbors(v).tolist():
        delta[u] = delta.get(u, 0) + 1
    return delta


def is_legal(state: State, v: int) -> bool:
    """A topple at v is legal when v holds at least 7 grains."""
    return bool(state.grains[v] >= DEGREE)


def is_stable(state: State) -> bool:
    return bool((state.grains < DEGREE).all())


def topple(state: State, v: int) -> State:
    """Apply one topple at v unconditionally (legality is the caller's); int8 never wraps."""
    delta = laplacian_delta(state.ball, v)
    return State(state.ball, _added(state.grains, list(delta), list(delta.values())))


# values per block of _exact_sum and of _check_mass, which bounds their
# temporaries
_SUM_BLOCK = 1 << 16


def _exact_sum(values: np.ndarray) -> int:
    """The exact sum of int8 or int64 values, by blocks.

    A block of int8 values is summed in int64.  An int64 value is split
    into its high and low 32 bits, whose sums over a block cannot leave
    int64; their exact recombination is a Python int.
    """
    total = 0
    for lo in range(0, values.size, _SUM_BLOCK):
        block = values[lo:lo + _SUM_BLOCK]
        if block.dtype == np.int8:
            total += int(block.sum(dtype=np.int64))
        else:
            total += (int((block >> 32).sum()) << 32) + int((block & 0xFFFFFFFF).sum())
    return total


def mass(state: State) -> int:
    """Total grains, exact; rejects totals outside the signed 64-bit range."""
    total = _exact_sum(state.grains)
    if not _INT64_MIN <= total <= _INT64_MAX:
        raise OverflowError("total mass exceeds the signed 64-bit range")
    return total


# fired vertices per slice of a _topple_round round, which bounds the round's
# entry-sized temporaries; relax and the wave route share it
_BATCH_SLICE = 1 << 14

# mean CSR row entries per run of consecutive ids from which _round_gather
# copies a slice's neighbor ids a run at a time as blocks of indices, not
# through an int64 position per entry: a block costs a Python-level slice
# per run, a position a few ns per entry, and the two meet between 42 and
# 56 entries, about 7 vertices (BENCH_row_views.json,
# "long_run_constant").  A slice of fewer than _LONG_RUN ids is read row
# by row with no run detection, whose fixed numpy calls cost more there
# than the gather (BENCH_validate_gathers.json, "micro").  In run bounds a
# run of _LONG_RUN ids or more fires in place as a piece of its own, and
# shorter runs fire together through their ids; after a set whose runs
# average fewer than _LONG_RUN ids even a wide span is read as ids, since
# run bounds made a random state slower (BENCH_run_bounds.json,
# "long_run_m12_ms" and "run_bounds_for_short_runs_random_state_m12")
_LONG_RUN = 64

# rows per block of _check_identity and of relax_least's sums, which
# bounds their entry-sized gathers
_IDENTITY_ROWS = 1 << 14

# interior rows from which _check_identity and relax_least cut their blocks
# at the outer ring: below it the cut block's fixed numpy calls cost more
# than its seven-column sums save (BENCH_int8_grains.json,
# "identity_check_us")
_SPLIT_ROWS = 1 << 12

# the widest span of ids from which a fire set is read as ids, by one
# flatnonzero; a wider span gives run bounds, read from the edges of its
# mask this many ids at a time, and _ids collects a longer
# mask's ids a block at a time.  Every span on a ball of radius 8 or less
# (11,173 vertices) is narrower, since run bounds there made verify slower,
# and from the all-sixes state at radius 12 most topples are in wider
# rounds (BENCH_run_bounds.json, "run_bounds_everywhere_verify_battery"
# and "fire_block_m12_ms")
_FIRE_BLOCK = 1 << 16


def _check_identity(before: np.ndarray, after: np.ndarray,
                    ball: Ball, counts: np.ndarray) -> None:
    """Require ``after == before + laplacian(counts)``, a block of rows at a time.

    When the ball has ``_SPLIT_ROWS`` interior rows or more, blocks end at
    the outer ring's first id, so no block holds interior and outer rows
    together.  A block's counts are gathered by ``take`` on its neighbor
    ids.  When every row of the block holds ``DEGREE`` entries, as in all
    but the outer rings, the gathered counts are summed as ``DEGREE``
    columns; other blocks sum each row's counts with ``np.add.reduceat``.
    The sums, and the ``DEGREE * counts`` term, are int64 whatever the
    dtypes, so no int8 count wraps in them, and relaxed int8 grains that
    wrapped past 127 differ from them by a multiple of 256.
    """
    ptr, idx = ball.indptr, ball.indices
    outer = int(ball.level_start[ball.radius])
    if outer < _SPLIT_ROWS:
        outer = 0  # one run of blocks: too few interior rows to cut them off
    for first, end in ((0, outer), (outer, ball.n)):
        for lo in range(first, end, _IDENTITY_ROWS):
            hi = min(lo + _IDENTITY_ROWS, end)
            a, b = ptr[lo], ptr[hi]
            # grains each vertex received: one per topple of each stored neighbor
            got = counts.take(idx[a:b])
            if (ptr[lo + 1:hi + 1] - ptr[lo:hi] == DEGREE).all():
                rows = got.reshape(-1, DEGREE)
                gain = rows[:, 0].astype(np.int64)
                for j in range(1, DEGREE):
                    gain += rows[:, j]
            else:
                gain = np.add.reduceat(got, ptr[lo:hi] - a, dtype=np.int64) if b > a else 0
            gain -= np.multiply(counts[lo:hi], DEGREE, dtype=np.int64)
            if (before[lo:hi] + gain != after[lo:hi]).any():
                raise InvariantError("relaxed state differs from start + laplacian(odometer)")


def _budget(grains: np.ndarray) -> int:
    """Topple limit for nonnegative ``grains`` (each relaxer refuses negative ones)."""
    return 1024 + 128 * (_exact_sum(grains) + grains.size)


def _ids(mask: np.ndarray, lo: int = 0) -> np.ndarray:
    """``lo`` plus the positions of the true entries of ``mask``, ascending, as int32.

    A mask of at most ``_FIRE_BLOCK`` entries takes one ``flatnonzero``; a
    longer one is collected a block at a time, which spares an int64 id
    array as large as the mask.
    """
    if mask.size <= _FIRE_BLOCK:
        # ids are below n < 2**31, so the int64 sums fit int32
        return np.add(np.flatnonzero(mask), lo, dtype=np.int32, casting="unsafe")
    ids = np.empty(np.count_nonzero(mask), dtype=np.int32)
    at = 0
    for block in range(0, mask.size, _FIRE_BLOCK):
        part = np.flatnonzero(mask[block:block + _FIRE_BLOCK])
        # ids are below n < 2**31, so the int64 sums fit int32
        np.add(part, lo + block, out=ids[at:at + part.size], casting="unsafe")
        at += part.size
    return ids


def _round_rows(ptr: np.ndarray, idx: np.ndarray, first: np.ndarray,
                last: np.ndarray) -> np.ndarray:
    """The CSR rows of the runs ``first[i]`` to ``last[i]`` of consecutive ids, concatenated in order.

    Consecutive ids have adjacent rows, so each run's rows are one block of
    ``idx``.  Blocks that average ``_LONG_RUN`` row entries or more are
    copied one at a time; shorter ones are read by ``take`` through
    positions that one ``np.repeat`` over the blocks expands.
    """
    lo, hi = ptr.take(first), ptr[1:].take(last)
    width = hi - lo
    end = np.cumsum(width)  # where each block's entries end in the output
    if end[-1] >= _LONG_RUN * width.size:
        return np.concatenate([idx[a:b] for a, b in zip(lo.tolist(), hi.tolist())])
    return idx.take(np.arange(end[-1]) + np.repeat(lo + width - end, width))


def _round_gather(ptr: np.ndarray, idx: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The neighbor ids of the ascending ids ``f`` (at least one), their CSR rows concatenated in order.

    A slice of fewer than ``_LONG_RUN`` ids skips finding its runs and
    takes each id's row as a block; a larger one is cut where an id is not
    one more than the last.
    """
    if f.size < _LONG_RUN:
        return _round_rows(ptr, idx, f, f)
    step = np.flatnonzero(np.diff(f) != 1)  # the last index of every run but the final one
    return _round_rows(ptr, idx, f.take(np.concatenate(([0], step + 1))),
                       f.take(np.append(step, f.size - 1)))


def _round_pieces(ptr: np.ndarray, idx: np.ndarray, fire: np.ndarray):
    """The pieces in which ``_topple_round`` fires ``fire``: ``(a, b, f, fed)`` each.

    A piece holds ids from ``a`` to ``b - 1``: all of them, fired through
    slices, when ``f`` is None, else the ascending intp ids ``f``.  ``fed``
    holds their neighbor ids, their CSR rows concatenated.  Ids are cut
    into slices of ``_BATCH_SLICE``, and a slice that is one run is a
    piece of consecutive ids.  Of run bounds, each slice of a run of at
    least ``_LONG_RUN`` ids is one, read in place; the shorter runs are
    grouped into pieces of about ``_BATCH_SLICE`` ids, or one run when it
    is longer, whose ids one ``np.repeat`` expands and whose rows are read
    per run, with no search for the runs' ends.
    """
    if fire.ndim == 1:
        for lo in range(0, fire.size, _BATCH_SLICE):
            f = fire[lo:lo + _BATCH_SLICE]
            a, b = int(f[0]), int(f[-1]) + 1
            if b - a == f.size:  # ascending distinct ids: one run
                yield a, b, None, idx[ptr[a]:ptr[b]]
            else:
                # numpy casts an index array of any other dtype again on
                # each of the slice's gathers and scatters
                f = f.astype(np.intp)
                yield a, b, f, _round_gather(ptr, idx, f)
        return
    length = fire[:, 1] - fire[:, 0]
    long = length >= _LONG_RUN
    for start, stop in fire[long].tolist():
        for a in range(start, stop, _BATCH_SLICE):
            b = min(a + _BATCH_SLICE, stop)
            yield a, b, None, idx[ptr[a]:ptr[b]]
    short = fire[~long]
    if not short.size:
        return
    first, last = short[:, 0], short[:, 1] - 1
    length = length[~long]
    end = np.cumsum(length)  # ids in the short runs up to each one's end
    shift = first - end + length  # a run's ids less their places among them
    # a group ends at the first run whose end reaches each multiple of the slice
    cut = np.searchsorted(end, np.arange(_BATCH_SLICE, end[-1], _BATCH_SLICE)) + 1
    for i, j in zip([0, *cut.tolist()], [*cut.tolist(), end.size]):
        if i < j:
            f = np.arange(end[i] - length[i], end[j - 1]) + np.repeat(shift[i:j], length[i:j])
            yield (int(first[i]), int(last[j - 1]) + 1, f,
                   _round_rows(ptr, idx, first[i:j], last[i:j]))


def _short_runs(fire: np.ndarray | None) -> bool:
    """Whether the runs of a fire set, ids or run bounds, average fewer than ``_LONG_RUN`` ids."""
    if fire is None:
        return False
    if fire.ndim == 2:
        return int((fire[:, 1] - fire[:, 0]).sum()) < _LONG_RUN * len(fire)
    runs = 1 + np.count_nonzero(np.diff(fire) != 1)
    return fire.size < _LONG_RUN * runs


def _round_fire_set(g: np.ndarray, lo: int, hi: int, fired: np.ndarray | None) -> np.ndarray:
    """The ids from ``lo`` to ``hi - 1`` that hold 7 or more; every other id must hold fewer.

    A span of at most ``_FIRE_BLOCK`` ids gives those ids, ascending, as
    int32, from one ``flatnonzero``.  A wider one is read a block of
    ``_FIRE_BLOCK`` ids at a time.  After a fire set ``fired`` whose runs
    average fewer than ``_LONG_RUN`` ids, as in a random state, where run
    bounds would cost more than the ids they replace, it gives ids too.
    Otherwise it gives run bounds: an (r, 2) int32 array of ascending,
    disjoint ``(start, stop)`` pairs, each a maximal run of consecutive
    ids, from the edges of the ``>= 7`` mask, so no id is written for a
    vertex inside a run.  The id before ``lo`` holds fewer than 7, and a
    run that reaches ``hi - 1`` stops at ``hi``.
    """
    if hi - lo <= _FIRE_BLOCK:
        return _ids(g[lo:hi] >= DEGREE, lo)
    ids = _short_runs(fired)
    mask = np.empty(_FIRE_BLOCK + 1, dtype=bool)  # the id before a block, then the block
    edge = np.empty(_FIRE_BLOCK, dtype=bool)
    found = []
    mask[0] = False
    for a in range(lo, hi, _FIRE_BLOCK):
        b = min(a + _FIRE_BLOCK, hi)
        m, e = mask[:b - a + 1], edge[:b - a]
        np.greater_equal(g[a:b], DEGREE, out=m[1:])
        if not ids:
            # a run starts or stops at a + i where the mask changes from id a + i - 1
            np.not_equal(m[1:], m[:-1], out=e)
        found.append(np.add(np.flatnonzero(m[1:] if ids else e), a, dtype=np.int32,
                            casting="unsafe"))
        mask[0] = m[-1]
    if ids:
        return np.concatenate(found)
    if mask[0]:
        found.append(np.array([hi], dtype=np.int32))
    return np.concatenate(found).reshape(-1, 2)


def _topple_round(g: np.ndarray, odo: np.ndarray, ball: Ball, fire: np.ndarray,
                  toppled: np.ndarray | None = None) -> np.ndarray:
    """Topple each vertex of ``fire`` once; returns the next fire set.

    A fire set is ascending int32 ids or run bounds, an (r, 2) int32 array
    of ascending, disjoint ``(start, stop)`` pairs of consecutive ids, as
    ``_round_fire_set`` reads it.  ``fire`` holds every vertex with 7 or
    more grains, so after the round only a fired vertex or one that gained
    grains can hold 7 or more, and the next fire set is read from the span
    between the smallest and the largest id the round fired or fed,
    whatever the CSR.
    The grains are scattered a piece at a time (``_round_pieces``), one
    per neighbor id; additions commute, so the pieces change no value.
    When ``toppled`` is given, each fired vertex is marked in it, and a
    vertex marked already raises ``InvariantError``.  ``g`` and ``odo`` may
    each be int8 or int64: the kernel scatters a scalar of the grains'
    dtype and leaves the choices, and the proofs that no value leaves
    them, to its callers.
    """
    ptr, idx = ball.indptr, ball.indices
    one = g.dtype.type(1)  # np.add.at leaves its fast path for a Python 1
    first, end = g.size, 0
    for a, b, f, fed in _round_pieces(ptr, idx, fire):
        hit = slice(a, b) if f is None else f
        if toppled is not None:
            if toppled[hit].any():
                raise InvariantError("a vertex toppled twice within one wave")
            toppled[hit] = True
        g[hit] -= DEGREE
        odo[hit] += 1
        if fed.size:
            a, b = min(a, int(fed.min())), max(b, int(fed.max()) + 1)
        first, end = min(first, a), max(end, b)
        np.add.at(g, fed, one)
    return _round_fire_set(g, first, end, fire)


def relax(state: State) -> RelaxResult:
    """Topple until stable, in rounds that fire every vertex holding 7 or more grains once.

    This is the parallel chip-firing schedule: a vertex holding 14 or more
    grains fires again in the next round.  The first fire set is a scan of
    the whole grain array; then ``_topple_round``, the kernel the wave route
    shares, topples and scatters the grains a piece at a time and reads the
    next fire set from the span of ids the round fired or fed.  A fire set
    is int32 ids, 4 bytes per fired vertex, when it was read from a span of
    at most ``_FIRE_BLOCK`` ids or after a set whose runs average fewer
    than ``_LONG_RUN`` ids, and run bounds, 8 bytes per run, otherwise.
    Additions commute, so the pieces change no result, and the round's
    temporaries stay a few MiB at any radius.  Each topple is one
    (vertex, round) pick, so ``dequeues`` equals ``topples``.  The budget
    bounds every grain and odometer entry, so below 2**62 the int64 counts
    cannot wrap.  The working grains, returned as the relaxed state, are
    int8 when the start's largest count is at most 120 and int64
    otherwise: a round fires each vertex once, so on a ball from
    ``build_ball`` or ``load_ball`` no count passes max(start max, 13) + 7,
    and on any other CSR a count that wraps past 127 ends a multiple of 256
    below its value, which the int64 identity check refuses.  Nor does an
    odometer entry exceed the rounds fired so far: the int8 odometer is
    widened to int64 before the 128th round.
    """
    ball = state.ball
    if state.grains.min() < 0:
        raise ValueError("relaxation requires nonnegative grain counts")
    budget = _budget(state.grains)
    if budget >= 2**62:
        raise OverflowError("too many grains to relax in 64-bit counts")
    g = state.grains.astype(np.int8 if state.grains.max() <= 127 - DEGREE else np.int64)
    odo = np.zeros(ball.n, dtype=np.int8)
    topples = rounds = 0
    fire = _round_fire_set(g, 0, ball.n, None)
    while fire.size:
        topples += fire.size if fire.ndim == 1 else int((fire[:, 1] - fire[:, 0]).sum())
        if topples > budget:
            raise InvariantError("toppling budget exhausted; relaxation diverged")
        if rounds == 127:  # the next round could take an entry to 128
            odo = odo.astype(np.int64)
        rounds += 1
        fire = _topple_round(g, odo, ball, fire)
    _check_identity(state.grains, g, ball, odo)
    return RelaxResult(State(ball, g), Odometer(ball, odo), topples, topples)


def _least_blocks(lo: int, hi: int, cut: int):
    """``relax_least``'s blocks ``(a, b)`` of the rows ``lo`` to ``hi - 1``, none across ``cut``."""
    for first, end in ((lo, min(hi, cut)), (max(lo, cut), hi)):
        for a in range(first, end, _IDENTITY_ROWS):
            yield a, min(a + _IDENTITY_ROWS, end)


def _least_pull(u: np.ndarray, ptr: np.ndarray, idx: np.ndarray, a: int, b: int) -> np.ndarray:
    """The int64 sums of ``u`` over the CSR rows of ``a`` to ``b - 1``.

    They are summed as ``DEGREE`` columns when each row holds ``DEGREE``
    entries, as below the outer ring, else row by row by ``np.add.reduceat``.
    """
    got = u.take(idx[ptr[a]:ptr[b]])
    if got.size == DEGREE * (b - a) and (ptr[a + 1:b + 1] - ptr[a:b] == DEGREE).all():
        rows = got.reshape(-1, DEGREE)
        pull = rows[:, 0].astype(np.int64)
        for j in range(1, DEGREE):
            pull += rows[:, j]
        return pull
    if not got.size:  # the radius-0 ball's one empty row
        return np.zeros(b - a, dtype=np.int64)
    return np.add.reduceat(got, ptr[a:b] - ptr[a], dtype=np.int64)


def relax_least(state: State) -> RelaxResult:
    """Relax by least action: the odometer as a least fixed point, reached by pulling.

    By the least action principle (Fey, Levine and Peres, J. Stat. Phys.
    138, 2010) the odometer of ``s = state.grains`` is the least u >= 0
    for which s + laplacian(u) is stable, that is with T(u) <= u, where
    T(u)(v) = floor((s(v) + sum of u over v's row) / 7).  T is monotone,
    so that u is T's least fixed point (Kleene): from u = 0, raising
    entries to their values under T keeps u <= T(u) and u below the fixed
    point, until no entry changes.  A sweep does so in place, a block of
    rows at a time, from their neighbor sums of u: no grain array is kept
    and no grain scattered.  The first sweep spans every row, each later
    one the ids the last one's changes reach: from the smallest to the
    largest entry of each block's rows from its first to last changed id.
    The state is s + laplacian(u); one outside 0..6, more changing sweeps than
    the toppling budget, or an entry above it raises ``InvariantError``.
    Where the other routes check their results against the ball, it takes
    the ball on trust: that v is in w's row exactly when w is in v's, and
    that a row holds at most 7 entries, so that below a budget of 2**60 no
    sum leaves int64.  u is int8 until an entry would pass 127; the state
    is int8.  ``topples`` and ``dequeues`` are the odometer's sum.
    """
    ball, s = state.ball, state.grains
    if s.min() < 0:
        raise ValueError("relaxation requires nonnegative grain counts")
    budget = _budget(s)
    if budget >= 2**60:
        raise OverflowError("too many grains to relax in 64-bit counts")
    ptr, idx = ball.indptr, ball.indices
    outer = int(ball.level_start[ball.radius])
    cut = outer if outer >= _SPLIT_ROWS else 0  # as the identity check cuts its blocks
    u = np.zeros(ball.n, dtype=np.int8)
    lo, hi, sweeps = 0, ball.n, 0
    while lo < hi:
        first, end = ball.n, 0
        for a, b in _least_blocks(lo, hi, cut):
            t = _least_pull(u, ptr, idx, a, b)
            t += s[a:b]
            t //= DEGREE
            moved = np.flatnonzero(t != u[a:b])
            if not moved.size:
                continue
            top = t.max()
            if top > budget:
                raise InvariantError("odometer entry beyond the toppling budget")
            if top > 127 and u.dtype == np.int8:
                u = u.astype(np.int64)
            u[a:b] = t
            reach = idx[ptr[a + moved[0]]:ptr[a + moved[-1] + 1]]  # may be empty at radius 0
            first, end = int(reach.min(initial=first)), int(reach.max(initial=end - 1)) + 1
        lo, hi = first, end
        sweeps += lo < hi
        if sweeps > budget:
            raise InvariantError("sweep budget exhausted; relaxation diverged")
    final = np.empty(ball.n, dtype=np.int8)
    for a, b in _least_blocks(0, ball.n, cut):
        r = _least_pull(u, ptr, idx, a, b) + s[a:b] - DEGREE * u[a:b].astype(np.int64)
        if r.min() < 0 or r.max() >= DEGREE:
            raise InvariantError("least-action odometer leaves a state outside 0..6")
        final[a:b] = r
    topples = _exact_sum(u)
    return RelaxResult(State(ball, final), Odometer(ball, u), topples, topples)


# uniform 53-bit integers drawn per block of relax_random's step choices; a
# small block wastes few draws at the end of a short relaxation, and blocks
# of 4,096 raised the process peak of 200 radius-4 orders by about 0.4 MiB
_DRAWS = 1 << 8


def relax_random(state: State, rng: np.random.Generator) -> RelaxResult:
    """Relax by toppling a uniformly random legal vertex at each step.

    Slow; exists so tests can compare arbitrary legal toppling orders against
    the round kernel.  The choices are drawn ``_DRAWS`` at a time as uniform
    integers x below 2**53; x picks ``unstable[x * len(unstable) >> 53]``.
    The list holds distinct vertices, fewer than 2**31, so each pick's
    probability is within a relative 2**-22 of uniform.  The budget is
    checked once per block of draws.
    """
    g = state.grains.tolist()
    if min(g) < 0:
        raise ValueError("relaxation requires nonnegative grain counts")
    ball = state.ball
    ptr, idx = memoryview(ball.indptr), memoryview(ball.indices)
    seven = DEGREE
    odo = [0] * ball.n
    unstable = np.flatnonzero(state.grains >= seven).tolist()
    push, pop = unstable.append, unstable.pop
    budget = _budget(state.grains)
    topples = 0
    while unstable:
        for step, x in enumerate(rng.integers(0, 1 << 53, _DRAWS).tolist(), 1):
            i = x * len(unstable) >> 53
            v = unstable[i]
            last = pop()
            if i < len(unstable):
                unstable[i] = last
            gv = g[v] - seven
            g[v] = gv
            odo[v] += 1
            for u in idx[ptr[v]:ptr[v + 1]]:
                gu = g[u] + 1
                g[u] = gu
                if gu == seven:
                    push(u)
            if gv >= seven:
                push(v)
            if not unstable:
                break
        topples += step
        if topples > budget:
            raise InvariantError("toppling budget exhausted; relaxation diverged")
    final = np.array(g, dtype=np.int64)
    counts = np.array(odo, dtype=np.int64)
    _check_identity(state.grains, final, ball, counts)
    return RelaxResult(State(ball, final), Odometer(ball, counts), topples, topples)


# entries of a field counted at once by _default, at least: a block is
# as long as the field's value range if that is longer, so no block's count
# costs more than its entries
_COUNT_BLOCK = 1 << 14


def _default(values: np.ndarray) -> int:
    """The most frequent value of ``values``; ties break toward the smaller.

    A field whose value range is no wider than its length is counted with
    ``np.bincount`` a block at a time, with no copy of the field; a wider
    one is counted by ``np.unique``, which sorts a copy.
    """
    lo, hi = int(values.min()), int(values.max())
    if hi - lo >= values.size:
        uniq, counts = np.unique(values, return_counts=True)
        return int(uniq[np.argmax(counts)])
    counts = np.zeros(hi - lo + 1, dtype=np.int64)
    step = max(_COUNT_BLOCK, counts.size)
    for a in range(0, values.size, step):
        part = np.bincount(np.subtract(values[a:a + step], lo, dtype=np.int64))
        counts[:part.size] += part
    return lo + int(np.argmax(counts))


_FIELD_HEADER = re.compile(
    rb"(HEPTASTATE|HEPTAODOM) v2 m=(\d{1,19}) n=(\d{1,19}) default=(-?\d{1,19})")


def _field_lines(tag: str, ball: Ball, values: np.ndarray):
    """The serialized field up to its CHECK line, as chunks of bytes.

    Each chunk holds as many tokens as a ball chunk of ``_WRITE_ROWS``
    interior lines, two per entry line.
    """
    default = _default(values)
    yield f"{tag} v2 m={ball.radius} n={ball.n} default={default}\n".encode("ascii")
    ids = np.flatnonzero(values != default)
    step = _ball._WRITE_ROWS * (4 + DEGREE) // 2
    for lo in range(0, ids.size, step):
        part = ids[lo:lo + step]
        yield _format_ints(np.column_stack((part, values[part])),
                           np.frombuffer(b" \n", dtype=np.uint8))


def _read_field(fh, tag: str, ball: Ball) -> np.ndarray:
    """The values that the signed field file ``fh`` holds for ``ball``.

    The body is parsed loosely into id/value pairs, then the whole file is
    compared with what ``_field_lines`` writes for the values they give, so
    only the writer's own bytes load.
    """
    head, _, cut = _check_stream(fh)
    header = _FIELD_HEADER.fullmatch(head)
    if header is None or header.group(1) != tag.encode("ascii"):
        raise FormatError(f"malformed {tag} header: {head!r}")
    m, n, default = (int(header.group(i)) for i in (2, 3, 4))
    if m != ball.radius or n != ball.n:
        raise FormatError(
            f"stream is for m={m}, n={n}; ball has m={ball.radius}, n={ball.n}")
    if not _INT64_MIN <= default <= _INT64_MAX:
        raise FormatError(f"default {default} outside signed 64-bit range")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1.x warns and stops where 2.x raises
            tokens = np.fromstring(fh.read(cut - fh.tell()), dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        raise FormatError("lines must hold integers separated by single spaces") from None
    if tokens.size % 2:
        raise FormatError("each entry line must hold a vertex id and a value")
    ids = tokens[0::2]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise FormatError("entry for a vertex out of range")
    values = np.full(n, default, dtype=np.int64)
    values[ids] = tokens[1::2]
    _compare_lines(fh, _field_lines(tag, ball, values), cut, f"the {tag} it holds")
    return values


def _read_odometer(fh, ball: Ball) -> Odometer:
    values = _read_field(fh, "HEPTAODOM", ball)
    if values.size and values.min() < 0:
        raise FormatError("odometer entries must be nonnegative")
    return Odometer(ball, values)


def serialize_state(state: State) -> bytes:
    return _sign(b"".join(_field_lines("HEPTASTATE", state.ball, state.grains)))


def deserialize_state(data: bytes, ball: Ball) -> State:
    return State(ball, _read_field(io.BytesIO(data), "HEPTASTATE", ball))


def serialize_odometer(odometer: Odometer) -> bytes:
    return _sign(b"".join(_field_lines("HEPTAODOM", odometer.ball, odometer.counts)))


def deserialize_odometer(data: bytes, ball: Ball) -> Odometer:
    return _read_odometer(io.BytesIO(data), ball)


def save_state(state: State, path) -> None:
    _write_signed(path, _field_lines("HEPTASTATE", state.ball, state.grains))


def load_state(path, ball: Ball) -> State:
    with open(path, "rb") as fh:
        return State(ball, _read_field(fh, "HEPTASTATE", ball))


def save_odometer(odometer: Odometer, path) -> None:
    _write_signed(path, _field_lines("HEPTAODOM", odometer.ball, odometer.counts))


def load_odometer(path, ball: Ball) -> Odometer:
    with open(path, "rb") as fh:
        return _read_odometer(fh, ball)
