"""Sandpile states and relaxation on tiling balls.

A state assigns a signed 64-bit grain count to every vertex.  A vertex with at
least 7 grains may topple: it loses 7 and each stored neighbor gains 1, so
boundary vertices leak grains out of the ball.  Relaxation topples until every
vertex is below 7; the toppling odometer counts topples per vertex, and the
identity ``relaxed = start + laplacian(odometer)`` is re-checked after every
run instead of trusted.  ``relax`` and ``relax_batch`` keep their working
grains as int8 when the start's largest count is at most 120 (127 - 7),
and as int64 through the same code otherwise.  On a ball from
``build_ball`` or ``load_ball`` a vertex is listed in at most 7 rows, once
in each, so in one generation or round a vertex gains at most 7 grains and
one holding 7 or more fires once: no count passes max(start max, 13) + 7.
On any other CSR a count may pass 127 and wrap; int8 sums are exact modulo
256 and a topple takes 7 from 7 or more, so only upward wraps occur, each
leaving a count 256 short, and the int64 identity check refuses the
result.  Odometers, states and the budget stay int64.  By the abelian
property three schedules must agree
exactly: a FIFO queue (``relax``), rounds that fire every unstable vertex
once (``relax_batch``) and random legal order (``relax_random``).  The queue
and random-order engines share no code with ``relax_batch`` or the wave route.
``relax`` walks its queue one generation at a time and ``relax_batch``
fires in rounds through one kernel, ``_topple_round``, that the wave route
shares.  Each, in code of its own, reads the next generation or fire set
only from the span between the smallest and the largest id that the last
one fired or fed: as ids when the span holds at most ``_FIRE_BLOCK`` ids,
as on every ball of radius 8 or less, where a set holds a few dozen ids
and numpy calls cost more than the ids they read, or when the last set's
runs average fewer than ``_LONG_RUN`` ids; else as run bounds,
ascending, disjoint (start, stop) pairs of consecutive ids, read from the
edges of the ``>= 7`` mask a block at a time, so no scan writes an id per
unstable vertex.  From the all-sixes
state a wide set is a few rings or arcs, a few hundred runs at most.  A
slice of ids that is one run, and a run of at least ``_LONG_RUN`` ids in
run bounds, fires through slices of the grains and the odometer and reads
its neighbor ids in place as one block of the CSR; other ids fire through
their ids.  Each piece adds one grain per neighbor id with ``np.add.at``:
by the abelian property the pieces change no count, and a piece's
temporaries stay a few MiB at any radius.  ``relax_random`` is the scalar
reference, one topple and one grain at a time, and draws its choices in
blocks of uniform integers and checks the budget once per block.  The
identity check ends its blocks at the outer ring's first id, so every
block of interior rows sums its full rows as seven columns.  Sums of
grains are taken a block at a time in exact integers.  States and
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


class State:
    """Grain counts over a ball. Value-like: ops return new states."""

    __slots__ = ("ball", "grains")

    def __init__(self, ball: Ball, grains):
        arr = np.asarray(grains, dtype=np.int64)
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
    """Per-vertex topple counts from one relaxation."""

    __slots__ = ("ball", "counts")

    def __init__(self, ball: Ball, counts):
        arr = np.asarray(counts, dtype=np.int64)
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
    """The all-sixes state, the largest state stable everywhere."""
    return State(ball, np.full(ball.n, DEGREE - 1, dtype=np.int64))


def perturb(state: State, sites: Iterable[int]) -> State:
    """Add one grain at each site (duplicates collapse: sites form a set)."""
    out = state.grains.copy()
    for v in sorted(set(int(s) for s in sites)):
        if not 0 <= v < state.ball.n:
            raise ValueError(f"site {v} outside ball")
        out[v] += 1
    return State(state.ball, out)


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
    """Apply one topple at v unconditionally (legality is the caller's business)."""
    out = state.grains.copy()
    for u, d in laplacian_delta(state.ball, v).items():
        out[u] += d
    return State(state.ball, out)


# values per block of _exact_sum and of the in-place widening of int8
# grains, which bounds their temporaries
_SUM_BLOCK = 1 << 16


def _exact_sum(values: np.ndarray) -> int:
    """The exact sum of int64 values, by blocks.

    Each value is split into its high and low 32 bits, whose sums over a
    block cannot leave int64; their exact recombination is a Python int.
    """
    total = 0
    for lo in range(0, values.size, _SUM_BLOCK):
        block = values[lo:lo + _SUM_BLOCK]
        total += (int((block >> 32).sum()) << 32) + int((block & 0xFFFFFFFF).sum())
    return total


def mass(state: State) -> int:
    """Total grains, exact; rejects totals outside the signed 64-bit range."""
    total = _exact_sum(state.grains)
    if not _INT64_MIN <= total <= _INT64_MAX:
        raise OverflowError("total mass exceeds the signed 64-bit range")
    return total


# fired vertices per slice of a _topple_round round, which bounds the round's
# entry-sized temporaries; relax_batch and the wave route share it
_BATCH_SLICE = 1 << 14

# queued vertices per slice of a relax generation, which bounds the
# temporaries of a slice of more than one run: about 7 int32 neighbor ids
# per vertex, and an int64 position beside each when its runs are short.
# Best-of-k seconds per relax of max_stable + root at radius 8 / 12 / 13
# over two runs: 1 << 12 0.9-1.0 ms / 0.031-0.034 s / 0.09-0.11 s; 1 << 13
# 1.0-1.7 ms / 0.033-0.049 s / 0.10 s; 1 << 14 0.9-1.7 ms / 0.030-0.049 s /
# 0.09-0.13 s; 1 << 15 1.0-1.7 ms / 0.041-0.051 s / 0.10-0.11 s.  The
# traced peak at radius 12 was 25.0 B per vertex at every size, set by the
# grains, the odometer, two generations of ids and the scan's mask, not by
# a slice; with wide generations held as run bounds it is 21.5 B.  The
# times drift by half between runs on a 2-core host, so no size wins
# clearly
_QUEUE_SLICE = 1 << 14

# mean CSR row entries per run of consecutive ids from which _queue_gather
# and _round_gather copy a slice's neighbor ids a run at a time as blocks
# of indices, not through an int64 position per entry: a block costs a
# Python-level slice per run, a position a few ns per entry.  Slices of
# 16,384 ids at radius 12 in runs of 1 / 6 / 8 / 16 vertices and in one run
# (7 / 42 / 56 / 112 / 114,688 entries per run) took 1.2-1.3 / 1.1-1.5 /
# 1.0-1.5 / 1.0-1.4 / 1.0-1.1 ms gathered and 6.1-7.2 / 0.9-1.8 / 0.8-1.4 /
# 0.5-0.7 / 0.04-0.05 ms copied (best of 5 x 50 calls, two runs), so the
# two meet between 42 and 56 entries, about 7 vertices.  From the all-sixes
# state nearly every slice is a few whole rings or arcs; a random state's
# slices are mostly runs of one or two vertices.  A slice of fewer than
# _LONG_RUN ids holds fewer than 7 * _LONG_RUN entries, and its rows are
# read one by one with no run detection, whose fixed numpy calls cost more
# there than the gather: a 60-id slice at radius 6 took 37 us cut into runs
# and 16-19 us row by row.  In run bounds a run of _LONG_RUN ids or more
# fires in place as a piece of its own, and shorter runs fire together
# through their ids: from the all-sixes state nearly every id of a wide
# fire set is in a run of thousands, and naive / batch / wave at radius 12
# on the three single_source_m12 site sets of seed 1 took 97 / 95 / 74,
# 94 / 96 / 72, 94 / 95 / 74 and 93 / 94 / 71 ms with this at 32, 64, 256
# and 1024 (medians of 8 alternating in-process runs).  After a set whose
# runs average fewer than _LONG_RUN ids even a wide span is read as ids:
# held as run bounds, the random 0..40 state at radius 12 took 398 / 426 ms
# (relax / relax_batch) against 319 / 326 ms as ids (medians of 10
# alternating in-process runs)
_LONG_RUN = 64

# rows per block of _check_identity, which bounds its entry-sized gather
_IDENTITY_ROWS = 1 << 14

# interior rows from which _check_identity cuts its blocks at the outer
# ring: below it the cut block's fixed numpy calls cost more than its
# seven-column sums save.  Best of 5 per call from max-stable + root, one
# block / cut, three runs: radius 4 (85 interior rows) 16 / 29-32 us, 6
# (617) 39-45 / 51-63 us, 7 (1,625) 81-87 / 86-93 us, 8 (4,264) 199-206 /
# 188-201 us, 9 (11,173) 579-804 / 541-570 us
_SPLIT_ROWS = 1 << 12

# the widest span of ids from which a generation or fire set is read as
# ids, by one flatnonzero; a wider span gives run bounds, read from the
# edges of its mask this many ids at a time, and _ids collects a longer
# mask's ids a block at a time.  Every span on a ball of radius 8 or less
# (11,173 vertices) is narrower, so a round there costs the numpy calls it
# cost when every fire set was ids: holding those sets as run bounds too
# made verify --m 1..8 --trials 10 25% slower in-process (medians 0.317 /
# 0.397 s over 20 alternating runs).  From the all-sixes state at radius
# 12 most topples are in wider rounds.  Medians of 8 alternating in-process
# runs of the three single_source_m12 site sets of seed 1, naive / batch /
# wave at radius 12: 1 << 12 131 / 137 / 126 ms; 1 << 14 104 / 104 / 79 ms;
# 1 << 16 94 / 96 / 75 ms; 1 << 18 101 / 105 / 77 ms
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
    The sums are int64 whatever the dtype of ``after``, so relaxed int8
    grains that wrapped past 127 differ from them by a multiple of 256.
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
                gain = rows[:, 0] + rows[:, 1]
                for j in range(2, DEGREE):
                    gain += rows[:, j]
            else:
                gain = np.add.reduceat(got, ptr[lo:hi] - a) if b > a else 0
            if (before[lo:hi] + gain - DEGREE * counts[lo:hi] != after[lo:hi]).any():
                raise InvariantError("relaxed state differs from start + laplacian(odometer)")


def _budget(grains: np.ndarray) -> int:
    """Topple limit for nonnegative ``grains`` (each relaxer refuses negative ones)."""
    return 1024 + 128 * (_exact_sum(grains) + grains.size)


def _queue_rows(idx: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The blocks ``idx[start[i]:stop[i]]`` concatenated in order, as a new array.

    When the blocks average ``_LONG_RUN`` row entries or more, each is
    copied as a slice; otherwise one ``np.repeat`` over the blocks expands
    their positions and one ``take`` reads them.  The result never shares
    memory with ``idx``.
    """
    length = stop - start
    total = int(length.sum())
    if total >= _LONG_RUN * length.size:
        return np.concatenate([idx[a:b] for a, b in zip(start.tolist(), stop.tolist())])
    return idx.take(np.repeat(start - np.cumsum(length) + length, length) + np.arange(total))


def _queue_gather(ptr: np.ndarray, idx: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The neighbor ids of the ids ``f``, their CSR rows concatenated in order, as a new array.

    A slice of fewer than ``_LONG_RUN`` ids takes each id's row as its own
    block, with no run detection.  A larger one is cut into maximal runs in
    which each id is one more than the last; a run's rows are one block of
    ``idx``.  ``_queue_rows`` reads the blocks.
    """
    if f.size < _LONG_RUN:
        return _queue_rows(idx, ptr.take(f), ptr[1:].take(f))
    head = np.empty(f.size, dtype=bool)  # where a run starts
    head[:1] = True
    np.not_equal(f[1:], f[:-1] + 1, out=head[1:])
    tail = np.empty(f.size, dtype=bool)  # where a run ends
    tail[:-1] = head[1:]
    tail[-1:] = True
    return _queue_rows(idx, ptr.take(f.compress(head)), ptr[1:].take(f.compress(tail)))


def _queue_pieces(ptr: np.ndarray, idx: np.ndarray, queue: np.ndarray):
    """The generation ``queue`` in pieces ``(a, b, f, fed)`` of ids from ``a`` to ``b - 1``.

    ``f`` is None when the piece is every id from ``a`` to ``b - 1``, else
    its ascending ids; ``fed`` is their neighbor ids, rows concatenated.
    Ids are cut into slices of ``_QUEUE_SLICE``; a slice whose last id is
    its first plus its length less one is one run, since the ids ascend
    and are distinct, and its rows are read in place.  Of run bounds, each
    ``_QUEUE_SLICE`` ids of a run of at least ``_LONG_RUN`` is a piece read
    in place.  Shorter runs are grouped by the slice their last id falls
    in, counted over the short runs alone, so a group holds fewer than
    ``_QUEUE_SLICE + _LONG_RUN`` ids; its ids are a running sum of steps,
    one within a run and the gap to the next run's start between runs, and
    ``_queue_rows`` reads its rows per run.
    """
    if queue.ndim == 1:
        for lo in range(0, queue.size, _QUEUE_SLICE):
            f = queue[lo:lo + _QUEUE_SLICE]
            a, b = int(f[0]), int(f[-1]) + 1
            if b - a == f.size:
                yield a, b, None, idx[ptr[a]:ptr[b]]
            else:
                yield a, b, f, _queue_gather(ptr, idx, f)
        return
    start, stop = queue
    length = stop - start
    long = length >= _LONG_RUN
    for first, end in zip(start[long].tolist(), stop[long].tolist()):
        for a in range(first, end, _QUEUE_SLICE):
            b = min(a + _QUEUE_SLICE, end)
            yield a, b, None, idx[ptr[a]:ptr[b]]
    start, stop, length = start[~long], stop[~long], length[~long]
    if not start.size:
        return
    at = np.cumsum(length)  # ids in the short runs up to each one's end
    slot = (at - 1) // _QUEUE_SLICE
    cut = [0, *(np.flatnonzero(slot[1:] != slot[:-1]) + 1).tolist(), start.size]
    for i, j in zip(cut[:-1], cut[1:]):
        base = int(at[i] - length[i])
        step = np.ones(int(at[j - 1]) - base, dtype=np.intp)
        step[0] = start[i]
        step[at[i:j - 1] - base] = start[i + 1:j] - stop[i:j - 1] + 1
        yield (int(start[i]), int(stop[j - 1]), np.cumsum(step, out=step),
               _queue_rows(idx, ptr.take(start[i:j]), ptr.take(stop[i:j])))


def _queue_next(g: np.ndarray, lo: int, hi: int, queue: np.ndarray | None) -> np.ndarray:
    """The next generation: the ids from ``lo`` to ``hi - 1`` that hold 7 or more.

    Every id outside them must hold fewer than 7.  A span of at most
    ``_FIRE_BLOCK`` ids gives int64 ids, ascending, from one
    ``flatnonzero``.  A wider one is read a block of ``_FIRE_BLOCK`` ids at
    a time, as int64 ids after a generation ``queue`` whose runs average
    fewer than ``_LONG_RUN`` ids, as in a random state, where run bounds
    would cost more than the ids they replace, and otherwise as run bounds,
    a (2, r) int64 array of run starts over run stops, ascending and
    disjoint: a run starts or stops at every id whose mask differs from the
    one before, and the id before ``lo`` holds fewer than 7.
    """
    if hi - lo <= _FIRE_BLOCK:
        ids = np.flatnonzero(g[lo:hi] >= DEGREE)
        ids += lo
        return ids
    if queue is None:
        bounds = True
    elif queue.ndim == 1:
        bounds = queue.size >= _LONG_RUN * (1 + np.count_nonzero(queue[1:] != queue[:-1] + 1))
    else:
        bounds = int((queue[1] - queue[0]).sum()) >= _LONG_RUN * queue.shape[1]
    flips = []
    before = False  # whether the id before the block holds 7 or more
    for a in range(lo, hi, _FIRE_BLOCK):
        m = g[a:min(a + _FIRE_BLOCK, hi)] >= DEGREE
        if not bounds:  # ids, a block at a time
            flip = np.flatnonzero(m)
            flip += a
            flips.append(flip)
            continue
        if m[0] != before:
            flips.append([a])
        flip = np.flatnonzero(m[1:] != m[:-1])
        flip += a + 1
        flips.append(flip)
        before = bool(m[-1])
    if not bounds:
        return np.concatenate(flips)
    if before:
        flips.append([hi])
    return np.concatenate(flips).reshape(-1, 2).T


def relax(state: State) -> RelaxResult:
    """Topple until stable; returns the stable state and the odometer.

    The engine walks a FIFO queue of unstable vertices one generation at a
    time, toppling each vertex of a generation once, so the generations are
    the FIFO generations as sets.  It needs no in-queue flag: a vertex is
    queued exactly when it holds 7 or more grains, and each vertex that does
    when a generation ends was fired or fed in it.  So the next generation
    is read, ascending, from the span between the smallest and the largest
    id the generation fired or fed (``_queue_next``): as int64 ids when the
    span holds at most ``_FIRE_BLOCK`` ids or the generation's runs average
    fewer than ``_LONG_RUN`` ids, else as run bounds, run starts over run
    stops, read from the edges of the ``>= 7`` mask a block at a time.
    A generation's length is its topple count, and the budget is checked
    once per generation, before it topples.

    A generation is toppled in pieces (``_queue_pieces``) by numpy calls
    alone: slices of ``_QUEUE_SLICE`` ids, or of one run of at least
    ``_LONG_RUN`` ids, fire through slices of the grains and the odometer
    and read their neighbor ids in place as one block of ``indices``; other
    slices, and groups of shorter runs, fire through their ids, and
    ``_queue_gather`` or ``_queue_rows`` reads their rows.  Each piece adds
    one grain per neighbor id with ``np.add.at``: additions commute, so
    neither the pieces nor the order within a generation changes a value.
    A budget of 2**62 or more is refused: below it no grain count or
    odometer entry can leave int64, since none exceeds the starting total
    or the budget.

    The working grains are int8 when the start's largest count is at most
    120 and int64 otherwise, and the result is int64 either way.  On a ball
    from ``build_ball`` or ``load_ball`` each vertex is listed in at most 7
    rows, once in each, and a generation fires each of its vertices once,
    so a vertex gains at most 7 grains in one and no count passes
    max(start max, 13) + 7.  On any other CSR a count that passes 127 wraps
    to 256 below its value, and the identity check, summed in int64,
    refuses the result.
    """
    ball = state.ball
    if state.grains.min() < 0:
        raise ValueError("relaxation requires nonnegative grain counts")
    budget = _budget(state.grains)
    if budget >= 2**62:
        raise OverflowError("too many grains to relax in 64-bit counts")
    ptr, idx = ball.indptr, ball.indices
    # int8 grains, when no count can pass 127, are the first n bytes of the
    # int64 array that the relaxed state will hold, whose other pages stay
    # untouched until the grains are widened in place
    narrow = state.grains.max() <= 127 - DEGREE
    wide = np.empty(ball.n, dtype=np.int64)
    g = wide.view(np.int8)[:ball.n] if narrow else wide
    g[:] = state.grains
    one = g.dtype.type(1)  # np.add.at leaves its fast path for a Python 1
    counts = np.zeros(ball.n, dtype=np.int64)
    queue = _queue_next(g, 0, ball.n, None)
    topples = 0
    while queue.size:
        topples += queue.size if queue.ndim == 1 else int((queue[1] - queue[0]).sum())
        if topples > budget:
            raise InvariantError("toppling budget exhausted; relaxation diverged")
        first, end = ball.n, 0
        for a, b, f, fed in _queue_pieces(ptr, idx, queue):
            if f is None:
                counts[a:b] += 1
                g[a:b] -= DEGREE
            else:
                counts[f] += 1
                g[f] -= DEGREE
            if fed.size:
                a, b = min(a, int(fed.min())), max(b, int(fed.max()) + 1)
            first, end = min(first, a), max(end, b)
            np.add.at(g, fed, one)
        queue = _queue_next(g, first, end, queue)
    _check_identity(state.grains, g, ball, counts)
    if narrow:
        # last block first: a block's int64 values overwrite only its own
        # int8 counts, copied out first, and those of later ids, widened
        # already
        for hi in range(ball.n, 0, -_SUM_BLOCK):
            lo = max(hi - _SUM_BLOCK, 0)
            wide[lo:hi] = g[lo:hi].copy()
    return RelaxResult(State(ball, wide), Odometer(ball, counts), topples, topples)


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
    one more than the last.  The round kernel's own code: the queue engine
    gathers its rows in ``_queue_gather``.
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
    vertex marked already raises ``InvariantError``.  ``g`` may be int8 or
    int64: the kernel scatters a scalar of its dtype and leaves the
    choice, and the proof that no count leaves it, to its callers.
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


def _widen(wide: np.ndarray) -> None:
    """Widen in place the int8 counts held in the first ``wide.size`` bytes of ``wide``.

    The blocks go last first: a block's int64 values overwrite only its own
    int8 counts, copied out first, and those of later ids, widened already.
    ``relax_batch`` and the wave route call this; the queue engine widens
    in code of its own.
    """
    g = wide.view(np.int8)[:wide.size]
    for hi in range(wide.size, 0, -_SUM_BLOCK):
        lo = max(hi - _SUM_BLOCK, 0)
        wide[lo:hi] = g[lo:hi].copy()


def relax_batch(state: State) -> RelaxResult:
    """Topple in rounds, each firing every vertex holding 7 or more grains once.

    This is the parallel chip-firing schedule: a vertex holding 14 or more
    grains fires again in the next round, so by the abelian property every
    start ends on the queue engine's state, odometer and topples, though a
    heavy start may take more rounds.  The first fire set is a scan of the
    whole grain array; then ``_topple_round``, the kernel the wave route
    shares, topples and scatters the grains a piece at a time and reads the
    next fire set from the span of ids the round fired or fed.  A fire set
    is int32 ids, 4 bytes per fired vertex, when it was read from a span of
    at most ``_FIRE_BLOCK`` ids or after a set whose runs average fewer
    than ``_LONG_RUN`` ids, and run bounds, 8 bytes per run, otherwise.
    Additions commute, so the pieces change no result, and the round's
    temporaries stay a few MiB at any radius.  Each topple is one
    (vertex, round) pick, so ``dequeues`` equals ``topples``, as in the
    queue engine.  The budget bounds every grain and odometer entry, so
    below 2**62 the int64 counts cannot wrap.  The working grains are int8
    when the start's largest count is at most 120 and int64 otherwise: a
    round fires each vertex once, so on a ball from ``build_ball`` or
    ``load_ball`` no count passes max(start max, 13) + 7, and on any other
    CSR a count that wraps past 127 ends a multiple of 256 below its value,
    which the int64 identity check refuses.
    """
    ball = state.ball
    if state.grains.min() < 0:
        raise ValueError("relaxation requires nonnegative grain counts")
    budget = _budget(state.grains)
    if budget >= 2**62:
        raise OverflowError("too many grains to relax in 64-bit counts")
    # int8 grains, when no count can pass 127, are the first n bytes of the
    # int64 array that the relaxed state will hold, as in the queue engine
    narrow = state.grains.max() <= 127 - DEGREE
    wide = np.empty(ball.n, dtype=np.int64)
    g = wide.view(np.int8)[:ball.n] if narrow else wide
    g[:] = state.grains
    odo = np.zeros(ball.n, dtype=np.int64)
    topples = 0
    fire = _round_fire_set(g, 0, ball.n, None)
    while fire.size:
        topples += fire.size if fire.ndim == 1 else int((fire[:, 1] - fire[:, 0]).sum())
        if topples > budget:
            raise InvariantError("toppling budget exhausted; relaxation diverged")
        fire = _topple_round(g, odo, ball, fire)
    _check_identity(state.grains, g, ball, odo)
    if narrow:
        _widen(wide)
    return RelaxResult(State(ball, wide), Odometer(ball, odo), topples, topples)


# uniform 53-bit integers drawn per block of relax_random's step choices; a
# small block wastes few draws at the end of a short relaxation, and blocks
# of 4,096 raised the process peak of 200 radius-4 orders by about 0.4 MiB
_DRAWS = 1 << 8


def relax_random(state: State, rng: np.random.Generator) -> RelaxResult:
    """Relax by toppling a uniformly random legal vertex at each step.

    Slow; exists so tests can compare arbitrary legal toppling orders against
    the queue engine.  The choices are drawn ``_DRAWS`` at a time as uniform
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
        part = np.bincount(values[a:a + step] - lo)
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
