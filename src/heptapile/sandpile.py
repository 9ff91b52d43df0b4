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
and random-order engines share no code with ``relax_batch`` or the wave route:
``relax`` walks its queue one generation at a time, each an ascending int
array of distinct vertices that it topples a slice at a time in numpy,
reading a one-run slice's neighbor ids in place and any other slice's per
run, or row by row when it holds fewer than ``_LONG_RUN`` ids, in code of
its own, adds one grain per neighbor id with ``np.add.at``, takes the next
generation from one scan of the ids the generation fired or fed, and checks
the toppling budget once per generation;
``relax_random`` is the scalar reference, one topple and one grain at a
time, and draws its choices in blocks of uniform integers and checks the
budget once per block.  ``relax_batch`` and the wave route topple through
one round kernel, ``_topple_round``, which fires each vertex of a fire set
once: the abelian property lets it scatter a round's grains, one per row
entry, in slices of fired vertices.  A slice that is one run of consecutive
ids, as most are from the all-sixes state, fires through slices of the
grains and the odometer and reads its neighbor ids in place as one block of
the CSR; any other has its rows read per run, or row by row when it holds
fewer than ``_LONG_RUN`` ids, in code of its own.  So its temporaries beyond
the grains, the odometer and the fire sets stay a few MiB at any radius, and
it collects the next fire set from the span of ids the round fired or fed,
not from the whole grain array, with one ``flatnonzero`` when the span fits
one block.  The identity check ends its blocks at the outer ring's first
id, so every block of interior rows sums its full rows as seven columns.
Sums of grains are taken a block at a time in exact integers.  States and
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
# traced peak at radius 12 is 25.0 B per vertex at every size: the grains,
# the odometer, two generations of ids and the scan's mask set it, not a
# slice.  The times drift by half between runs on a 2-core host, so no
# size wins clearly
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
# and 16-19 us row by row
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

# vertices per block when _ids collects ids from a mask; a block's int64
# positions stay in cache until they are written as int32
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


def _queue_gather(ptr: np.ndarray, idx: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The neighbor ids of the ids ``f``, their CSR rows concatenated in order, as a new array.

    A slice of fewer than ``_LONG_RUN`` ids takes each id's row as its own
    block, with no run detection.  A larger one is cut into maximal runs in
    which each id is one more than the last; a run's rows are one block of
    ``idx``.  When the blocks average ``_LONG_RUN`` row entries or more,
    each is copied as a slice; otherwise one ``np.repeat`` over the blocks
    expands their positions and one ``take`` reads them.  The result never
    shares memory with ``idx``.  ``relax`` alone calls this, for slices of
    more than one run.
    """
    if f.size < _LONG_RUN:
        start, stop = ptr.take(f), ptr[1:].take(f)
    else:
        head = np.empty(f.size, dtype=bool)  # where a run starts
        head[:1] = True
        np.not_equal(f[1:], f[:-1] + 1, out=head[1:])
        tail = np.empty(f.size, dtype=bool)  # where a run ends
        tail[:-1] = head[1:]
        tail[-1:] = True
        start, stop = ptr.take(f.compress(head)), ptr[1:].take(f.compress(tail))
    length = stop - start
    total = int(length.sum())
    if total >= _LONG_RUN * length.size:
        return np.concatenate([idx[a:b] for a, b in zip(start.tolist(), stop.tolist())])
    return idx.take(np.repeat(start - np.cumsum(length) + length, length) + np.arange(total))


def relax(state: State) -> RelaxResult:
    """Topple until stable; returns the stable state and the odometer.

    The engine walks a FIFO queue of unstable vertices one generation at a
    time, toppling each vertex of a generation once, so the generations are
    the FIFO generations as sets.  It needs no in-queue flag: a vertex is
    queued exactly when it holds 7 or more grains, and each vertex that does
    when a generation ends was fired or fed in it.  So the next generation
    is one scan, ascending, of the ids between the smallest and the largest
    fired or fed id.  A generation's length is its topple count, and the
    budget is checked once per generation, before it topples.

    A generation is toppled ``_QUEUE_SLICE`` vertices at a time by numpy
    calls alone.  A slice whose last id is its first plus its length less
    one is one run of consecutive ids, since the ids ascend and are
    distinct: it fires through slices of the grains and the odometer, and
    its neighbor ids are one block of ``indices``, read in place;
    ``_queue_gather`` reads any other slice's.  Each slice adds one grain
    per neighbor id with ``np.add.at``: additions commute, so neither the
    split nor the order within a generation changes a value.  A budget of
    2**62 or more is refused: below it no grain count or odometer entry can
    leave int64, since none exceeds the starting total or the budget.

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
    queue = np.flatnonzero(g >= DEGREE)
    topples = 0
    while queue.size:
        topples += queue.size
        if topples > budget:
            raise InvariantError("toppling budget exhausted; relaxation diverged")
        first, last = int(queue[0]), int(queue[-1])
        for lo in range(0, queue.size, _QUEUE_SLICE):
            f = queue[lo:lo + _QUEUE_SLICE]
            a, b = int(f[0]), int(f[-1]) + 1
            if b - a == f.size:
                counts[a:b] += 1
                g[a:b] -= DEGREE
                fed = idx[ptr[a]:ptr[b]]
            else:
                counts[f] += 1
                g[f] -= DEGREE
                fed = _queue_gather(ptr, idx, f)
            if fed.size:
                first, last = min(first, int(fed.min())), max(last, int(fed.max()))
            np.add.at(g, fed, one)
        queue = np.flatnonzero(g[first:last + 1] >= DEGREE)
        queue += first
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


def _round_gather(ptr: np.ndarray, idx: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The neighbor ids of the ids ``f`` (at least one), their CSR rows concatenated in order.

    Consecutive ids have adjacent rows, so each run of them is one block of
    ``idx``; a slice of fewer than ``_LONG_RUN`` ids skips finding its runs
    and takes each id's row as a block.  Blocks that average ``_LONG_RUN``
    row entries or more are copied one at a time; shorter ones are read by
    ``take`` through positions that one ``np.repeat`` over the blocks
    expands.  The round kernel reads a slice of one run in place and calls
    this for the others.  The round kernel's own code: the queue engine
    gathers its rows in ``_queue_gather``.
    """
    if f.size < _LONG_RUN:
        first = last = f
    else:
        step = np.flatnonzero(np.diff(f) != 1)  # the last index of every run but the final one
        first = f.take(np.concatenate(([0], step + 1)))
        last = f.take(np.append(step, f.size - 1))
    lo, hi = ptr.take(first), ptr[1:].take(last)
    width = hi - lo
    end = np.cumsum(width)  # where each block's entries end in the output
    if end[-1] >= _LONG_RUN * width.size:
        return np.concatenate([idx[a:b] for a, b in zip(lo.tolist(), hi.tolist())])
    return idx.take(np.arange(end[-1]) + np.repeat(lo + width - end, width))


def _topple_round(g: np.ndarray, odo: np.ndarray, ball: Ball,
                  fire: np.ndarray) -> np.ndarray:
    """Topple each vertex of ``fire`` once; returns the next fire set.

    ``fire`` is ascending and holds every vertex with 7 or more grains, so
    after the round only a fired vertex or one that gained grains can hold
    7 or more.  The next fire set, the ids holding 7 or more, ascending, as
    int32, is therefore collected from the ids between the smallest and the
    largest fired or fed id alone, whatever the CSR.  The grains are
    scattered ``_BATCH_SLICE`` fired vertices at a time, one per neighbor
    id.  A slice whose last id is its first plus its length less one is one
    run of consecutive ids, since the ids ascend and are distinct: it fires
    through slices of the grains and the odometer, and its neighbor ids are
    one block of ``indices``, read in place.  Any other slice's ids are
    widened to intp once, because numpy casts an index array of any other
    dtype again on each of the slice's gathers and scatters, and
    ``_round_gather`` reads its rows per run of consecutive ids.  ``g`` may
    be int8 or int64: the kernel scatters a scalar of its dtype and leaves
    the choice, and the proof that no count leaves it, to its callers.
    """
    ptr, idx = ball.indptr, ball.indices
    one = g.dtype.type(1)  # np.add.at leaves its fast path for a Python 1
    first, last = int(fire[0]), int(fire[-1])
    for lo in range(0, fire.size, _BATCH_SLICE):
        f = fire[lo:lo + _BATCH_SLICE]
        a, b = int(f[0]), int(f[-1]) + 1
        if b - a == f.size:
            g[a:b] -= DEGREE
            odo[a:b] += 1
            fed = idx[ptr[a]:ptr[b]]
        else:
            f = f.astype(np.intp)
            g[f] -= DEGREE
            odo[f] += 1
            fed = _round_gather(ptr, idx, f)
        if fed.size:
            first, last = min(first, int(fed.min())), max(last, int(fed.max()))
        np.add.at(g, fed, one)
    return _ids(g[first:last + 1] >= DEGREE, first)


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
    shares, topples and scatters the grains ``_BATCH_SLICE`` fired vertices
    at a time and collects the next fire set from the ids the round
    touched.  Additions commute, so the slices change no result, and the
    round's temporaries stay a few MiB at any radius.  A round holds its
    fire set as int32 ids, 4 bytes per fired vertex, besides the next fire
    set.  Each topple is one (vertex, round) pick, so ``dequeues`` equals
    ``topples``, as in the queue engine.  The budget bounds every grain and
    odometer entry, so below 2**62 the int64 counts cannot wrap.  The
    working grains are int8 when the start's largest count is at most 120
    and int64 otherwise: a round fires each vertex once, so on a ball from
    ``build_ball`` or ``load_ball`` no count passes max(start max, 13) + 7,
    and on any other CSR a count that wraps past 127 ends a multiple of 256
    below its value, which the int64 identity check refuses.
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
    fire = _ids(g >= DEGREE)
    while fire.size:
        topples += fire.size
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
