"""Sandpile states and relaxation on tiling balls.

A state assigns a signed 64-bit grain count to every vertex.  A vertex with at
least 7 grains may topple: it loses 7 and each stored neighbor gains 1, so
boundary vertices leak grains out of the ball.  Relaxation topples until every
vertex is below 7; the toppling odometer counts topples per vertex, and the
identity ``relaxed = start + laplacian(odometer)`` is re-checked after every
run instead of trusted.  States and odometers are saved as sparse text files.
"""

from __future__ import annotations

import re
from collections import deque
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .ball import DEGREE, Ball, _parse_ints, _sign, _split_checked
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

    def copy(self) -> "State":
        return State(self.ball, self.grains.copy())

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

    def copy(self) -> "Odometer":
        return Odometer(self.ball, self.counts.copy())

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


def mass(state: State) -> int:
    """Total grains, exact; rejects totals outside the signed 64-bit range."""
    total = sum(state.grains.tolist())
    if not _INT64_MIN <= total <= _INT64_MAX:
        raise OverflowError("total mass exceeds the signed 64-bit range")
    return total


def _apply_laplacian(ball: Ball, counts: np.ndarray) -> np.ndarray:
    """Net grain change produced by ``counts`` topples per vertex."""
    if ball.indices.size == 0:
        return -DEGREE * counts
    gain = np.add.reduceat(counts[ball.indices], ball.indptr[:-1])
    return gain - DEGREE * counts


def _check_identity(before: np.ndarray, after: np.ndarray,
                    ball: Ball, counts: np.ndarray) -> None:
    if not np.array_equal(after, before + _apply_laplacian(ball, counts)):
        raise InvariantError("relaxed state differs from start + laplacian(odometer)")


def _budget(grains: list, n: int, cap) -> int:
    if cap is not None:
        return int(cap)
    total = sum(g for g in grains if g > 0)
    return 1024 + 128 * (total + n)


def relax(state: State, *, multi_topple: bool = False,
          max_topplings=None) -> RelaxResult:
    """Topple until stable; returns the stable state and the odometer.

    The engine keeps a FIFO queue of unstable vertices with an in-queue flag.
    Each dequeue topples the vertex once, or ``grains // 7`` times at once when
    ``multi_topple`` is set; both schedules must produce identical results.
    ``max_topplings`` is a diagnostic guard only, never a tuning knob.
    """
    g = state.grains.tolist()
    if min(g) < 0:
        raise ValueError("relaxation requires nonnegative grain counts")
    ball = state.ball
    n = ball.n
    ptr, idx = ball.indptr.tolist(), memoryview(ball.indices)
    odo = [0] * n
    in_queue = [False] * n
    queue = deque()
    for v in range(n):
        if g[v] >= DEGREE:
            queue.append(v)
            in_queue[v] = True
    budget = _budget(g, n, max_topplings)
    topples = dequeues = 0
    while queue:
        v = queue.popleft()
        in_queue[v] = False
        gv = g[v]
        if gv < DEGREE:
            continue
        k = gv // DEGREE if multi_topple else 1
        g[v] = gv - DEGREE * k
        odo[v] += k
        topples += k
        dequeues += 1
        if topples > budget:
            raise InvariantError("toppling budget exhausted; relaxation diverged")
        for u in idx[ptr[v]:ptr[v + 1]]:
            gu = g[u] + k
            g[u] = gu
            if gu >= DEGREE and not in_queue[u]:
                in_queue[u] = True
                queue.append(u)
        if g[v] >= DEGREE:
            in_queue[v] = True
            queue.append(v)
    final = np.array(g, dtype=np.int64)
    counts = np.array(odo, dtype=np.int64)
    _check_identity(state.grains, final, ball, counts)
    return RelaxResult(State(ball, final), Odometer(ball, counts), topples, dequeues)


def relax_random(state: State, rng: np.random.Generator) -> RelaxResult:
    """Relax by toppling a uniformly random legal vertex at each step.

    Slow; exists so tests can compare arbitrary legal toppling orders against
    the queue engine.
    """
    g = state.grains.tolist()
    if min(g) < 0:
        raise ValueError("relaxation requires nonnegative grain counts")
    ball = state.ball
    ptr, idx = ball.indptr.tolist(), memoryview(ball.indices)
    odo = [0] * ball.n
    unstable = sorted(v for v in range(ball.n) if g[v] >= DEGREE)
    budget = _budget(g, ball.n, None)
    topples = 0
    while unstable:
        i = int(rng.integers(len(unstable)))
        v = unstable[i]
        last = unstable.pop()
        if i < len(unstable):
            unstable[i] = last
        g[v] -= DEGREE
        odo[v] += 1
        topples += 1
        if topples > budget:
            raise InvariantError("toppling budget exhausted; relaxation diverged")
        for u in idx[ptr[v]:ptr[v + 1]]:
            g[u] += 1
            if g[u] == DEGREE:
                unstable.append(u)
        if g[v] >= DEGREE:
            unstable.append(v)
    final = np.array(g, dtype=np.int64)
    counts = np.array(odo, dtype=np.int64)
    _check_identity(state.grains, final, ball, counts)
    return RelaxResult(State(ball, final), Odometer(ball, counts), topples, topples)


_FIELD_HEADER = re.compile(
    rb"(HEPTASTATE|HEPTAODOM) v2 m=(\d{1,19}) n=(\d{1,19}) default=(-?\d{1,19})")


def _serialize_field(tag: str, ball: Ball, values: np.ndarray) -> bytes:
    uniq, counts = np.unique(values, return_counts=True)
    default = int(uniq[np.argmax(counts)])  # ties break toward the smaller value
    lines = [f"{tag} v2 m={ball.radius} n={ball.n} default={default}"]
    for v in np.nonzero(values != default)[0]:
        lines.append(f"{v} {values[v]}")
    return _sign(("\n".join(lines) + "\n").encode("ascii"))


def _deserialize_field(expected_tag: str, data: bytes, ball: Ball) -> np.ndarray:
    head, _, text = _split_checked(data).partition(b"\n")
    header = _FIELD_HEADER.fullmatch(head)
    if header is None or header.group(1) != expected_tag.encode("ascii"):
        raise FormatError(f"malformed {expected_tag} header: {head!r}")
    m, n, default = (int(header.group(i)) for i in (2, 3, 4))
    if m != ball.radius or n != ball.n:
        raise FormatError(
            f"stream is for m={m}, n={n}; ball has m={ball.radius}, n={ball.n}")
    if not _INT64_MIN <= default <= _INT64_MAX:
        raise FormatError(f"default {default} outside signed 64-bit range")
    tokens, ends = _parse_ints(text)
    if ends[0::2].any() or not ends[1::2].all():
        raise FormatError("each entry line must hold a vertex id and a value")
    ids = tokens[0::2]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise FormatError("entry for a vertex out of range")
    if np.any(np.diff(ids) <= 0):
        raise FormatError("entries must have strictly ascending vertex ids")
    values = np.full(n, default, dtype=np.int64)
    values[ids] = tokens[1::2]
    return values


def serialize_state(state: State) -> bytes:
    return _serialize_field("HEPTASTATE", state.ball, state.grains)


def deserialize_state(data: bytes, ball: Ball) -> State:
    return State(ball, _deserialize_field("HEPTASTATE", data, ball))


def serialize_odometer(odometer: Odometer) -> bytes:
    return _serialize_field("HEPTAODOM", odometer.ball, odometer.counts)


def deserialize_odometer(data: bytes, ball: Ball) -> Odometer:
    values = _deserialize_field("HEPTAODOM", data, ball)
    if values.size and values.min() < 0:
        raise FormatError("odometer entries must be nonnegative")
    return Odometer(ball, values)


def save_state(state: State, path) -> None:
    Path(path).write_bytes(serialize_state(state))


def load_state(path, ball: Ball) -> State:
    return deserialize_state(Path(path).read_bytes(), ball)


def save_odometer(odometer: Odometer, path) -> None:
    Path(path).write_bytes(serialize_odometer(odometer))


def load_odometer(path, ball: Ball) -> Odometer:
    return deserialize_odometer(Path(path).read_bytes(), ball)
