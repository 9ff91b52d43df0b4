"""Balls in the order-7 triangular tiling of the hyperbolic plane.

The infinite tiling is the 7-regular triangulation: every vertex has seven
neighbors and every face is a triangle.  ``build_ball(m)`` materializes the
combinatorial ball of radius ``m`` around a root vertex, growing it level by
level as concentric rings.

Vertex classification by graph distance from the root:

* the root itself (type 0),
* ring vertices with one edge down to the previous level (type 1),
* ring vertices with two edges down to the previous level (type 2).

Growth rule for ring ``l + 1``, walking ring ``l`` in cyclic order: a type-1
parent emits two type-1 children of its own, a type-2 parent emits one, and
every pair of cyclically adjacent parents shares exactly one type-2 child.
Consecutive children are joined by intra-ring edges.  Vertex ids are assigned
level-major in emission order, so within a level the ring order coincides with
id order; that identification is checked by ``validate_ball`` rather than
trusted.

Every file format ends in a ``CHECK`` line holding the BLAKE2b-64 digest of
the bytes before it; ``_sign`` writes that line and ``_split_checked`` checks it.
"""

from __future__ import annotations

import os
import re
from collections import deque
from enum import IntEnum
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import CapacityError, FormatError, InvariantError

DEGREE = 7

_INT64_MAX = 2**63 - 1

# peak memory of build_ball, validation included: 380-410 bytes per vertex
# measured at radii 10..13
_BYTES_PER_VERTEX = 400


def _physical_memory() -> int:
    """Bytes of physical memory, the ceiling for one ball."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


class VertexType(IntEnum):
    ZEROTH = 0
    FIRST = 1
    SECOND = 2


class Ball:
    """Immutable ball of radius ``m``; treat every field as read-only.

    Attributes
    ----------
    radius : int
        Ball radius ``m``.
    level : (n,) int32 array
        Graph distance from the root; id blocks are level-contiguous.
    vtype : (n,) int8 array
        ``VertexType`` value per vertex.
    deficit : (n,) int8 array
        Number of tiling neighbors outside the ball (7 minus stored degree).
    level_start : (m+2,) int64 array
        ``level_start[l]`` is the first id of level ``l``; last entry is ``n``.
    indptr, indices : int64 arrays
        The adjacency in CSR form, the only one stored: the neighbors of
        ``v`` inside the ball are ``indices[indptr[v]:indptr[v + 1]]``,
        ascending.
    """

    __slots__ = ("radius", "level", "vtype", "deficit", "level_start",
                 "indptr", "indices")

    def __init__(self, radius, level, vtype, deficit, level_start, indptr,
                 indices):
        self.radius = int(radius)
        self.level = level
        self.vtype = vtype
        self.deficit = deficit
        self.level_start = level_start
        self.indptr = indptr
        self.indices = indices

    @property
    def n(self) -> int:
        return len(self.level)

    def ring(self, lvl: int) -> range:
        """Ids of level ``lvl`` in cyclic ring order (== id order)."""
        if not 0 <= lvl <= self.radius:
            raise ValueError(f"level {lvl} outside ball of radius {self.radius}")
        return range(int(self.level_start[lvl]), int(self.level_start[lvl + 1]))

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edges(self) -> Iterator[tuple]:
        """Each undirected edge once, as (u, v) with u < v."""
        u = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        keep = u < self.indices
        return zip(u[keep].tolist(), self.indices[keep].tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ball):
            return NotImplemented
        return (self.radius == other.radius
                and np.array_equal(self.level, other.level)
                and np.array_equal(self.vtype, other.vtype)
                and np.array_equal(self.deficit, other.deficit)
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __repr__(self) -> str:
        return f"Ball(radius={self.radius}, n={self.n})"


def _ring_sizes(m: int) -> list:
    """(type-1 count, type-2 count) for rings 1..m, exact integers."""
    out = []
    a, b = DEGREE, 0
    for _ in range(m):
        out.append((a, b))
        a, b = 2 * a + b, a + b
    return out


def build_ball(m: int) -> Ball:
    """Construct and validate the radius-``m`` ball."""
    if m < 0:
        raise ValueError("radius must be nonnegative")
    sizes = _ring_sizes(m)
    n = 1 + sum(a + b for a, b in sizes)
    need, have = n * _BYTES_PER_VERTEX, _physical_memory()
    if need > have:
        raise CapacityError(
            f"ball of radius {m} has {n} vertices and needs about {need:.3g} "
            f"bytes, beyond the {have:.3g} bytes of physical memory")

    # each ring grows from its parent ring's type vector; edges are gathered
    # as (u, v) id arrays, one direction each, then sorted into CSR
    vtypes = [np.zeros(1, dtype=np.int8)]
    us, vs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    stop = 1
    for lvl in range(m):
        parents = np.arange(stop - vtypes[-1].size, stop)
        # the root has seven type-1 children; on a ring, a type-1 parent has
        # two own children, a type-2 parent one, and each parent ends on the
        # type-2 child it shares with its ring successor
        kids = np.where(vtypes[-1] == VertexType.FIRST, 3, 2) if lvl else [DEGREE]
        children = np.arange(stop, stop + np.sum(kids))
        child_type = np.full(children.size, VertexType.FIRST, dtype=np.int8)
        us += [np.repeat(parents, kids), children]
        vs += [children, np.roll(children, -1)]
        if lvl:
            shared = np.cumsum(kids) - 1
            child_type[shared] = VertexType.SECOND
            us.append(np.roll(parents, -1))
            vs.append(children[shared])
        vtypes.append(child_type)
        stop += children.size

    if stop != n:
        raise InvariantError("generated vertex count disagrees with ring recurrence")

    ring_size = np.array([t.size for t in vtypes], dtype=np.int64)
    u = np.concatenate(us + vs)
    v = np.concatenate(vs + us)
    del us, vs
    order = np.lexsort((v, u))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(u, minlength=n))))
    ball = Ball(m, np.repeat(np.arange(m + 1, dtype=np.int32), ring_size),
                np.concatenate(vtypes),
                (DEGREE - np.diff(indptr)).astype(np.int8),
                np.concatenate(([0], np.cumsum(ring_size))),
                indptr, v[order])
    validate_ball(ball)
    return ball


def validate_ball(ball: Ball) -> None:
    """Check every structural invariant; raise InvariantError naming the first failure.

    Covers: level-contiguous ids, degree/deficit budget, adjacency symmetry,
    level differences of at most one along edges, down/side degree per type,
    each ring a single cycle of consecutive ids, and ring population counts
    matching the growth recurrence.
    """
    n, m = ball.n, ball.radius
    lvl = ball.level
    starts = ball.level_start
    if len(starts) != m + 2 or starts[0] != 0 or starts[-1] != n:
        raise InvariantError("level_start does not partition the id range")
    if np.any(np.diff(starts) <= 0):
        raise InvariantError("empty level block")
    expected_lvl = np.repeat(np.arange(m + 1, dtype=np.int32), np.diff(starts))
    if not np.array_equal(lvl, expected_lvl):
        raise InvariantError("vertex levels are not id-contiguous blocks")

    if ball.vtype[0] != VertexType.ZEROTH or np.any(ball.vtype[1:] == VertexType.ZEROTH):
        raise InvariantError("type 0 must appear exactly at the root")

    degrees = np.diff(ball.indptr)
    if not np.array_equal(degrees + ball.deficit, np.full(n, DEGREE)):
        raise InvariantError("stored degree plus deficit must equal 7")
    if np.any((ball.deficit != 0) & (lvl < m)):
        raise InvariantError("interior vertex with nonzero deficit")

    idx = ball.indices
    if idx.size:
        u = np.repeat(np.arange(n, dtype=np.int64), degrees)
        if idx.min() < 0 or idx.max() >= n:
            raise InvariantError("neighbor id out of range")
        if np.any(u == idx):
            raise InvariantError("self-loop")
        row_sorted = np.ones(idx.size, dtype=bool)
        inner = np.diff(idx) > 0
        inner[ball.indptr[1:-1] - 1] = True
        row_sorted[1:] = inner
        if not row_sorted.all():
            raise InvariantError("adjacency rows must be strictly ascending")
        if not np.array_equal(np.sort(u * n + idx), np.sort(idx * n + u)):
            raise InvariantError("adjacency is not symmetric")
        dl = lvl[idx].astype(np.int64) - lvl[u]
        if np.any(np.abs(dl) > 1):
            raise InvariantError("edge spans more than one level")

        down = np.bincount(u[dl == -1], minlength=n)
        side = np.bincount(u[dl == 0], minlength=n)
        ftype = ball.vtype == VertexType.FIRST
        stype = ball.vtype == VertexType.SECOND
        if np.any(down[ftype] != 1) or np.any(down[stype] != 2) or down[0] != 0:
            raise InvariantError("down-degree disagrees with vertex type")
        if m >= 1 and (side[0] != 0 or np.any(side[1:] != 2)):
            raise InvariantError("every ring vertex needs exactly two side edges")

        # Side edges must be exactly the consecutive-id pairs of each ring;
        # with side degree 2 everywhere this forces one cycle per level.
        su, sv = u[dl == 0], idx[dl == 0]
        ring_len = (starts[lvl[su] + 1] - starts[lvl[su]]).astype(np.int64)
        gap = np.abs(su - sv)
        if np.any((gap != 1) & (gap != ring_len - 1)):
            raise InvariantError("ring edge between non-consecutive ids")

    for l, (a, b) in enumerate(_ring_sizes(m), start=1):
        block = slice(int(starts[l]), int(starts[l + 1]))
        nf = int(np.count_nonzero(ball.vtype[block] == VertexType.FIRST))
        ns = int(np.count_nonzero(ball.vtype[block] == VertexType.SECOND))
        if (nf, ns) != (a, b):
            raise InvariantError(
                f"ring {l} has {nf}/{ns} vertices of type 1/2, expected {a}/{b}")


def distance_profile(ball: Ball) -> np.ndarray:
    """Graph distances from the root by BFS, independent of stored levels."""
    dist = np.full(ball.n, -1, dtype=np.int32)
    dist[0] = 0
    queue = deque((0,))
    ptr, idx = ball.indptr.tolist(), memoryview(ball.indices)
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        for w in idx[ptr[v]:ptr[v + 1]]:
            if dist[w] < 0:
                dist[w] = d
                queue.append(w)
    if np.any(dist < 0):
        raise InvariantError("ball is not connected")
    return dist


def _ring_arc(ball: Ball, ids, lvl: int) -> list:
    """Order ids (a contiguous cyclic arc of ring ``lvl``) along the ring."""
    start = int(ball.level_start[lvl])
    size = int(ball.level_start[lvl + 1]) - start
    pos = sorted((i - start) % size for i in ids)
    k = len(pos)
    if k >= 2 and pos[-1] - pos[0] > k - 1:  # arc wraps the ring origin
        for cut in range(1, k):
            if pos[cut] - pos[cut - 1] > 1:
                pos = pos[cut:] + pos[:cut]
                break
    return [start + p for p in pos]


def link_cycle(ball: Ball, v: int) -> list:
    """The seven tiling neighbors of ``v`` in rotational order around it.

    Neighbors outside the ball are reported as -1.  The cycle starts at the
    down-neighbor (for the root: at its lowest-id neighbor), and successive
    entries are adjacent in the tiling, matching the triangle fan around ``v``.
    All rotational orders share one global orientation.
    """
    if not 0 <= v < ball.n:
        raise ValueError(f"vertex {v} out of range")
    if v == 0:
        nbrs = ball.neighbors(0).tolist()
        return nbrs + [-1] * (DEGREE - len(nbrs))
    lvl = int(ball.level[v])
    start = int(ball.level_start[lvl])
    size = int(ball.level_start[lvl + 1]) - start
    prev = start + (v - 1 - start) % size
    nxt = start + (v + 1 - start) % size
    nbrs = ball.neighbors(v).tolist()
    downs = [u for u in nbrs if ball.level[u] == lvl - 1]
    ups = [u for u in nbrs if ball.level[u] == lvl + 1]
    ups = _ring_arc(ball, ups, lvl + 1) if ups else []
    if ball.vtype[v] == VertexType.FIRST:
        slots = ups + [-1] * (4 - len(ups))
        return [downs[0], prev] + slots + [nxt]
    # type 2: order the two parents so the second follows the first on their ring
    d_start = int(ball.level_start[lvl - 1])
    d_size = start - d_start
    da, db = downs
    if (da + 1 - d_start) % d_size == db - d_start:
        d1, d2 = da, db
    else:
        d1, d2 = db, da
    slots = ups + [-1] * (3 - len(ups))
    return [d2, d1, prev] + slots + [nxt]


_BALL_HEADER = re.compile(rb"HEPTABALL v2 m=(\d{1,19}) n=(\d{1,19})")


def _digest(body: bytes) -> bytes:
    import hashlib  # here, not at the top: it maps 3.5 MiB of OpenSSL
    return hashlib.blake2b(body, digest_size=8).hexdigest().encode("ascii")


def _sign(body: bytes) -> bytes:
    """Append the CHECK line: the BLAKE2b-64 digest of ``body``, in hex."""
    return body + b"CHECK %s\n" % _digest(body)


def _split_checked(data: bytes) -> bytes:
    """Verify the trailing CHECK line and return the bytes before it."""
    if not data.endswith(b"\n"):
        raise FormatError("stream must end with a newline")
    cut = data.rfind(b"\n", 0, -1) + 1
    body, check, stated = data[:cut], data[cut:cut + 6], data[cut + 6:-1]
    if check != b"CHECK ":
        raise FormatError("missing CHECK line")
    if stated != _digest(body):
        raise FormatError(
            f"checksum mismatch: stated {stated!r}, computed {_digest(body)!r}")
    return body


def _parse_ints(text: bytes):
    """Values of newline-ended lines of integers, and whether each ends a line."""
    buf = np.frombuffer(text, dtype=np.uint8)
    after = np.flatnonzero(buf <= ord(" "))  # the separator ending each token
    signs = np.flatnonzero(buf == ord("-"))
    # each token is [-]digits; a sign at 0 looks back at the final newline
    if (text[-1:] not in (b"", b"\n") or text.translate(None, b"-0123456789 \n")
            or np.any(buf[after - 1] < ord("0")) or np.any(buf[signs + 1] < ord("0"))
            or np.any(buf[signs - 1] > ord(" "))):
        raise FormatError("lines must hold integers separated by single spaces")
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    for k in np.flatnonzero(values == _INT64_MAX).tolist():  # numpy saturates
        token = text[after[k - 1] + 1 if k else 0:after[k]]
        if int(token) != _INT64_MAX:
            raise FormatError(f"value {token.decode()} outside signed 64-bit range")
    return values, buf[after] == ord("\n")


def serialize_ball(ball: Ball) -> bytes:
    """Render the ball as its text format (one vertex per line plus checksum)."""
    lines = [f"HEPTABALL v2 m={ball.radius} n={ball.n}"]
    ptr, idx = ball.indptr.tolist(), memoryview(ball.indices)
    fields = zip(ball.level.tolist(), ball.vtype.tolist(), ball.deficit.tolist())
    for v, (lvl, typ, dfc) in enumerate(fields):
        lines.append(" ".join(map(str, (v, lvl, typ, dfc, *idx[ptr[v]:ptr[v + 1]]))))
    return _sign(("\n".join(lines) + "\n").encode("ascii"))


def _parse_ball(body: bytes) -> Ball:
    """Read the header and vertex lines into an unvalidated ball."""
    head, _, text = body.partition(b"\n")
    header = _BALL_HEADER.fullmatch(head)
    if header is None:
        raise FormatError(f"malformed header: {head!r}")
    m, n = int(header.group(1)), int(header.group(2))
    values, ends = _parse_ints(text)
    last = np.flatnonzero(ends)
    if last.size != n:
        raise FormatError(f"expected {n} vertex lines, found {last.size}")
    width = np.diff(last, prepend=-1)
    lead = (last + 1 - width)[:, None] + np.arange(4)
    # clipped: a truncated last line is reported below, not read past the end
    vid, level, vtype, deficit = values.take(lead, mode="clip").T
    for bad, what in ((width < 4, "truncated"),
                      (vid != np.arange(n), "vertex ids must be 0..n-1 in order"),
                      ((vtype < 0) | (vtype > 2), "unknown vertex type"),
                      ((deficit < 0) | (deficit > DEGREE), "deficit out of range"),
                      (width - 4 + deficit != DEGREE, "degree plus deficit is not 7")):
        if bad.any():
            raise FormatError(f"vertex line {int(np.argmax(bad)) + 2}: {what}")
    if np.any(np.diff(level) < 0):
        raise FormatError("vertex lines are not level-major")
    # m + 1 nonempty levels: every level is below n, so int32 holds it
    if not (m < n and level[0] >= 0 and level[-1] == m):
        raise FormatError("stated radius disagrees with vertex levels")
    keep = np.ones(values.size, dtype=bool)
    keep[lead] = False
    return Ball(m, level.astype(np.int32), vtype.astype(np.int8),
                deficit.astype(np.int8), np.searchsorted(level, np.arange(m + 2)),
                np.concatenate(([0], np.cumsum(width - 4))), values[keep])


def deserialize_ball(data: bytes) -> Ball:
    """Parse and fully validate a serialized ball."""
    ball = _parse_ball(_split_checked(data))
    try:
        validate_ball(ball)
    except InvariantError as exc:
        raise FormatError(str(exc)) from exc
    return ball


def save_ball(ball: Ball, path) -> None:
    Path(path).write_bytes(serialize_ball(ball))


def load_ball(path) -> Ball:
    return deserialize_ball(Path(path).read_bytes())
