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
the bytes before it; ``_sign`` and ``_write_signed`` write that line and
``_split_checked`` checks it.  Between the header and that line, every format
is lines of integers separated by single spaces: ``_format_ints`` writes them
and ``_parse_ints``, its inverse, reads them, both in whole-array numpy, and
no other code formats or parses that grammar.
"""

from __future__ import annotations

import os
import re
from collections import deque
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import CapacityError, FormatError, InvariantError

DEGREE = 7

_INT64_MAX = 2**63 - 1

# peak memory of build_ball, validation included: an RSS rise of 205-213
# bytes per vertex (195 traced by tracemalloc) measured at radii 10..13
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

    def edges(self) -> tuple:
        """Each undirected edge once, as id arrays (u, v) with u < v, in CSR order."""
        u = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        keep = u < self.indices
        return u[keep], self.indices[keep]

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
    indices = v[order]
    del u, v, order  # dead once the CSR exists: free them before validating
    ball = Ball(m, np.repeat(np.arange(m + 1, dtype=np.int32), ring_size),
                np.concatenate(vtypes),
                (DEGREE - np.diff(indptr)).astype(np.int8),
                np.concatenate(([0], np.cumsum(ring_size))),
                indptr, indices)
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
        inner = idx[1:] > idx[:-1]
        inner[ball.indptr[1:-1] - 1] = True
        if not inner.all():
            raise InvariantError("adjacency rows must be strictly ascending")
        del inner
        # with ascending rows the (u, idx) pairs are sorted and distinct; the
        # adjacency is symmetric iff the (idx, u) pairs, stably sorted by idx
        # (u is already sorted), are the same list
        order = np.argsort(idx, kind="stable")
        if not (np.array_equal(idx[order], u) and np.array_equal(u[order], idx)):
            raise InvariantError("adjacency is not symmetric")
        del order
        dl = lvl[idx] - lvl[u]
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
        del u, dl
        ring_len = np.diff(starts).astype(np.int64)[lvl[su]]
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


def link_cycles(ball: Ball) -> np.ndarray:
    """The seven tiling neighbors of every vertex in rotational order, (n, 7) int64.

    Neighbors outside the ball are -1.  Each row starts at a down-neighbor
    (for the root: at its lowest-id neighbor), and successive entries are
    adjacent in the tiling, matching the triangle fan around the vertex; all
    rows share one global orientation.

    A CSR row lists the down-neighbors, then the two ring neighbors, then
    the up-neighbors, since ids are level-major; the up-neighbors form one
    arc of the next ring and wrap the ring origin only at the ring's first
    vertex, where the arc is rotated to start after its gap.
    """
    ptr, idx = ball.indptr, ball.indices
    cyc = np.full((ball.n, DEGREE), -1, dtype=np.int64)
    cyc[0, :ptr[1]] = idx[:ptr[1]]
    for typ, downs in ((VertexType.FIRST, 1), (VertexType.SECOND, 2)):
        v = np.flatnonzero(ball.vtype == typ)
        lvl = ball.level[v]
        start = ball.level_start[lvl]
        size = ball.level_start[lvl + 1] - start
        rows = cyc[v]
        rows[:, downs] = start + (v - 1 - start) % size
        rows[:, DEGREE - 1] = start + (v + 1 - start) % size
        da = idx[ptr[v]]
        if downs == 1:
            rows[:, 0] = da
        else:
            # list the parent that follows the other on their ring first
            db = idx[ptr[v] + 1]
            follows = db == da + 1
            rows[:, 0] = np.where(follows, db, da)
            rows[:, 1] = np.where(follows, da, db)
        k = DEGREE - 2 - downs
        up = lvl < ball.radius
        ups = idx[ptr[v[up] + 1, None] - k + np.arange(k)]
        gap = np.diff(ups, axis=1) > 1
        cut = np.where(gap.any(axis=1), gap.argmax(axis=1) + 1, 0)
        rows[up, downs + 1:DEGREE - 1] = np.take_along_axis(
            ups, (cut[:, None] + np.arange(k)) % k, axis=1)
        cyc[v] = rows
    return cyc


_BALL_HEADER = re.compile(rb"HEPTABALL v2 m=(\d{1,19}) n=(\d{1,19})")
_SEPARATOR = re.compile(rb"[\x00- ]")
_SPACING = "lines must hold integers separated by single spaces"

# bytes of text tokenized at once, and vertex lines formatted at once: both
# bound the codec's temporaries, so that a ball is saved or loaded in little
# more memory than the ball and its parsed tokens (saving the m=10 ball, a
# 3 MB file, peaks at 0.8 MB with 1024 lines at once and 2.7 MB with 4096)
_PARSE_CHUNK = 1 << 20
_WRITE_ROWS = 1024


def _hasher():
    import hashlib  # here, not at the top: it maps 3.5 MiB of OpenSSL
    return hashlib.blake2b(digest_size=8)


def _check_line(hasher) -> bytes:
    return b"CHECK %s\n" % hasher.hexdigest().encode("ascii")


def _sign(body: bytes) -> bytes:
    """Append the CHECK line: the BLAKE2b-64 digest of ``body``, in hex."""
    hasher = _hasher()
    hasher.update(body)
    return body + _check_line(hasher)


def _write_signed(path, chunks) -> None:
    """Write the byte chunks to ``path``, then the CHECK line of all of them."""
    hasher = _hasher()
    with open(path, "wb") as fh:
        for chunk in chunks:
            hasher.update(chunk)
            fh.write(chunk)
        fh.write(_check_line(hasher))


def _split_checked(data: bytes) -> tuple:
    """Verify the trailing CHECK line; return the first line and the lines after it.

    The lines after the first, up to the CHECK line, come as a memoryview of
    ``data``, not a copy.
    """
    if not data.endswith(b"\n"):
        raise FormatError("stream must end with a newline")
    cut = data.rfind(b"\n", 0, -1) + 1
    check, stated = data[cut:cut + 6], data[cut + 6:-1]
    if check != b"CHECK ":
        raise FormatError("missing CHECK line")
    body = memoryview(data)[:cut]
    hasher = _hasher()
    hasher.update(body)
    computed = hasher.hexdigest().encode("ascii")
    if stated != computed:
        raise FormatError(f"checksum mismatch: stated {stated!r}, computed {computed!r}")
    if not cut:
        return b"", body
    head = data.find(b"\n", 0, cut)
    return data[:head], body[head + 1:]


def _parse_ints(text):
    """Values of newline-ended lines of integers, and whether each ends a line.

    ``text`` is any bytes-like object.  It is read in pieces of about
    ``_PARSE_CHUNK`` bytes, each ending after a separator: one pass checks
    the characters and counts the tokens, the next parses each piece
    straight into the two output arrays.
    """
    buf = np.frombuffer(text, dtype=np.uint8)
    if buf.size and buf[-1] != ord("\n"):
        raise FormatError(_SPACING)
    cuts = [0]
    while cuts[-1] < buf.size:
        sep = _SEPARATOR.search(text, cuts[-1] + _PARSE_CHUNK - 1)
        cuts.append(sep.end() if sep else buf.size)
    pieces = list(zip(cuts, cuts[1:]))
    count = 0
    for lo, hi in pieces:
        if bytes(text[lo:hi]).translate(None, b"-0123456789 \n"):
            raise FormatError(_SPACING)
        count += np.count_nonzero(buf[lo:hi] <= ord(" "))
    values = np.empty(count, dtype=np.int64)
    ends = np.empty(count, dtype=bool)
    done = 0
    for lo, hi in pieces:
        # the separator ending each token; each token is [-]digits, and a
        # sign at 0 looks back at the final newline
        after = lo + np.flatnonzero(buf[lo:hi] <= ord(" "))
        signs = lo + np.flatnonzero(buf[lo:hi] == ord("-"))
        if (np.any(buf[after - 1] < ord("0")) or np.any(buf[signs + 1] < ord("0"))
                or np.any(buf[signs - 1] > ord(" "))):
            raise FormatError(_SPACING)
        piece = values[done:done + after.size]
        piece[:] = np.fromstring(bytes(text[lo:hi]), dtype=np.int64, sep=" ")
        for k in np.flatnonzero(piece == _INT64_MAX).tolist():  # numpy saturates
            token = bytes(text[after[k - 1] + 1 if k else lo:after[k]])
            if int(token) != _INT64_MAX:
                raise FormatError(f"value {token.decode()} outside signed 64-bit range")
        ends[done:done + after.size] = buf[after] == ord("\n")
        done += after.size
    return values, ends


# 10**1 .. 10**19: a magnitude has one digit more than the powers at most it
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)


def _format_ints(values, ends) -> bytes:
    """The inverse of ``_parse_ints``: lines of integers, as bytes.

    Each value is written in decimal, then a newline where ``ends`` is set
    and a space elsewhere.  Every value gets one row of a byte matrix, right
    aligned against its separator, and one boolean mask keeps each row's
    bytes.
    """
    values = np.asarray(values, dtype=np.int64)
    if not values.size:
        return b""
    neg = values < 0
    # abs(-2**63) wraps to -2**63, which reads as 2**63 unsigned
    mag = np.abs(values).view(np.uint64)
    digits = np.searchsorted(_POWERS_OF_TEN, mag, side="right") + 1
    width = digits + neg + 1
    cols = int(width.max())
    text = np.empty((values.size, cols), dtype=np.uint8)
    text[:, -1] = np.where(ends, ord("\n"), ord(" "))
    if mag.max() <= np.iinfo(np.uint32).max:
        mag = mag.astype(np.uint32)  # narrower division is faster
    for col in range(cols - 2, cols - 2 - int(digits.max()), -1):
        quot = mag // 10
        text[:, col] = mag - 10 * quot + ord("0")
        mag = quot
    signed = np.flatnonzero(neg)
    text[signed, cols - 2 - digits[signed]] = ord("-")
    return text[np.arange(cols) >= cols - width[:, None]].tobytes()


def _ball_lines(ball: Ball):
    """The serialized ball up to its CHECK line, as chunks of bytes."""
    yield f"HEPTABALL v2 m={ball.radius} n={ball.n}\n".encode("ascii")
    for lo in range(0, ball.n, _WRITE_ROWS):
        hi = min(lo + _WRITE_ROWS, ball.n)
        ptr = ball.indptr[lo:hi + 1]
        lead = np.column_stack((np.arange(lo, hi), ball.level[lo:hi],
                                ball.vtype[lo:hi], ball.deficit[lo:hi]))
        # each row's neighbors, with id, level, type and deficit put before them
        tokens = np.insert(ball.indices[ptr[0]:ptr[-1]],
                           np.repeat(ptr[:-1] - ptr[0], 4), lead.ravel())
        ends = np.zeros(tokens.size, dtype=bool)
        ends[ptr[1:] - ptr[0] + 4 * np.arange(1, hi - lo + 1) - 1] = True
        yield _format_ints(tokens, ends)


def serialize_ball(ball: Ball) -> bytes:
    """Render the ball as its text format (one vertex per line plus checksum)."""
    return _sign(b"".join(_ball_lines(ball)))


def _parse_ball(head: bytes, values: np.ndarray, ends: np.ndarray) -> Ball:
    """Read the header and the tokens of the vertex lines into an unvalidated ball."""
    header = _BALL_HEADER.fullmatch(head)
    if header is None:
        raise FormatError(f"malformed header: {head!r}")
    m, n = int(header.group(1)), int(header.group(2))
    last = np.flatnonzero(ends)
    if last.size != n:
        raise FormatError(f"expected {n} vertex lines, found {last.size}")
    width = np.diff(last, prepend=-1)
    first = last + 1 - width
    # clipped: a truncated last line is reported below, not read past the end
    vid, level, vtype, deficit = (values.take(first + k, mode="clip") for k in range(4))
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
    for k in range(4):
        keep[first + k] = False
    return Ball(m, level.astype(np.int32), vtype.astype(np.int8),
                deficit.astype(np.int8), np.searchsorted(level, np.arange(m + 2)),
                np.concatenate(([0], np.cumsum(width - 4))), values[keep])


def deserialize_ball(data: bytes) -> Ball:
    """Parse and fully validate a serialized ball."""
    head, text = _split_checked(data)
    tokens = _parse_ints(text)
    del data, text  # from here on the tokens stand in for the text
    ball = _parse_ball(head, *tokens)
    del tokens
    try:
        validate_ball(ball)
    except InvariantError as exc:
        raise FormatError(str(exc)) from exc
    return ball


def save_ball(ball: Ball, path) -> None:
    _write_signed(path, _ball_lines(ball))


def load_ball(path) -> Ball:
    return deserialize_ball(Path(path).read_bytes())
