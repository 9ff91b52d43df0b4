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

``build_ball`` writes each adjacency row straight into the CSR by index
arithmetic over the rings' type vectors, with no edge list and no sort, and
``validate_ball`` checks it in two passes over blocks of rows, vertices first
and entries second, so neither holds more than a few MiB beside the ball.
It reads the ids it checks by ``take`` and ``compress``, not by fancy or
boolean indexing, which numpy runs slower on these int32 and int8 arrays.

Every file format ends in a ``CHECK`` line holding the BLAKE2b-64 digest of
the bytes before it; ``_sign`` and ``_write_signed`` write that line and
``_check_stream`` checks it a piece at a time.  Between the header and that
line, every format is lines of integers separated by single spaces, written
in whole-array numpy by one digit kernel, ``_write_digits``: each value is
written right-aligned into a zero-filled byte row, its leading zeros stay
NUL, and one ``bytes.translate`` drops every NUL.  ``_format_ints`` runs it
on a grid of values beside a grid of separator bytes, 0 where a line has no
token; a chunk of state or odometer lines is a grid of id/value pairs.  A
ball file writes each value's text once: ``_id_text`` runs the kernel on
0..max(n-1, 7, m) into one word per value, 8 bytes through 7 digits and 16
beyond, and a chunk of vertex lines, a row per vertex with a slot per
token, gathers its tokens' words from that table.  A ``Ball`` holding a
value the table cannot write is refused with ``ValueError`` before its
header.
No file is parsed into what it holds: a file loads only when it is byte for
byte what the writer writes for the object it describes, and
``_compare_lines`` compares it with those bytes a chunk of lines at a time.
A ball is fixed by its radius, so ``load_ball`` compares the file with the
serialized ball of the radius its header states, never holding the file.
"""

from __future__ import annotations

import io
import itertools
import os
import re
from collections import deque
from enum import IntEnum

import numpy as np

from .errors import CapacityError, FormatError, InvariantError

DEGREE = 7

_INT32_MAX = 2**31 - 1
_UINT32_MAX = 2**32 - 1

# the only memory model, checked by build_ball, which makes every Ball a
# route receives: 96 bytes per vertex cover the ball (25), a caller's input,
# state and odometer (8 each) and a route's temporaries.  bench process
# peaks per vertex at radii 15, 16 and 17, ball and closed-form check
# included: --methods naive,closed 64.5, 60.2 and 59.3 B, batch,closed
# 63.2, 59.4 and 58.6 B, wave,closed 63.9, 59.4 and 58.6 B and
# batch,wave,closed 68.1, 65.9 and 65.0 B; each is set while a later
# method runs, or is compared, beside the first method's result.
# A lower figure would admit larger balls, so a smaller ball leaves it at 96.
# Saving or loading a ball holds its id text table beside it, 8 B per
# vertex through radius 15 (29 MB at 14, 75 MB at 15) and 16 B from radius
# 16 on, where ids need 8 digits (395 MB at 16)
_BYTES_PER_VERTEX = 96

# vertices per block of build_ball and validate_ball, and values per block
# of the id text table, which bounds their temporaries to a few MiB at any
# radius
_BLOCK = 1 << 12


def _physical_memory() -> int:
    """Bytes of physical memory, the ceiling for one ball and its relaxation."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _require_memory(m: int) -> tuple:
    """Refuse the radius-``m`` ball if it cannot fit; else (vertices, entries).

    Raises ``CapacityError`` beyond ``_MAX_RADIUS``, before any arithmetic
    that grows with ``m``, and when ``n * _BYTES_PER_VERTEX`` bytes exceed
    physical memory.
    """
    if m > _MAX_RADIUS:
        raise CapacityError(
            f"ball of radius {m} is beyond radius {_MAX_RADIUS}, the last whose "
            f"adjacency entries int32 neighbor ids can address")
    n, entries = _csr_size(m)
    need, have = n * _BYTES_PER_VERTEX, _physical_memory()
    if need > have:
        raise CapacityError(
            f"ball of radius {m} has {n} vertices and needs about {need:.3g} "
            f"bytes, beyond the {have:.3g} bytes of physical memory")
    return n, entries


class VertexType(IntEnum):
    ZEROTH = 0
    FIRST = 1
    SECOND = 2


class Ball:
    """Immutable ball of radius ``m``; treat every field as read-only.

    ``deficit`` and ``level_start`` are derived from the five stored fields
    on each access.  ``level`` and ``vtype`` stay stored, though the CSR
    determines them: deriving either takes a pass over the ball, and the
    closed forms read both on every call.

    Attributes
    ----------
    radius : int
        Ball radius ``m``.
    level : (n,) int8 array
        Graph distance from the root; id blocks are level-contiguous.
        Levels reach at most ``_MAX_RADIUS`` (19).
    vtype : (n,) int8 array
        ``VertexType`` value per vertex.
    indptr : (n+1,) int32 array
    indices : int32 array
        The adjacency in CSR form, the only one stored: the neighbors of
        ``v`` inside the ball are ``indices[indptr[v]:indptr[v + 1]]``,
        ascending.  ``_MAX_RADIUS`` keeps both below 2**31.
    deficit : (n,) int8 array, derived
        Number of tiling neighbors outside the ball (7 minus row length).
    level_start : (m+2,) int64 array, derived
        ``level_start[l]`` is the first id of level ``l``; last entry is ``n``.
    """

    __slots__ = ("radius", "level", "vtype", "indptr", "indices")

    def __init__(self, radius, level, vtype, indptr, indices):
        self.radius = int(radius)
        self.level = level
        self.vtype = vtype
        self.indptr = indptr
        self.indices = indices

    @property
    def deficit(self) -> np.ndarray:
        return (DEGREE - np.diff(self.indptr)).astype(np.int8)

    @property
    def level_start(self) -> np.ndarray:
        # level's own dtype: a wider arange makes searchsorted copy level
        steps = np.arange(self.radius + 2, dtype=self.level.dtype)
        return np.searchsorted(self.level, steps)

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
        return self is other or (self.radius == other.radius
                                 and np.array_equal(self.level, other.level)
                                 and np.array_equal(self.vtype, other.vtype)
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


def _csr_size(m: int) -> tuple:
    """Vertices and adjacency entries of the radius-``m`` ball, exact integers."""
    if not m:
        return 1, 0
    sizes = _ring_sizes(m)
    n = 1 + sum(a + b for a, b in sizes)
    # seven neighbors inside, three (type 1) or four (type 2) on the outer ring
    a, b = sizes[-1]
    return n, DEGREE * (n - a - b) + 3 * a + 4 * b


# the largest radius whose adjacency entries int32 neighbor ids can address
_MAX_RADIUS = next(m for m in itertools.count() if _csr_size(m + 1)[1] > _INT32_MAX)


def build_ball(m: int) -> Ball:
    """Construct and validate the radius-``m`` ball.

    Each CSR row is written straight into ``indices``, ring by ring in blocks
    of ``_BLOCK`` vertices, from the ring's own type vector.  A parent's run
    of children ends on the type-2 child it shares with its ring successor,
    so at ring position ``j``:

    * the owning parent sits at the parent ring's position equal to the
      number of type-2 vertices before ``j``; a type-2 vertex also has that
      parent's successor;
    * the first own child sits at position ``2j`` plus the number of type-1
      vertices before ``j`` on the next ring (three children per type-1
      vertex, two per type-2), and the ups are that run plus the child shared
      with the ring predecessor just before it, which for ``j = 0`` is the
      last vertex of the next ring.

    The last child of each run is type 2, which gives the next ring's types.
    """
    if m < 0:
        raise ValueError("radius must be nonnegative")
    n, entries = _require_memory(m)
    sizes = _ring_sizes(m)

    ring_size = np.array([1] + [a + b for a, b in sizes], dtype=np.int64)
    level_start = np.concatenate(([0], np.cumsum(ring_size)))
    vtype = np.full(n, VertexType.FIRST, dtype=np.int8)
    vtype[0] = VertexType.ZEROTH
    indices = np.empty(entries, dtype=np.int32)
    at = 0
    if m:  # the root's row
        indices[:DEGREE] = np.arange(1, DEGREE + 1)
        at = DEGREE
    for lvl in range(1, m + 1):
        # first ids of the parent ring, of this ring and of the next ring,
        # and the end of the next ring
        ps, s, e = (int(x) for x in level_start[lvl - 1:lvl + 2])
        inner = lvl < m
        ce = int(level_start[lvl + 2]) if inner else e
        seconds = 0  # type-2 vertices of the ring before the block
        for lo in range(s, e, _BLOCK):
            hi = min(lo + _BLOCK, e)
            v = np.arange(lo, hi, dtype=np.int32)
            second = vtype[lo:hi] == VertexType.SECOND
            before = np.cumsum(second, dtype=np.int32)
            before += seconds - second
            seconds = int(before[-1] + second[-1])
            da = ps + before
            db = ps + (before + 1) % (s - ps)
            # columns: two parents, two ring neighbors, four children; a
            # type-1 row drops the second parent, a type-2 row the last child
            row = np.empty((hi - lo, 8 if inner else 4), dtype=np.int32)
            row[:, 0] = np.where(second, np.minimum(da, db), da)
            row[:, 1] = np.maximum(da, db)
            row[:, 2] = v - 1
            row[:, 3] = v + 1
            keep = np.ones(row.shape, dtype=bool)
            keep[:, 1] = second
            if inner:
                first = ~second
                f = e + 3 * (v - s) - before
                row[:, 4:] = f[:, None] + np.arange(-1, 3, dtype=np.int32)
                keep[:, 7] = first
                vtype[f + 1 + first] = VertexType.SECOND
            if lo == s:
                # a ring's first vertex is type 1, and its predecessor's
                # shared child is the last vertex of the next ring
                row[0, 2:4] = s + 1, e - 1
                if inner:
                    row[0, 4:] = e, e + 1, e + 2, ce - 1
            if hi == e:
                row[-1, 2:4] = s, e - 2
                if inner and f[-1] + 2 + first[-1] != ce:
                    raise InvariantError(
                        "generated vertex count disagrees with ring recurrence")
            rows = row[keep]
            indices[at:at + rows.size] = rows
            at += rows.size

    # row lengths: 7 inside; on the outer ring, 2 ring edges plus vtype down
    indptr = np.zeros(n + 1, dtype=np.int32)
    if m:
        outer = int(level_start[m])
        indptr[1:outer + 1] = DEGREE
        np.add(vtype[outer:], 2, out=indptr[outer + 1:])
    np.cumsum(indptr[1:], out=indptr[1:])
    if at != entries:
        raise InvariantError("written adjacency disagrees with the row lengths")
    ball = Ball(m, np.repeat(np.arange(m + 1, dtype=np.int8), ring_size), vtype,
                indptr, indices)
    validate_ball(ball)
    return ball


def validate_ball(ball: Ball) -> None:
    """Check every structural invariant; raise InvariantError naming the first failure.

    Covers: levels rising by 0 or 1 per id, 7 entries in interior rows,
    adjacency symmetry, level differences of at most one along edges,
    down/side degree per type, each ring a single cycle of consecutive ids,
    and ring population counts matching the growth recurrence.

    A generic CSR check that shares no row arithmetic with ``build_ball``.
    It makes two passes over blocks of ``_BLOCK`` rows, which bounds its
    temporaries.  The first checks each block's vertices and counts its
    forward entries (u < w); one range check on all neighbor ids follows;
    the second checks each block's entries, finding each forward entry's
    source in its target's row to check symmetry.  Each check raises where
    it fails, so the message names the first failing check of the first
    failing block of a pass.  The second pass gathers by ``take`` and
    ``compress``, derives the self-loop, forward and ring-gap tests from
    one array of ``u - w`` per block, and takes the shortest target row's
    length once per block for all its probes.

    The checks are necessary, not sufficient: crossing two up-edges x-y and
    z-w into x-w and z-y, in all four rows, keeps every one of them on a
    graph that is not the tiling's ball.  That is why ``deserialize_ball``
    compares a file with the built ball instead of validating what it reads.
    """
    n, m = ball.n, ball.radius
    if not (n and ball.level[0] == 0 and ball.level[-1] == m):
        raise InvariantError("levels must run from 0 at the root to the radius")
    ptr, idx = ball.indptr, ball.indices
    if len(ptr) != n + 1 or ptr[0] != 0 or ptr[-1] != idx.size:
        raise InvariantError("indptr does not delimit the adjacency rows")

    forward = sum(_check_vertices(ball, lo, min(lo + _BLOCK, n))
                  for lo in range(0, n, _BLOCK))
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvariantError("neighbor id out of range")
    starts = ball.level_start
    # with distinct entries in each row, the adjacency is symmetric iff each
    # forward entry has its reverse and forward entries are half of all, so
    # only forward entries need a lookup
    balanced, ring_len = 2 * forward == idx.size, np.diff(starts)
    for lo in range(0, n, _BLOCK):
        _check_rows(ball, ring_len, balanced, lo, min(lo + _BLOCK, n))

    for l, (a, b) in enumerate(_ring_sizes(m), start=1):
        block = slice(int(starts[l]), int(starts[l + 1]))
        nf = int(np.count_nonzero(ball.vtype[block] == VertexType.FIRST))
        ns = int(np.count_nonzero(ball.vtype[block] == VertexType.SECOND))
        if (nf, ns) != (a, b):
            raise InvariantError(
                f"ring {l} has {nf}/{ns} vertices of type 1/2, expected {a}/{b}")


def _check_vertices(ball: Ball, lo: int, hi: int) -> int:
    """The per-vertex checks of ``validate_ball`` on vertices lo..hi-1.

    Returns the number of their entries (u, w) with u < w, counted once
    the checks hold.
    """
    lvl = ball.level[lo:hi]
    # in int64: an int8 difference wraps, and 127 then -128 would read as a rise of 1
    seq = ball.level[max(lo - 1, 0):hi]
    rise = np.subtract(seq[1:], seq[:-1], dtype=np.int64)
    if np.any((rise < 0) | (rise > 1)):
        raise InvariantError("levels must rise by 0 or 1 per id")
    vtype = ball.vtype[lo:hi]
    if np.any((vtype == VertexType.ZEROTH) != (np.arange(lo, hi) == 0)):
        raise InvariantError("type 0 must appear exactly at the root")
    if np.any((vtype < 0) | (vtype > VertexType.SECOND)):
        raise InvariantError("unknown vertex type")
    ptr = ball.indptr[lo:hi + 1]
    length = np.diff(ptr)
    if np.any((length < 0) | (length > DEGREE)):
        raise InvariantError("row length out of 0..7")
    if np.any((length != DEGREE) & (lvl < ball.radius)):
        raise InvariantError("interior rows must have 7 entries")
    u = np.repeat(np.arange(lo, hi, dtype=ball.indices.dtype), length)
    return int(np.count_nonzero(ball.indices[ptr[0]:ptr[-1]] > u))


def _check_rows(ball: Ball, ring_len: np.ndarray, balanced: bool, lo: int, hi: int):
    """The per-entry checks of ``validate_ball`` on the rows of lo..hi-1.

    Runs once the per-vertex checks hold everywhere and every neighbor id
    is in range, so every row has at most 7 entries.  ``balanced`` tells
    whether forward entries (u < w) are half of all entries.
    """
    ptr, indices = ball.indptr[lo:hi + 1], ball.indices
    idx = indices[ptr[0]:ptr[-1]]
    deg = np.diff(ptr)
    row = np.repeat(np.arange(hi - lo, dtype=idx.dtype), deg)  # each entry's, from lo
    u = row + lo
    diff = u - idx  # 0 on a self-loop, negative on a forward entry (u < w)
    if not diff.all():
        raise InvariantError("self-loop")
    if np.any((idx[1:] <= idx[:-1]) & (row[1:] == row[:-1])):
        raise InvariantError("adjacency rows must be strictly ascending")
    # the source of each forward entry must be stored in the row of w,
    # among its entries from indptr[w]; sources sit low in ascending rows,
    # so the probes stop once every source is found
    forward = diff < 0
    source, target = u.compress(forward), idx.compress(forward)
    start = ball.indptr.take(target)
    stored = ball.indptr[1:].take(target)
    stored -= start
    shortest = stored.min(initial=DEGREE)
    found = np.zeros(source.size, dtype=bool)
    for k in range(DEGREE):
        hit = indices.take(start, mode="clip") == source
        if k >= shortest:
            hit &= stored > k
        found |= hit
        if found.all():
            break
        start += 1
    if not (balanced and found.all()):
        raise InvariantError("adjacency is not symmetric")
    lvl = ball.level
    dl = lvl.take(idx) - np.repeat(lvl[lo:hi], deg)
    if np.any(np.abs(dl) > 1):
        raise InvariantError("edge spans more than one level")
    # per row: entries one level down, on the same level, one level up
    per_level = np.bincount(3 * row + (dl + 1), minlength=3 * (hi - lo)).reshape(-1, 3)
    vtype = ball.vtype[lo:hi]
    # a vertex's type is its number of parents
    if np.any(per_level[:, 0] != vtype):
        raise InvariantError("down-degree disagrees with vertex type")
    if np.any(per_level[:, 1] != 2 * (vtype != 0)):
        raise InvariantError("every ring vertex needs exactly two side edges")
    # side edges must be exactly the consecutive-id pairs of each ring; with
    # side degree 2 everywhere this forces one cycle per level
    gap = np.abs(diff, out=diff)
    wrap = (dl == 0) & (gap != 1)
    if np.any(gap.compress(wrap) != ring_len.take(lvl.take(idx.compress(wrap))) - 1):
        raise InvariantError("ring edge between non-consecutive ids")


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


_BALL_HEADER = re.compile(rb"HEPTABALL v2 m=(0|[1-9]\d{0,18}) n=([1-9]\d{0,18})")

# bytes of a file read and hashed at once, and vertex lines formatted at
# once: both bound the codec's temporaries, the second when a file is saved
# and when it is loaded, which compares a chunk of lines at a time (saving
# the m=10 ball, a 3 MB file, peaks at 0.5 MB with 1024 lines at once and
# 1.7 MB with 4096)
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
    """Write the byte chunks to ``path``, then the CHECK line of all of them.

    The first chunk is pulled before the file is opened, so a writer that
    refuses its object there leaves no file behind.
    """
    hasher = _hasher()
    chunks = iter(chunks)
    first = next(chunks, b"")
    with open(path, "wb") as fh:
        for chunk in itertools.chain((first,), chunks):
            hasher.update(chunk)
            fh.write(chunk)
        fh.write(_check_line(hasher))


def _check_stream(fh) -> tuple:
    """The first line, line count and body length of the signed file ``fh``.

    Verifies the CHECK line, reading ``_PARSE_CHUNK`` bytes at a time and
    holding back only the last line; the first line is b"" if it is the
    CHECK line, and ``fh`` is left after it otherwise.
    """
    hasher, held, lines, cut = _hasher(), bytearray(), 0, 0
    for piece in iter(lambda: fh.read(_PARSE_CHUNK), b""):
        lines += piece.count(b"\n")
        end = piece.rfind(b"\n", 0, len(piece) - 1) + 1
        if end or held.endswith(b"\n"):
            hasher.update(held)
            hasher.update(memoryview(piece)[:end])
            cut += len(held) + end
            held = bytearray(piece[end:])
        else:
            held += piece
    if not held.endswith(b"\n"):
        raise FormatError("stream must end with a newline")
    if held[:6] != b"CHECK ":
        raise FormatError("missing CHECK line")
    stated, computed = bytes(held[6:-1]), hasher.hexdigest().encode("ascii")
    if stated != computed:
        raise FormatError(f"checksum mismatch: stated {stated!r}, computed {computed!r}")
    fh.seek(0)
    return (fh.readline()[:-1] if cut else b""), lines, cut


def _write_digits(mag, write, text) -> None:
    """Write the unsigned ``mag`` in decimal, right-aligned, into ``text``.

    ``text`` is a zero-filled uint8 array with one row of digit columns per
    value on its last axis.  The ones column is written where ``write``
    holds, each further column where the magnitude left is nonzero, so
    leading zeros stay NUL.  ``mag`` is consumed.
    """
    for col in range(text.shape[-1] - 1, -1, -1):
        quot = mag // 10
        mag -= 10 * quot
        mag += ord("0")
        np.multiply(mag, write, out=text[..., col], casting="unsafe")
        mag = quot
        write = mag != 0


def _format_ints(values, seps) -> bytes:
    """Each value in decimal, then its separator.

    ``values`` is an integer array of any shape and ``seps`` a uint8 array
    of separator bytes that broadcasts to it, written in row-major order; a
    value whose separator is 0 is not written.  Every value gets one row of
    a zero-filled byte matrix, right-aligned against its separator, with a
    sign only where it is negative.  Its leading zeros stay NUL, and one
    translate drops them.
    """
    values = np.asarray(values, dtype=np.int64)
    if not values.size:
        return b""
    live = seps != 0
    # abs(-2**63) wraps to -2**63, which reads as 2**63 unsigned
    mag = np.abs(values).view(np.uint64)
    top = int(mag.max())
    if top <= _UINT32_MAX:
        mag = mag.astype(np.uint32)  # narrower division is faster
    mag *= live
    sign, width = int(values.min() < 0), len(str(top))
    text = np.zeros(values.shape + (sign + width + 1,), dtype=np.uint8)
    text[..., -1] = seps
    _write_digits(mag, live, text[..., sign:sign + width])
    if sign:
        neg = np.nonzero((values < 0) & live)
        digits = np.count_nonzero(text[neg], axis=-1) - 1  # less the separator
        text[neg + (width - digits,)] = ord("-")
    return text.tobytes().translate(None, b"\0")


def _id_text(lo: int, hi: int) -> np.ndarray:
    """The decimal text of ``lo..hi - 1``, one word per value.

    A word is 8 bytes while ``hi - 1`` has at most 7 digits and 16 bytes
    otherwise; its digits stand right-aligned after NULs, and its last byte
    is left 0 for the separator.  The words are filled ``_BLOCK`` values at
    a time, which bounds the digit kernel's temporaries.
    """
    size = 8 if hi <= 10**7 else 16
    words = np.zeros(hi - lo, dtype=f"V{size}")
    text = words.view(np.uint8).reshape(-1, size)
    width = len(str(hi - 1))
    for a in range(lo, hi, _BLOCK):
        b = min(a + _BLOCK, hi)
        _write_digits(np.arange(a, b, dtype=np.uint32), True,
                      text[a - lo:b - lo, size - 1 - width:size - 1])
    return words


def _require_table(ball: Ball, top: int) -> None:
    """Refuse ``ball`` if the id text table of 0..top cannot write it.

    Raises ``ValueError`` naming the first such array: a level, type or
    neighbor id outside 0..top, or a row of more than 7 entries.
    """
    for name, values, most in (("level", ball.level, top), ("vtype", ball.vtype, top),
                               ("indices", ball.indices, top),
                               ("indptr", np.diff(ball.indptr), DEGREE)):
        if values.size and not (values.min() >= 0 and values.max() <= most):
            raise ValueError(f"ball {name} holds a value outside 0..{most}, "
                             f"which its file cannot write")


def _ball_lines(ball: Ball):
    """The serialized ball up to its CHECK line, as chunks of bytes.

    Each chunk is ``_WRITE_ROWS`` vertex lines: a row per vertex and as many
    slots as the chunk's longest line (id, level, type and deficit, then the
    neighbors), with separator 0 past the line's end.  The text of every
    token is gathered from ``_id_text(0, top + 1)``, top = max(n - 1, 7, m),
    built once per call: ids are a slice of it, every other column a
    gather, the separators go into the last byte of each word and one
    translate drops the NULs.  ``_require_table`` refuses a ball the table
    cannot write before the header.
    """
    top = max(ball.n - 1, DEGREE, ball.radius)
    _require_table(ball, top)
    yield f"HEPTABALL v2 m={ball.radius} n={ball.n}\n".encode("ascii")
    table = _id_text(0, top + 1)
    for lo in range(0, ball.n, _WRITE_ROWS):
        hi = min(lo + _WRITE_ROWS, ball.n)
        ptr = ball.indptr[lo:hi + 1]
        length = np.diff(ptr)
        longest = int(length.max())
        # the separators of a line with k neighbors, k = 0..longest
        seps = np.tri(longest + 1, 4 + longest, 3, dtype=np.uint8) * ord(" ")
        np.fill_diagonal(seps[:, 3:], ord("\n"))
        seps = seps.take(length, axis=0)
        words = np.zeros(seps.shape, dtype=table.dtype)
        words[:, 0] = table[lo:hi]
        words[:, 1] = table[ball.level[lo:hi]]
        words[:, 2] = table[ball.vtype[lo:hi]]
        words[:, 3] = table[DEGREE - length]
        words[:, 4:][seps[:, 4:] != 0] = table[ball.indices[ptr[0]:ptr[-1]]]
        words.view(np.uint8)[:, table.itemsize - 1::table.itemsize] = seps
        yield words.tobytes().translate(None, b"\0")


def serialize_ball(ball: Ball) -> bytes:
    """Render the ball as its text format (one vertex per line plus checksum)."""
    return _sign(b"".join(_ball_lines(ball)))


def deserialize_ball(data: bytes) -> Ball:
    """The ball that ``data`` serializes; any other bytes raise FormatError."""
    return _read_ball(io.BytesIO(data))


def _compare_lines(fh, chunks, cut: int, what: str) -> None:
    """Require the first ``cut`` bytes of ``fh`` to be the byte chunks.

    Reads the file a chunk's length at a time from its start and names, in
    the format error, the first line that differs from ``what``.
    """
    fh.seek(0)
    line = 1
    for chunk in chunks:
        text = fh.read(len(chunk))
        if text != chunk:
            same = os.path.commonprefix([text, chunk])
            line += chunk.count(b"\n", 0, len(same))
            raise FormatError(f"line {line} differs from {what}")
        line += chunk.count(b"\n")
    if fh.tell() != cut:  # the file has lines beyond the chunks
        raise FormatError(f"line {line} differs from {what}")


def _read_ball(fh) -> Ball:
    """The ball that the binary file ``fh`` holds; other bytes raise FormatError.

    Its lines are compared with those of the radius-m ball, built once the
    header and line count agree with it.
    """
    head, lines, cut = _check_stream(fh)
    header = _BALL_HEADER.fullmatch(head)
    if header is None:
        raise FormatError(f"malformed header: {head!r}")
    m, n = int(header.group(1)), int(header.group(2))
    if not (m <= _MAX_RADIUS and _csr_size(m)[0] == n):
        raise FormatError(f"stated radius disagrees with the vertex count: m={m}, n={n}")
    if lines - 2 != n:  # less the header and CHECK lines
        raise FormatError(f"expected {n} vertex lines, found {lines - 2}")
    ball = build_ball(m)
    _compare_lines(fh, _ball_lines(ball), cut, f"the radius-{m} ball")
    return ball


def save_ball(ball: Ball, path) -> None:
    _write_signed(path, _ball_lines(ball))


def load_ball(path) -> Ball:
    with open(path, "rb") as fh:
        return _read_ball(fh)
