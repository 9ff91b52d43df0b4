import hashlib
import io
import itertools
import tracemalloc

import numpy as np
import pytest

from heptapile import (DEGREE, Ball, CapacityError, FormatError, InvariantError,
                       State, VertexType, ball_size, build_ball, distance_profile,
                       level_counts, load_ball, load_odometer, load_state, relax,
                       save_ball, save_odometer, save_state, validate_ball)
from heptapile import ball as ball_module
from heptapile.ball import (_ball_lines, _check_stream, _csr_size, _format_ints, _id_text,
                            _sign, deserialize_ball, link_cycles, serialize_ball)

# |ball(m)| for m = 0..12, from the Fibonacci closed form, frozen
SIZES = [1, 8, 29, 85, 232, 617, 1625, 4264, 11173, 29261, 76616, 200593,
         525169]


# sha256 of the vertex lines of serialize_ball(build_ball(m)), the bytes
# between the header and the CHECK line, frozen: pins the vertex numbering
# and the order of every adjacency row, not just the graph up to isomorphism
BALL_DIGESTS = {
    0: "5b81459ff8734fd14eb16cef78c1372cb85e14d6fafe95d6814126bb2d59b2ad",
    1: "7eca4dcc5677e0419cd99ff48cfdf5a239908ce841cdb44e343c4ec097ad39fa",
    2: "615588f9b436686fe018689ba6e5eb07da58453518ce885a31a9568b89dc40d5",
    5: "8aaea78fb5621e826a4a9f0b661b961aa23e0c99fab0861ca9e6f54c799da0ed",
    8: "62f0df841440696f7e3fcf4262782ae4ac3b26e274d6e01507b825b0da02d9d6",
    # the first radius with 6-digit ids
    11: "9824277aa8e4d1a0d679dc0619604544ad7eee6f4c3061f2e95ed3eedc9a6a64",
}


def resign(lines):
    """Re-stamp the trailing CHECK line after tampering with the payload."""
    return _sign(b"\n".join(lines) + b"\n")


def test_ball_zero_is_a_lone_vertex():
    b = build_ball(0)
    assert b.n == 1
    assert tuple(b.neighbors(0)) == ()
    assert b.deficit[0] == 7
    assert list(b.level) == [0]
    assert b.vtype[0] == VertexType.ZEROTH


def test_ball_one_is_a_wheel():
    b = build_ball(1)
    assert b.n == 8
    assert sorted(b.neighbors(0)) == list(range(1, 8))
    ring = b.ring(1)
    assert ring == range(1, 8)
    for v in ring:
        assert b.vtype[v] == VertexType.FIRST
        assert b.deficit[v] == 4
        nbrs = set(b.neighbors(v))
        assert 0 in nbrs
        side = {1 + (v - 1 + 1) % 7, 1 + (v - 1 - 1) % 7}
        assert side <= nbrs


def test_ball_two_counts():
    b = build_ball(2)
    assert b.n == 29
    ring = b.ring(2)
    first = int(np.count_nonzero(b.vtype[ring.start:ring.stop] == VertexType.FIRST))
    assert (first, len(ring) - first) == (14, 7)


@pytest.mark.parametrize("m", range(0, 9))
def test_sizes_match_frozen_table(m, ball_cache):
    assert ball_cache(m).n == SIZES[m]


@pytest.mark.parametrize("m", [3, 5, 7])
def test_ring_recurrence(m, ball_cache):
    b = ball_cache(m)
    prev = None
    for lvl in range(1, m + 1):
        ring = b.ring(lvl)
        nf = int(np.count_nonzero(b.vtype[ring.start:ring.stop] == VertexType.FIRST))
        ns = len(ring) - nf
        assert (nf, ns) == tuple(level_counts(lvl))
        if prev is not None:
            assert nf == 2 * prev[0] + prev[1]
            assert ns == prev[0] + prev[1]
        prev = (nf, ns)


@pytest.mark.parametrize("m", [3, 6])
def test_up_down_edge_budget(m, ball_cache):
    # 4 up-edges per First and 3 per Second at level l must equal the
    # down-edges counted from level l+1: one per First, two per Second
    for lvl in range(1, m):
        a, b_ = level_counts(lvl)
        a2, b2 = level_counts(lvl + 1)
        assert 4 * a + 3 * b_ == a2 + 2 * b2


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        build_ball(-1)


@pytest.mark.parametrize("m", [44, 64])
def test_capacity_error_before_allocation(m):
    with pytest.raises(CapacityError):
        build_ball(m)


def test_memory_guard_refuses_before_allocating(monkeypatch):
    # 256 KiB: the radius-8 ball's 11,173 vertices need about 480 KiB
    monkeypatch.setattr(ball_module, "_physical_memory", lambda: 2**18)
    with pytest.raises(CapacityError, match="needs about"):
        build_ball(8)
    assert build_ball(1).n == 8  # a ball that fits is still built


def test_index_width_refused_before_allocation(monkeypatch):
    # with memory to spare, m=20 still has more adjacency entries than int32
    # neighbor ids can address
    monkeypatch.setattr(ball_module, "_physical_memory", lambda: 2**62)
    with pytest.raises(CapacityError, match="int32"):
        build_ball(20)


@pytest.mark.parametrize("m", [1000, 20000, 10**18])
def test_huge_radius_refused_before_any_arithmetic(m):
    # each used to run the ring recurrence first: m=1000 overflowed a float,
    # m=20000 the int-to-string limit, and m=10**18 never returned
    with pytest.raises(CapacityError, match="beyond radius 19"):
        build_ball(m)


def test_max_radius_follows_the_ring_recurrence():
    top = ball_module._MAX_RADIUS
    assert ball_module._csr_size(top)[1] <= 2**31 - 1 < ball_module._csr_size(top + 1)[1]


def test_csr_size_counts_vertices_and_entries(ball_cache):
    for m in range(9):
        b = ball_cache(m)
        assert ball_module._csr_size(m) == (b.n, b.indices.size)
    # m=19 is the last radius whose entries int32 ids can address
    assert ball_module._csr_size(19)[1] == 2_109_097_004 <= 2**31 - 1
    assert ball_module._csr_size(20)[1] == 5_521_687_710


@pytest.mark.parametrize("block", [1, 3, 7])
def test_ball_is_the_same_in_small_blocks(monkeypatch, ball_cache, block):
    # rows are written, and validated, a block of vertices at a time: blocks
    # cut across every ring boundary and carry, and must not change a value
    monkeypatch.setattr(ball_module, "_BLOCK", block)
    for m in range(9):
        small, default = build_ball(m), ball_cache(m)
        for field in ("level", "vtype", "deficit", "level_start", "indptr", "indices"):
            got, want = getattr(small, field), getattr(default, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field
    assert default.indices.dtype == np.int32 and default.indptr.dtype == np.int32
    assert default.level.dtype == np.int8 and default.vtype.dtype == np.int8


def test_ball_nbytes_follow_the_csr_size(ball_cache):
    # int32 neighbor ids and row pointers, int8 levels and types: about 25
    # bytes per vertex, and nothing else is stored
    for m in range(13):
        b = ball_cache(m)
        n, entries = ball_module._csr_size(m)
        stored = (b.level, b.vtype, b.indptr, b.indices)
        assert sum(a.nbytes for a in stored) == 4 * entries + 4 * (n + 1) + 2 * n


@pytest.mark.parametrize("m", [10, 12])
def test_build_ball_traced_peak_is_bounded(m):
    # rows go straight into the int32 CSR and are validated in blocks, so
    # the peak is little more than the ball (195 bytes per vertex with edge
    # lists, a global sort and a global argsort)
    tracemalloc.start()
    try:
        b = build_ball(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * b.n


def test_smaller_balls_are_prefixes_of_a_larger_one(ball_cache):
    # ring l is the same in every ball of radius >= l, which lets
    # check_combinatorics build only the largest ball
    big = ball_cache(9)
    for m in range(9):
        small = build_ball(m)
        n, inner = small.n, int(small.level_start[m])
        assert np.array_equal(small.level, big.level[:n])
        assert np.array_equal(small.vtype, big.vtype[:n])
        assert np.array_equal(small.indptr[:inner + 1], big.indptr[:inner + 1])
        rows = int(small.indptr[inner])
        assert np.array_equal(small.indices[:rows], big.indices[:rows])


def test_radius_43_size_fits_the_index_width():
    # the ball itself is far beyond memory, but the size must still be
    # representable; 44 is the first radius whose size overflows
    from heptapile import ball_size
    assert ball_size(43) < 2**63
    with pytest.raises(CapacityError):
        ball_size(44)


@pytest.mark.parametrize("m", [0, 1, 6])
def test_bfs_profile_equals_levels(m, ball_cache):
    b = ball_cache(m)
    assert np.array_equal(distance_profile(b), b.level)


def test_each_ring_is_one_cycle(ball_cache):
    b = ball_cache(4)
    for lvl in range(1, 5):
        ring = b.ring(lvl)
        members = set(ring)
        succ = {}
        for v in ring:
            side = [u for u in b.neighbors(v) if u in members]
            assert len(side) == 2
            succ[v] = side
        seen = {ring.start}
        cur, prev = succ[ring.start][1], ring.start
        while cur != ring.start:
            seen.add(cur)
            a, c = succ[cur]
            cur, prev = (c, cur) if a == prev else (a, cur)
        assert len(seen) == len(ring)


def test_down_degrees_by_type(ball_cache):
    b = ball_cache(3)
    for lvl in range(1, 4):
        for v in b.ring(lvl):
            down = sum(1 for u in b.neighbors(v) if b.level[u] == lvl - 1)
            expected = 1 if b.vtype[v] == VertexType.FIRST else 2
            assert down == expected


@pytest.mark.parametrize("m", range(13))
def test_derived_views_follow_the_closed_forms(m, ball_cache):
    # deficit and level_start are computed from indptr and level, on a
    # built ball and on the same ball read back from its file
    built = ball_cache(m)
    for b in (built, deserialize_ball(serialize_ball(built))):
        starts, deficit = b.level_start, b.deficit
        assert starts.dtype == np.int64 and deficit.dtype == np.int8
        assert starts.tolist() == [0] + [ball_size(l) for l in range(m + 1)]
        if not m:
            assert deficit.tolist() == [DEGREE]
            continue
        outer = int(starts[m])
        assert not deficit[:outer].any()
        first = b.vtype[outer:] == VertexType.FIRST
        assert np.array_equal(deficit[outer:], np.where(first, 4, 3))


def test_interior_deficit_zero_boundary_positive(ball_cache):
    b = ball_cache(3)
    interior = b.level < 3
    assert not b.deficit[interior].any()
    assert (b.deficit[~interior] > 0).all()
    assert all(len(b.neighbors(v)) + b.deficit[v] == 7 for v in range(b.n))


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

    The reference for ``link_cycles``, one vertex at a time from its CSR row.

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


def test_link_cycle_interior(ball_cache):
    b = ball_cache(3)
    for lvl in range(0, 3):
        for v in b.ring(lvl):
            cyc = link_cycle(b, v)
            assert len(cyc) == 7
            assert all(u >= 0 for u in cyc)
            assert set(cyc) == set(b.neighbors(v))
            edges = {tuple(sorted((v, u))) for u in b.neighbors(v)}
            for i in range(7):
                pair = tuple(sorted((cyc[i], cyc[(i + 1) % 7])))
                assert pair[1] in b.neighbors(pair[0])
            assert edges  # every link edge checked above is a real edge


@pytest.mark.parametrize("m", range(9))
def test_link_cycles_table_matches_link_cycle(m, ball_cache):
    b = ball_cache(m)
    table = link_cycles(b)
    assert table.shape == (b.n, 7) and table.dtype == np.int64
    for v in range(b.n):
        assert table[v].tolist() == link_cycle(b, v)


def test_link_cycle_boundary_padding(ball_cache):
    b = ball_cache(2)
    for v in b.ring(2):
        cyc = link_cycle(b, v)
        assert len(cyc) == 7
        stored = [u for u in cyc if u >= 0]
        assert sorted(stored) == sorted(b.neighbors(v))
        assert cyc.count(-1) == b.deficit[v]


@pytest.mark.parametrize("m", sorted(BALL_DIGESTS))
def test_generated_ball_bytes_pinned(m, ball_cache):
    b = ball_cache(m)
    blob = serialize_ball(b)
    assert blob.startswith(b"HEPTABALL v2 m=%d n=%d\n" % (m, b.n))
    vertex_lines = blob[blob.index(b"\n") + 1:blob.rindex(b"CHECK ")]
    assert hashlib.sha256(vertex_lines).hexdigest() == BALL_DIGESTS[m]


def test_roundtrip_small(ball_cache):
    b = ball_cache(2)
    again = deserialize_ball(serialize_ball(b))
    assert again == b
    assert serialize_ball(again) == serialize_ball(b)


def test_roundtrip_then_bfs(ball_cache):
    b = ball_cache(5)
    again = deserialize_ball(serialize_ball(b))
    assert np.array_equal(distance_profile(again), again.level)


def test_file_roundtrip(tmp_path, ball_cache):
    b = ball_cache(3)
    path = tmp_path / "b.heptaball"
    save_ball(b, path)
    assert load_ball(path) == b


def test_checksum_tamper_detected(ball_cache):
    blob = serialize_ball(ball_cache(2))
    lines = blob.splitlines()
    lines[2] = lines[2] + b" "
    with pytest.raises(FormatError, match="checksum"):
        deserialize_ball(b"\n".join(lines) + b"\n")


def test_every_single_byte_flip_rejected(ball_cache):
    blob = serialize_ball(ball_cache(2))
    for i in range(len(blob)):
        flipped = bytearray(blob)
        flipped[i] ^= 0x01
        with pytest.raises(FormatError):
            deserialize_ball(bytes(flipped))


def test_degree_eight_rejected(ball_cache):
    blob = serialize_ball(ball_cache(1))
    lines = blob.splitlines()[:-1]
    # graft an extra mutual edge between ring vertices 1 and 4
    one = lines[2].split()
    assert one[0] == b"1"
    lines[2] = b" ".join(one[:4] + sorted(one[4:] + [b"4"], key=int))
    four = lines[5].split()
    assert four[0] == b"4"
    lines[5] = b" ".join(four[:4] + sorted(four[4:] + [b"1"], key=int))
    with pytest.raises(FormatError):
        deserialize_ball(resign(lines))


def test_asymmetric_adjacency_rejected(ball_cache):
    blob = serialize_ball(ball_cache(1))
    lines = blob.splitlines()[:-1]
    one = lines[2].split()
    assert one[0] == b"1"
    # drop one neighbor from vertex 1 only; raise its deficit to keep the
    # degree budget so the asymmetry check itself must fire
    kept = one[4:-1]
    lines[2] = b" ".join([one[0], one[1], one[2], b"%d" % (int(one[3]) + 1)]
                         + kept)
    with pytest.raises(FormatError):
        deserialize_ball(resign(lines))


# (line index, replacement, what it breaks): each malformed line of the
# radius-1 ball, re-signed, is rejected; a header with that message, a vertex
# line as the first file line that differs from the built ball
@pytest.mark.parametrize("line, text, message", [
    (2, b"1 1 1", "truncated"),
    (8, b"7 1 1", "truncated"),
    (3, b"3 1 1 4 0 1 3", "ids must be 0..n-1"),
    (2, b"1 1 3 4 0 2 7", "unknown vertex type"),
    (2, b"1 1 1 8 0 2 7", "deficit out of range"),
    (2, b"1 1 1 3 0 2 7", "not 7"),
    (2, b"1 2 1 4 0 2 7", "level-major"),
    (0, b"HEPTABALL v2 m=2 n=8", "radius disagrees"),
    (0, b"HEPTABALL v2 m=8 n=8", "radius disagrees"),
    (0, b"HEPTABALL v2 m=1 n=" + b"9" * 5000, "malformed header"),
    (2, b"1 1 1 4 0 2 7 ", "single spaces"),
    (2, b"1 1  1 4 0 2 7", "single spaces"),
    (2, b"1 1 1 4 0 2 +7", "single spaces"),
    (2, b"1 1 1 4 0 2 -", "single spaces"),
    (2, b"1 1 1 4 0 2\t7", "single spaces"),
    (2, b"1 1 1 4 0 2 7\xff", "single spaces"),
    (8, b"7 %d 1 4 0 1 6" % 2**32, "radius disagrees"),
    (2, b"1 1 1 4 0 2 %d" % 2**64, "64-bit"),
    (2, b"1 1 1 4 0 2 %d" % (2**32 + 7), "neighbor id out of range"),
])
def test_malformed_vertex_line_rejected(ball_cache, line, text, message):
    lines = serialize_ball(ball_cache(1)).splitlines()[:-1]
    lines[line] = text
    expected = message if line == 0 else f"line {line + 1} differs"
    with pytest.raises(FormatError, match=expected):
        deserialize_ball(resign(lines))


def test_integer_writer_inverts_the_parser():
    # named for the parser that once read these bytes back; it checks the
    # writer against str() on whole lines of edge and random int64 values
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    edges = [0, 1, -1, 9, -9, 10, -10, -2**63, 2**63 - 1]
    int64 = st.one_of(st.sampled_from(edges), st.integers(-2**63, 2**63 - 1))

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.lists(st.lists(int64, min_size=1, max_size=8), max_size=20))
    @hypothesis.example([])
    @hypothesis.example([[x] for x in edges])
    @hypothesis.example([edges])
    def check(lines):
        values = [x for line in lines for x in line]
        ends = [k == len(line) - 1 for line in lines for k in range(len(line))]
        seps = np.array([ord("\n") if end else ord(" ") for end in ends], dtype=np.uint8)
        text = _format_ints(np.array(values, dtype=np.int64), seps)
        assert text == "".join(str(x) + ("\n" if end else " ")
                               for x, end in zip(values, ends)).encode("ascii")

    check()


def test_integer_writer_writes_each_live_value_then_its_separator():
    # separator 0 means "no token here": the value, whatever it is, is dropped;
    # a grid and its flattened rows write the same bytes
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    edges = [0, 1, -1, 9, -9, 10, -10, -2**63, 2**63 - 1]
    int64 = st.one_of(st.sampled_from(edges), st.integers(-2**63, 2**63 - 1))
    cell = st.tuples(int64, st.sampled_from([0, ord(" "), ord("\n")]))

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.lists(cell, max_size=40), st.integers(1, 4))
    @hypothesis.example([(x, ord(" ")) for x in edges] + [(x, 0) for x in edges], 1)
    @hypothesis.example([(-2**63, 0), (7, ord("\n"))], 2)
    def check(cells, cols):
        cells = cells[:len(cells) - len(cells) % cols]
        values = np.array([v for v, _ in cells], dtype=np.int64).reshape(-1, cols)
        seps = np.array([c for _, c in cells], dtype=np.uint8).reshape(-1, cols)
        want = b"".join(b"%d%c" % (v, c) for v, c in cells if c)
        assert _format_ints(values, seps) == want
        assert _format_ints(values.ravel(), seps.ravel()) == want

    check()


def hand_built(rows, level, vtype):
    """An unvalidated ball of radius 1 with these rows, and its vertex lines."""
    b = Ball(1, np.array(level, dtype=np.int32), np.array(vtype, dtype=np.int8),
             np.cumsum([0] + [len(r) for r in rows]).astype(np.int64),
             np.array([w for r in rows for w in r], dtype=np.int32))
    lines = "".join(" ".join(map(str, [v, level[v], vtype[v], DEGREE - len(r)] + r))
                    + "\n" for v, r in enumerate(rows))
    return b, f"HEPTABALL v2 m=1 n={len(rows)}\n{lines}".encode("ascii")


def test_hand_built_ball_writes_its_arrays(tmp_path):
    # an unvalidated ball writes its own arrays, an empty row and a 7-entry
    # row included, while the id text table (0..7 here) holds every value;
    # any other ball is refused, and save_ball leaves no file for it
    rows = [[1, 2, 3, 4, 5, 6, 7], [0, 3], [], [0, 2]]
    level, vtype = [0, 1, 1, 1], [0, 1, 2, 1]
    b, text = hand_built(rows, level, vtype)
    assert serialize_ball(b) == _sign(text)
    refused = [
        ("indices", rows[:1] + [[-5, 0]] + rows[2:], level, vtype),
        ("indices", rows[:3] + [[0, 2**31 - 1]], level, vtype),
        ("indptr", [[1, 2, 3, 4, 5, 6, 7, 0]] + rows[1:], level, vtype),
        ("level", rows, [0, 1, -1, 1], vtype),
        ("vtype", rows, level, [0, 1, 2, 8]),
    ]
    for k, (name, *arrays) in enumerate(refused):
        b, _ = hand_built(*arrays)
        with pytest.raises(ValueError, match=f"ball {name} holds"):
            serialize_ball(b)
        path = tmp_path / f"refused-{k}.heptaball"
        with pytest.raises(ValueError, match=f"ball {name} holds"):
            save_ball(b, path)
        assert not path.exists()


def test_id_text_words_hold_each_value_in_decimal(monkeypatch):
    # a word is the value's digits right-aligned after NULs and a last
    # byte left for the separator, 8 bytes while the range's last value has
    # at most 7 digits and 16 beyond; ranges below and around each digit
    # boundary up to the largest int32 id, filled 3 values at a time
    monkeypatch.setattr(ball_module, "_BLOCK", 3)
    ranges = [(0, 9), (2**31 - 5, 2**31)]
    ranges += [(10**k - 4, 10**k + d) for k in range(1, 10) for d in (0, 5)]
    for lo, hi in ranges:
        words = _id_text(lo, hi)
        size = 8 if hi <= 10**7 else 16
        assert words.itemsize == size and words.shape == (hi - lo,)
        for x, word in zip(range(lo, hi), words.view(np.uint8).reshape(-1, size)):
            assert word.tobytes() == str(x).encode("ascii").rjust(size - 1, b"\0") + b"\0"


def test_id_text_words_widen_at_eight_digits():
    # 8-byte words through 9,999,999 and 16-byte words from 10,000,000:
    # radius 15's last id has 7 digits, radius 16's (24,672,040 vertices) 8
    assert _id_text(10**7 - 1, 10**7).itemsize == 8
    assert _id_text(10**7, 10**7 + 1).itemsize == 16
    for m, size in ((15, 8), (16, 16)):
        n = _csr_size(m)[0]
        assert max(n - 1, DEGREE, m) == n - 1
        assert _id_text(n - 1, n).itemsize == size
    assert _csr_size(15)[0] == 9_423_877 and _csr_size(16)[0] == 24_672_040


def test_ball_is_refused_before_its_header_whatever_chunk_holds_the_fault(monkeypatch):
    # chunks of 3 lines, every one written from the id text table (0..29
    # here); a value the table cannot write, in any chunk, refuses the ball
    # before its header is yielded
    rows = [[1, 2], [0, 3, 4, 5, 6, 7, 8], []] * 10
    level, vtype = [0, 1, 1] * 10, [0, 1, 2] * 10
    monkeypatch.setattr(ball_module, "_WRITE_ROWS", 3)
    b, text = hand_built(rows, level, vtype)
    chunks = list(_ball_lines(b))
    assert len(chunks) == 11 and b"".join(chunks) == text

    def changed(seq, at, value):
        return seq[:at] + [value] + seq[at + 1:]

    for name, arrays in (
            ("indices", (changed(rows, 4, [0, -1]), level, vtype)),        # chunk 1
            ("indices", (changed(rows, 9, [2**31 - 1]), level, vtype)),    # chunk 3
            ("indptr", (changed(rows, 15, list(range(1, 9))), level, vtype)),  # chunk 5
            ("level", (rows, changed(level, 23, -3), vtype)),              # chunk 7
            ("vtype", (rows, level, changed(vtype, 29, 30)))):             # chunk 9
        with pytest.raises(ValueError, match=f"ball {name} holds"):
            next(_ball_lines(hand_built(*arrays)[0]))


def _check_whole(data):
    """What ``_check_stream`` must return for ``data``, from the whole bytes."""
    if not data.endswith(b"\n"):
        raise FormatError("stream must end with a newline")
    cut = data.rfind(b"\n", 0, -1) + 1
    if data[cut:cut + 6] != b"CHECK ":
        raise FormatError("missing CHECK line")
    if data[cut + 6:-1] != hashlib.blake2b(data[:cut], digest_size=8).hexdigest().encode():
        raise FormatError("checksum mismatch")
    return (data[:data.find(b"\n")] if cut else b""), data.count(b"\n"), cut


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
def test_checked_files_read_alike_in_small_pieces(monkeypatch, ball_cache, chunk):
    # a file is hashed a piece at a time, holding back the line that may be
    # the CHECK line: any piece size must find the first line, line count
    # and body that the whole bytes give, and reject the same files
    monkeypatch.setattr(ball_module, "_PARSE_CHUNK", chunk)
    blob = serialize_ball(ball_cache(1))
    flipped = bytearray(blob)
    flipped[30] ^= 1
    for data in (blob, _sign(b""), _sign(b"one line\n"), _sign(b"\n\n"),
                 blob[:-1], blob[:blob.rfind(b"CHECK")], bytes(flipped),
                 blob[:-2] + b"0\n", blob + blob, b"", b"\n", b"CHECK \n"):
        try:
            want = _check_whole(data)
        except FormatError as exc:
            with pytest.raises(FormatError, match=str(exc)):
                _check_stream(io.BytesIO(data))
            continue
        fh = io.BytesIO(data)
        assert _check_stream(fh) == want
        assert not want[2] or fh.tell() == len(want[0]) + 1


def test_ball_file_is_the_same_in_small_pieces(monkeypatch, tmp_path, ball_cache):
    # every file is written in chunks of lines sized by _WRITE_ROWS, read
    # _PARSE_CHUNK bytes at a time to check its digest, then compared with
    # the writer's bytes a chunk at a time
    b = ball_cache(4)
    blob = serialize_ball(b)
    monkeypatch.setattr(ball_module, "_WRITE_ROWS", 5)
    monkeypatch.setattr(ball_module, "_PARSE_CHUNK", 64)
    path = tmp_path / "b.heptaball"
    save_ball(b, path)
    assert path.read_bytes() == blob
    assert load_ball(path) == b
    res = relax(State(b, np.arange(b.n, dtype=np.int64) % 23))
    for obj, save, load in ((res.state, save_state, load_state),
                            (res.odometer, save_odometer, load_odometer)):
        save(obj, path)
        # a chunk of field lines is 5 * (4 + DEGREE) // 2 = 27 entry lines
        assert path.read_bytes().count(b"\n") > 5 * 27  # compared in many chunks
        assert load(path, b) == obj


def test_ball_file_io_memory_is_bounded(tmp_path, ball_cache):
    # saving streams a few thousand vertex lines at a time; loading reads
    # the file a piece at a time, builds the ball and compares a chunk of
    # lines at a time, never holding the file (1.3x the file size at m=10)
    b = ball_cache(10)
    path = tmp_path / "b.heptaball"
    tracemalloc.start()
    try:
        save_ball(b, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        load_ball(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert save_peak < size / 2
    assert load_peak < 2 * size


def _one_sided(b: Ball, u: int) -> Ball:
    """``b`` with u's highest neighbor swapped for a lower non-neighbor of u.

    Every remaining forward entry (v, w), v < w, keeps its reverse; only the
    count of backward entries against forward ones tells the rows apart.
    """
    row = b.neighbors(u).tolist()
    lower = next(w for w in range(u - 1, -1, -1) if w not in row)
    idx = b.indices.copy()
    idx[b.indptr[u]:b.indptr[u + 1]] = sorted(row[:-1] + [lower])
    return Ball(b.radius, b.level, b.vtype, b.indptr, idx)


@pytest.mark.parametrize("block", [None, 1, 3, 7])
def test_validate_rejects_a_one_sided_backward_entry(monkeypatch, ball_cache, block):
    # with small blocks, the second fault sits in a late block
    if block:
        monkeypatch.setattr(ball_module, "_BLOCK", block)
    b = ball_cache(3)
    for u in (20, b.n - 3):
        with pytest.raises(InvariantError, match="not symmetric"):
            validate_ball(_one_sided(b, u))


def test_validate_finds_faults_in_a_late_block(monkeypatch, ball_cache):
    b = ball_cache(3)
    vtype = b.vtype.copy()
    vtype[b.n - 2] = VertexType.ZEROTH
    idx = b.indices.copy()
    idx[-1] = b.n
    for block in (1, 3, 7):
        monkeypatch.setattr(ball_module, "_BLOCK", block)
        with pytest.raises(InvariantError, match="type 0"):
            validate_ball(Ball(b.radius, b.level, vtype, b.indptr, b.indices))
        with pytest.raises(InvariantError, match="out of range"):
            validate_ball(Ball(b.radius, b.level, b.vtype, b.indptr, idx))


def test_validate_rejects_levels_out_of_order(monkeypatch, ball_cache):
    b = ball_cache(3)
    with pytest.raises(InvariantError, match="from 0 at the root to the radius"):
        validate_ball(Ball(b.radius + 1, b.level, b.vtype, b.indptr, b.indices))
    level = b.level.copy()
    level[3] = 0
    # int8 levels 127 then -128 fall by 255, which an int8 difference reads as 1
    b5 = ball_cache(5)
    wrap = np.concatenate((np.arange(256).astype(np.uint8).view(np.int8),
                           np.zeros(b5.n - 261, dtype=np.int8), np.arange(1, 6, dtype=np.int8)))
    # with blocks of 1 or 3 rows, the fall from id 2 to id 3 crosses a block boundary
    for block in (1, 3, 7):
        monkeypatch.setattr(ball_module, "_BLOCK", block)
        with pytest.raises(InvariantError, match="rise by 0 or 1"):
            validate_ball(Ball(b.radius, level, b.vtype, b.indptr, b.indices))
        with pytest.raises(InvariantError, match="rise by 0 or 1"):
            validate_ball(Ball(b5.radius, wrap, b5.vtype, b5.indptr, b5.indices))


def test_validate_rejects_crossed_edges(ball_cache):
    # x-y and z-w become x-w and z-y in the rows of x and z only: every
    # vertex keeps its degree, so only the pairing of the rows can tell
    b = ball_cache(2)
    idx = b.indices.copy()
    rows = [b.neighbors(v).tolist() for v in range(b.n)]
    for x, z in itertools.combinations(range(b.n), 2):
        for y, w in itertools.product(rows[x], rows[z]):
            rx = sorted(set(rows[x]) - {y} | {w})
            rz = sorted(set(rows[z]) - {w} | {y})
            if y != w and len(rx) == len(rows[x]) and len(rz) == len(rows[z]) \
                    and x not in rx and z not in rz:
                idx[b.indptr[x]:b.indptr[x + 1]] = rx
                idx[b.indptr[z]:b.indptr[z + 1]] = rz
                crossed = Ball(b.radius, b.level, b.vtype, b.indptr, idx)
                with pytest.raises(InvariantError, match="not symmetric"):
                    validate_ball(crossed)
                return
    raise AssertionError("no pair of edges to cross")


@pytest.mark.parametrize("kind, message", [("crossed", "line 10 differs"),
                                           ("reflected", "line 3 differs")])
def test_forged_ball_file_rejected(forged_balls, kind, message):
    forged = forged_balls[kind]
    validate_ball(forged)  # necessary conditions only: the forgery keeps them
    with pytest.raises(FormatError, match=message):
        deserialize_ball(serialize_ball(forged))


def test_ball_header_checked_before_building(monkeypatch, ball_cache):
    # a short file stating a large radius must not get the large ball built
    def refuse(m):
        raise AssertionError(f"built the radius-{m} ball")

    monkeypatch.setattr(ball_module, "build_ball", refuse)
    body = serialize_ball(ball_cache(1)).splitlines()[1:-1]
    n19 = ball_module._csr_size(19)[0]
    for head, message in ((b"HEPTABALL v2 m=19 n=%d" % n19, "expected %d vertex lines" % n19),
                          (b"HEPTABALL v2 m=%d n=8" % 10**18, "radius disagrees"),
                          (b"HEPTABALL v2 m=01 n=8", "malformed header")):
        with pytest.raises(FormatError, match=message):
            deserialize_ball(resign([head] + body))


def test_bad_header_rejected():
    with pytest.raises(FormatError):
        deserialize_ball(resign([b"HEPTABALL v1 m=1 n=8"]))


def test_missing_final_newline_rejected(ball_cache):
    blob = serialize_ball(ball_cache(1))
    with pytest.raises(FormatError):
        deserialize_ball(blob[:-1])


def test_validate_rejects_mutated_level(ball_cache):
    b = build_ball(2)
    b.level[5] = 2
    with pytest.raises(Exception):
        validate_ball(b)


def test_validate_checks_rows_without_entries():
    # a radius-0 ball with a second vertex, typed 1 but with an empty row:
    # the per-entry pass runs on balls without entries and finds no parent
    b = Ball(0, np.zeros(2, dtype=np.int8), np.array([0, 1], dtype=np.int8),
             np.zeros(3, dtype=np.int32), np.zeros(0, dtype=np.int32))
    with pytest.raises(InvariantError, match="down-degree"):
        validate_ball(b)


def _from_rows(b: Ball, rows, level=None, vtype=None) -> Ball:
    """A ball with ``b``'s radius, levels and types (unless given) and these rows."""
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int32)
    return Ball(b.radius, b.level if level is None else level,
                b.vtype if vtype is None else vtype, indptr,
                np.concatenate([np.array(r, dtype=np.int32) for r in rows]))


def _rewired(b: Ball, cut, join) -> Ball:
    """``b`` without the edges ``cut`` and with the edges ``join``, in both rows each."""
    rows = [set(b.neighbors(v).tolist()) for v in range(b.n)]
    for x, y in cut:
        rows[x].remove(y)
        rows[y].remove(x)
    for x, y in join:
        assert y not in rows[x]
        rows[x].add(y)
        rows[y].add(x)
    return _from_rows(b, [sorted(r) for r in rows])


def _fault_balls(b: Ball) -> dict:
    """The radius-3 ball ``b`` with one fault for each check of ``validate_ball``,
    keyed by the message that check raises.

    A fault in two rows either shows in the root's row, which every block
    size puts in the first block, or breaks no check of the earlier row.
    """
    assert b.radius == 3
    n, starts = b.n, b.level_start
    rows = [b.neighbors(v).tolist() for v in range(n)]
    adjacent = [set(r) for r in rows]
    faults = {}

    faults["levels must run from 0 at the root to the radius"] = Ball(
        b.radius + 1, b.level, b.vtype, b.indptr, b.indices)
    faults["indptr does not delimit the adjacency rows"] = Ball(
        b.radius, b.level, b.vtype, b.indptr, np.append(b.indices, 1))
    level = b.level.copy()
    level[3] = 0
    faults["levels must rise by 0 or 1 per id"] = Ball(
        b.radius, level, b.vtype, b.indptr, b.indices)
    for value, message in ((VertexType.ZEROTH, "type 0 must appear exactly at the root"),
                           (3, "unknown vertex type")):
        vtype = b.vtype.copy()
        vtype[5] = value
        faults[message] = Ball(b.radius, b.level, vtype, b.indptr, b.indices)
    # row 1 takes row 2's last entry: 8 entries, before the 6 of row 2
    moved = [list(r) for r in rows]
    moved[1].append(moved[2].pop())
    faults["row length out of 0..7"] = _from_rows(b, moved)
    # the last interior row hands its last entry to the first outer row
    indptr = b.indptr.copy()
    indptr[starts[3]] -= 1
    faults["interior rows must have 7 entries"] = Ball(
        b.radius, b.level, b.vtype, indptr, b.indices)
    idx = b.indices.copy()
    idx[-1] = n
    faults["neighbor id out of range"] = Ball(b.radius, b.level, b.vtype, b.indptr, idx)

    faults["self-loop"] = _from_rows(b, [[0] + rows[0][:-1]] + rows[1:])
    faults["adjacency rows must be strictly ascending"] = _from_rows(
        b, [[2, 1] + rows[0][2:]] + rows[1:])
    # the root's last neighbor becomes a level-2 vertex whose row lacks it
    faults["adjacency is not symmetric"] = _from_rows(b, [rows[0][:-1] + [8]] + rows[1:])
    # cross 0-7 and x-y into 0-x and 7-y, x on level 2
    x, y = next((x, y) for x in range(int(starts[2]), int(starts[3])) if x not in adjacent[7]
                for y in rows[x] if y not in adjacent[7] | {0, 7})
    faults["edge spans more than one level"] = _rewired(b, [(0, 7), (x, y)], [(0, x), (7, y)])
    vtype = b.vtype.copy()
    vtype[int(starts[2])] = 3 - vtype[int(starts[2])]
    faults["down-degree disagrees with vertex type"] = Ball(
        b.radius, b.level, vtype, b.indptr, b.indices)
    # cross the side edge x-(x+1) and z's up edge z-w into x-w and z-(x+1),
    # z on x's ring: every down-degree holds, x has one side edge and z three
    x = int(starts[2])
    z, w = next((z, w) for z in range(x + 3, int(starts[3]))
                for w in rows[z] if b.level[w] == 3 and w not in adjacent[x])
    faults["every ring vertex needs exactly two side edges"] = _rewired(
        b, [(x, x + 1), (z, w)], [(x, w), (z, x + 1)])
    # cross the ring edges a-(a+1) and (a+4)-(a+5) into a-(a+4) and (a+1)-(a+5)
    a = int(starts[2]) + 2
    faults["ring edge between non-consecutive ids"] = _rewired(
        b, [(a, a + 1), (a + 4, a + 5)], [(a, a + 4), (a + 1, a + 5)])
    return faults


def _wrong_population(b: Ball) -> Ball:
    """A radius-2 graph that passes every per-row check of ``validate_ball``
    but holds 12 type-1 and 8 type-2 vertices on ring 2, not 14 and 7.

    Each ring-1 vertex holds an arc of four ring-2 positions, and its arc
    overlaps the next arc in one position, except arcs 0 and 1, which share
    two; a position in two arcs has two parents.
    """
    assert b.radius == 2
    size = 20
    arcs = [[(start + k) % size for k in range(4)] for start in (0, 2, 5, 8, 11, 14, 17)]
    parents = [[1 + i for i, arc in enumerate(arcs) if p in arc] for p in range(size)]
    rows = [list(range(1, 8))]
    for i, arc in enumerate(arcs):
        rows.append(sorted([0, 1 + (i - 1) % 7, 1 + (i + 1) % 7] + [8 + p for p in arc]))
    for p in range(size):
        rows.append(sorted(parents[p] + [8 + (p - 1) % size, 8 + (p + 1) % size]))
    level = np.array([0] + [1] * 7 + [2] * size, dtype=np.int8)
    vtype = np.array([0] + [1] * 7 + [len(ps) for ps in parents], dtype=np.int8)
    return _from_rows(b, rows, level, vtype)


@pytest.mark.parametrize("block", [None, 1, 3, 7])
def test_validate_names_each_fault(monkeypatch, ball_cache, block):
    # one fault per check: each ball must fail that check alone, so the
    # message is the same whatever the block size and the order of the
    # blocks a pass walks
    if block:
        monkeypatch.setattr(ball_module, "_BLOCK", block)
    faults = _fault_balls(ball_cache(3))
    faults["ring 2 has 12/8 vertices of type 1/2, expected 14/7"] = _wrong_population(
        ball_cache(2))
    assert len(faults) == 16
    for message, faulty in faults.items():
        with pytest.raises(InvariantError) as caught:
            validate_ball(faulty)
        assert str(caught.value) == message


def _reject_single_entry_changes(examples: int) -> None:
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=examples, deadline=None, database=None)
    @hypothesis.given(st.integers(1, 4), st.data())
    def check(m, data):
        b = build_ball(m)
        pos = data.draw(st.integers(0, b.indices.size - 1))
        old = int(b.indices[pos])
        new = data.draw(st.integers(-2, b.n + 1).filter(lambda x: x != old))
        idx = b.indices.copy()
        idx[pos] = new  # the row of some vertex gains or loses a neighbor
        with pytest.raises(InvariantError):
            validate_ball(Ball(b.radius, b.level, b.vtype, b.indptr, idx))

    check()


def test_validate_rejects_every_single_entry_change():
    _reject_single_entry_changes(300)


def test_validate_rejects_every_single_entry_change_in_small_blocks(monkeypatch):
    # blocks of 3 rows cut the forward count and the row pass across block
    # boundaries at every radius drawn
    monkeypatch.setattr(ball_module, "_BLOCK", 3)
    _reject_single_entry_changes(100)


@pytest.mark.parametrize("m", range(1, 11))
def test_rotation_by_a_seventh_is_an_automorphism(m, ball_cache):
    # v -> start + (v - start + |ring| / 7) mod |ring| on every ring, the root
    # fixed: defined from level_start alone, so it checks the builder without
    # its arithmetic
    b = ball_cache(m)
    start = b.level_start[b.level]
    size = np.diff(b.level_start)[b.level]
    assert not np.any(size[1:] % 7)
    rot = start + (np.arange(b.n) - start + size // 7) % size
    assert rot[0] == 0
    assert np.array_equal(b.vtype[rot], b.vtype)
    assert np.array_equal(np.diff(b.indptr)[rot], np.diff(b.indptr))
    # the rotated edge list, sorted, is the edge list itself
    u = np.repeat(np.arange(b.n), np.diff(b.indptr))
    ru, rw = rot[u], rot[b.indices]
    order = np.lexsort((rw, ru))
    assert np.array_equal(ru[order], u) and np.array_equal(rw[order], b.indices)
