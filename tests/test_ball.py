import hashlib
import itertools
import re

import numpy as np
import pytest

from heptapile import (CapacityError, FormatError, VertexType, build_ball,
                       distance_profile, level_counts, link_cycle, load_ball,
                       save_ball, validate_ball)
from heptapile import ball as ball_module
from heptapile.ball import _parse_ints, _sign, deserialize_ball, serialize_ball

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
    monkeypatch.setattr(ball_module, "_physical_memory", lambda: 2**20)
    with pytest.raises(CapacityError, match="needs about"):
        build_ball(8)
    assert build_ball(1).n == 8  # a ball that fits is still built


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


def test_interior_deficit_zero_boundary_positive(ball_cache):
    b = ball_cache(3)
    interior = b.level < 3
    assert not b.deficit[interior].any()
    assert (b.deficit[~interior] > 0).all()
    assert all(len(b.neighbors(v)) + b.deficit[v] == 7 for v in range(b.n))


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


# (line index, replacement, message): each malformed vertex line of the
# radius-1 ball, re-signed, is rejected by the check it breaks
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
])
def test_malformed_vertex_line_rejected(ball_cache, line, text, message):
    lines = serialize_ball(ball_cache(1)).splitlines()[:-1]
    lines[line] = text
    with pytest.raises(FormatError, match=message):
        deserialize_ball(resign(lines))


def test_integer_lines_follow_their_grammar():
    # every short string over a small alphabet: parsed exactly when it is
    # lines of [-]digits separated by single spaces, rejected otherwise
    grammar = re.compile(rb"(?:(?:-?[0-9]+ )*-?[0-9]+\n)*")
    for size in range(5):
        for chars in itertools.product(b"-07 \n\t+", repeat=size):
            text = bytes(chars)
            if grammar.fullmatch(text):
                values, ends = _parse_ints(text)
                assert values.tolist() == [int(t) for t in text.split()]
                assert int(ends.sum()) == text.count(b"\n")
            else:
                with pytest.raises(FormatError):
                    _parse_ints(text)


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
