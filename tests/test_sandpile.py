import numpy as np
import pytest

from heptapile import (FormatError, InvariantError, State, VertexType,
                       is_legal, is_stable, laplacian_delta, mass, max_stable,
                       perturb, relax, relax_random, save_odometer, save_state,
                       load_odometer, load_state, topple)
from heptapile.ball import _sign
from heptapile.sandpile import (deserialize_odometer, deserialize_state,
                                serialize_odometer, serialize_state)


def test_laplacian_at_the_root(ball_cache):
    b = ball_cache(1)
    delta = laplacian_delta(b, 0)
    assert delta[0] == -7
    assert all(delta[v] == 1 for v in b.neighbors(0))
    assert sum(delta.values()) == 0


def test_laplacian_at_a_clipped_vertex(ball_cache):
    b = ball_cache(1)
    delta = laplacian_delta(b, 3)
    assert delta[3] == -7
    assert len(delta) == 4  # self plus the 3 stored neighbors
    assert sum(delta.values()) == -4


def test_laplacian_second_type_loses_three(ball_cache):
    b = ball_cache(2)
    v = next(v for v in b.ring(2) if b.vtype[v] == VertexType.SECOND)
    assert sum(laplacian_delta(b, v).values()) == -3


def test_topple_root_hand_values(ball_cache):
    b = ball_cache(1)
    s = topple(perturb(max_stable(b), [0]), 0)
    assert s.grains.tolist() == [0] + [7] * 7


def test_topple_untopple_is_identity(ball_cache):
    b = ball_cache(2)
    start = perturb(max_stable(b), [4])
    once = topple(start, 4)
    back = once.grains.copy()
    for v, d in laplacian_delta(b, 4).items():
        back[v] -= d
    assert np.array_equal(back, start.grains)


def test_boundary_topple_mass_drop(ball_cache):
    b = ball_cache(2)
    v = int(b.ring(2).start)
    before = max_stable(b)
    after = topple(before, v)
    assert mass(before) - mass(after) == int(b.deficit[v])


def test_stability_predicates(ball_cache):
    b = ball_cache(2)
    phi = max_stable(b)
    assert is_stable(phi)
    bumped = perturb(phi, [5])
    legal = [v for v in range(b.n) if is_legal(bumped, v)]
    assert legal == [5]
    exact = State(b, np.full(b.n, 0, dtype=np.int64))
    exact.grains[3] = 7
    assert is_legal(exact, 3)
    assert not is_stable(exact)


def test_relax_radius_one_hand_relaxation(ball_cache):
    b = ball_cache(1)
    res = relax(perturb(max_stable(b), [0]))
    assert res.state.grains.tolist() == [0] + [3] * 7
    assert res.odometer.counts.tolist() == [2] + [1] * 7


def test_relax_of_stable_state_is_identity(ball_cache):
    b = ball_cache(3)
    phi = max_stable(b)
    res = relax(phi)
    assert res.state == phi
    assert not res.odometer.counts.any()
    assert res.topples == 0


def test_relax_radius_two_hand_relaxation(ball_cache):
    b = ball_cache(2)
    res = relax(perturb(max_stable(b), [0]))
    lv, ty = b.level, b.vtype
    od = res.odometer.counts
    assert set(od[lv == 0]) == {3}
    assert set(od[lv == 1]) == {2}
    assert set(od[lv == 2]) == {1}
    st = res.state.grains
    assert st[0] == 0
    assert set(st[lv == 1]) == {3}
    assert set(st[(lv == 2) & (ty == VertexType.FIRST)]) == {3}
    assert set(st[(lv == 2) & (ty == VertexType.SECOND)]) == {5}


def test_relax_identity_recomputed_by_hand(ball_cache):
    # final = start + laplacian applied odometer-many times, re-derived here
    # without going through the library's own audit
    b = ball_cache(3)
    rng = np.random.default_rng(5)
    start = State(b, rng.integers(0, 12, size=b.n).astype(np.int64))
    res = relax(start)
    acc = start.grains.astype(object).copy()
    for v in range(b.n):
        k = int(res.odometer.counts[v])
        if k:
            for u, d in laplacian_delta(b, v).items():
                acc[u] += k * d
    assert np.array_equal(acc.astype(np.int64), res.state.grains)


def test_relax_idempotent(ball_cache):
    b = ball_cache(2)
    rng = np.random.default_rng(11)
    start = State(b, rng.integers(0, 20, size=b.n).astype(np.int64))
    once = relax(start)
    again = relax(once.state)
    assert again.state == once.state
    assert not again.odometer.counts.any()


def test_mass_bookkeeping_via_deficits(ball_cache):
    b = ball_cache(3)
    start = perturb(max_stable(b), [0, 9])
    res = relax(start)
    leaked = int((res.odometer.counts * b.deficit.astype(np.int64)).sum())
    assert mass(start) - mass(res.state) == leaked


def test_budget_guard_trips_on_tiny_budget(ball_cache):
    b = ball_cache(1)
    with pytest.raises(InvariantError):
        relax(perturb(max_stable(b), [0]), max_topplings=3)


def test_negative_grains_rejected_by_relax(ball_cache):
    b = ball_cache(1)
    s = State(b, np.full(b.n, -1, dtype=np.int64))
    with pytest.raises(ValueError):
        relax(s)


def test_mass_values(ball_cache):
    b = ball_cache(1)
    assert mass(max_stable(b)) == 48
    assert mass(relax(perturb(max_stable(b), [0])).state) == 21
    b3 = ball_cache(3)
    assert mass(perturb(max_stable(b3), [0, 1, 2])) == 6 * b3.n + 3


def test_mass_overflow_reported(ball_cache):
    b = ball_cache(1)
    s = State(b, np.full(b.n, 2**62, dtype=np.int64))
    with pytest.raises(OverflowError):
        mass(s)


def test_max_stable_and_perturb(ball_cache):
    b = ball_cache(2)
    phi = max_stable(b)
    assert set(phi.grains.tolist()) == {6}
    assert perturb(phi, []) == phi
    two = perturb(phi, [0, 1])
    assert int(np.count_nonzero(two.grains == 7)) == 2
    with pytest.raises(ValueError):
        perturb(phi, [b.n])


def test_multi_topple_agrees(ball_cache):
    b = ball_cache(3)
    rng = np.random.default_rng(2)
    start = State(b, rng.integers(0, 30, size=b.n).astype(np.int64))
    plain = relax(start)
    batched = relax(start, multi_topple=True)
    assert plain.state == batched.state
    assert plain.odometer == batched.odometer
    assert batched.dequeues <= plain.dequeues


def test_random_orders_agree(ball_cache):
    b = ball_cache(2)
    rng = np.random.default_rng(3)
    start = State(b, rng.integers(0, 13, size=b.n).astype(np.int64))
    base = relax(start)
    for k in range(3):
        res = relax_random(start, np.random.default_rng(100 + k))
        assert res.state == base.state
        assert res.odometer == base.odometer


def test_state_roundtrip_and_two_line_phi(ball_cache):
    b = ball_cache(3)
    phi = max_stable(b)
    blob = serialize_state(phi)
    assert len(blob.splitlines()) == 2  # header + CHECK, all grains default
    assert deserialize_state(blob, b) == phi
    res = relax(perturb(phi, [0, 40]))
    blob2 = serialize_state(res.state)
    assert deserialize_state(blob2, b) == res.state


def test_odometer_roundtrip(ball_cache):
    b = ball_cache(2)
    res = relax(perturb(max_stable(b), [0]))
    blob = serialize_odometer(res.odometer)
    assert deserialize_odometer(blob, b) == res.odometer


def test_state_file_roundtrip(tmp_path, ball_cache):
    b = ball_cache(2)
    res = relax(perturb(max_stable(b), [3]))
    sp = tmp_path / "s.heptastate"
    op = tmp_path / "o.heptaodom"
    save_state(res.state, sp)
    save_odometer(res.odometer, op)
    assert load_state(sp, b) == res.state
    assert load_odometer(op, b) == res.odometer


def test_state_header_mismatch_rejected(ball_cache):
    b2, b3 = ball_cache(2), ball_cache(3)
    blob = serialize_state(max_stable(b2))
    with pytest.raises(FormatError):
        deserialize_state(blob, b3)


def test_negative_odometer_rejected(ball_cache):
    b = ball_cache(1)
    res = relax(perturb(max_stable(b), [0]))
    blob = serialize_odometer(res.odometer).decode()
    lines = blob.splitlines()[:-1]
    assert lines[1].split()[0] == "0"
    lines[1] = "0 -2"
    signed = _sign(("\n".join(lines) + "\n").encode())
    with pytest.raises(FormatError, match="negative"):
        deserialize_odometer(signed, b)


def test_state_entry_at_the_64_bit_maximum_accepted(ball_cache):
    b = ball_cache(1)
    header = serialize_state(max_stable(b)).splitlines()[0]
    signed = _sign(header + b"\n3 %d\n" % (2**63 - 1))
    assert deserialize_state(signed, b).grains[3] == 2**63 - 1


@pytest.mark.parametrize("head, entries, message", [
    (b"HEPTASTATE v1 m=1 n=8 default=6", b"", "header"),
    (b"HEPTAODOM v2 m=1 n=8 default=6", b"", "header"),
    (b"HEPTASTATE v2 m=1 n=8 default=%d" % 2**63, b"", "64-bit"),
    (b"HEPTASTATE v2 m=1 n=8 default=" + b"9" * 5000, b"", "header"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 5\n2 5\n", "ascending"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 5\n3 4\n", "ascending"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"8 5\n", "out of range"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"-1 5\n", "out of range"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 5 6\n", "a vertex id and a value"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3\n5\n", "a vertex id and a value"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 x\n", "single spaces"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 %d\n" % 2**63, "64-bit"),
])
def test_malformed_state_rejected(ball_cache, head, entries, message):
    with pytest.raises(FormatError, match=message):
        deserialize_state(_sign(head + b"\n" + entries), ball_cache(1))


def test_every_single_byte_flip_rejected(ball_cache):
    b = ball_cache(2)
    res = relax(perturb(max_stable(b), [0]))
    assert len(set(res.state.grains.tolist())) > 1
    for blob, load in ((serialize_state(res.state), deserialize_state),
                       (serialize_odometer(res.odometer), deserialize_odometer)):
        for i in range(len(blob)):
            flipped = bytearray(blob)
            flipped[i] ^= 0x01
            with pytest.raises(FormatError):
                load(bytes(flipped), b)
