import hashlib
import inspect
import itertools
import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest

from heptapile import (DEGREE, Ball, FormatError, InvariantError, Odometer, State,
                       VertexType, ball as ball_module,
                       is_legal, is_stable, laplacian_delta, mass, max_stable,
                       perturb, predicted_beta, predicted_odometer, relax,
                       relax_least, relax_random, save_odometer, save_state,
                       load_odometer, load_state, topple, total_topplings, wave_relax)
from heptapile import sandpile, waves
from heptapile.ball import _sign, deserialize_ball, serialize_ball
from heptapile.sandpile import (deserialize_odometer, deserialize_state,
                                serialize_odometer, serialize_state)
from heptapile.verify import DEFAULT_SEED, ROUTES, site_families

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


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


def test_identity_check_catches_an_odometer_off_by_one(ball_cache, monkeypatch):
    # the audit compares a block of rows at a time: with blocks of 64 rows,
    # the bad entry sits in a late block, so every block must be compared
    monkeypatch.setattr(sandpile, "_IDENTITY_ROWS", 64)
    b = ball_cache(6)
    start = perturb(max_stable(b), [0])
    res = relax(start)
    sandpile._check_identity(start.grains, res.state.grains, b, res.odometer.counts)
    counts = res.odometer.counts.copy()
    counts[b.n - 100] += 1
    with pytest.raises(InvariantError, match="start \\+ laplacian"):
        sandpile._check_identity(start.grains, res.state.grains, b, counts)


def _laplacian_after(ball, before, counts):
    """``before + laplacian(counts)`` one row at a time: each vertex loses 7
    per topple and gains one per topple of each stored neighbor."""
    return np.array([int(before[v]) - DEGREE * int(counts[v])
                     + int(counts[ball.neighbors(v)].sum()) for v in range(ball.n)])


def _rows_of_eight_and_six(ball_cache):
    """The radius-3 ball with the last entry of row 1 moved to row 2: rows
    of 6 and 8 entries in a block whose entries still number 7 per row."""
    b = ball_cache(3)
    rows = [b.neighbors(v).tolist() for v in range(b.n)]
    rows[2] = rows[2] + [rows[1].pop()]
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int32)
    return Ball(b.radius, b.level, b.vtype, indptr, np.concatenate(rows).astype(np.int32))


def test_identity_check_sums_full_rows_by_columns(ball_cache, monkeypatch):
    # a block whose rows all hold 7 entries is summed as seven columns and
    # any other per row, decided from the row lengths, not their sum: an
    # odometer off by one is caught in a block of full rows, in an outer-ring
    # block, on both sides of the outer ring's first id, where a block that
    # would straddle the last two rings is cut, next to a row of 8, and in a
    # block whose rows of 8 and 6 sum to 7 per row; with the blocks cut at
    # the outer ring at every radius and at none
    rng = np.random.default_rng(5)
    b = ball_cache(6)
    outer = int(b.level_start[6])
    start = perturb(max_stable(b), [0])
    res = relax(start)
    linked = _root_linked_to_the_outer_ring(ball_cache)
    linked_start = perturb(max_stable(linked), [0])
    linked_res = relax(linked_start)
    faked = _rows_of_eight_and_six(ball_cache)
    faked_start = rng.integers(0, 40, size=faked.n, dtype=np.int64)
    faked_counts = rng.integers(0, 5, size=faked.n, dtype=np.int64)
    cases = [  # ball, start, counts, block rows, the vertices to bump
        (b, start.grains, res.state.grains, res.odometer.counts, 64, [0, 100, b.n - 1]),
        (b, start.grains, res.state.grains, res.odometer.counts, outer - 10,
         [outer - 1, outer]),
        (linked, linked_start.grains, linked_res.state.grains, linked_res.odometer.counts,
         8, [0, 29]),
        (faked, faked_start, _laplacian_after(faked, faked_start, faked_counts), faked_counts,
         8, [1, 2]),
    ]
    for split, (ball, before, after, counts, rows, bumped) in itertools.product(
            (0, 1 << 40), cases):
        monkeypatch.setattr(sandpile, "_SPLIT_ROWS", split)
        monkeypatch.setattr(sandpile, "_IDENTITY_ROWS", rows)
        assert np.array_equal(after, _laplacian_after(ball, before, counts))
        sandpile._check_identity(before, after, ball, counts)
        for v in bumped:
            bad = counts.copy()
            bad[v] += 1
            with pytest.raises(InvariantError, match="start \\+ laplacian"):
                sandpile._check_identity(before, after, ball, bad)
    widths = np.diff(b.indptr)
    assert (widths[:64] == DEGREE).all() and (widths[-64:] < DEGREE).all()
    assert (outer - 10) < outer < 2 * (outer - 10)  # the second block is cut at outer
    assert np.diff(linked.indptr)[0] == 8
    assert np.diff(faked.indptr)[:8].tolist() == [7, 6, 8, 7, 7, 7, 7, 7]


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


def test_budget_guard_trips_on_tiny_budget(ball_cache, monkeypatch):
    # relax counts topples against the budget, relax_least the sweeps that
    # change a value: three from the root at radius 1
    b = ball_cache(1)
    start = perturb(max_stable(b), [0])
    monkeypatch.setattr(sandpile, "_budget", lambda grains: 3)
    with pytest.raises(InvariantError, match="budget"):
        relax(start)
    assert relax_least(start).odometer == predicted_odometer(b, [0])
    monkeypatch.setattr(sandpile, "_budget", lambda grains: 2)
    with pytest.raises(InvariantError, match="sweep budget"):
        relax_least(start)


def test_least_action_refuses_an_entry_beyond_the_budget(ball_cache, monkeypatch):
    # 2,000 grains on the root at radius 4 end with 394 topples there: a
    # budget of 300 is passed by one entry long before it is by the sweeps
    b = ball_cache(4)
    g = np.zeros(b.n, dtype=np.int64)
    g[0] = 2000
    assert relax_least(State(b, g)).odometer.counts[0] == 394
    monkeypatch.setattr(sandpile, "_budget", lambda grains: 300)
    with pytest.raises(InvariantError, match="odometer entry beyond the toppling budget"):
        relax_least(State(b, g))


def test_relaxers_refuse_a_budget_their_int64_counts_cannot_hold(ball_cache, monkeypatch):
    # below a budget of 2**62 no grain count or odometer entry can wrap
    # for relax, and below 2**60 no sum of seven entries for relax_least
    monkeypatch.setattr(sandpile, "_budget", lambda grains: 2**62)
    for engine in (relax, relax_least):
        with pytest.raises(OverflowError):
            engine(perturb(max_stable(ball_cache(1)), [0]))
    monkeypatch.setattr(sandpile, "_budget", lambda grains: 2**60)
    with pytest.raises(OverflowError):
        relax_least(perturb(max_stable(ball_cache(1)), [0]))


@pytest.mark.parametrize("draws", [1, 3, 1 << 12])
def test_budget_holds_exactly_the_total_topples(ball_cache, monkeypatch, draws):
    # relax checks its budget per round and the random-order engine per
    # block of draws; each still raises iff the total exceeds it
    monkeypatch.setattr(sandpile, "_DRAWS", draws)
    for k, start in enumerate(_abelian_states(ball_cache(4))):
        want = relax(start)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng([draws, k])
            res = relax_random(start, rng)
            assert (res.state, res.odometer, res.topples) == (
                want.state, want.odometer, want.topples)
            runs.append(rng.bit_generator.state)
        assert runs[0] == runs[1]  # a fixed seed draws the same picks again
    engines = (relax, lambda s: relax_random(s, np.random.default_rng(draws)))
    b = ball_cache(3)
    for start in (perturb(max_stable(b), [0]), _abelian_states(ball_cache(2))[0]):
        want = relax(start)
        monkeypatch.setattr(sandpile, "_budget", lambda grains: want.topples)
        for engine in engines:
            res = engine(start)
            assert (res.state, res.odometer, res.topples) == (
                want.state, want.odometer, want.topples)
        monkeypatch.setattr(sandpile, "_budget", lambda grains: want.topples - 1)
        for engine in engines:
            with pytest.raises(InvariantError):
                engine(start)


def test_batch_refuses_counts_that_could_wrap(ball_cache):
    b = ball_cache(1)
    grains = np.zeros(b.n, dtype=np.int64)
    grains[0] = 2**60
    for engine in (relax, relax_least):
        with pytest.raises(OverflowError):
            engine(State(b, grains))


def test_negative_grains_rejected_by_relax(ball_cache):
    # each engine refuses before it takes its budget, which counts only
    # nonnegative grains correctly
    b = ball_cache(1)
    mixed = np.full(b.n, 7, dtype=np.int64)
    mixed[-1] = -1
    for grains in (np.full(b.n, -1, dtype=np.int64), mixed):
        for engine in (relax, relax_least,
                       lambda s: relax_random(s, np.random.default_rng(0))):
            with pytest.raises(ValueError, match="nonnegative"):
                engine(State(b, grains))


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


@pytest.mark.parametrize("block", [1, 3, 7, 1 << 16])
def test_mass_and_budget_are_exact_at_the_int64_extremes(ball_cache, monkeypatch, block):
    # both sum a block at a time; blocks of any size give the Python sum.
    # The budget is taken only of nonnegative grains: every relaxer refuses
    # a negative one before it asks for the budget
    monkeypatch.setattr(sandpile, "_SUM_BLOCK", block)
    b = ball_cache(2)
    rng = np.random.default_rng(block)
    for fill in ([_INT64_MAX], [_INT64_MIN], [_INT64_MIN, _INT64_MAX], [-1, 1, 0],
                 [_INT64_MAX, _INT64_MAX - 1, 2**32, 2**32 - 1, -(2**32)]):
        grains = rng.choice(np.array(fill, dtype=np.int64), size=b.n)
        grains[:len(fill)] = fill
        want = sum(grains.tolist())
        positive = sum(x for x in grains.tolist() if x > 0)
        assert sandpile._budget(np.maximum(grains, 0)) == 1024 + 128 * (positive + b.n)
        if _INT64_MIN <= want <= _INT64_MAX:
            assert mass(State(b, grains)) == want
        else:
            with pytest.raises(OverflowError):
                mass(State(b, grains))
    # totals exactly at the bounds are in range; one grain more is not
    edge = np.zeros(b.n, dtype=np.int64)
    edge[:3] = _INT64_MAX, 5, -5
    assert mass(State(b, edge)) == _INT64_MAX
    edge[1] = 6
    with pytest.raises(OverflowError):
        mass(State(b, edge))
    edge[:3] = _INT64_MIN, -5, 5
    assert mass(State(b, edge)) == _INT64_MIN
    edge[1] = -6
    with pytest.raises(OverflowError):
        mass(State(b, edge))


def _relax_with_in_queue_flags(state):
    """A FIFO queue with an in-queue flag per vertex, one topple at a time: the oracle."""
    g = state.grains.tolist()
    ball = state.ball
    ptr, idx = ball.indptr.tolist(), ball.indices.tolist()
    odo = [0] * ball.n
    in_queue = [False] * ball.n
    queue = deque()
    for v in range(ball.n):
        if g[v] >= 7:
            queue.append(v)
            in_queue[v] = True
    topples = dequeues = 0
    while queue:
        v = queue.popleft()
        dequeues += 1
        in_queue[v] = False
        if g[v] < 7:
            continue
        g[v] -= 7
        odo[v] += 1
        topples += 1
        for u in idx[ptr[v]:ptr[v + 1]]:
            g[u] += 1
            if g[u] >= 7 and not in_queue[u]:
                in_queue[u] = True
                queue.append(u)
        if g[v] >= 7:
            in_queue[v] = True
            queue.append(v)
    return g, odo, topples, dequeues


def _abelian_states(ball):
    """The random states of ``verify.check_abelian``: 0..13 grains per vertex.

    A vertex has at most 7 neighbors, so from these states no vertex ever
    holds 14 grains.
    """
    rng = np.random.default_rng([DEFAULT_SEED, 99])
    return [State(ball, rng.integers(0, 14, size=ball.n, dtype=np.int64))
            for _ in range(10)]


def test_queue_engine_matches_the_in_queue_flag_oracle(ball_cache):
    # the FIFO queue, whose generations are relax's rounds as sets, ends on
    # relax's state, odometer, topples and dequeues
    rng = np.random.default_rng(17)
    starts = _abelian_states(ball_cache(4))
    for m in range(0, 7):
        b = ball_cache(m)
        starts.append(perturb(max_stable(b), [0, b.n - 1]))
        starts.append(State(b, rng.integers(0, 40, size=b.n, dtype=np.int64)))
    for start in starts:
        res = relax(start)
        g, odo, topples, dequeues = _relax_with_in_queue_flags(start)
        assert res.state.grains.tolist() == g
        assert res.odometer.counts.tolist() == odo
        assert (res.topples, res.dequeues) == (topples, dequeues)


def test_schedules_agree_with_the_in_queue_flag_oracle(ball_cache, monkeypatch):
    # the abelian property and least action: the parallel rounds, the
    # least fixed point and the one-vertex-at-a-time FIFO queue must end on
    # the same state, odometer and topples from any nonnegative start, on
    # the balls of radius 0..4 and on a CSR whose root's row reaches the
    # outer ring; with _FIRE_BLOCK at 4 and _LONG_RUN at 2 many fire sets
    # are run bounds
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    balls = [ball_cache(m) for m in range(0, 5)] + [_root_linked_to_the_outer_ring(ball_cache)]

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(balls).flatmap(lambda b: st.tuples(
        st.just(b), st.lists(st.integers(0, 20), min_size=b.n, max_size=b.n))),
        st.sampled_from([4, 1 << 16]))
    def check(case, block):
        monkeypatch.setattr(sandpile, "_FIRE_BLOCK", block)
        monkeypatch.setattr(sandpile, "_LONG_RUN", 2 if block == 4 else 64)
        b, grains = case
        start = State(b, np.array(grains, dtype=np.int64))
        g, odo, topples, _ = _relax_with_in_queue_flags(start)
        for res in (relax(start), relax_least(start)):
            assert res.state.grains.tolist() == g
            assert res.odometer.counts.tolist() == odo
            assert res.topples == topples

    check()


def _topped_state(ball, top, rng):
    """A 0..13 state holding ``top`` grains on four vertices, the root, two
    on the next-to-outer ring and the last, each of whose neighbors holds 7
    or more and so fires in the first generation or round."""
    g = rng.integers(0, 14, size=ball.n, dtype=np.int64)
    ring = ball.ring(ball.radius - 1)
    peaks = [0, ring[0], ring[len(ring) // 2], ball.n - 1]
    for v in peaks:
        nbrs = ball.neighbors(v)
        g[nbrs] = rng.integers(DEGREE, 14, size=nbrs.size)
    g[peaks] = top
    return State(ball, g)


@pytest.mark.parametrize("size", [1, 1 << 40])
def test_working_grains_are_int8_up_to_a_largest_count_of_120(ball_cache, monkeypatch, size):
    # from a start whose largest count is at most 120 no count can pass 127,
    # and relax relaxes in int8 and returns those grains; from 121 on it
    # keeps and returns int64.  The odometers of these short relaxations
    # stay int8.  Slices of one vertex let each vertex take its lower-id
    # neighbors' grains before it fires, the order that piles highest
    monkeypatch.setattr(sandpile, "_BATCH_SLICE", size)
    check, seen = sandpile._check_identity, []

    def probe(before, after, ball, counts):
        seen.append(after.dtype)
        check(before, after, ball, counts)

    monkeypatch.setattr(sandpile, "_check_identity", probe)
    rng = np.random.default_rng(120)
    for m, top in itertools.product(range(3, 6), (120, 121, 127)):
        start = _topped_state(ball_cache(m), top, rng)
        assert start.grains.max() == top
        g, odo, topples, _ = _relax_with_in_queue_flags(start)
        seen.clear()
        res = relax(start)
        assert seen == [np.dtype(np.int8 if top <= 120 else np.int64)], (m, top)
        assert res.state.grains.dtype == seen[0]
        assert res.odometer.counts.dtype == np.int8
        assert res.state.grains.tolist() == g
        assert res.odometer.counts.tolist() == odo
        assert res.topples == topples


def test_int8_grains_widen_in_place(ball_cache):
    # int8 grains widen to int64 where a value would leave -128..127, and
    # never wrap: perturb on a 127, a topple that takes a -125 below -128 or
    # gives a neighbor holding 127 a grain.  Otherwise the dtype stays, and
    # the input is never changed in place
    b = ball_cache(2)
    for v, top in itertools.product((0, 5, b.n - 1), (126, 127)):
        g = np.full(b.n, 3, dtype=np.int8)
        g[v] = top
        start = State(b, g)
        assert start.grains is g
        out = perturb(start, [v, 1])
        assert out.grains.dtype == np.dtype(np.int8 if top < 127 else np.int64)
        assert out.grains[v] == top + 1 and out.grains[1] == 4 - (v == 1)
        assert g[v] == top
    for low, top in ((-121, 126), (-122, 126), (-121, 127)):
        g = np.full(b.n, 6, dtype=np.int8)
        g[0] = low
        g[b.neighbors(0)] = top
        out = topple(State(b, g), 0)
        wide = low - DEGREE < -128 or top == 127
        assert out.grains.dtype == np.dtype(np.int64 if wide else np.int8), (low, top)
        assert out.grains[0] == low - DEGREE
        assert (out.grains[b.neighbors(0)] == top + 1).all()
    assert State(b, np.int8([1] * b.n)) == State(b, [1] * b.n)
    assert State(b, [1] * b.n).grains.dtype == np.int64
    assert Odometer(b, np.int8([2] * b.n)) == Odometer(b, np.int64([2] * b.n))


def test_every_route_matches_the_random_order_reference_in_its_dtypes(ball_cache):
    # on the sweep's site families at radii 1..8, and on random 0..9 and
    # 0..40 states at radii up to 6, given as int8 and as int64, every
    # route lands on relax_random's int64 state and odometer.  A route's
    # state is int8 when the start's largest count is at most 120, and its
    # odometer int8 when it fired fewer than 128 rounds, as each does here
    rng = np.random.default_rng(36)
    cases = []
    for m in range(1, 9):
        b = ball_cache(m)
        for sites in site_families(b, 6, np.random.default_rng([36, m])):
            start = perturb(max_stable(b), sites)
            assert start.grains.dtype == np.int8
            cases.append((start, {name: route(b, sites) for name, route in ROUTES.items()}))
    for m, top, dtype in itertools.product(range(1, 7), (9, 40), (np.int8, np.int64)):
        start = State(ball_cache(m), rng.integers(0, top + 1, size=ball_cache(m).n, dtype=dtype))
        assert start.grains.dtype == dtype
        cases.append((start, {"batch": relax(start), "least": relax_least(start)}))
    for start, results in cases:
        want = relax_random(start, rng)
        assert want.state.grains.dtype == want.odometer.counts.dtype == np.int64
        for name, res in results.items():
            assert res.state == want.state and res.odometer == want.odometer, name
            assert res.state.grains.dtype == res.odometer.counts.dtype == np.int8, name


def test_odometers_widen_before_their_128th_round(ball_cache):
    # 2,000 grains on the root at radius 4 take more than 127 rounds, and
    # the root topples more than 127 times: relax widens its odometer to
    # int64 in time, and the start's count above 120 keeps its state int64;
    # an odometer widened a round late would wrap, and the identity check
    # would refuse it.  relax_least widens its odometer before it writes
    # the first entry above 127 and returns its 0..6 state in int8
    b = ball_cache(4)
    g = np.zeros(b.n, dtype=np.int64)
    g[0] = 2000
    start = State(b, g)
    want = relax_random(start, np.random.default_rng(2000))
    assert want.odometer.counts.max() > 127
    for engine, state_dtype in ((relax, np.int64), (relax_least, np.int8)):
        res = engine(start)
        assert res.state.grains.dtype == state_dtype
        assert res.odometer.counts.dtype == np.int64
        assert res.state == want.state and res.odometer == want.odometer
        assert res.topples == want.topples
    # on the radius-0 ball, whose root has no neighbor, 7 * 128 - 1 grains
    # end with 127 topples and one grain more with exactly 128: the first
    # entry that leaves int8, which relax_least writes in one sweep
    for grains, topples, dtype in ((7 * 128 - 1, 127, np.int8), (7 * 128, 128, np.int64)):
        start = State(ball_cache(0), [grains])
        for engine in (relax, relax_least):
            res = engine(start)
            assert res.odometer.counts.tolist() == [topples], engine
            assert res.odometer.counts.dtype == dtype
            assert res.state.grains.tolist() == [grains - 7 * topples]


@pytest.mark.parametrize("split", [0, 1 << 40])
def test_identity_check_sums_int8_odometers_in_int64(ball_cache, monkeypatch, split):
    # the root's seven neighbors with odometer 20 give it 140 grains, and an
    # outer-ring vertex with odometer 40 loses 280: both pass 127, so the
    # check must sum the int8 counts, in full rows and in clipped ones, and
    # its 7 * counts term in int64.  It passes the exact state and refuses
    # one a multiple of 256 off
    monkeypatch.setattr(sandpile, "_SPLIT_ROWS", split)
    b = ball_cache(3)
    counts = np.zeros(b.n, dtype=np.int8)
    counts[b.ring(1).start:b.ring(1).stop] = 20
    counts[b.ring(3).start:] = 40
    before = np.zeros(b.n, dtype=np.int64)
    after = _laplacian_after(b, before, counts)
    assert after[0] == 140 and after[-1] < -127
    sandpile._check_identity(before, after, b, counts)
    for v, off in itertools.product((0, 1, b.n - 1), (256, -256)):
        bad = after.copy()
        bad[v] += off
        with pytest.raises(InvariantError, match="start \\+ laplacian"):
            sandpile._check_identity(before, bad, b, counts)


def test_round_kernel_and_waves_agree_on_int8_and_int64_grains(ball_cache, wave_cases,
                                                                 monkeypatch):
    # the kernel and the wave sweep take the grains' dtype as they find it:
    # one start on int8 and on int64 grains gives the same grains, odometer
    # and fire sets, and the same fronts, with fire sets held as ids and,
    # when _FIRE_BLOCK is 16 and _LONG_RUN 4, mostly as run bounds
    for start, block in itertools.product(_slice_starts(ball_cache, 8), (16, 1 << 16)):
        monkeypatch.setattr(sandpile, "_FIRE_BLOCK", block)
        monkeypatch.setattr(sandpile, "_LONG_RUN", 4 if block == 16 else 64)
        runs = []
        for dtype in (np.int8, np.int64):
            g = start.grains.astype(dtype)
            odo = np.zeros(start.ball.n, dtype=np.int64)
            fire, fires = sandpile._round_fire_set(g, 0, start.ball.n, None), []
            while fire.size:
                fire = sandpile._topple_round(g, odo, start.ball, fire)
                fires.append(fire.tolist())
            assert g.dtype == dtype
            runs.append((g.tolist(), odo.tolist(), fires))
        assert runs[0] == runs[1]
    monkeypatch.undo()
    for b, site in wave_cases:
        runs = []
        for dtype in (np.int8, np.int64):
            g = np.full(b.n, DEGREE - 1, dtype=dtype)
            counts = np.zeros(b.n, dtype=np.int64)
            toppled = np.zeros(b.n, dtype=bool)
            fronts = []
            while via := waves._wave_candidates(b, g, site):
                fronts.append(waves._forced_wave(b, g, counts, toppled, site, via[0]).tolist())
            assert g.dtype == dtype
            runs.append((g.tolist(), counts.tolist(), fronts))
        assert runs[0] == runs[1]
        assert runs[0][2] == [f.tolist() for f in wave_relax(b, site).fronts[:len(runs[0][2])]]


def _listed_many_times(ball_cache, rows):
    """The radius-3 ball with each given row replaced: {vertex: new row}."""
    b = ball_cache(3)
    table = [rows.get(v, b.neighbors(v).tolist()) for v in range(b.n)]
    indptr = np.cumsum([0] + [len(r) for r in table]).astype(np.int32)
    return Ball(b.radius, b.level, b.vtype, indptr, np.concatenate(table).astype(np.int32))


def test_a_count_that_wraps_is_never_returned(ball_cache):
    # on a CSR that lists one vertex many times a count can pass 127 from a
    # start at the int8 bound: relax must then land on the FIFO oracle or
    # refuse, and the wave route, which must topple that vertex twice in
    # one wave, must refuse
    u, outer = 20, range(29, 85, 9)  # a vertex on ring 2, seven on ring 3
    dealt = _listed_many_times(ball_cache, {w: [u] * 6 for w in outer})
    assert np.bincount(dealt.indices)[u] >= 8 * 6
    rng = np.random.default_rng(127)
    for top in (120, 121):
        g = rng.integers(0, DEGREE, size=dealt.n, dtype=np.int64)
        g[list(outer)], g[u] = DEGREE, top
        start = State(dealt, g)
        want, want_odo, want_topples, _ = _relax_with_in_queue_flags(start)
        try:
            res = relax(start)
        except InvariantError:
            continue
        assert res.state.grains.tolist() == want, top
        assert res.odometer.counts.tolist() == want_odo
        assert res.topples == want_topples
    for k in (130, 250, 256):
        piled = _listed_many_times(ball_cache, {1: ball_cache(3).neighbors(1).tolist() + [u] * k})
        with pytest.raises(InvariantError):
            wave_relax(piled, 0)
        with pytest.raises(InvariantError):
            waves.wave(max_stable(piled), 0)


def test_least_action_refuses_a_state_its_sweeps_left_unstable(ball_cache):
    # relax_least trusts the ball's rows to be symmetric: on the radius-3
    # ball whose last vertex pulls from the root six times, though no row
    # lists it, no sweep after the first reaches that vertex, and the final
    # state check must refuse the grains it never took.  relax refuses too:
    # its identity check pulls what it pushed nowhere
    b = ball_cache(3)
    last = b.n - 1
    rows = {v: [w for w in b.neighbors(v).tolist() if w != last] for v in b.neighbors(last)}
    lopsided = _listed_many_times(ball_cache, {**rows, last: [0] * 6})
    assert last not in lopsided.indices
    start = perturb(max_stable(lopsided), [0])
    for engine, refusal in ((relax, "start \\+ laplacian"), (relax_least, "outside 0..6")):
        with pytest.raises(InvariantError, match=refusal):
            engine(start)


def _slice_starts(ball_cache, seed):
    """The abelian states, one grain on the root or the last vertex at m=0..8,
    and random 0..39 states at m=0..4, whose vertices holding 14 grains or
    more fire in consecutive rounds."""
    rng = np.random.default_rng(seed)
    starts = _abelian_states(ball_cache(4))
    for m in range(0, 9):
        b = ball_cache(m)
        starts.append(perturb(max_stable(b), [0]))
        starts.append(perturb(max_stable(b), [b.n - 1]))
        if m <= 4:
            starts.append(State(b, rng.integers(0, 40, size=b.n, dtype=np.int64)))
    return starts


@pytest.mark.parametrize("size", [1, 3, 7])
def test_batch_rounds_are_the_same_in_small_slices(ball_cache, monkeypatch, size):
    # a round's fire set is toppled a slice of vertices at a time and read
    # a block of ids at a time: neither size may change a value.  With
    # whole slices and _FIRE_BLOCK unbounded every fire set is ids; with
    # small ones and _LONG_RUN at 4 many are run bounds, each long run cut
    # at every slice and read from the mask 16 ids per slice id at a time
    starts = _slice_starts(ball_cache, size)
    monkeypatch.setattr(sandpile, "_BATCH_SLICE", 1 << 40)
    monkeypatch.setattr(sandpile, "_FIRE_BLOCK", 1 << 40)
    whole = [relax(start) for start in starts]
    monkeypatch.setattr(sandpile, "_BATCH_SLICE", size)
    monkeypatch.setattr(sandpile, "_FIRE_BLOCK", 16 * size)
    monkeypatch.setattr(sandpile, "_LONG_RUN", 4)
    for start, want in zip(starts, whole):
        got = relax(start)
        assert got.state == want.state
        assert got.odometer == want.odometer
        assert (got.topples, got.dequeues) == (want.topples, want.dequeues)
    fire = sandpile._round_fire_set(np.arange(300) % 150, 0, 300, None)
    assert fire.dtype == np.int32 and fire.tolist() == [[7, 150], [157, 300]]
    # after a fire set whose runs average fewer than _LONG_RUN ids the next
    # is ids, however wide its span
    for fired in (np.arange(0, 300, 2, dtype=np.int32), _run_bounds(range(0, 300, 2))):
        fire = sandpile._round_fire_set(np.arange(300) % 150, 0, 300, fired)
        assert fire.dtype == np.int32 and fire.tolist() == [*range(7, 150), *range(157, 300)]
    assert all(r.dequeues == r.topples for r in whole)  # no round fires a vertex twice


def _root_linked_to_the_outer_ring(ball_cache):
    """The radius-3 ball with an extra edge from the root to vertex 29, the
    first of the outer ring: a CSR whose rows reach far beyond their level."""
    b = ball_cache(3)
    rows = [b.neighbors(v).tolist() for v in range(b.n)]
    rows[0] = rows[0] + [29]
    rows[29] = [0] + rows[29]
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int32)
    return Ball(b.radius, b.level, b.vtype, indptr, np.concatenate(rows).astype(np.int32))


def _fire_ids(fire):
    """The ids of a round kernel fire set, given as ids or as run bounds,
    after checking that run bounds are int32, ascending and maximal."""
    if fire.ndim == 1:
        return fire.tolist()
    assert fire.dtype == np.int32 and fire.shape[1:] == (2,)
    flat = fire.ravel().tolist()
    assert all(a < b for a, b in zip(flat, flat[1:])), flat  # a stop never meets the next start
    return [v for a, b in fire.tolist() for v in range(a, b)]


def _run_bounds(ids):
    """The run bounds of ascending distinct ``ids``, (r, 2) int32, maximal runs."""
    bounds = []
    for v in ids:
        if bounds and bounds[-1][1] == v:
            bounds[-1][1] = v + 1
        else:
            bounds.append([v, v + 1])
    return np.array(bounds, dtype=np.int32).reshape(-1, 2)


def _round_oracle(g, odo, ball, fire):
    """``_topple_round`` one vertex and one grain at a time."""
    for v in _fire_ids(fire):
        g[v] -= DEGREE
        odo[v] += 1
        for u in ball.neighbors(v).tolist():
            g[u] += 1
    return np.flatnonzero(g >= DEGREE).astype(np.int32)


@pytest.mark.parametrize("size", [3, 1 << 40])
def test_round_kernel_matches_a_scalar_oracle(ball_cache, monkeypatch, size):
    # a slice of one run fires through slices of the grains and odometer,
    # any other through its ids: one run, two runs, a run cut by the slice
    # size, and runs whose rows reach the outer ring all give the oracle's
    # grains, odometer and next fire set
    monkeypatch.setattr(sandpile, "_BATCH_SLICE", size)
    rng = np.random.default_rng(11)
    b = ball_cache(4)
    ring2, ring3 = b.ring(2), b.ring(3)
    linked = _root_linked_to_the_outer_ring(ball_cache)
    cases = [
        (b, list(ring2)),                                    # one run
        (b, list(ring2)[:5] + list(ring3)[4:11]),            # two runs
        (b, list(ring3)[1:9]),                               # one run, cut when size is 3
        (b, [0] + list(ring2)[2:4] + [int(ring3[-1])]),      # short runs
        (linked, [0, 1, 2]),                                 # a row reaching the outer ring
        (linked, [0, 29, 30]),
    ]
    for ball, fire in cases:
        g = np.full(ball.n, DEGREE - 1, dtype=np.int64)
        g[fire] = rng.integers(DEGREE, 3 * DEGREE, size=len(fire))
        odo = rng.integers(0, 3, size=ball.n, dtype=np.int64)
        ids = np.array(fire, dtype=np.int32)
        want_g, want_odo = g.copy(), odo.copy()
        want = _round_oracle(want_g, want_odo, ball, ids)
        got = sandpile._topple_round(g, odo, ball, ids)
        assert got.dtype == np.int32
        assert got.tolist() == want.tolist(), fire
        assert g.tolist() == want_g.tolist(), fire
        assert odo.tolist() == want_odo.tolist(), fire


@pytest.mark.parametrize("size", [1, 3, 1 << 40])
def test_run_bounds_fire_as_the_one_vertex_oracle(ball_cache, monkeypatch, size):
    # the round kernel fires a fire set of run bounds as one vertex at a
    # time does: runs of one id, a run cut by the slice size, runs at id 0
    # and at n - 1, two runs one id apart, the many short runs of a random
    # 0..40 state, and runs whose rows reach the outer ring.  With
    # _FIRE_BLOCK at 8 the first scan of a relaxation gives run bounds,
    # read 8 ids at a time; _LONG_RUN at 4 fires each run of 4 ids or more
    # in place, at 64 nearly none
    monkeypatch.setattr(sandpile, "_BATCH_SLICE", size)
    monkeypatch.setattr(sandpile, "_FIRE_BLOCK", 8)
    rng = np.random.default_rng(34)
    b = ball_cache(4)
    linked = _root_linked_to_the_outer_ring(ball_cache)
    cases = [
        (b, [5, 9, 20, 77]),                                 # runs of one id
        (b, list(range(30, 38))),                            # one run, cut when size is 3
        (b, [0, 1, 2, 3] + list(range(b.n - 5, b.n))),       # runs at id 0 and at n - 1
        (b, list(range(40, 45)) + list(range(46, 50))),      # two runs one id apart
        (b, None),                                           # a random 0..40 state
        (linked, [0, 1, 2]),                                 # rows reaching the outer ring
        (linked, [0, 29, 30]),
    ]
    for (ball, fire), long_run in itertools.product(cases, (4, 64)):
        monkeypatch.setattr(sandpile, "_LONG_RUN", long_run)
        if fire is None:
            start = rng.integers(0, 41, size=ball.n, dtype=np.int64)
            fire = np.flatnonzero(start >= DEGREE).tolist()
        else:
            start = rng.integers(0, DEGREE, size=ball.n, dtype=np.int64)
            start[fire] = rng.integers(DEGREE, 3 * DEGREE, size=len(fire))
        g, odo = start.copy(), rng.integers(0, 3, size=ball.n, dtype=np.int64)
        want_g, want_odo = g.copy(), odo.copy()
        want = _round_oracle(want_g, want_odo, ball, np.array(fire))
        got = sandpile._topple_round(g, odo, ball, _run_bounds(fire))
        assert _fire_ids(got) == want.tolist(), fire
        assert g.tolist() == want_g.tolist(), fire
        assert odo.tolist() == want_odo.tolist(), fire
        # the first round of a relaxation is the same runs
        want_g, want_odo, topples, _ = _relax_with_in_queue_flags(State(ball, start))
        res = relax(State(ball, start))
        assert res.state.grains.tolist() == want_g, fire
        assert res.odometer.counts.tolist() == want_odo
        assert res.topples == topples


def test_root_rounds_fire_the_rings_of_their_parity(ball_cache, monkeypatch):
    # from max-stable + root, round r = 0..2m fires exactly the rings
    # l = r (mod 2) with l <= min(r, 2m - r), as ids or, with _FIRE_BLOCK
    # at 64, as run bounds: one run per ring, since no two fired rings touch
    kernel = sandpile._topple_round
    rounds = []

    def recorded(g, odo, ball, fire, toppled=None):
        rounds.append(fire.copy())
        return kernel(g, odo, ball, fire, toppled)

    monkeypatch.setattr(sandpile, "_topple_round", recorded)
    for m, block in itertools.product(range(0, 11), (64, 1 << 16)):
        monkeypatch.setattr(sandpile, "_FIRE_BLOCK", block)
        b = ball_cache(m)
        rounds.clear()
        relax(perturb(max_stable(b), [0]))
        assert len(rounds) == 2 * m + 1
        for r, fire in enumerate(rounds):
            rings = (b.level % 2 == r % 2) & (b.level <= min(r, 2 * m - r))
            assert _fire_ids(fire) == np.flatnonzero(rings).tolist(), (m, r)
            if fire.ndim == 2:
                assert len(fire) == min(r, 2 * m - r) // 2 + 1, (m, r)


def test_each_round_returns_the_fire_set_of_a_full_scan(ball_cache, monkeypatch, wave_cases):
    # a round fires each vertex of its fire set once and no other, and scans
    # only the ids between the smallest and the largest it fired or fed,
    # which must still find every vertex holding 7 or more
    # (as ids, or mostly as maximal run bounds when _FIRE_BLOCK is 16 and
    # _LONG_RUN is 4, below which a set's runs average after which the
    # next set is ids again)
    kernel = sandpile._topple_round
    rounds = []

    def checked(g, odo, ball, fire, toppled=None):
        before = odo.copy()
        nxt = kernel(g, odo, ball, fire, toppled)
        added = odo - before
        ids = _fire_ids(fire)
        assert (added[ids] == 1).all() and added.sum() == len(ids)
        assert nxt.dtype == np.int32
        assert _fire_ids(nxt) == np.flatnonzero(g >= DEGREE).tolist()
        rounds.append((nxt.ndim, len(_fire_ids(nxt))))
        return nxt

    monkeypatch.setattr(sandpile, "_topple_round", checked)
    for block, long_run in ((16, 4), (1 << 16, 64)):
        monkeypatch.setattr(sandpile, "_FIRE_BLOCK", block)
        monkeypatch.setattr(sandpile, "_LONG_RUN", long_run)
        for start in _slice_starts(ball_cache, 0):
            relax(start)
        for b, site in wave_cases:
            wave_relax(b, site)
    assert len(rounds) > 1000 and (1, 0) in rounds and (2, 0) in rounds
    assert sum(ndim == 2 for ndim, _ in rounds) > 300
    linked = _root_linked_to_the_outer_ring(ball_cache)
    rng = np.random.default_rng(3)
    starts = [perturb(max_stable(linked), sites) for sites in ([0], [29], [84], [5, 40])]
    starts.append(State(linked, rng.integers(0, 40, size=linked.n, dtype=np.int64)))
    for start in starts:
        got, want = relax(start), relax_least(start)
        assert (got.state, got.odometer, got.topples) == (want.state, want.odometer, want.topples)


def test_scalar_engines_run_without_the_batch_and_wave_code(ball_cache, monkeypatch):
    # the least-action and random-order routes must not share code with the
    # round kernel, and least action none with the identity check, so that
    # one bug cannot fool two checks: with the kernel's helpers, or its row
    # gather alone, broken, least and random still land on the closed
    # forms; with least's own code broken, batch and wave still do; with
    # the identity check broken, least and wave still do.  Each with fire
    # sets held as ids and, with _FIRE_BLOCK at 16 and _LONG_RUN at 4, as
    # run bounds.  The batch, least and wave routes are the verify route
    # table's own
    def broken(*args, **kwargs):
        raise AssertionError("broken code was called")

    rng = np.random.default_rng(7)
    least = {"least": ROUTES["least"]}
    random = {"random": lambda ball, sites: relax_random(perturb(max_stable(ball), sites), rng)}
    rounds = {"batch": ROUTES["batch"], "wave": ROUTES["wave"]}
    kernel = ((sandpile, "_topple_round"), (sandpile, "_round_pieces"),
              (sandpile, "_round_rows"), (sandpile, "_round_fire_set"),
              (sandpile, "_ids"), (waves, "_forced_wave"))
    least_code = ((sandpile, "_least_pull"),)
    for names, dead, alive in ((kernel, rounds, {**least, **random}),
                               (((sandpile, "_round_gather"),), rounds, {**least, **random}),
                               (least_code, least, rounds),
                               (((sandpile, "_check_identity"),),
                                {"batch": ROUTES["batch"], **random},
                                {**least, "wave": ROUTES["wave"]})):
        for name in names:  # each is code that one of the routes runs
            with monkeypatch.context() as patch:
                patch.setattr(*name, broken)
                died = 0
                for route in dead.values():
                    try:
                        route(ball_cache(3), [0])
                    except AssertionError as error:
                        died += "broken code" in str(error)
                assert died, name
        with monkeypatch.context() as patch:
            for module, name in names:
                patch.setattr(module, name, broken)
            for route in dead.values():
                with pytest.raises(AssertionError, match="broken code"):
                    route(ball_cache(3), [0])
            for m, block in itertools.product(range(1, 7), (16, 1 << 16)):
                patch.setattr(sandpile, "_FIRE_BLOCK", block)
                patch.setattr(sandpile, "_LONG_RUN", 4 if block == 16 else 64)
                b = ball_cache(m)
                for sites in ([0], [b.n - 1], [int(b.level_start[m - 1]), b.n - 1]):
                    want = (predicted_beta(b, sites), predicted_odometer(b, sites))
                    topples = total_topplings(m, min(int(b.level[s]) for s in sites))
                    for name, route in alive.items():
                        res = route(b, sites)
                        assert (res.state, res.odometer, res.topples) == (*want, topples), name


def _id_lists(st, n):
    """Nonempty id lists below ``n`` built from ascending runs, descending
    steps and single ids."""
    run = st.tuples(st.integers(0, n - 1), st.integers(1, 12)).map(
        lambda r: list(range(r[0], min(r[0] + r[1], n))))
    down = st.tuples(st.integers(0, n - 1), st.integers(1, 12)).map(
        lambda r: list(range(r[0], max(r[0] - r[1], -1), -1)))
    single = st.integers(0, n - 1).map(lambda v: [v])
    return st.lists(st.one_of(run, down, single), min_size=1, max_size=8).map(
        lambda parts: list(itertools.chain.from_iterable(parts)))


def _gather_cases(st, ball_cache):
    """A ball and an id list on it: the radius-0 ball's empty row, small
    balls, and the linked ball, whose root's row reaches its outer ring."""
    balls = [ball_cache(0), ball_cache(1), ball_cache(3),
             _root_linked_to_the_outer_ring(ball_cache)]
    return st.sampled_from(balls).flatmap(lambda b: st.tuples(st.just(b), _id_lists(st, b.n)))


def test_round_gather_returns_the_rows(ball_cache, monkeypatch):
    # a slice of fired ids, ascending or not, gives its neighbor ids in row
    # order, one grain per entry for the round kernel to scatter
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(_gather_cases(st, ball_cache), st.sampled_from([1, 3, 7, 1 << 40]))
    def check(case, size):
        b, ids = case
        for long_run, lo in itertools.product((0, 1 << 40), range(0, len(ids), size)):
            monkeypatch.setattr(sandpile, "_LONG_RUN", long_run)  # copied, then gathered
            f = np.array(ids[lo:lo + size], dtype=np.intp)
            got = sandpile._round_gather(b.indptr, b.indices, f)
            assert got.tolist() == np.concatenate([b.neighbors(v) for v in f]).tolist()

    check()


def test_gathers_read_small_and_large_slices_alike(ball_cache, monkeypatch):
    # a slice of fewer than _LONG_RUN ids is read row by row, a larger one
    # per run of consecutive ids, each run copied or gathered, never as a
    # view of the ball's ids: with _LONG_RUN at 0 every slice is cut into
    # runs and copied, at 8 a short slice is read row by row and a long one
    # mostly gathered, at 2**40 every slice is read row by row
    rng = np.random.default_rng(31)
    for m in range(2, 9):
        b = ball_cache(m)
        for size in range(1, min(200, b.n) + 1):
            # one run, short runs or scattered ids, as the window widens
            window = min(b.n, size * int(rng.choice([1, 2, 4])))
            first = int(rng.integers(0, b.n - window + 1))
            f = np.sort(rng.choice(window, size, replace=False)) + first
            want = np.concatenate([b.neighbors(v) for v in f]).tolist()
            for long_run in (0, 8, 1 << 40):
                monkeypatch.setattr(sandpile, "_LONG_RUN", long_run)
                got = sandpile._round_gather(b.indptr, b.indices, f)
                assert got.tolist() == want
                assert not np.shares_memory(got, b.indices)


def test_ids_read_one_block_or_many_alike(monkeypatch):
    # a span of at most _FIRE_BLOCK entries takes one flatnonzero, a longer
    # one is read a block at a time; ids near 2**31 must not wrap
    rng = np.random.default_rng(32)
    for block in (16, sandpile._FIRE_BLOCK):
        monkeypatch.setattr(sandpile, "_FIRE_BLOCK", block)
        for size in (0, 1, block - 1, block, block + 1, 3 * block + 5):
            mask = rng.random(size) < 0.4
            for lo in (0, 7, 2**31 - 1 - size):
                got = sandpile._ids(mask, lo)
                assert got.dtype == np.int32
                assert got.tolist() == (np.flatnonzero(mask) + lo).tolist()


@pytest.mark.parametrize("long_run", [0, 1 << 40], ids=["copied", "gathered"])
def test_relaxation_leaves_the_ball_intact(ball_cache, monkeypatch, long_run):
    # every route reads the ball's ids through slices of them, a one-run
    # slice's in place, and relax scatters grains from them: none may
    # write to the ball
    monkeypatch.setattr(sandpile, "_LONG_RUN", long_run)
    b = ball_cache(8)
    indices, indptr = b.indices.copy(), b.indptr.copy()
    one_run = perturb(max_stable(b), [0])
    multi_run = perturb(max_stable(b), [int(b.level_start[7]), int(b.level_start[8]) + 5, b.n - 1])
    for start in (one_run, multi_run):
        relax(start)
        relax_least(start)
        waves.wave_relax_multi(b, np.flatnonzero(start.grains == DEGREE))
    assert np.array_equal(b.indices, indices)
    assert np.array_equal(b.indptr, indptr)


@pytest.mark.parametrize("route", ["batch", "least", "wave"])
def test_relaxation_peak_stays_within_the_ball_model(ball_cache, route):
    # a route may add 12 bytes per vertex, the memory model less 32; the ball
    # takes 25, and the other 7 stay headroom, not room for a route to grow
    # into, so no route needs a guard of its own.  The wave route holds its
    # fronts, about 6.5 B per vertex of int32 ids.  relax holds int8
    # working grains and an int8 odometer, 2 bytes per vertex, and returns
    # them as they are; a fire set read from a span wider than _FIRE_BLOCK
    # ids is run bounds, one pair per ring from this start, and a narrower
    # one at most _FIRE_BLOCK int32 ids, and a piece of more than one run
    # gathers about 7 * _BATCH_SLICE int32 neighbor ids.  relax_least holds
    # an int8 odometer and an int8 state, and its block of _IDENTITY_ROWS
    # rows gathers 7 entries a row and sums them in int64.  Each route's
    # temporaries are the same at every radius, so its peak at radius 12
    # stands for every radius
    b = ball_cache(12)
    start = perturb(max_stable(b), [0])
    run = {"batch": lambda: relax(start), "least": lambda: relax_least(start),
           "wave": lambda: wave_relax(b, 0)}[route]
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (ball_module._BYTES_PER_VERTEX - 32) * b.n
    assert result.odometer == predicted_odometer(b, [0])


def test_max_stable_and_perturb(ball_cache):
    b = ball_cache(2)
    phi = max_stable(b)
    assert set(phi.grains.tolist()) == {6}
    assert perturb(phi, []) == phi
    two = perturb(phi, [0, 1])
    assert int(np.count_nonzero(two.grains == 7)) == 2
    with pytest.raises(ValueError):
        perturb(phi, [b.n])


def test_batch_agrees(ball_cache):
    b = ball_cache(3)
    rng = np.random.default_rng(2)
    start = State(b, rng.integers(0, 30, size=b.n).astype(np.int64))
    batched = relax(start)
    least = relax_least(start)
    assert batched.state == least.state
    assert batched.odometer == least.odometer
    assert batched.topples == least.topples == int(least.odometer.counts.sum())
    assert batched.dequeues == batched.topples  # no round fires a vertex twice
    assert least.dequeues == least.topples


@pytest.mark.parametrize("site", ["root", "outer"])
def test_batch_brute_force_at_radius_12(ball_cache, site):
    b = ball_cache(12)
    p = [0] if site == "root" else [b.n - 1]
    for res in (relax(perturb(max_stable(b), p)), relax_least(perturb(max_stable(b), p))):
        assert res.state == predicted_beta(b, p)
        assert res.odometer == predicted_odometer(b, p)
        assert res.topples == total_topplings(12, int(b.level[p[0]]))


def test_schedules_agree_on_random_states(ball_cache):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=50, deadline=None, database=None)
    @hypothesis.given(st.integers(1, 4).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.integers(0, 20), min_size=ball_cache(m).n,
                             max_size=ball_cache(m).n))),
        st.integers(0, 2**32 - 1))
    def check(case, seed):
        m, grains = case
        start = State(ball_cache(m), np.array(grains, dtype=np.int64))
        base = relax(start)
        for res in (relax_least(start),
                    relax_random(start, np.random.default_rng(seed))):
            assert res.state == base.state
            assert res.odometer == base.odometer

    check()


def test_least_action_equals_relax_on_the_site_families(ball_cache):
    # the sweep's perturbation sets at radii 1..12: relax_least's state,
    # odometer and topples are relax's, in int8
    for m in range(1, 13):
        b = ball_cache(m)
        for sites in site_families(b, 6, np.random.default_rng([37, m])):
            start = perturb(max_stable(b), sites)
            want, got = relax(start), relax_least(start)
            assert (got.state, got.odometer, got.topples) == (
                want.state, want.odometer, want.topples), (m, sites)
            assert got.state.grains.dtype == got.odometer.counts.dtype == np.int8


def _light_state(ball, seed):
    """A random 0..9 state: some vertices topple, and some never do."""
    return State(ball, np.random.default_rng(seed).integers(0, 10, size=ball.n, dtype=np.int8))


def test_least_action_and_the_toppling_schedules_agree(ball_cache):
    # least action and the abelian property as a property: from random
    # states at radii 0..6, light ones of 0..9 grains, in which some
    # vertex never topples, and heavier ones, relax_least, relax and
    # relax_random end on one state, odometer and toppling total
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    light = _light_state(ball_cache(6), 0)
    assert not relax(light).odometer.counts.all()

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 6), st.sampled_from([9, 20]), st.integers(0, 2**32 - 1))
    @hypothesis.example(6, 9, 0)
    def check(m, top, seed):
        rng = np.random.default_rng(seed)
        start = State(ball_cache(m), rng.integers(0, top + 1, size=ball_cache(m).n))
        base = relax(start)
        for res in (relax_least(start), relax_random(start, rng)):
            assert (res.state, res.odometer, res.topples) == (
                base.state, base.odometer, base.topples)

    check()


def test_least_action_mutants_are_caught(ball_cache, monkeypatch):
    # three faults in relax_least, each put into its pull by a wrapper:
    # a start from u = 1, which only a state in which some vertex never
    # topples tells from the least fixed point; a ceiling in place of the
    # floor, a pull 6 grains high; and a pull that drops the last entry of
    # each outer-ring row.  Each must be caught by a comparison with relax.
    # A budget of 64 sweeps ends a mutant's ascent that never stops soon
    b = ball_cache(5)
    outer = int(b.level_start[5])
    starts = {"light": _light_state(b, 0), "root": perturb(max_stable(b), [0]),
              "last": perturb(max_stable(b), [b.n - 1])}
    wants = {name: relax(start) for name, start in starts.items()}
    assert not wants["light"].odometer.counts.all()
    assert wants["root"].odometer.counts.all()

    def caught():
        """The starts on which relax_least misses relax's state or odometer, or raises."""
        missed = set()
        for name, start in starts.items():
            try:
                res = sandpile.relax_least(start)
            except InvariantError:
                missed.add(name)
                continue
            if (res.state, res.odometer) != (wants[name].state, wants[name].odometer):
                missed.add(name)
        return missed

    pull = sandpile._least_pull

    def from_one(u, ptr, idx, a, b):
        if not u.any():  # the first sweep's first block
            u[:] = 1
        return pull(u, ptr, idx, a, b)

    def ceiling(u, ptr, idx, a, b):
        return pull(u, ptr, idx, a, b) + (DEGREE - 1)

    def drop_last(u, ptr, idx, a, b):
        got = pull(u, ptr, idx, a, b)
        rows = np.arange(max(a, outer), b)
        got[rows - a] -= u[idx[ptr[rows + 1] - 1]]
        return got

    monkeypatch.setattr(sandpile, "_budget", lambda grains: 64)
    assert caught() == set()
    for mutant, by in ((from_one, {"light"}), (ceiling, set(starts)), (drop_last, set(starts))):
        with monkeypatch.context() as patch:
            patch.setattr(sandpile, "_least_pull", mutant)
            assert caught() == by, mutant.__name__


def test_random_orders_agree(ball_cache):
    b = ball_cache(2)
    rng = np.random.default_rng(3)
    start = State(b, rng.integers(0, 13, size=b.n).astype(np.int64))
    base = relax(start)
    for k in range(3):
        res = relax_random(start, np.random.default_rng(100 + k))
        assert res.state == base.state
        assert res.odometer == base.odometer


class _ScriptedDraws:
    """Stands in for a Generator: hands out the given draws below 2**53 in turn."""

    def __init__(self, draws):
        self.draws = itertools.cycle(draws)

    def integers(self, low, high, size):
        assert (low, high) == (0, 1 << 53)
        return np.array([next(self.draws) for _ in range(size)], dtype=np.int64)


def test_random_order_picks_by_the_top_bits_of_each_draw(ball_cache):
    # every legal order gives the same result, so only the picks themselves
    # show a bias; a tracer on relax_random's frame reads each one: the list
    # and the draw before the pick line runs, the picked vertex after it
    src, first = inspect.getsourcelines(sandpile.relax_random)
    pick_line = first + next(k for k, line in enumerate(src)
                             if "v = unstable[i]" in line)
    code = sandpile.relax_random.__code__
    picks, pending = [], []

    def trace_lines(frame, event, arg):
        if event == "line":
            if pending:
                picks.append((*pending.pop(), frame.f_locals["v"]))
            if frame.f_lineno == pick_line:
                pending.append((frame.f_locals["x"], list(frame.f_locals["unstable"])))
        return trace_lines

    b = ball_cache(2)
    start = State(b, np.full(b.n, 7, dtype=np.int64))
    top = (1 << 53) - 1
    rng = _ScriptedDraws([top, 0, 1 << 52, top, 3 << 51, 1, top, 5 << 50])
    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 trace_lines if frame.f_code is code else None)
    try:
        res = relax_random(start, rng)
    finally:
        sys.settrace(before)
    assert len(picks) == res.topples
    for x, unstable, v in picks:
        assert v == unstable[x * len(unstable) >> 53]
    # the largest draw picks the last vertex, also when several are unstable
    assert any(x == top and len(unstable) > 1 and v == unstable[-1]
               for x, unstable, v in picks)


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


def test_field_serialization_memory_is_bounded(ball_cache):
    # entry lines are formatted a chunk at a time; the file of the m=11
    # origin beta is 0.6 MiB, and one-shot formatting peaked at 8.3 MiB
    b = ball_cache(11)
    beta, odometer = predicted_beta(b, [0]), predicted_odometer(b, [0])
    for serialize, field in ((serialize_state, beta), (serialize_odometer, odometer)):
        tracemalloc.start()
        try:
            serialize(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


# sha256 of whole state and odometer files, frozen: pins the bytes of the
# field writer, where the round trips below only pin what it can read back
FIELD_DIGESTS = {
    2: {"max_stable": "891d142466afdcdd94cd2f9f6393930fb64d2088934a54131ab5e484b5c0f972",
        "beta": "ac97e268599a3136ee1a7a478e04bb581fe821558982763536fcc915db171bb1",
        "random": "6b733baf7bc6df16b850f47245d6265587def694a55e0f5245e6cf4435004127",
        "odometer": "a853813fe26fd7179bf77eb6e48498c8c255554088eb11a0d4dab8d58a1ab5b8"},
    5: {"max_stable": "f79ab32650d28f7265c5abda7ee193cd90bdee83b0472b3a3325e679475c2465",
        "beta": "589d638c9bfeb3904039481cd4a2de91f0c77c3435ed75e6219eead26ee215c1",
        "random": "dbb13842cdf6068668cee7c0e0eeeb3fa1b34ac855b7162988e96d9ef5c8c3f5",
        "odometer": "df6c591d97f1280f576b9e0acf28576a08b5d4d630bf20e9bd56326328c78362"},
    8: {"max_stable": "9c134b467ba467834759b4ac37e9c5c344f077d01a3dcf9f9f11ee4390285422",
        "beta": "145896355bf338af623bd1b00b4575a5f4bacbd3c7b52cae60508809426af101",
        "random": "9ea16295302b74d55295a836cfc6e85919dc5124a1ed161bfb77fd9b734a131d",
        "odometer": "a80e7ab75d419d9f90e2d434dc92442d2c204e91d029dfc594e3cb7dc2810416"},
}


@pytest.mark.parametrize("m", sorted(FIELD_DIGESTS))
def test_field_bytes_pinned(m, ball_cache):
    b = ball_cache(m)
    # signed values of every digit count, and both 64-bit extremes
    rng = np.random.default_rng(m)
    magnitude = rng.integers(0, 10 ** rng.integers(0, 19, size=b.n))
    grains = np.where(rng.random(b.n) < 0.5, -magnitude, magnitude)
    grains[:2] = -2**63, 2**63 - 1
    blobs = {"max_stable": serialize_state(max_stable(b)),
             "beta": serialize_state(predicted_beta(b, [0])),
             "random": serialize_state(State(b, grains)),
             "odometer": serialize_odometer(predicted_odometer(b, [0]))}
    assert {name: hashlib.sha256(blob).hexdigest()
            for name, blob in blobs.items()} == FIELD_DIGESTS[m]


@pytest.mark.parametrize("block", [None, 1, 3])
def test_field_default_is_what_np_unique_picks(monkeypatch, block):
    # a field of narrow value range is counted by bincount a block at a
    # time, a wider one by np.unique: both pick the smallest most frequent
    # value, the choice of np.unique's sorted counts
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    if block:
        monkeypatch.setattr(sandpile, "_COUNT_BLOCK", block)
    edges = [_INT64_MIN, _INT64_MIN + 1, _INT64_MAX - 1, _INT64_MAX]
    value = st.one_of(st.integers(-3, 3), st.sampled_from(edges),
                      st.integers(_INT64_MIN, _INT64_MAX))

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.lists(value, min_size=1, max_size=30))
    @hypothesis.example([5, 5, -2, -2, 9])
    @hypothesis.example([_INT64_MAX, _INT64_MIN])
    @hypothesis.example([_INT64_MIN + 1, _INT64_MIN, _INT64_MIN + 1, _INT64_MIN])
    @hypothesis.example([_INT64_MAX, _INT64_MAX - 1, _INT64_MAX - 1, _INT64_MAX])
    def check(field):
        values = np.array(field, dtype=np.int64)
        uniq, counts = np.unique(values, return_counts=True)
        assert sandpile._default(values) == int(uniq[np.argmax(counts)])

    check()


def _field_cases(st, ball_cache):
    """A strategy of (m, grains, odometer counts) on balls of radius 0..3."""
    # small values repeat, so the default is not always the smallest value
    signed = st.one_of(st.integers(-3, 3), st.sampled_from([-2**63, 2**63 - 1]),
                       st.integers(-2**63, 2**63 - 1))
    counts = st.one_of(st.integers(0, 3), st.integers(0, 2**63 - 1))

    def fields(m):
        n = ball_cache(m).n
        return st.tuples(st.just(m), st.lists(signed, min_size=n, max_size=n),
                         st.lists(counts, min_size=n, max_size=n))

    return st.integers(0, 3).flatmap(fields)


def test_field_files_round_trip(ball_cache):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=50, deadline=None, database=None)
    @hypothesis.given(_field_cases(st, ball_cache))
    def check(case):
        m, grains, odo = case
        b = ball_cache(m)
        state = State(b, np.array(grains, dtype=np.int64))
        odometer = Odometer(b, np.array(odo, dtype=np.int64))
        assert deserialize_state(serialize_state(state), b) == state
        assert deserialize_odometer(serialize_odometer(odometer), b) == odometer

    check()


def test_every_single_byte_mutation_rejected(ball_cache):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def ball_file(m):
        return st.just((serialize_ball(ball_cache(m)), deserialize_ball))

    def field_files(case):
        m, grains, odo = case
        b = ball_cache(m)
        state = serialize_state(State(b, np.array(grains, dtype=np.int64)))
        odometer = serialize_odometer(Odometer(b, np.array(odo, dtype=np.int64)))
        return st.sampled_from([(state, lambda blob: deserialize_state(blob, b)),
                                (odometer, lambda blob: deserialize_odometer(blob, b))])

    files = st.one_of(st.integers(0, 4).flatmap(ball_file),
                      _field_cases(st, ball_cache).flatmap(field_files))

    def check_mutation(blob, load, pos, byte):
        mutated = blob[:pos] + bytes([byte]) + blob[pos + 1:]
        with pytest.raises(FormatError):
            load(mutated)
        signed = blob.rindex(b"CHECK ")
        if pos >= signed:
            return
        resigned = _sign(mutated[:signed])
        # a ball file must be the built ball's bytes, so it stays refused
        # when re-signed; a state or odometer file may then be another valid
        # one, but only as the writer's own bytes for what it holds
        if load is deserialize_ball:
            with pytest.raises(FormatError):
                load(resigned)
            return
        try:
            field = load(resigned)
        except FormatError:
            return
        serialize = serialize_state if isinstance(field, State) else serialize_odometer
        assert serialize(field) == resigned

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(files, st.data())
    def check(file, data):
        blob, load = file
        pos = data.draw(st.integers(0, len(blob) - 1))
        byte = data.draw(st.integers(0, 255).filter(lambda x: x != blob[pos]))
        check_mutation(blob, load, pos, byte)

    # "3 5" re-signed as "3 6", the default: a state the writer never writes
    b = ball_cache(1)
    grains = np.full(b.n, DEGREE - 1, dtype=np.int64)
    grains[3] = 5
    blob = serialize_state(State(b, grains))
    check_mutation(blob, lambda data: deserialize_state(data, b),
                   blob.index(b"\n3 5\n") + 3, ord("6"))
    check()


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
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 5\n2 5\n", "line 2 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 5\n3 4\n", "line 2 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"8 5\n", "out of range"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"-1 5\n", "out of range"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 5 6\n", "a vertex id and a value"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3\n5\n", "line 2 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 x\n", "single spaces"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 %d\n" % 2**63, "line 2 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 %d\n" % (-2**63 - 1), "line 2 differs"),
    # parsed as some state, but not the writer's bytes for it
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 05\n", "line 2 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"03 5\n", "line 2 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 +5\n", "line 2 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 -0\n", "line 2 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3\t5\n", "line 2 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 5 \n", "line 2 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 6\n", "line 2 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 5\n4 6\n", "line 3 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"0 6\n3 5\n", "line 2 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"3 5\n3 5\n", "line 3 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=06", b"", "line 1 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=-0", b"", "line 1 differs"),
    (b"HEPTASTATE v2 m=01 n=8 default=6", b"", "line 1 differs"),
    # the default is the most frequent value, the smaller one of a tie
    (b"HEPTASTATE v2 m=1 n=8 default=5", b"0 6\n1 6\n2 6\n3 6\n4 6\n", "line 1 differs"),
    (b"HEPTASTATE v2 m=1 n=8 default=6", b"0 5\n1 5\n2 5\n3 5\n", "line 1 differs"),
])
def test_malformed_state_rejected(ball_cache, head, entries, message):
    with pytest.raises(FormatError, match=message):
        deserialize_state(_sign(head + b"\n" + entries), ball_cache(1))


def test_short_state_bodies_load_only_as_the_writers_bytes(ball_cache):
    # every body of up to 4 bytes over a small alphabet, signed: it loads
    # exactly when it is what the writer writes for the state it loads as
    b = ball_cache(1)
    head = b"HEPTASTATE v2 m=1 n=8 default=6\n"
    alphabet = b"-07 \n\t+"
    loaded = set()
    for size in range(5):
        for chars in itertools.product(alphabet, repeat=size):
            blob = _sign(head + bytes(chars))
            try:
                state = deserialize_state(blob, b)
            except FormatError:
                continue
            assert serialize_state(state) == blob
            loaded.add(bytes(chars))
    # an entry line takes 4 bytes or more, so the writer's bodies of up to
    # 4 bytes hold at most one entry, "v g\n" with one-digit v and g
    written = set()
    for v, g in itertools.product(range(b.n), range(10)):
        grains = np.full(b.n, DEGREE - 1, dtype=np.int64)
        grains[v] = g
        body = serialize_state(State(b, grains)).splitlines(keepends=True)[1:-1]
        written.add(b"".join(body))
    assert loaded == {body for body in written
                      if len(body) <= 4 and set(body) <= set(alphabet)}
    assert loaded == {b"", b"0 0\n", b"0 7\n", b"7 0\n", b"7 7\n"}


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
