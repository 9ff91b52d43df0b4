import tracemalloc

import numpy as np
import pytest

from heptapile import (DEGREE, InvariantError, State, VertexType, alpha, ball_size,
                       max_stable, perturb, predicted_odometer, relax, sandpile,
                       verify, wave, wave_relax, wave_relax_multi, waves)


def first_wave_expectation(ball):
    vals = np.full(ball.n, 6, dtype=np.int64)
    rim = ball.level == ball.radius
    vals[rim & (ball.vtype == VertexType.FIRST)] = 2
    vals[rim & (ball.vtype == VertexType.SECOND)] = 3
    return vals


@pytest.mark.parametrize("m", [1, 2, 4])
def test_first_wave_profile(m, ball_cache):
    b = ball_cache(m)
    w = wave(max_stable(b), 0)
    assert w.grains.tolist() == first_wave_expectation(b).tolist()


def test_wave_without_full_site_is_identity(ball_cache):
    b = ball_cache(2)
    st = max_stable(b)
    st = State(b, st.grains.copy())
    st.grains[0] = 4
    assert wave(st, 0) == st


def test_wave_without_full_neighbor_is_identity(ball_cache):
    b = ball_cache(2)
    st = max_stable(b).grains.copy()
    st[list(b.neighbors(0))] = 5
    s = State(b, st)
    assert wave(s, 0) == s


def test_wave_rejects_unstable_input(ball_cache):
    b = ball_cache(1)
    with pytest.raises(ValueError):
        wave(perturb(max_stable(b), [0]), 0)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_second_wave_restricts_to_smaller_ball(m, ball_cache):
    big, small = ball_cache(m), ball_cache(m - 1)
    w2 = wave(wave(max_stable(big), 0), 0)
    inner = wave(max_stable(small), 0)
    assert np.array_equal(w2.grains[:small.n], inner.grains)


def test_wave_output_stable_on_random_states(ball_cache):
    b = ball_cache(3)
    rng = np.random.default_rng(23)
    for _ in range(10):
        grains = rng.integers(0, 7, size=b.n).astype(np.int64)
        site = int(rng.integers(0, b.n))
        grains[site] = 6
        nbr = int(min(b.neighbors(site)))
        grains[nbr] = 6
        out = wave(State(b, grains), site)
        assert out.grains.max() <= 6
        assert out.grains.min() >= 0


def test_wave_relax_smallest(ball_cache):
    b = ball_cache(1)
    res = wave_relax(b, 0)
    assert res.wave_count == 2
    assert res.state.grains.tolist() == [0] + [3] * 7
    assert res.odometer.counts.tolist() == [2] + [1] * 7


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_wave_count_at_origin(m, ball_cache):
    assert wave_relax(ball_cache(m), 0).wave_count == m + 1


def test_wave_relax_equals_direct(ball_cache):
    rng = np.random.default_rng(31)
    for m in (2, 3, 4):
        b = ball_cache(m)
        sites = rng.choice(b.n, size=4, replace=False)
        for p in sites:
            p = int(p)
            direct = relax(perturb(max_stable(b), [p]))
            via = wave_relax(b, p)
            assert via.state == direct.state, (m, p)
            assert via.odometer == direct.odometer, (m, p)
            assert via.odometer == predicted_odometer(b, [p])


def test_wave_fronts_are_nested(ball_cache):
    b = ball_cache(4)
    res = wave_relax(b, 0)
    fronts = [set(f.tolist()) for f in res.fronts]
    assert len(fronts) == res.wave_count
    for bigger, smaller in zip(fronts, fronts[1:]):
        assert smaller <= bigger
    # waves at the root shrink by exactly one ring each time
    sizes = [len(f) for f in res.fronts]
    assert sizes == [ball_size(k) for k in range(4, 0, -1)] + [1]


@pytest.mark.parametrize("m", range(1, 9))
def test_front_k_covers_the_smaller_ball(m, ball_cache):
    sizes = [len(f) for f in wave_relax(ball_cache(m), 0).fronts]
    assert sizes == [ball_size(m + 1 - k) for k in range(1, m + 2)]


def test_wave_profile_check_counts_front_sizes(ball_cache, monkeypatch):
    balls = {m: ball_cache(m) for m in (1, 2, 3)}
    rep = verify.check_wave_profiles(balls)
    assert rep.passed
    assert "m=3: front sizes [85, 29, 8, 1]" in rep.lines

    # dropping the last vertex of the second front keeps the fronts nested,
    # so only the size check can notice
    def short_second_front(ball, site):
        res = wave_relax(ball, site)
        fronts = list(res.fronts)
        fronts[1] = fronts[1][:-1]
        return res._replace(fronts=fronts)

    monkeypatch.setattr(verify, "wave_relax", short_second_front)
    rep = verify.check_wave_profiles({3: balls[3]})
    assert not rep.passed
    assert any("front sizes [85, 28, 8, 1]" in line for line in rep.lines)


def test_intermediate_wave_equals_alpha(ball_cache):
    # after k waves at the root the state is the universal state of index m-k+1
    b = ball_cache(3)
    st = max_stable(b)
    for k in range(1, 4):
        st = wave(st, 0)
        assert st == alpha(3 - k + 1, b), k


def test_wave_relax_multi_matches_direct(ball_cache):
    rng = np.random.default_rng(41)
    for m in (2, 3):
        b = ball_cache(m)
        for _ in range(4):
            k = int(rng.integers(2, 6))
            sites = sorted(int(v) for v in rng.choice(b.n, size=k, replace=False))
            direct = relax(perturb(max_stable(b), sites))
            via = wave_relax_multi(b, sites)
            assert via.state == direct.state
            assert via.odometer == direct.odometer


def test_wave_relax_multi_adds_its_grains_in_place(ball_cache):
    # the remaining grains go onto the state wave_relax built, so the
    # multi-site route holds no second grain array (8 bytes per vertex)
    b = ball_cache(12)
    peaks = []
    for run in (lambda: wave_relax(b, 0), lambda: wave_relax_multi(b, [0, b.n - 1])):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4 * b.n


def _seventh_rotation(ball):
    """v -> start + (v - start + |ring| / 7) mod |ring| on every ring, the root
    fixed: the automorphism of ``test_rotation_by_a_seventh_is_an_automorphism``."""
    start = ball.level_start[ball.level]
    size = np.diff(ball.level_start)[ball.level]
    return start + (np.arange(ball.n) - start + size // 7) % size


@pytest.mark.parametrize("m", range(1, 9))
def test_root_relaxation_is_invariant_under_a_seventh_rotation(m, ball_cache):
    # the rotation fixes the root, so it maps the relaxation of one grain
    # at the root, and each of its waves, onto itself
    b = ball_cache(m)
    rot = _seventh_rotation(b)
    res = relax(perturb(max_stable(b), [0]))
    assert np.array_equal(res.state.grains[rot], res.state.grains)
    assert np.array_equal(res.odometer.counts[rot], res.odometer.counts)
    fronts = wave_relax(b, 0).fronts
    assert len(fronts) == m + 1
    for front in fronts:
        assert np.array_equal(np.sort(rot[front]), front)


@pytest.mark.parametrize("size", [1, 3, 7])
def test_waves_are_the_same_in_small_slices(ball_cache, monkeypatch, wave_cases, size):
    # with whole slices and _FIRE_BLOCK unbounded every fire set is ids;
    # with small ones and _LONG_RUN at 4 many are run bounds, each long run
    # cut at every slice and read from the mask 16 ids per slice id at a time
    rng = np.random.default_rng(size)
    b = ball_cache(4)
    stable = [State(b, rng.integers(0, 7, size=b.n, dtype=np.int64)) for _ in range(3)]
    monkeypatch.setattr(sandpile, "_BATCH_SLICE", 1 << 40)
    monkeypatch.setattr(sandpile, "_FIRE_BLOCK", 1 << 40)
    whole = [wave_relax(ball, site) for ball, site in wave_cases]
    whole_waves = [wave(state, site) for state in stable for site in range(b.n)]
    monkeypatch.setattr(sandpile, "_BATCH_SLICE", size)
    monkeypatch.setattr(sandpile, "_FIRE_BLOCK", 16 * size)
    monkeypatch.setattr(sandpile, "_LONG_RUN", 4)
    for (ball, site), want in zip(wave_cases, whole):
        got = wave_relax(ball, site)
        assert got.state == want.state
        assert got.odometer == want.odometer
        assert len(got.fronts) == len(want.fronts) == got.wave_count
        for front, want_front in zip(got.fronts, want.fronts):
            assert front.dtype == np.int32
            assert np.array_equal(front, want_front)
    assert [wave(state, site) for state in stable for site in range(b.n)] == whole_waves


def test_a_vertex_toppling_twice_in_one_wave_is_caught(ball_cache):
    # with 13 grains the site is still at 6 after its forced topple, and the
    # grain that its neighbor's topple sends back brings it to 7 again
    b = ball_cache(2)
    g = max_stable(b).grains
    g[0] = 13
    with pytest.raises(InvariantError, match="toppled twice"):
        waves._forced_wave(b, g, np.zeros(b.n, dtype=np.int64), np.zeros(b.n, dtype=bool),
                           0, int(b.neighbors(0)[0]))


def test_a_vertex_toppling_twice_is_caught_in_any_fire_set(ball_cache):
    # the site holds 13, so it is back at 7 after the first round; it then
    # fires alone, a set of one run, or beside vertex 3, a set of two runs,
    # and the check trips on either path
    b = ball_cache(2)
    for extra in ([], [3]):
        g = np.zeros(b.n, dtype=np.int64)
        g[0], g[1] = 13, DEGREE - 1
        g[extra] = DEGREE
        with pytest.raises(InvariantError, match="toppled twice"):
            waves._forced_wave(b, g, np.zeros(b.n, dtype=np.int64),
                               np.zeros(b.n, dtype=bool), 0, 1)


def _fresh_mask_fronts(ball, site):
    """The fronts of ``wave_relax(ball, site)``, each wave swept in rounds
    with a mask of its own and a full scan for every fire set."""
    g = max_stable(ball).grains
    fronts = []
    while True:
        via = [v for v in ball.neighbors(site).tolist() if g[v] == DEGREE - 1]
        if g[site] != DEGREE - 1 or not via:
            break
        toppled = np.zeros(ball.n, dtype=bool)
        fire = np.array(sorted((site, via[0])))
        while fire.size:
            assert not toppled[fire].any()
            toppled[fire] = True
            g[fire] -= DEGREE
            np.add.at(g, np.concatenate([ball.neighbors(v) for v in fire]), 1)
            fire = np.flatnonzero(g >= DEGREE)
        fronts.append(np.flatnonzero(toppled))
    if g[site] == DEGREE - 1:
        fronts.append(np.array([site]))
    return fronts


def test_fronts_from_one_mask_equal_fronts_from_fresh_masks(wave_cases, ball_cache,
                                                           monkeypatch):
    # wave_relax marks every wave in one mask and clears only the span each
    # wave fired, so the mask must be all false again after every wave, and
    # no wave may see a vertex marked by an earlier one
    forced = waves._forced_wave

    def checked(ball, g, counts, toppled, site, via):
        front = forced(ball, g, counts, toppled, site, via)
        assert not toppled.any()
        return front

    monkeypatch.setattr(waves, "_forced_wave", checked)
    cases = wave_cases + [(ball_cache(5), v) for v in (1, 100, 500)]
    for b, site in cases:
        got = wave_relax(b, site).fronts
        want = _fresh_mask_fronts(b, site)
        assert len(got) == len(want), (b.radius, site)
        for front, want_front in zip(got, want):
            assert front.dtype == np.int32
            assert front.tolist() == want_front.tolist(), (b.radius, site)
