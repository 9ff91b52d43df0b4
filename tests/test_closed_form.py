import math
import tracemalloc

import numpy as np
import pytest

from heptapile import (CapacityError, VertexType, alpha, ball_size, fib,
                       level_counts, mass_loss, mass_loss_ratio, max_stable,
                       perturb, predicted_beta, predicted_odometer, relax,
                       total_topplings)
from heptapile.waves import wave


def test_fib_base_and_small_values():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(13) == 233


def test_fib_recurrence_and_cassini():
    values = [fib(n) for n in range(40)]
    for n in range(2, 40):
        assert values[n] == values[n - 1] + values[n - 2]
    for n in range(1, 39):
        assert values[n - 1] * values[n + 1] - values[n] ** 2 == (-1) ** n


def test_fib_overflow():
    fib(92)  # largest index that fits in int64
    with pytest.raises(OverflowError):
        fib(93)
    with pytest.raises(ValueError):
        fib(-1)


def test_level_counts_values():
    assert tuple(level_counts(1)) == (7, 0)
    assert tuple(level_counts(2)) == (14, 7)
    assert tuple(level_counts(3)) == (35, 21)
    with pytest.raises(ValueError):
        level_counts(0)


def test_level_counts_match_ring_lengths(ball_cache):
    b = ball_cache(5)
    for lvl in range(1, 6):
        lc = level_counts(lvl)
        assert lc.first + lc.second == len(b.ring(lvl))


def test_ball_size_values():
    assert ball_size(0) == 1
    assert ball_size(2) == 29
    assert ball_size(6) == 1625


def test_ball_size_telescopes():
    for m in range(1, 15):
        total = 1 + sum(sum(level_counts(l)) for l in range(1, m + 1))
        assert ball_size(m) == total


def test_ball_size_capacity():
    with pytest.raises(CapacityError):
        ball_size(44)


def test_alpha_zero_on_small_ball(ball_cache):
    b = ball_cache(1)
    a0 = alpha(0, b)
    assert a0.grains.tolist() == [-1] + [3] * 7


def test_alpha_beyond_radius_is_all_sixes(ball_cache):
    b = ball_cache(2)
    assert alpha(3, b) == max_stable(b)
    assert alpha(7, b) == max_stable(b)


def test_alpha_at_radius_matches_first_wave(ball_cache):
    b = ball_cache(2)
    a2 = alpha(2, b)
    lv, ty = b.level, b.vtype
    assert set(a2.grains[lv <= 1]) == {6}
    assert set(a2.grains[(lv == 2) & (ty == VertexType.FIRST)]) == {2}
    assert set(a2.grains[(lv == 2) & (ty == VertexType.SECOND)]) == {3}
    assert wave(max_stable(b), 0).grains.tolist() == a2.grains.tolist()


def test_alpha_profiles_general(ball_cache):
    b = ball_cache(4)
    lv, ty = b.level, b.vtype
    for s in range(1, 5):
        st = alpha(s, b).grains
        assert set(st[lv < s]) == {6}
        assert set(st[(lv == s) & (ty == VertexType.FIRST)]) == {2}
        if s >= 2:
            assert set(st[(lv == s) & (ty == VertexType.SECOND)]) == {3}
        outside_first = st[(lv > s) & (ty == VertexType.FIRST)]
        outside_second = st[(lv > s) & (ty == VertexType.SECOND)]
        if outside_first.size:
            assert set(outside_first) == {3}
        if outside_second.size:
            assert set(outside_second) == {5}


def test_alpha_agrees_with_alpha_zero_outside_core(ball_cache):
    b = ball_cache(4)
    a0 = alpha(0, b).grains
    for s in range(1, 4):
        a_s = alpha(s, b).grains
        outside = b.level > s
        assert np.array_equal(a_s[outside], a0[outside])


def test_predicted_beta_smallest_case(ball_cache):
    b = ball_cache(1)
    beta = predicted_beta(b, [0])
    assert beta.grains.tolist() == [0] + [3] * 7


def test_predicted_beta_everything_perturbed(ball_cache):
    b = ball_cache(2)
    beta = predicted_beta(b, range(b.n))
    expect = alpha(0, b).grains + 1
    assert beta.grains.tolist() == expect.tolist()
    assert beta.grains.max() <= 6


def test_predicted_beta_nested_restriction(ball_cache):
    small, big = ball_cache(2), ball_cache(6)
    inner = predicted_beta(small, [0]).grains
    outer = predicted_beta(big, [0]).grains
    assert np.array_equal(outer[:inner.size], inner)


def test_predictions_reject_empty_and_out_of_range(ball_cache):
    b = ball_cache(2)
    with pytest.raises(ValueError):
        predicted_beta(b, [])
    with pytest.raises(ValueError):
        predicted_odometer(b, [])
    with pytest.raises(ValueError):
        predicted_beta(b, [b.n])


def test_predicted_odometer_values(ball_cache):
    b = ball_cache(1)
    od = predicted_odometer(b, [0])
    assert od.counts.tolist() == [2] + [1] * 7
    b4 = ball_cache(4)
    rim = [int(b4.ring(4).start) + 3]
    assert set(predicted_odometer(b4, rim).counts.tolist()) == {1}


def test_predicted_odometer_mixed_levels_vs_engine(ball_cache):
    b = ball_cache(4)
    p = int(b.ring(2).start) + 1
    q = int(b.ring(3).start) + 5
    res = relax(perturb(max_stable(b), [p, q]))
    assert res.odometer == predicted_odometer(b, [p, q])


@pytest.mark.parametrize("level", [0, 6, 12])
def test_predictions_hold_no_ball_sized_temporary(ball_cache, level):
    # the two int64 results alone take 16 bytes per vertex
    b = ball_cache(12)
    sites = [int(b.ring(level).start)]
    tracemalloc.start()
    try:
        beta = predicted_beta(b, sites)
        odometer = predicted_odometer(b, sites)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * b.n
    assert beta.grains.dtype == odometer.counts.dtype == np.int64


def test_mass_loss_values(ball_cache):
    assert mass_loss(1) == 28
    assert mass_loss(2) == 77
    assert mass_loss(10) == 171332
    for m in range(1, 21):
        lc = level_counts(m)
        assert mass_loss(m) == 4 * lc.first + 3 * lc.second
    with pytest.raises(ValueError):
        mass_loss(0)


def test_mass_loss_matches_engine(ball_cache):
    b = ball_cache(3)
    rng = np.random.default_rng(17)
    for _ in range(5):
        k = int(rng.integers(1, 7))
        sites = sorted(int(v) for v in rng.choice(b.n, size=k, replace=False))
        start = perturb(max_stable(b), sites)
        res = relax(start)
        from heptapile import mass
        assert mass(start) - mass(res.state) == mass_loss(3)


def test_mass_loss_ratio():
    assert float(mass_loss_ratio(1)) == 3.5
    r10 = float(mass_loss_ratio(10))
    assert abs(r10 - math.sqrt(5)) < 2e-4
    gaps = [abs(float(mass_loss_ratio(m)) - math.sqrt(5)) for m in range(3, 21)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def _total_topplings_by_rings(m: int, s: int) -> int:
    """Odometer formula weighted by ring sizes from the ring recurrence."""
    total = min(m + 1, m + 1 - s)
    a, b = 7, 0
    for lvl in range(1, m + 1):
        total += min(m + 1 - lvl, m + 1 - s) * (a + b)
        a, b = 2 * a + b, a + b
    return total


def test_total_topplings_closed_form(ball_cache):
    # weighted sum of the odometer formula over levels, radius-10 value frozen
    assert total_topplings(10) == 123911
    b = ball_cache(3)
    res = relax(perturb(max_stable(b), [0]))
    assert int(res.odometer.counts.sum()) == total_topplings(3)
    for m in range(40):
        for s in range(m + 1):
            assert total_topplings(m, s) == _total_topplings_by_rings(m, s), (m, s)
