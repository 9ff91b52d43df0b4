"""Cross-checks between the simulation engines and the closed forms.

Each runner exercises one acceptance-grade property and returns a CheckReport;
the CLI ``verify`` subcommand and the acceptance test suite both drive these.
All randomness flows from one seed so reports are reproducible.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import closed_form as cf
from .ball import Ball, VertexType, build_ball, distance_profile
from .errors import InvariantError
from .geometry import (EDGE_LENGTH, build_embedding, edge_lengths,
                       interior_angles, klein, nearest_neighbor_mismatches)
from .sandpile import (RelaxResult, State, mass, max_stable, perturb, relax,
                       relax_least, relax_random)
from .waves import wave, wave_relax, wave_relax_multi

DEFAULT_SEED = 7

# the fixed checks' settings, each pinned by tests/test_acceptance.py
_COMBINATORICS_RADIUS = 12
_MASS_RATIO_RADIUS = 10
_MASS_RATIO_TOL = 1e-3        # |ratio - sqrt(5)| at _MASS_RATIO_RADIUS
_ABELIAN_RADIUS = 4
_ABELIAN_STATES = 10
_ABELIAN_ORDERS = 20          # random toppling orders per state
_GEOMETRY_RADIUS = 5
_LENGTH_TOL = 1e-9
_ANGLE_TOL = 1e-6


@dataclass
class CheckReport:
    name: str
    passed: bool = True
    lines: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.passed = False
        self.lines.append("FAIL " + message)

    def note(self, message: str) -> None:
        self.lines.append(message)

    def summary(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"


@contextmanager
def _raised(what: str, *reports: CheckReport):
    """Turn an ``InvariantError`` that a route raises inside into a FAIL line in ``reports``."""
    try:
        yield
    except InvariantError as exc:
        for rep in reports:
            rep.fail(f"{what}: {exc}")


def site_families(ball: Ball, trials: int, rng: np.random.Generator) -> list:
    """Perturbation sets used in the sweeps.

    Always includes the root alone, a singleton on the outermost ring, a
    5-site set, and a set whose minimal level is shared by several sites;
    the rest are uniform random nonempty sets.
    """
    n, m = ball.n, ball.radius
    outer = ball.ring(m)
    fams = [
        [0],
        [int(rng.integers(outer.start, outer.stop))],
    ]
    if n >= 5:
        fams.append(sorted(int(v) for v in rng.choice(n, size=5, replace=False)))
    lvl_star = int(rng.integers(1, m + 1)) if m >= 1 else 0
    tied_ring = ball.ring(lvl_star)
    tied = sorted(int(v) for v in rng.choice(
        np.arange(tied_ring.start, tied_ring.stop), size=2, replace=False))
    above = np.arange(tied_ring.start, n)
    extra = rng.choice(above, size=min(2, len(above)), replace=False)
    fams.append(sorted(set(tied + [int(v) for v in extra])))
    while len(fams) < trials:
        k = int(rng.integers(1, 9))
        fams.append(sorted(int(v) for v in rng.choice(n, size=min(k, n),
                                                      replace=False)))
    return fams


def _ring_types(ball: Ball, lvl: int) -> tuple:
    """Ring ``lvl``'s (first, second) type counts, as ``cf.level_counts`` gives them."""
    ring = ball.ring(lvl)
    nf = int(np.count_nonzero(ball.vtype[ring.start:ring.stop] == VertexType.FIRST))
    return nf, len(ring) - nf


def _closed_form_faults(start_mass: int, res: RelaxResult, sites: list) -> list:
    """Which of odometer, state and mass loss from ``start_mass`` miss the closed forms."""
    ball = res.state.ball
    agree = {"odometer": res.odometer == cf.predicted_odometer(ball, sites),
             "state": res.state == cf.predicted_beta(ball, sites),
             "mass": start_mass - mass(res.state) == cf.mass_loss(ball.radius)}
    return [name for name, ok in agree.items() if not ok]


def _wave_route(ball: Ball, sites: list) -> RelaxResult:
    res = wave_relax_multi(ball, sites)
    topples = sum(len(front) for front in res.fronts)
    return RelaxResult(res.state, res.odometer, topples, topples)


# each route relaxes max_stable(ball) plus one grain per site, (ball, sites) ->
# RelaxResult; batch and wave share the round kernel, least shares no code
# with them, and the closed forms count no topples
ROUTES = {
    "batch": lambda ball, sites: relax(perturb(max_stable(ball), sites)),
    "least": lambda ball, sites: relax_least(perturb(max_stable(ball), sites)),
    "wave": _wave_route,
    "closed": lambda ball, sites: RelaxResult(cf.predicted_beta(ball, sites),
                                              cf.predicted_odometer(ball, sites), 0, 0),
}


def check_combinatorics() -> CheckReport:
    """Generated ring populations and ball sizes match the Fibonacci forms.

    Ring l is the same in every ball of radius at least l, so ball m is the
    prefix of the largest ball that ends with ring m.
    """
    rep = CheckReport(f"ring combinatorics, radii 1..{_COMBINATORICS_RADIUS}")
    ball = build_ball(_COMBINATORICS_RADIUS)
    for m in range(1, _COMBINATORICS_RADIUS + 1):
        got = (ball.ring(m).stop, *_ring_types(ball, m))
        want = (cf.ball_size(m), *cf.level_counts(m))
        if got != want:
            rep.fail(f"m={m}: size and ring-{m} type counts {got}, closed form {want}")
    rep.note(f"largest ball checked: {ball.n} vertices")
    return rep


def _sweep_trial(ball: Ball, sites: list, reports: dict) -> None:
    """Run one perturbation through the least-action and wave routes; fail what it breaks.

    A route that raises fails each report that compares its result.
    """
    tag = f"m={ball.radius} sites={sites}"
    with _raised(f"least raised at {tag}", *reports.values()):
        res = ROUTES["least"](ball, sites)
        for fault in _closed_form_faults(mass(perturb(max_stable(ball), sites)), res, sites):
            reports[fault].fail(f"{fault}: {tag}")
        with _raised(f"wave raised at {tag}", reports["waves"]):
            wres = ROUTES["wave"](ball, sites)
            if wres.state != res.state or wres.odometer != res.odometer:
                reports["waves"].fail(f"waves: {tag}")


def relaxation_sweep(balls: dict, trials: int, seed: int) -> list:
    """Oracle-equivalence sweep; one report per compared quantity.

    ``balls`` maps each radius to its ball.  For every ball and every sampled
    perturbation set, the least-action route's odometer, final state, and
    mass loss must match the closed forms, and the wave route, which shares
    no code with it, must match it exactly.
    """
    reports = {
        "odometer": CheckReport("odometer equals min-formula over sweep"),
        "state": CheckReport("final state equals predicted family over sweep"),
        "mass": CheckReport("mass loss equals boundary closed form over sweep"),
        "waves": CheckReport("wave route equals direct relaxation over sweep"),
    }
    runs = 0
    for m, ball in balls.items():
        for sites in site_families(ball, trials, np.random.default_rng([seed, m])):
            runs += 1
            _sweep_trial(ball, sites, reports)
    for rep in reports.values():
        rep.note(f"{runs} perturbation trials")
    return list(reports.values())


def check_mass_ratio() -> CheckReport:
    """Mass-loss ratio table; its last entry must sit within _MASS_RATIO_TOL of sqrt 5."""
    rep = CheckReport(f"mass-loss ratio approaches sqrt(5), radius {_MASS_RATIO_RADIUS}")
    root5 = math.sqrt(5.0)
    rep.note(f"{'m':>3} {'size':>9} {'loss':>9} {'ratio':>12} {'|ratio-sqrt5|':>14}")
    for m in range(1, _MASS_RATIO_RADIUS + 1):
        ratio = cf.mass_loss_ratio(m)
        gap = abs(float(ratio) - root5)
        rep.note(f"{m:>3} {cf.ball_size(m):>9} {cf.mass_loss(m):>9} "
                 f"{float(ratio):>12.7f} {gap:>14.3e}")
    if gap >= _MASS_RATIO_TOL:  # the last entry's
        rep.fail(f"|ratio - sqrt(5)| = {gap} at m={_MASS_RATIO_RADIUS}, "
                 f"need < {_MASS_RATIO_TOL}")
    return rep


def _expected_first_wave(ball: Ball) -> np.ndarray:
    vals = np.full(ball.n, 6, dtype=np.int64)
    boundary = ball.level == ball.radius
    vals[boundary & (ball.vtype == VertexType.FIRST)] = 2
    vals[boundary & (ball.vtype == VertexType.SECOND)] = 3
    return vals


def check_wave_profiles(balls: dict) -> CheckReport:
    """First-wave profile, second-wave restriction, counts, nested fronts.

    Runs on every ball of ``balls`` (radius -> Ball); the second-wave check
    needs the ball one radius smaller in the mapping too.  Front k = 1..m+1
    of the root's waves must have ball_size(m + 1 - k) vertices.
    """
    rep = CheckReport("wave fronts and profiles")
    prev_first_wave = {}
    for m, ball in balls.items():
        with _raised(f"m={m}: a wave route raised", rep):
            w1 = wave(max_stable(ball), 0)
            if not np.array_equal(w1.grains, _expected_first_wave(ball)):
                rep.fail(f"m={m}: first wave profile at the root is wrong")
            prev_first_wave[m] = w1.grains
            if m - 1 in prev_first_wave:
                w2 = wave(w1, 0)
                inner = prev_first_wave[m - 1]
                if not np.array_equal(w2.grains[:inner.size], inner):
                    rep.fail(f"m={m}: second wave does not restrict to the "
                             f"radius-{m - 1} first wave")
            wres = wave_relax(ball, 0)
            if wres.wave_count != m + 1:
                rep.fail(f"m={m}: {wres.wave_count} waves at the root, expected {m + 1}")
            for a, b in zip(wres.fronts, wres.fronts[1:]):
                if not set(b.tolist()) <= set(a.tolist()):
                    rep.fail(f"m={m}: wave fronts are not nested")
                    break
            sizes = [len(front) for front in wres.fronts]
            want = [cf.ball_size(m + 1 - k) for k in range(1, m + 2)]
            rep.note(f"m={m}: front sizes {sizes}")
            if sizes != want:
                rep.fail(f"m={m}: front sizes {sizes}, expected ball sizes {want}")
    rep.note(f"radii {list(balls)}")
    return rep


def check_abelian(seed: int = DEFAULT_SEED) -> CheckReport:
    """Least action and random legal toppling orders all land on relax's state and odometer."""
    rep = CheckReport(f"order independence: {_ABELIAN_STATES} states x "
                      f"{_ABELIAN_ORDERS} orders, radius {_ABELIAN_RADIUS}")
    ball = build_ball(_ABELIAN_RADIUS)
    rng = np.random.default_rng([seed, 99])
    for i in range(_ABELIAN_STATES):
        grains = rng.integers(0, 14, size=ball.n, dtype=np.int64)
        state = State(ball, grains)
        with _raised(f"state {i}: a route raised", rep):
            base = relax(state)
            least = relax_least(state)
            if least.state != base.state or least.odometer != base.odometer:
                rep.fail(f"state {i}: least action diverged")
            for j in range(_ABELIAN_ORDERS):
                order_rng = np.random.default_rng([seed, i, j])
                res = relax_random(state, order_rng)
                if res.state != base.state or res.odometer != base.odometer:
                    rep.fail(f"state {i} order {j}: random order diverged")
                    break
    return rep


def check_geometry() -> CheckReport:
    """Embedding invariants: edge lengths, angles, disk bound, neighbor recovery."""
    rep = CheckReport(f"embedding geometry on the radius-{_GEOMETRY_RADIUS} ball")
    ball = build_ball(_GEOMETRY_RADIUS)
    emb = build_embedding(ball)
    lengths = edge_lengths(emb)
    worst_len = float(np.abs(lengths - EDGE_LENGTH).max())
    rep.note(f"edge length spread {worst_len:.3e} (tolerance {_LENGTH_TOL:.0e})")
    if worst_len > _LENGTH_TOL:
        rep.fail("edge lengths drift beyond tolerance")
    angles = interior_angles(emb)
    worst_ang = float(np.abs(angles - 2.0 * math.pi / 7.0).max())
    rep.note(f"interior angle spread {worst_ang:.3e} (tolerance {_ANGLE_TOL:.0e})")
    if worst_ang > _ANGLE_TOL:
        rep.fail("interior angles drift beyond tolerance")
    radii = np.hypot(*klein(emb.vertex_pos).T)
    if float(radii.max()) >= 1.0:
        rep.fail("a Klein coordinate escaped the unit disk")
    sheet = np.abs(emb.vertex_pos[:, 0]**2 + emb.vertex_pos[:, 1]**2
                   - emb.vertex_pos[:, 2]**2 + 1.0)
    if float(sheet.max()) > 1e-9:
        rep.fail("a vertex left the hyperboloid sheet")
    mismatches = nearest_neighbor_mismatches(emb)
    if mismatches:
        rep.fail(f"{len(mismatches)} interior vertices whose 7 nearest points "
                 f"are not their neighbors")
    bfs = distance_profile(ball)
    if not np.array_equal(bfs, ball.level):
        rep.fail("BFS distances disagree with stored levels")
    return rep


def run_default_suite(radii, trials: int, seed: int) -> list:
    """The standard verification battery; returns every CheckReport."""
    balls = {m: build_ball(m) for m in radii}
    reports = [check_combinatorics()]
    reports += relaxation_sweep(balls, trials, seed)
    reports.append(check_mass_ratio())
    reports.append(check_wave_profiles(balls))
    reports.append(check_abelian(seed))
    reports.append(check_geometry())
    return reports
