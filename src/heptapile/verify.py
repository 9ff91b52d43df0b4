"""Cross-checks between the simulation engines and the closed forms.

Each runner exercises one acceptance-grade property and returns a CheckReport;
the CLI ``verify`` subcommand and the acceptance test suite both drive these.
All randomness flows from one seed so reports are reproducible.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import closed_form as cf
from .ball import Ball, VertexType, build_ball, distance_profile
from .geometry import (EDGE_LENGTH, build_embedding, edge_lengths,
                       interior_angles, klein, nearest_neighbor_mismatches)
from .sandpile import State, mass, max_stable, perturb, relax, relax_random
from .waves import wave, wave_relax, wave_relax_multi

DEFAULT_SEED = 7


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


def resolve_jobs(requested=None) -> int:
    """Worker count for independent trials, capped by HEPTAPILE_THREADS."""
    jobs = int(requested) if requested else 1
    cap = os.environ.get("HEPTAPILE_THREADS", "").strip()
    if cap:
        try:
            jobs = min(jobs, int(cap))
        except ValueError as exc:
            raise ValueError(f"HEPTAPILE_THREADS={cap!r} is not an integer") from exc
    return max(1, jobs)


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


def check_combinatorics(max_radius: int = 12) -> CheckReport:
    """Generated ring populations and ball sizes match the Fibonacci forms.

    Ring l is the same in every ball of radius at least l, so ball m is the
    prefix of the largest ball that ends with ring m.
    """
    rep = CheckReport(f"ring combinatorics, radii 1..{max_radius}")
    ball = build_ball(max_radius)
    for m in range(1, max_radius + 1):
        ring = ball.ring(m)
        nf = int(np.count_nonzero(ball.vtype[ring.start:ring.stop] == VertexType.FIRST))
        got = (ring.stop, nf, len(ring) - nf)
        want = (cf.ball_size(m), *cf.level_counts(m))
        if got != want:
            rep.fail(f"m={m}: size and ring-{m} type counts {got}, closed form {want}")
    rep.note(f"largest ball checked: {ball.n} vertices")
    return rep


def _sweep_trial(ball: Ball, sites: list) -> list:
    """Run one perturbation through every route; returns failure messages."""
    bad = []
    start = perturb(max_stable(ball), sites)
    res = relax(start)
    m = ball.radius
    tag = f"m={m} sites={sites}"
    if res.odometer != cf.predicted_odometer(ball, sites):
        bad.append(f"odometer: {tag}")
    if res.state != cf.predicted_beta(ball, sites):
        bad.append(f"state: {tag}")
    if mass(start) - mass(res.state) != cf.mass_loss(m):
        bad.append(f"mass: {tag}")
    wres = wave_relax_multi(ball, sites)
    if wres.state != res.state or wres.odometer != res.odometer:
        bad.append(f"waves: {tag}")
    return bad


def relaxation_sweep(radii: Iterable[int] = range(1, 9), trials: int = 10,
                     seed: int = DEFAULT_SEED, jobs=None,
                     balls: dict | None = None) -> list:
    """Oracle-equivalence sweep; one report per compared quantity.

    For every radius and every sampled perturbation set, the queue engine's
    odometer, final state, and mass loss must match the closed forms, and the
    wave route must match the queue engine exactly.
    """
    reports = {
        "odometer": CheckReport("odometer equals min-formula over sweep"),
        "state": CheckReport("final state equals predicted family over sweep"),
        "mass": CheckReport("mass loss equals boundary closed form over sweep"),
        "waves": CheckReport("wave route equals direct relaxation over sweep"),
    }
    work = []
    for m in radii:
        ball = balls[m] if balls else build_ball(m)
        rng = np.random.default_rng([seed, m])
        for sites in site_families(ball, trials, rng):
            work.append((ball, sites))
    jobs = resolve_jobs(jobs)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            failures = list(pool.map(lambda t: _sweep_trial(*t), work))
    else:
        failures = [_sweep_trial(ball, sites) for ball, sites in work]
    for msgs in failures:
        for msg in msgs:
            kind = msg.split(":", 1)[0]
            reports[kind].fail(msg)
    for rep in reports.values():
        rep.note(f"{len(work)} perturbation trials")
    return list(reports.values())


def check_mass_ratio(max_radius: int = 10, tol: float = 1e-3) -> CheckReport:
    """Mass-loss ratio table; the radius-10 entry must sit within tol of sqrt 5."""
    rep = CheckReport(f"mass-loss ratio approaches sqrt(5), radius {max_radius}")
    root5 = math.sqrt(5.0)
    rep.note(f"{'m':>3} {'size':>9} {'loss':>9} {'ratio':>12} {'|ratio-sqrt5|':>14}")
    final_gap = None
    for m in range(1, max_radius + 1):
        ratio = cf.mass_loss_ratio(m)
        gap = abs(float(ratio) - root5)
        rep.note(f"{m:>3} {cf.ball_size(m):>9} {cf.mass_loss(m):>9} "
                 f"{float(ratio):>12.7f} {gap:>14.3e}")
        final_gap = gap
    if final_gap is None or final_gap >= tol:
        rep.fail(f"|ratio - sqrt(5)| = {final_gap} at m={max_radius}, need < {tol}")
    return rep


def _expected_first_wave(ball: Ball) -> np.ndarray:
    vals = np.full(ball.n, 6, dtype=np.int64)
    boundary = ball.level == ball.radius
    vals[boundary & (ball.vtype == VertexType.FIRST)] = 2
    vals[boundary & (ball.vtype == VertexType.SECOND)] = 3
    return vals


def check_wave_profiles(radii: Iterable[int] = range(1, 9),
                        balls: dict | None = None) -> CheckReport:
    """First-wave profile, second-wave restriction, counts, nested fronts.

    Front k = 1..m+1 of the root's waves must have ball_size(m + 1 - k) vertices.
    """
    rep = CheckReport("wave fronts and profiles")
    prev_first_wave = {}
    for m in radii:
        ball = balls[m] if balls else build_ball(m)
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
    rep.note(f"radii {list(radii)}")
    return rep


def check_abelian(radius: int = 4, n_states: int = 10, n_orders: int = 20,
                  seed: int = DEFAULT_SEED) -> CheckReport:
    """Random legal toppling orders all land on one stabilization and odometer."""
    rep = CheckReport(
        f"order independence: {n_states} states x {n_orders} orders, radius {radius}")
    ball = build_ball(radius)
    rng = np.random.default_rng([seed, 99])
    for i in range(n_states):
        grains = rng.integers(0, 14, size=ball.n, dtype=np.int64)
        state = State(ball, grains)
        base = relax(state)
        alt = relax(state, multi_topple=True)
        if alt.state != base.state or alt.odometer != base.odometer:
            rep.fail(f"state {i}: multi-topple schedule diverged")
        for j in range(n_orders):
            order_rng = np.random.default_rng([seed, i, j])
            res = relax_random(state, order_rng)
            if res.state != base.state or res.odometer != base.odometer:
                rep.fail(f"state {i} order {j}: random order diverged")
                break
    return rep


def check_geometry(radius: int = 5, length_tol: float = 1e-9,
                   angle_tol: float = 1e-6) -> CheckReport:
    """Embedding invariants: edge lengths, angles, disk bound, neighbor recovery."""
    rep = CheckReport(f"embedding geometry on the radius-{radius} ball")
    ball = build_ball(radius)
    emb = build_embedding(ball)
    lengths = edge_lengths(emb)
    worst_len = float(np.abs(lengths - EDGE_LENGTH).max())
    rep.note(f"edge length spread {worst_len:.3e} (tolerance {length_tol:.0e})")
    if worst_len > length_tol:
        rep.fail("edge lengths drift beyond tolerance")
    angles = interior_angles(emb)
    worst_ang = float(np.abs(angles - 2.0 * math.pi / 7.0).max())
    rep.note(f"interior angle spread {worst_ang:.3e} (tolerance {angle_tol:.0e})")
    if worst_ang > angle_tol:
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


def run_default_suite(radii=range(1, 7), trials: int = 10,
                      seed: int = DEFAULT_SEED, jobs=None,
                      max_combinatorics: int = 12,
                      geometry_radius: int = 5) -> list:
    """The standard verification battery; returns every CheckReport."""
    balls = {m: build_ball(m) for m in radii}
    reports = [check_combinatorics(max_combinatorics)]
    reports += relaxation_sweep(radii, trials, seed, jobs, balls=balls)
    reports.append(check_mass_ratio())
    reports.append(check_wave_profiles(radii, balls=balls))
    reports.append(check_abelian(seed=seed))
    reports.append(check_geometry(geometry_radius))
    return reports
