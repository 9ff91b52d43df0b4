"""Acceptance gate: every release criterion, one verdict line each.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s`` or on failure) and asserts the same verdict, so the pytest
report carries one line per criterion as well.  Criteria 2 through 5 share
a single relaxation sweep over radii 1..8 with ten perturbation sets per
radius; the sweep is run once per session.

Settings and tolerances are pinned and nowhere looser: those of
``heptapile.verify``'s fixed checks by ``test_pinned_settings``, the two
timings by criterion 9:
  ring combinatorics                   radii 1..12
  mass ratio vs sqrt(5) at radius 10   < 1e-3
  order independence on radius 4       10 states x 20 orders
  edge lengths on the radius-5 ball    < 1e-9
  interior angles                      < 1e-6
  relax of the loaded ball             < 10 s
  closed-form prediction               < 1 ms
Everything else is exact equality.
"""

import json
import pathlib
import time

import pytest

from heptapile import (build_ball, build_embedding, max_stable, perturb,
                       predicted_beta, relax, relax_least, render_state, wave,
                       wave_relax_multi)
from heptapile import closed_form as cf, verify
from heptapile.render import color_histogram
from heptapile.sandpile import serialize_odometer, serialize_state
from heptapile.verify import (check_abelian, check_combinatorics,
                              check_geometry, check_mass_ratio,
                              check_wave_profiles, relaxation_sweep)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

SWEEP_RADII = range(1, 9)
SWEEP_TRIALS = 10
SWEEP_SEED = 7


def verdict(label: str, rep) -> None:
    print(f"[{'PASS' if rep.passed else 'FAIL'}] {label}")
    assert rep.passed, "\n".join(rep.lines)


def verdict_flag(label: str, passed: bool, detail: str = "") -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {label}")
    assert passed, detail


@pytest.fixture(scope="session")
def sweep():
    """One pass over radii 1..8: odometer, state, mass, wave reports."""
    balls = {m: build_ball(m) for m in SWEEP_RADII}
    reports = relaxation_sweep(balls, SWEEP_TRIALS, SWEEP_SEED)
    return {rep.name.split(" ", 1)[0]: rep for rep in reports}, balls


def test_pinned_settings():
    got = (verify._COMBINATORICS_RADIUS,
           verify._MASS_RATIO_RADIUS, verify._MASS_RATIO_TOL,
           verify._ABELIAN_RADIUS, verify._ABELIAN_STATES, verify._ABELIAN_ORDERS,
           verify._GEOMETRY_RADIUS, verify._LENGTH_TOL, verify._ANGLE_TOL)
    want = (12, 10, 1e-3, 4, 10, 20, 5, 1e-9, 1e-6)
    verdict_flag("pinned settings: radius 12; radius 10, tol 1e-3; radius 4, "
                 "10 states, 20 orders; radius 5, tols 1e-9 and 1e-6",
                 got == want, f"settings {got}, pinned {want}")


def test_criterion_1_ring_combinatorics():
    verdict("criterion 1: ring counts and ball sizes, radii 1..12",
            check_combinatorics())


def test_criterion_2_odometer_formula(sweep):
    verdict("criterion 2: odometer equals min-formula, radii 1..8 x 10 sets",
            sweep[0]["odometer"])


def test_criterion_3_final_state(sweep):
    verdict("criterion 3: final state equals predicted family, same sweep",
            sweep[0]["final"])


def test_criterion_4_mass_loss(sweep):
    mass_rep = sweep[0]["mass"]
    ratio_rep = check_mass_ratio()
    ok = mass_rep.passed and ratio_rep.passed
    verdict_flag("criterion 4: mass loss closed form + sqrt(5) ratio at "
                 "radius 10 (tol 1e-3)", ok,
                 "\n".join(mass_rep.lines + ratio_rep.lines))


def test_criterion_5_waves(sweep):
    reports, balls = sweep
    wave_rep = reports["wave"]
    profile_rep = check_wave_profiles(balls)
    ok = wave_rep.passed and profile_rep.passed
    verdict_flag("criterion 5: wave profiles 1..8, second-wave restriction "
                 "2..8, wave route == direct relaxation", ok,
                 "\n".join(wave_rep.lines + profile_rep.lines))


def test_criterion_6_order_independence():
    verdict("criterion 6: 10 states x 20 toppling orders agree on radius 4",
            check_abelian())


def test_criterion_7_geometry():
    verdict("criterion 7: embedding on radius 5 (edges 1e-9, angles 1e-6, "
            "Klein disk, 7-NN)", check_geometry())


def _panel_state(ball, kind: str):
    if kind == "beta-origin":
        return predicted_beta(ball, [0])
    if kind == "wave1":
        return wave(max_stable(ball), 0)
    if kind == "wave2":
        return wave(wave(max_stable(ball), 0), 0)
    raise ValueError(kind)


def test_criterion_8_renders():
    failures = []
    emb2 = build_embedding(build_ball(2))
    got = render_state(predicted_beta(emb2.ball, [0]), emb2)
    want = (GOLDEN / "beta-ball2-origin.svg").read_text(encoding="ascii")
    if got != want:
        failures.append("radius-2 perturbed-root render is not byte-identical "
                        "to the committed golden")

    summaries = json.loads(
        (GOLDEN / "render-summaries.json").read_text(encoding="ascii"))
    embeddings = {2: emb2}
    for key, entry in sorted(summaries.items()):
        m = entry["m"]
        if m not in embeddings:
            embeddings[m] = build_embedding(build_ball(m))
        emb = embeddings[m]
        text = render_state(_panel_state(emb.ball, entry["state"]), emb,
                            **entry["options"])
        hist = dict(sorted(color_histogram(text).items()))
        if sum(hist.values()) != entry["cells"] or hist != entry["fills"]:
            failures.append(f"{key}: got {sum(hist.values())} cells {hist}, "
                            f"golden {entry['cells']} cells {entry['fills']}")
    verdict_flag("criterion 8: exact radius-2 golden SVG + structural "
                 "goldens for the large panels", not failures,
                 "\n".join(failures))


def test_criterion_9_performance():
    failures = []
    m = 10
    ball = build_ball(m)
    start = perturb(max_stable(ball), [0])

    t0 = time.perf_counter()
    res = relax(start)
    relax_s = time.perf_counter() - t0
    if relax_s >= 10.0:
        failures.append(f"relax took {relax_s:.2f} s, budget 10 s")
    topples = int(res.odometer.counts.sum())
    if topples != cf.total_topplings(m):
        failures.append(f"{topples} topplings, closed sum "
                        f"{cf.total_topplings(m)}")

    predicted_beta(ball, [0])  # warm up before timing the formula route
    closed_s = min(
        _timed(lambda: predicted_beta(ball, [0])) for _ in range(3))
    if closed_s >= 1e-3:
        failures.append(f"closed-form prediction took {closed_s * 1e3:.3f} ms,"
                        f" budget 1 ms")

    alt = relax_least(start)
    wav = wave_relax_multi(ball, [0])
    pred_state = predicted_beta(ball, [0])
    pred_odo = cf.predicted_odometer(ball, [0])
    state_blobs = {serialize_state(s)
                   for s in (res.state, alt.state, wav.state, pred_state)}
    odo_blobs = {serialize_odometer(o)
                 for o in (res.odometer, alt.odometer, wav.odometer, pred_odo)}
    if len(state_blobs) != 1 or len(odo_blobs) != 1:
        failures.append("serialized outputs differ between methods")

    detail = (f"relax {relax_s:.2f} s, closed form {closed_s * 1e6:.0f} us, "
              f"{topples} topplings")
    verdict_flag(f"criterion 9: performance on the radius-10 ball ({detail})",
                 not failures, "\n".join(failures))


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
