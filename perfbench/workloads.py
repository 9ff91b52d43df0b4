"""The benchmark's workloads: inputs from a seed, the timed task, its checks.

Each workload calls heptapile only through attributes of the package and its
modules (``hp.relax``, ``hp.cli.main``), looked up at call time, so that the
tracer in ``spans.py`` sees every call.  It uses only API that the package's
planned changes keep: no ``Ball.adj``, no ``relax(multi_topple=...)``, no
``verify --jobs``, and no file header, hash value or byte-exact file size;
loaded files are compared as objects.

Why each workload exists, and which layers it loads and bypasses, is in
``README.md`` beside this file.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import re
from types import SimpleNamespace
from typing import Callable, NamedTuple


class Checks:
    """Counts exact comparisons and the ones that failed."""

    def __init__(self):
        self.total = 0
        self.failed = 0
        self.messages = []

    def expect(self, ok: bool, what: str) -> None:
        self.total += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


class Workload(NamedTuple):
    radii: tuple            # balls built in set-up
    setup_repeats: int      # set-ups per run; setup_s is their median
    prepare: Callable       # (hp, balls, seed, workdir) -> inputs
    task: Callable          # (hp, inputs) -> outputs; the timed region
    check: Callable         # (hp, inputs, outputs, checks); untimed
    counts: Callable        # (hp, inputs) -> exact per-layer counts per task


def _families(hp, ball, seed) -> list:
    """The root, one outer-ring site and a 5-site set, as verify.site_families draws them.

    The odometer, and with it the work of every route, depends only on the
    minimal level of a site set.  The 5-site set is therefore redrawn until
    that level is ``radius - 2``, its most frequent value, so that every seed
    asks for the same amount of work at different sites.
    """
    import numpy as np  # here, not at module level: the timed set-up imports numpy

    target = ball.radius - 2
    for attempt in itertools.count():
        rng = np.random.default_rng([seed, attempt])
        root, outer, five = hp.verify.site_families(ball, 3, rng)[:3]
        if min(int(ball.level[v]) for v in five) == target:
            return [root, outer, five]


# -- single_source_m12 -------------------------------------------------------

def _single_source_prepare(hp, balls, seed, workdir):
    ball = balls[12]
    return SimpleNamespace(ball=ball, families=_families(hp, ball, seed))


def _single_source_task(hp, inp):
    ball = inp.ball
    out = []
    for sites in inp.families:
        start = hp.perturb(hp.max_stable(ball), sites)
        res = hp.relax(start)
        waves = hp.wave_relax_multi(ball, sites)
        odom = hp.predicted_odometer(ball, sites)
        agree = {
            "queue state equals predicted_beta": res.state == hp.predicted_beta(ball, sites),
            "queue odometer equals predicted_odometer": res.odometer == odom,
            "wave state equals queue state": waves.state == res.state,
            "wave odometer equals queue odometer": waves.odometer == res.odometer,
            "mass loss equals mass_loss(m)":
                hp.mass(start) - hp.mass(res.state) == hp.mass_loss(ball.radius),
        }
        out.append((sites, res, waves, odom, agree))
    return out


def _single_source_check(hp, inp, out, checks):
    for sites, res, waves, odom, agree in out:
        for what, ok in agree.items():
            checks.expect(ok, f"{what}, sites {sites}")
        want = int(odom.counts.sum())
        checks.expect(res.topples == want,
                      f"queue topples {res.topples} != odometer sum {want}, sites {sites}")
        fronts = sum(len(front) for front in waves.fronts)
        checks.expect(fronts == want,
                      f"wave front sizes {fronts} != odometer sum {want}, sites {sites}")


def _single_source_counts(hp, inp):
    want = sum(int(hp.predicted_odometer(inp.ball, sites).counts.sum())
               for sites in inp.families)
    return {"sandpile.topples": want, "waves.front_vertices": want}


# -- verify_battery ----------------------------------------------------------

_VERIFY_SUMMARY = re.compile(r"^\[(PASS|FAIL)\] (.*)$", re.MULTILINE)


def _verify_prepare(hp, balls, seed, workdir):
    return SimpleNamespace(
        argv=["verify", "--m", "1..8", "--trials", "10", "--seed", str(seed)])


def _verify_task(hp, inp):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = hp.cli.main(inp.argv)
    return code, text.getvalue()


def _verify_check(hp, inp, out, checks):
    code, text = out
    checks.expect(code == 0, f"verify exited with {code}")
    verdicts = _VERIFY_SUMMARY.findall(text)
    # nine checks today; later versions may add checks, never drop them
    checks.expect(len(verdicts) >= 9, f"verify printed {len(verdicts)} verdicts")
    for status, name in verdicts:
        checks.expect(status == "PASS", f"verify: {name}")


# -- archive_render ----------------------------------------------------------

def _archive_prepare(hp, balls, seed, workdir):
    ball = balls[11]
    return SimpleNamespace(ball=ball, ball8=balls[8], dir=workdir,
                           sites=_families(hp, ball, seed)[2])


def _archive_task(hp, inp):
    ball, d = inp.ball, inp.dir
    hp.save_ball(ball, d / "m11.heptaball")
    loaded = hp.load_ball(d / "m11.heptaball")
    beta = hp.predicted_beta(ball, inp.sites)
    odom = hp.predicted_odometer(ball, inp.sites)
    hp.save_state(beta, d / "beta.heptastate")
    state = hp.load_state(d / "beta.heptastate", ball)
    hp.save_odometer(odom, d / "beta.heptaodom")
    odometer = hp.load_odometer(d / "beta.heptaodom", ball)
    emb = hp.build_embedding(inp.ball8)
    beta8 = hp.predicted_beta(inp.ball8, [0])
    svg = hp.render_state(beta8, emb, homothety=0.005)
    (d / "beta-m8.svg").write_text(svg, encoding="ascii")
    return loaded, beta, state, odom, odometer, beta8, svg


def _archive_check(hp, inp, out, checks):
    loaded, beta, state, odom, odometer, beta8, svg = out
    checks.expect(loaded == inp.ball, "loaded ball equals the saved ball")
    checks.expect(state == beta, "loaded state equals the saved state")
    checks.expect(odometer == odom, "loaded odometer equals the saved odometer")
    fills = hp.render.cell_fills(svg)
    checks.expect(sorted(fills) == list(range(inp.ball8.n)), "every cell is drawn")
    for v, fill in fills.items():
        checks.expect(fill == hp.DEFAULT_PALETTE[int(beta8.grains[v])],
                      f"fill of cell {v}")


def _no_counts(hp, inp):
    return {}


WORKLOADS = {
    "single_source_m12": Workload((12,), 3, _single_source_prepare,
                                  _single_source_task, _single_source_check,
                                  _single_source_counts),
    "verify_battery": Workload((), 9, _verify_prepare, _verify_task,
                               _verify_check, _no_counts),
    "archive_render": Workload((11, 8), 5, _archive_prepare, _archive_task,
                               _archive_check, _no_counts),
}
