"""Command-line front end: gen | relax | verify | bench | render."""

from __future__ import annotations

import argparse
import resource
import sys
import time

import numpy as np

from . import closed_form as cf
from .ball import _require_memory, build_ball, load_ball, save_ball
from .errors import CapacityError, FormatError, InvariantError
from .geometry import build_embedding
from .render import load_palette, render_state
from .sandpile import (mass, max_stable, perturb, relax, save_odometer, save_state,
                       load_state)
from .verify import (DEFAULT_SEED, ROUTES, _closed_form_faults, _ring_types,
                     run_default_suite)


def _parse_range(text: str) -> range:
    """'2' -> range(2, 3); '1..6' -> range(1, 7)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if lo < 0 or hi < lo:
        raise ValueError(f"bad radius range {text!r}")
    return range(lo, hi + 1)


def _load_or_build(args):
    if getattr(args, "ball", None):
        return load_ball(args.ball)
    if args.m is None:
        raise ValueError("need -m RADIUS or --ball FILE")
    return build_ball(args.m)


def _pick_sites(args, ball) -> tuple:
    """Resolve the perturbation set; returns (sites, seed or None)."""
    chosen = [s is not None and s is not False
              for s in (args.p, args.p_random, args.p_origin)]
    if sum(chosen) != 1:
        raise ValueError("pick exactly one of --p / --p-random / --p-origin")
    if args.p_origin:
        return [0], None
    if args.p is not None:
        sites = [int(tok) for tok in args.p.split(",") if tok.strip()]
        if not sites:
            raise ValueError("perturbation set is empty")
        return sorted(set(sites)), None
    k = args.p_random
    if not 1 <= k <= ball.n:
        raise ValueError(f"--p-random {k} out of range for {ball.n} vertices")
    rng = np.random.default_rng(args.seed)
    sites = sorted(int(v) for v in rng.choice(ball.n, size=k, replace=False))
    return sites, args.seed


def cmd_gen(args) -> int:
    if args.out is None:
        args.out = f"ball-m{args.m}.heptaball"
    ball = build_ball(args.m)
    save_ball(ball, args.out)
    print(f"# gen  m={args.m}  vertices={ball.n}  out={args.out}")
    print(f"{'ring':>5} {'first':>8} {'second':>8} {'closed form':>14}")
    ok = True
    for lvl in range(1, args.m + 1):
        nf, ns = _ring_types(ball, lvl)
        want = cf.level_counts(lvl)
        match = (nf, ns) == want
        ok &= match
        print(f"{lvl:>5} {nf:>8} {ns:>8} {str(tuple(want)):>14}"
              + ("" if match else "  MISMATCH"))
    total_ok = ball.n == cf.ball_size(args.m)
    print(f"total {ball.n} vs closed form {cf.ball_size(args.m)}"
          + ("" if total_ok else "  MISMATCH"))
    return 0 if ok and total_ok else 1


def cmd_relax(args) -> int:
    ball = _load_or_build(args)
    if args.verify and ball.radius < 1:  # the closed forms start at radius 1
        raise ValueError("relax --verify needs a ball of radius 1 or more, "
                         "got radius 0")
    sites, seed = _pick_sites(args, ball)
    print(f"# relax  m={ball.radius}  vertices={ball.n}  seed={seed}")
    print(f"# sites ({len(sites)}): {','.join(map(str, sites))}")
    start = perturb(max_stable(ball), sites)
    t0 = time.perf_counter()
    res = relax(start)
    dt = time.perf_counter() - t0
    before, after = mass(start), mass(res.state)
    loss = before - after
    print(f"mass before={before} after={after} loss={loss} "
          f"loss/size={loss / ball.n:.6f}")
    print(f"topples={res.topples} dequeues={res.dequeues} seconds={dt:.3f}")
    save_state(res.state, args.state_out)
    save_odometer(res.odometer, args.odometer_out)
    print(f"wrote {args.state_out} and {args.odometer_out}")
    if args.verify:
        good = not _closed_form_faults(before, res, sites)
        print(f"[{'PASS' if good else 'FAIL'}] closed-form comparison")
        return 0 if good else 1
    return 0


def cmd_verify(args) -> int:
    if args.ball:
        try:
            ball = load_ball(args.ball)
        except (FormatError, OSError) as exc:
            print(f"[FAIL] ball file {args.ball}: {exc}")
            return 1
        print(f"[PASS] ball file {args.ball}: {ball.n} vertices, "
              f"radius {ball.radius}")
        return 0
    radii = _parse_range(args.m)
    if radii.start < 1:  # the radius-0 ball has no boundary and no ring
        raise ValueError(f"verify takes radii from 1 up (e.g. 1..6), got {args.m!r}")
    if args.trials < 4:  # the sweep always runs its four fixed site families
        raise ValueError(f"--trials must be at least 4, got {args.trials}")
    print(f"# verify  radii={args.m}  trials={args.trials}  seed={args.seed}")
    reports = run_default_suite(radii, args.trials, args.seed)
    failed = 0
    for rep in reports:
        print(rep.summary())
        for line in rep.lines:
            print("    " + line)
        failed += not rep.passed
    print(f"# {len(reports) - failed}/{len(reports)} checks passed")
    return 0 if failed == 0 else 1


def _bench_once(ball, method: str):
    """Relax one grain at the root by the named route; returns (RelaxResult, seconds)."""
    t0 = time.perf_counter()
    res = ROUTES[method](ball, [0])
    return res, time.perf_counter() - t0


def _bench_radius(ball, methods, repeat) -> bool:
    """Run every method ``repeat`` times on the ball; print its rows if all agree.

    The first run must give the closed forms' toppling total, and every run
    their odometer, state and mass loss, so no two methods that share code
    vouch for each other.  The start's mass is summed before any route
    runs.  Each result is dropped once it is judged, before the next run
    starts, so a run's peak is its own and that of the closed forms it is
    judged by.
    """
    m, rows = ball.radius, []
    start_mass = mass(perturb(max_stable(ball), [0]))
    for method in methods:
        best = None
        for _ in range(repeat):
            res, dt = _bench_once(ball, method)
            if not rows and best is None:
                expected = cf.total_topplings(m)
                if int(res.odometer.counts.sum()) != expected:
                    print(f"MISMATCH at m={m}: total topplings != {expected}")
                    return False
            faults = _closed_form_faults(start_mass, res, [0])
            if faults:
                print(f"MISMATCH at m={m}: {method} {faults[0]} != closed form")
                return False
            if best is None or dt < best[-1]:
                best = res.topples, res.dequeues, dt
            del res
        rows.append((method, *best))
    for method, topples, dequeues, dt in rows:
        print(f"{m:>3} {ball.n:>9} {method:>12} {dt:>10.4f} "
              f"{topples:>10} {dequeues:>10}")
    return True


def cmd_bench(args) -> int:
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    if not methods or set(methods) - ROUTES.keys():
        raise ValueError(f"methods must be drawn from {sorted(ROUTES)}")
    if args.repeat < 1:
        raise ValueError(f"--repeat must be at least 1, got {args.repeat}")
    radii = _parse_range(args.m)
    # the largest radius needs the most, so a range that cannot finish
    # is refused before its first ball is built
    _require_memory(radii[-1])
    print(f"# bench  radii={args.m}  methods={','.join(methods)}  "
          f"repeat={args.repeat}")
    print(f"{'m':>3} {'vertices':>9} {'method':>12} {'seconds':>10} "
          f"{'topples':>10} {'dequeues':>10}")
    for m in radii:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if not _bench_radius(build_ball(m), methods, args.repeat):
            return 1
        usage = resource.getrusage(resource.RUSAGE_SELF)
        peak = usage.ru_maxrss / 1024  # KiB on Linux
        print(f"# m={m} process peak RSS {peak:.1f} MiB")
        print(f"# m={m} minor page faults {usage.ru_minflt - faults}")
    return 0


def cmd_render(args) -> int:
    ball = _load_or_build(args)
    palette = load_palette(args.palette) if args.palette else None
    zoom = None
    if args.zoom:
        parts = [float(tok) for tok in args.zoom.split(",")]
        if len(parts) != 3:
            raise ValueError("--zoom needs cx,cy,magnification")
        zoom = tuple(parts)
    emb = build_embedding(ball)
    sources = [args.state is not None, args.beta_origin, args.max_stable]
    if sum(sources) > 1:
        raise ValueError("pick at most one of --state / --beta-origin / --max-stable")
    if args.state:
        state = load_state(args.state, ball)
    elif args.beta_origin:
        state = cf.predicted_beta(ball, [0])
    elif args.max_stable:
        state = max_stable(ball)
    else:
        state = None
    # the bare tiling has no fills, so it always draws edges
    edges = "both" if state is None and args.edges == "none" else args.edges
    svg = render_state(state, emb, palette=palette, homothety=args.homothety,
                       edges=edges, size=args.size, zoom=zoom,
                       skip_subpixel=not args.keep_subpixel)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    drawn = svg.count(' id="v')
    print(f"# render  m={ball.radius}  vertices={ball.n}  cells={drawn}  out={args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="heptapile",
        description="Sandpile experiments on hyperbolic heptagonal balls.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build a ball and write it to a file")
    p.add_argument("-m", type=int, required=True, help="ball radius")
    p.add_argument("--out", default=None, help="output path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("relax", help="stabilize a maximal state plus extra grains")
    p.add_argument("-m", type=int, default=None, help="ball radius")
    p.add_argument("--ball", default=None, help="read the ball from a file")
    p.add_argument("--p", default=None, help="comma list of vertex ids")
    p.add_argument("--p-random", type=int, default=None, metavar="K",
                   help="K random vertices (use --seed)")
    p.add_argument("--p-origin", action="store_true", help="single grain at the root")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--verify", action="store_true",
                   help="compare against the closed-form predictions")
    p.add_argument("--state-out", default="relaxed.heptastate")
    p.add_argument("--odometer-out", default="relaxed.heptaodom")
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser("verify", help="run the oracle-equivalence battery")
    p.add_argument("--m", default="1..6", help="radius range, e.g. 1..6")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--ball", default=None,
                   help="check that a ball file is the ball of its stated "
                        "radius, byte for byte, instead of running the battery")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time the relaxation engines")
    p.add_argument("--m", default="1..6", help="radius range, e.g. 1..10")
    p.add_argument("--methods", default=",".join(ROUTES))
    p.add_argument("--repeat", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="draw a state as an SVG")
    p.add_argument("-m", type=int, default=None, help="ball radius")
    p.add_argument("--ball", default=None, help="read the ball from a file")
    p.add_argument("--state", default=None, help="state file to color by")
    p.add_argument("--beta-origin", action="store_true",
                   help="color by the predicted single-grain final state")
    p.add_argument("--max-stable", action="store_true",
                   help="color by the all-sixes state")
    p.add_argument("--homothety", type=float, default=1.0)
    p.add_argument("--palette", default=None, help="palette override file")
    p.add_argument("--edges", default="none",
                   choices=["none", "dual", "primal", "both"])
    p.add_argument("--zoom", default=None, help="cx,cy,magnification")
    p.add_argument("--size", type=int, default=800)
    p.add_argument("--keep-subpixel", action="store_true",
                   help="draw cells even when smaller than a pixel")
    p.add_argument("--out", default="render.svg")
    p.set_defaults(func=cmd_render)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapacityError, FormatError, InvariantError, ValueError,
            OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
