import re
import weakref

import pytest

from heptapile import (InvariantError, Odometer, State, ball as ball_module, ball_size,
                       build_ball, cli, closed_form, level_counts, load_ball, load_state,
                       max_stable, perturb, relax, save_ball, verify)
from heptapile.cli import main
from heptapile.render import DEFAULT_PALETTE, cell_fills, color_histogram
from heptapile.verify import ROUTES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_ball(tmp_path, capsys):
    out = tmp_path / "two.heptaball"
    code, text, _ = run(capsys, "gen", "-m", "2", "--out", str(out))
    assert code == 0
    assert "vertices=29" in text
    assert load_ball(out).n == 29


def test_gen_ring_table_matches_the_closed_forms(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "three.heptaball")
    code, text, _ = run(capsys, "gen", "-m", "3", "--out", out)
    assert code == 0
    assert "MISMATCH" not in text
    lines = text.splitlines()
    assert len(lines) == 6
    for lvl, line in enumerate(lines[2:5], 1):
        ring, first, second, closed = line.split(None, 3)
        want = level_counts(lvl)
        assert (int(ring), int(first), int(second)) == (lvl, *want)
        assert closed == str(tuple(want))
    assert lines[5] == f"total {ball_size(3)} vs closed form {ball_size(3)}"
    # a miscounted ring is flagged on its row and fails the command
    monkeypatch.setattr(cli, "_ring_types", lambda ball, lvl: (0, 0))
    code, text, _ = run(capsys, "gen", "-m", "3", "--out", out)
    assert code == 1
    assert text.count("MISMATCH") == 3


def test_gen_zero(tmp_path, capsys):
    out = tmp_path / "zero.heptaball"
    code, text, _ = run(capsys, "gen", "-m", "0", "--out", str(out))
    assert code == 0
    assert load_ball(out).n == 1


def test_gen_default_out_names_the_radius(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, text, _ = run(capsys, "gen", "-m", "1")
    assert code == 0
    assert "out=ball-m1.heptaball" in text
    assert load_ball(tmp_path / "ball-m1.heptaball").n == 8


def test_gen_capacity_error(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "-m", "64",
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert "64-bit" in err or "capacity" in err.lower() or "beyond" in err


def test_relax_origin_verifies(tmp_path, capsys):
    code, text, _ = run(capsys, "relax", "-m", "1", "--p-origin", "--verify",
                        "--state-out", str(tmp_path / "s.heptastate"),
                        "--odometer-out", str(tmp_path / "o.heptaodom"))
    assert code == 0
    assert "[PASS]" in text
    assert "loss=28" in text
    st = load_state(tmp_path / "s.heptastate", build_ball(1))
    assert st.grains.tolist() == [0] + [3] * 7


@pytest.mark.parametrize("source", ["m", "ball"])
def test_relax_verify_refuses_radius_zero(tmp_path, capsys, source):
    if source == "m":
        ball_args = ("-m", "0")
    else:
        save_ball(build_ball(0), tmp_path / "zero.heptaball")
        ball_args = ("--ball", str(tmp_path / "zero.heptaball"))
    state, odom = tmp_path / "s.heptastate", tmp_path / "o.heptaodom"
    code, text, err = run(capsys, "relax", *ball_args, "--p-origin", "--verify",
                          "--state-out", str(state), "--odometer-out", str(odom))
    assert code == 2
    assert "radius 1 or more" in err
    assert text == ""  # refused before relaxing
    assert not state.exists() and not odom.exists()


def test_relax_empty_sites_rejected(tmp_path, capsys):
    code, _, err = run(capsys, "relax", "-m", "3", "--p", "")
    assert code == 2
    assert "empty" in err


def test_relax_random_reproducible(tmp_path, capsys):
    args = ("relax", "-m", "2", "--p-random", "4", "--seed", "11",
            "--state-out", str(tmp_path / "s1"), "--odometer-out",
            str(tmp_path / "o1"), "--verify")
    code1, text1, _ = run(capsys, *args)
    code2, text2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    line1 = [l for l in text1.splitlines() if l.startswith("# sites")]
    line2 = [l for l in text2.splitlines() if l.startswith("# sites")]
    assert line1 == line2
    assert "seed=11" in text1


def test_relax_needs_exactly_one_site_mode(capsys):
    code, _, err = run(capsys, "relax", "-m", "1", "--p-origin", "--p", "0")
    assert code == 2
    assert "exactly one" in err


def test_verify_small_battery(capsys):
    code, text, _ = run(capsys, "verify", "--m", "1..2", "--trials", "4")
    assert code == 0
    assert text.count("[PASS]") == 9
    assert "[FAIL]" not in text
    assert "seed=7" in text


@pytest.mark.parametrize("route", ["least", "wave"])
def test_verify_reports_a_route_that_raises(capsys, monkeypatch, route):
    # a route's InvariantError is a FAIL line in the reports that compare
    # its result, and every other check still runs and prints its verdict
    def broken(ball, sites):
        raise InvariantError(f"{route} broke at m={ball.radius}")

    monkeypatch.setitem(verify.ROUTES, route, broken)
    code, text, err = run(capsys, "verify", "--m", "1..2", "--trials", "4")
    assert code == 1 and err == ""
    verdicts = re.findall(r"^\[(PASS|FAIL)\] (.*)$", text, re.MULTILINE)
    assert len(verdicts) == 9
    failed = {name for status, name in verdicts if status == "FAIL"}
    sweep = {name for _, name in verdicts[1:5]}
    assert failed == (sweep if route == "least" else {verdicts[4][1]})
    assert "wave route equals direct relaxation" in verdicts[4][1]
    assert f"FAIL {route} raised at m=2 sites=[0]: {route} broke at m=2" in text
    assert f"# {9 - len(failed)}/9 checks passed" in text


@pytest.mark.parametrize("radii", ["0", "0..2"])
def test_verify_rejects_radius_zero(capsys, radii):
    code, text, err = run(capsys, "verify", "--m", radii)
    assert code == 2
    assert "from 1 up" in err and repr(radii) in err
    assert text == ""  # refused before any check runs


@pytest.mark.parametrize("trials", ["0", "3"])
def test_verify_rejects_fewer_trials_than_fixed_families(capsys, monkeypatch, trials):
    called = []
    monkeypatch.setattr(cli, "run_default_suite", lambda *a: called.append(a))
    code, text, err = run(capsys, "verify", "--m", "1..2", "--trials", trials)
    assert (code, text, called) == (2, "", [])
    assert "--trials must be at least 4" in err


def test_verify_good_ball_file(tmp_path, capsys):
    path = tmp_path / "ok.heptaball"
    save_ball(build_ball(2), path)
    code, text, _ = run(capsys, "verify", "--ball", str(path))
    assert code == 0
    assert "[PASS]" in text


def test_verify_corrupted_ball_file(tmp_path, capsys):
    from heptapile.ball import serialize_ball
    path = tmp_path / "bad.heptaball"
    blob = bytearray(serialize_ball(build_ball(2)))
    # flip one digit in the first vertex line, leaving the CHECK line stale
    idx = blob.index(b"\n", blob.index(b"\n") + 1) + 1
    blob[idx + 10] ^= 1
    path.write_bytes(bytes(blob))
    code, text, _ = run(capsys, "verify", "--ball", str(path))
    assert code == 1
    assert "[FAIL]" in text


def test_verify_ball_file_with_out_of_range_level(tmp_path, capsys):
    # a valid checksum over a level beyond 32 bits: rejected as a bad file,
    # not reported as an internal error
    from heptapile.ball import _sign, serialize_ball
    lines = serialize_ball(build_ball(1)).splitlines()[:-1]
    tokens = lines[8].split()
    tokens[1] = b"%d" % 2**32
    lines[8] = b" ".join(tokens)
    path = tmp_path / "wide.heptaball"
    path.write_bytes(_sign(b"\n".join(lines) + b"\n"))
    code, text, _ = run(capsys, "verify", "--ball", str(path))
    assert code == 1
    assert "[FAIL]" in text


@pytest.mark.parametrize("kind, line", [("crossed", 10), ("reflected", 3)])
def test_forged_ball_file_refused_by_every_command(tmp_path, capsys, forged_balls,
                                                    kind, line):
    # the forgery keeps every degree, level and type, so only a comparison
    # with the built ball refuses it
    from heptapile.ball import serialize_ball
    path = tmp_path / "forged.heptaball"
    path.write_bytes(serialize_ball(forged_balls[kind]))
    message = f"line {line} differs from the radius-4 ball"
    code, text, _ = run(capsys, "verify", "--ball", str(path))
    assert code == 1
    assert f"[FAIL] ball file {path}: {message}" in text
    state, odom = tmp_path / "s.heptastate", tmp_path / "o.heptaodom"
    code, text, err = run(capsys, "relax", "--ball", str(path), "--p-origin", "--verify",
                          "--state-out", str(state), "--odometer-out", str(odom))
    assert (code, text) == (2, "")
    assert message in err
    assert not state.exists() and not odom.exists()
    out = tmp_path / "forged.svg"
    code, text, err = run(capsys, "render", "--ball", str(path), "--out", str(out))
    assert (code, text) == (2, "")
    assert message in err
    assert not out.exists()


def test_gen_refuses_a_huge_radius_at_once(tmp_path, capsys):
    out = tmp_path / "huge.heptaball"
    code, text, err = run(capsys, "gen", "-m", "100000000", "--out", str(out))
    assert (code, text) == (2, "")
    assert "beyond radius 19" in err
    assert not out.exists()


def test_bench_methods_agree(capsys):
    code, text, _ = run(capsys, "bench", "--m", "1..2")
    assert code == 0
    assert "MISMATCH" not in text
    for method in ("batch", "least", "wave", "closed"):
        assert method in text
    lines = text.splitlines()
    for m in (1, 2):
        peak = next(i for i, line in enumerate(lines)
                    if line.startswith(f"# m={m} process peak RSS "))
        assert re.fullmatch(rf"# m={m} process peak RSS \d+\.\d MiB", lines[peak])
        assert re.fullmatch(rf"# m={m} minor page faults \d+", lines[peak + 1])


def test_bench_holds_at_most_two_results(capsys, monkeypatch):
    # when a run starts, no earlier run's result may still be alive: each is
    # judged by the closed forms and dropped, so at most two results, a
    # run's own and a closed form it is judged by, are alive at once
    results = []

    def tracked(ball, method):
        assert all(ref() is None for ref in results)
        out = bench_once(ball, method)
        results.append(weakref.ref(out[0].state.grains))
        return out

    bench_once = cli._bench_once
    monkeypatch.setattr(cli, "_bench_once", tracked)
    code, text, _ = run(capsys, "bench", "--m", "3..4", "--repeat", "2")
    assert code == 0 and "MISMATCH" not in text
    assert len(results) == 16


@pytest.mark.parametrize("field", ["state", "odometer"])
def test_bench_judges_its_first_result_by_the_closed_forms(capsys, monkeypatch, field):
    # batch and wave topple through one kernel, so a fault there would make
    # them agree with each other: one grain or topple moved from the root to
    # the last vertex in both keeps every total, and the closed forms catch it
    def shifted(ball, method):
        res, dt = bench_once(ball, method)
        values = (res.state.grains if field == "state" else res.odometer.counts).copy()
        values[0] -= 1
        values[-1] += 1
        if field == "state":
            return res._replace(state=State(ball, values)), dt
        return res._replace(odometer=Odometer(ball, values)), dt

    bench_once = cli._bench_once
    monkeypatch.setattr(cli, "_bench_once", shifted)
    code, text, _ = run(capsys, "bench", "--m", "3", "--methods", "batch,wave")
    assert code == 1
    assert f"MISMATCH at m=3: batch {field} != closed form" in text


@pytest.mark.parametrize("field", ["state", "odometer"])
def test_bench_judges_every_later_result_by_the_closed_forms(capsys, monkeypatch, field):
    # the first result is dropped once it equals the closed forms, so a
    # later method that alone moves one grain or topple from the root to
    # the last vertex must still fail, by the closed forms
    def shifted(ball, method):
        res, dt = bench_once(ball, method)
        if method != "wave":
            return res, dt
        values = (res.state.grains if field == "state" else res.odometer.counts).copy()
        values[0] -= 1
        values[-1] += 1
        if field == "state":
            return res._replace(state=State(ball, values)), dt
        return res._replace(odometer=Odometer(ball, values)), dt

    bench_once = cli._bench_once
    monkeypatch.setattr(cli, "_bench_once", shifted)
    code, text, _ = run(capsys, "bench", "--m", "3", "--methods", "batch,least,wave,closed")
    assert code == 1
    assert f"MISMATCH at m=3: wave {field} != closed form" in text


@pytest.mark.parametrize("radii", ["0", "0..2"])
def test_bench_rejects_radius_zero(capsys, monkeypatch, radii):
    # the closed forms that judge every run start at radius 1: the range is
    # refused before the header is printed or any ball is built
    built = []
    monkeypatch.setattr(cli, "build_ball", lambda m: built.append(m))
    code, text, err = run(capsys, "bench", "--m", radii)
    assert (code, text, built) == (2, "", [])
    assert err.startswith("error: ") and "from 1 up" in err and repr(radii) in err


def test_bench_refuses_a_range_that_cannot_fit_before_building(capsys, monkeypatch):
    # one byte short of the radius-8 ball's model; the top radius is
    # checked before any ball
    built = []
    monkeypatch.setattr(cli, "build_ball", lambda m: built.append(m))
    room = ball_size(8) * ball_module._BYTES_PER_VERTEX - 1
    monkeypatch.setattr(ball_module, "_physical_memory", lambda: room)
    code, text, err = run(capsys, "bench", "--m", "1..8", "--methods", "batch,wave")
    assert (code, text, built) == (2, "", [])
    assert "ball of radius 8" in err and "needs about" in err


def test_bench_judges_mass_loss_by_the_closed_form(capsys, monkeypatch):
    # a mass-loss form one grain high fails the first result, though every
    # route agrees on its state, odometer and toppling total
    mass_loss = closed_form.mass_loss
    monkeypatch.setattr(closed_form, "mass_loss", lambda m: mass_loss(m) + 1)
    code, text, _ = run(capsys, "bench", "--m", "3", "--methods", "batch,wave")
    assert code == 1
    assert "MISMATCH at m=3: batch mass != closed form" in text


def test_bench_rejects_unknown_method(capsys):
    for methods in ("magic", "least,magic", "naive", "", ","):
        code, text, err = run(capsys, "bench", "--m", "1..1", "--methods", methods)
        assert (code, text) == (2, "")
        assert all(repr(name) in err for name in ROUTES)


def test_render_beta_origin(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code, text, _ = run(capsys, "render", "-m", "2", "--beta-origin",
                        "--out", str(out))
    assert code == 0
    svg = out.read_text()
    assert color_histogram(svg) == {"#000000": 1, "#585858": 21,
                                    "#c8c8c8": 7}


def test_render_colors_a_relaxed_state_file(tmp_path, capsys):
    state, out = tmp_path / "s.heptastate", tmp_path / "s.svg"
    code, _, _ = run(capsys, "relax", "-m", "3", "--p", "5,40", "--state-out",
                     str(state), "--odometer-out", str(tmp_path / "o.heptaodom"))
    assert code == 0
    code, _, _ = run(capsys, "render", "-m", "3", "--state", str(state),
                     "--out", str(out))
    assert code == 0
    b = build_ball(3)
    grains = relax(perturb(max_stable(b), [5, 40])).state.grains.tolist()
    fills = cell_fills(out.read_text())
    assert len(set(grains[v] for v in fills)) > 1
    assert fills == {v: DEFAULT_PALETTE[grains[v]] for v in fills}


def test_render_with_palette_and_zoom(tmp_path, capsys):
    pal = tmp_path / "pal.cfg"
    pal.write_text("6=#123456\n")
    out = tmp_path / "z.svg"
    code, _, _ = run(capsys, "render", "-m", "2", "--max-stable", "--palette",
                     str(pal), "--zoom", "0.0,0.0,2.0", "--out", str(out))
    assert code == 0
    fills = cell_fills(out.read_text())
    assert set(fills.values()) == {"#123456"}
    assert 0 < len(fills) < 29  # the window keeps the middle, culls the rim


@pytest.mark.parametrize("source", [(), ("--max-stable",), ("--beta-origin",)])
def test_render_keep_subpixel_draws_every_cell(tmp_path, capsys, source):
    # the bare tiling culls the rim like a colored state does, and with
    # --keep-subpixel both draw every cell of the radius-7 ball; the summary
    # line gives the ball size and the number of cells drawn
    out = tmp_path / "t.svg"
    drawn = []
    for keep in ((), ("--keep-subpixel",)):
        code, text, _ = run(capsys, "render", "-m", "7", "--edges", "dual", *source,
                            *keep, "--out", str(out))
        assert code == 0
        drawn.append(out.read_text().count(' id="v'))
        assert f"  vertices=4264  cells={drawn[-1]}  " in text
    assert drawn == [421, 4264]


def test_render_bad_zoom(tmp_path, capsys):
    code, _, err = run(capsys, "render", "-m", "1", "--max-stable", "--zoom",
                       "1,2", "--out", str(tmp_path / "n.svg"))
    assert code == 2
    assert "zoom" in err


def test_render_rejects_nonpositive_size(tmp_path, capsys):
    out = tmp_path / "n.svg"
    code, _, err = run(capsys, "render", "-m", "2", "--size", "-50",
                       "--out", str(out))
    assert code == 2 and "at least 1 pixel" in err
    assert not out.exists()


def test_bench_rejects_zero_repeat(capsys):
    code, _, err = run(capsys, "bench", "--m", "1..2", "--repeat", "0")
    assert code == 2
    assert "error:" in err and "--repeat" in err
