import os

import pytest

from heptapile import build_ball, load_ball, load_state, save_ball
from heptapile.cli import main
from heptapile.render import cell_fills, color_histogram


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


def test_gen_zero(tmp_path, capsys):
    out = tmp_path / "zero.heptaball"
    code, text, _ = run(capsys, "gen", "-m", "0", "--out", str(out))
    assert code == 0
    assert load_ball(out).n == 1


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


@pytest.mark.parametrize("radii", ["0", "0..2"])
def test_verify_rejects_radius_zero(capsys, radii):
    code, text, err = run(capsys, "verify", "--m", radii)
    assert code == 2
    assert "from 1 up" in err and repr(radii) in err
    assert text == ""  # refused before any check runs


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


def test_bench_methods_agree(capsys):
    code, text, _ = run(capsys, "bench", "--m", "1..2")
    assert code == 0
    assert "MISMATCH" not in text
    for method in ("naive", "multitopple", "wave", "closed"):
        assert method in text


def test_bench_rejects_unknown_method(capsys):
    code, _, err = run(capsys, "bench", "--m", "1..1", "--methods", "magic")
    assert code == 2


def test_render_beta_origin(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code, text, _ = run(capsys, "render", "-m", "2", "--beta-origin",
                        "--out", str(out))
    assert code == 0
    svg = out.read_text()
    assert color_histogram(svg) == {"#000000": 1, "#585858": 21,
                                    "#c8c8c8": 7}


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


def test_render_bad_zoom(tmp_path, capsys):
    code, _, err = run(capsys, "render", "-m", "1", "--max-stable", "--zoom",
                       "1,2", "--out", str(tmp_path / "n.svg"))
    assert code == 2
    assert "zoom" in err


def test_threads_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("HEPTAPILE_THREADS", "1")
    code, text, _ = run(capsys, "verify", "--m", "1..1", "--trials", "4",
                        "--jobs", "8")
    assert code == 0
    assert "jobs=1" in text


def test_threads_env_garbage(capsys, monkeypatch):
    monkeypatch.setenv("HEPTAPILE_THREADS", "lots")
    code, _, err = run(capsys, "verify", "--m", "1..1", "--trials", "4",
                       "--jobs", "2")
    assert code == 2
    assert "HEPTAPILE_THREADS" in err
