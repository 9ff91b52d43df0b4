import hashlib
import re

import numpy as np
import pytest

from heptapile import (State, build_ball, build_embedding, cell_fills,
                       color_histogram, max_stable, predicted_beta,
                       render_state)
from heptapile.render import (DEFAULT_PALETTE, SENTINEL_COLOR, _format_fixed,
                              load_palette, parse_palette)


@pytest.fixture(scope="module")
def emb2():
    return build_embedding(build_ball(2))


def test_reference_pattern_colors(emb2):
    beta = predicted_beta(emb2.ball, [0])
    svg = render_state(beta, emb2)
    fills = cell_fills(svg)
    assert len(fills) == 29
    assert fills[0] == DEFAULT_PALETTE[0]
    hist = color_histogram(svg)
    # center 0, all of ring 1 plus the 14 outer First cells at 3, Second at 5
    assert hist == {DEFAULT_PALETTE[0]: 1, DEFAULT_PALETTE[3]: 21,
                    DEFAULT_PALETTE[5]: 7}


def test_uniform_state_uniform_color(emb2):
    svg = render_state(max_stable(emb2.ball), emb2)
    assert set(cell_fills(svg).values()) == {DEFAULT_PALETTE[6]}


def test_output_deterministic(emb2):
    beta = predicted_beta(emb2.ball, [0])
    assert render_state(beta, emb2) == render_state(beta, emb2)


def test_six_decimal_coordinates(emb2):
    svg = render_state(max_stable(emb2.ball), emb2)
    for num in re.findall(r"points=\"([^\"]+)\"", svg)[:3]:
        for coord in num.replace(",", " ").split():
            assert re.fullmatch(r"-?\d+\.\d{6}", coord)


def test_mismatched_ball_rejected(emb2):
    other = build_ball(1)
    with pytest.raises(ValueError):
        render_state(max_stable(other), emb2)


def test_value_outside_palette_uses_sentinel(emb2):
    grains = max_stable(emb2.ball).grains.copy()
    grains[4] = 9
    with pytest.warns(UserWarning):
        svg = render_state(State(emb2.ball, grains), emb2)
    assert cell_fills(svg)[4] == SENTINEL_COLOR


def test_palette_parse_and_override(emb2):
    pal = parse_palette("0=#112233\n\n5=#ABCDEF\n")
    assert pal[0] == "#112233"
    assert pal[5] == "#abcdef"
    assert pal[6] == DEFAULT_PALETTE[6]
    beta = predicted_beta(emb2.ball, [0])
    svg = render_state(beta, emb2, palette=pal)
    assert cell_fills(svg)[0] == "#112233"


def test_palette_rejects_garbage():
    with pytest.raises(ValueError):
        parse_palette("0=#12345")
    with pytest.raises(ValueError):
        parse_palette("zero=#123456")
    with pytest.raises(ValueError):
        parse_palette("0 #123456")


def test_palette_file(tmp_path):
    p = tmp_path / "pal.cfg"
    p.write_text("7=#00ff00\n")
    assert load_palette(p)[7] == "#00ff00"


def test_edge_modes(emb2):
    phi = max_stable(emb2.ball)
    plain = render_state(phi, emb2, edges="none")
    dual = render_state(phi, emb2, edges="dual")
    primal = render_state(phi, emb2, edges="primal")
    both = render_state(phi, emb2, edges="both")
    assert "stroke" not in plain.split("<g>", 1)[1]
    assert 'stroke="' in dual.split("<g", 1)[1]
    assert primal.count("<line") == emb2.ball.edges()[0].size
    assert both.count("<line") == primal.count("<line")
    with pytest.raises(ValueError):
        render_state(phi, emb2, edges="wireframe")


def test_homothety_refits_viewport(emb2):
    phi = max_stable(emb2.ball)
    svg = render_state(phi, emb2, homothety=0.2)
    assert "circle" not in svg.split("<g>", 1)[1]  # no unit-circle rim drawn
    assert len(cell_fills(svg)) == 29
    with pytest.raises(ValueError):
        render_state(phi, emb2, homothety=0.0)


@pytest.mark.parametrize("size", [0, -50])
def test_nonpositive_size_is_refused(emb2, size):
    with pytest.raises(ValueError, match="at least 1 pixel"):
        render_state(max_stable(emb2.ball), emb2, size=size)


def test_zoom_culls_cells():
    ball = build_ball(4)
    emb = build_embedding(ball)
    phi = max_stable(ball)
    whole = render_state(phi, emb)
    window = render_state(phi, emb, zoom=(0.9, 0.0, 12.0))
    assert len(cell_fills(window)) < len(cell_fills(whole))


def test_subpixel_skip():
    ball = build_ball(8)
    emb = build_embedding(ball)
    phi = max_stable(ball)
    trimmed = render_state(phi, emb, skip_subpixel=True)
    kept = render_state(phi, emb, skip_subpixel=False)
    assert len(cell_fills(trimmed)) < ball.n
    assert len(cell_fills(kept)) == ball.n


def test_render_tiling(emb2):
    svg = render_state(None, emb2, edges="both")
    assert "<line" in svg
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")


# sha256 of the m=5 SVG of the origin beta under each option set, measured
# before the render was vectorized; the one-pass render must keep every byte
SVG_DIGESTS = {
    "default": ({}, "afe647e97bee165566c6d3ae130a9929aa439b5d6fc17d4d59b63f7e68c7b631"),
    "homothety": ({"homothety": 0.005},
                  "a8ed9ec0001e4f3cfe5d56323ba4a8a37907074514f76bc68d730a58d4b1333a"),
    "primal": ({"edges": "primal"},
               "3e0f0e5c84b6bf7e19c67f39599e83563e5e587f509be6eed4dd7990ca024991"),
    "dual": ({"edges": "dual"},
             "2e6733137998751d428f98409abf9fd288c0ea8bcf34a60e2c9960996a646ee0"),
    "both": ({"edges": "both"},
             "501162a3539dedd95dd5c322d4bb4a4aacfb50a049d5e0a0da6a2c54e7a1769e"),
    "zoom": ({"zoom": (0.9, 0.0, 12.0)},
             "f69e4e59001791418b1adc8897fd61d920a7403c396b1cdb3e46d912a8666f37"),
    "keep_subpixel": ({"skip_subpixel": False},
                      "1b43f0902951aae31dfe6cb6608bbd339a03730511d3ca935e7c2d43c24b18e2"),
}


@pytest.fixture(scope="module")
def emb5():
    return build_embedding(build_ball(5))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("case", sorted(SVG_DIGESTS))
def test_svg_bytes_pinned(case, emb5):
    options, digest = SVG_DIGESTS[case]
    assert _sha(render_state(predicted_beta(emb5.ball, [0]), emb5, **options)) == digest


def test_tiling_svg_bytes_pinned(emb5):
    assert _sha(render_state(None, emb5, edges="both")) == (
        "b13ea33b95ef564d856fe8054aeedbc462148efedf03640152e52a494e2ece3a")


def test_palette_override_svg_bytes_pinned(emb5):
    grains = predicted_beta(emb5.ball, [0]).grains.copy()
    grains[40] = 9
    with pytest.warns(UserWarning, match="grain value 9"):
        svg = render_state(State(emb5.ball, grains), emb5,
                           palette=parse_palette("3=#123456\n"))
    assert cell_fills(svg)[40] == SENTINEL_COLOR
    assert _sha(svg) == (
        "3ed6bb8a79caf442e0bf80e93accc333a939649cd24fc2def5582995f74bb0ea")


# sha256 of larger renders, taken before the coordinates were written in numpy
LARGE_SVG_DIGESTS = {
    # the archive_render benchmark's picture
    "m8_homothety": (8, {"homothety": 0.005},
                     "2267562e0eaad9821dc120561d59fc192e52c9ec0879afb4dcbd364951994624"),
    # numbers from -8012.76 to 4620.60, negatives and four whole digits
    "m6_zoomed_both": (6, {"edges": "both", "zoom": (0.5, -0.3, 20.0)},
                       "3c7bb92b69c8d8a52b5ef120b554bfa235ab8b9ff00a2497ebfe91b1d96e6fd9"),
}


@pytest.mark.parametrize("case", sorted(LARGE_SVG_DIGESTS))
def test_large_svg_bytes_pinned(case, ball_cache):
    m, options, digest = LARGE_SVG_DIGESTS[case]
    emb = build_embedding(ball_cache(m))
    assert _sha(render_state(predicted_beta(emb.ball, [0]), emb, **options)) == digest


def _spelled(values, seps=b" "):
    return "".join(f"{x:.6f}{chr(c)}" for x, c in zip(values, seps * len(values))).encode()


# products x * 1e6 within an ulp of a half, where rint of the float product
# and Python's rounding of the exact one part ways or come close to it
_NEAR_HALF = [2.5e-06, 3.5e-06, 4.5e-06, 1.25e-05, 1.35e-05]
_NEXT_TO_HALF = [float(np.nextafter((k + 0.5) / 1e6, to)) for k in (0, 2, 3, 12, 799_999)
                 for to in (-np.inf, np.inf)]
_FIXED_CASES = (_NEAR_HALF + [-x for x in _NEAR_HALF] + _NEXT_TO_HALF
                + [(k + 0.5) / 1e6 for k in (0, 2, 3, 12, 799_999)]
                + [1 / 128, -1 / 128, 3 / 64, 0.5e-6]  # exact ties, half to even
                + [0.0, -0.0, -1e-9, 1e-9, -4e-7, 5e-324, -5e-324]
                + [999.9999996, -999.9999996, 9.9999995, 0.9999999, 799.9999999]
                + [2**52 / 1e6, -2**52 / 1e6, float(np.nextafter(2**52 / 1e6, 0)),
                   2**53 / 1e6, 1e15, 1e300, -1.7976931348623157e308]
                + [float("nan"), float("inf"), float("-inf")])


@pytest.mark.parametrize("x", _FIXED_CASES)
def test_fixed_writer_is_format_6f_on_edge_cases(x):
    assert _format_fixed(np.array([x]), ord(" ")) == _spelled([x])


def test_fixed_writer_is_format_6f_on_a_mixed_batch():
    # every edge case in one call: the row width follows the widest text
    values = np.array(_FIXED_CASES).reshape(-1, 1)
    seps = np.full(values.shape, ord(","), dtype=np.uint8)
    assert _format_fixed(values, seps) == _spelled(_FIXED_CASES, b",")
    assert _format_fixed(np.array([]), ord(" ")) == b""


def test_fixed_writer_is_format_6f():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    near_half = st.builds(lambda k, steps, neg: (-1) ** neg * float(
        np.nextafter((k + 0.5) / 1e6, np.inf) if steps > 0 else
        np.nextafter((k + 0.5) / 1e6, -np.inf) if steps < 0 else (k + 0.5) / 1e6),
        st.integers(0, 10**10), st.integers(-1, 1), st.booleans())
    value = st.one_of(st.floats(), st.floats(-1e4, 1e4), near_half,
                      st.sampled_from(_FIXED_CASES))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.lists(value, min_size=1, max_size=30),
                      st.sampled_from([b" ", b",\n", b"\x01\x02\x03\x04"]))
    def check(values, seps):
        values = values[:len(values) - len(values) % len(seps)] or [0.0] * len(seps)
        grid = np.array(values).reshape(-1, len(seps))
        row = np.frombuffer(seps, dtype=np.uint8)
        assert _format_fixed(grid, row) == _spelled(values, seps)

    check()
