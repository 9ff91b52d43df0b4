"""SVG pictures of states in the Klein disk.

Each vertex is drawn as its dual cell, the polygon of surrounding triangle
centers, filled by the palette color of its grain count; geodesic boundaries
are straight chords in the Klein model, so the polygons are exact.  Output is
deterministic: fixed 6-decimal coordinates, cells in vertex-id order.

Every number in the picture (corners, the centers of cells with fewer than
three corners, line ends, the disk outline) is written by ``_format_fixed``,
whose text is byte for byte ``f"{x:.6f}"``; its digits come from the digit
kernel that writes every file format, ``ball._write_digits``.  It rounds the
float ``x * 1e6`` half to even with ``np.rint``, where Python rounds the
exact decimal product; the two can part only when the float product lies
within one ulp of a half, and those values (with products of 2**52 or more,
nan and inf) go through ``str.format``.  Renders seldom have any.

The default palette anchors the grayscale used throughout: 0 black, 3 dark
grey, 5 light grey, 6 white, with the remaining stable values interpolated,
-1 (a bookkeeping value) in blue, and 7 in red for unstable sites.  Values
outside [-1, 7] fall back to a loud sentinel color and raise a warning.
A palette file overrides single entries with ``value=#rrggbb`` lines.
"""

from __future__ import annotations

import re
import warnings

import numpy as np

from .ball import _write_digits
from .geometry import Embedding, radial_scale

DEFAULT_PALETTE = {
    -1: "#3355dd",
    0: "#000000",
    1: "#1c1c1c",
    2: "#3a3a3a",
    3: "#585858",
    4: "#9a9a9a",
    5: "#c8c8c8",
    6: "#ffffff",
    7: "#cc2222",
}

SENTINEL_COLOR = "#ff00ff"

_SUBPIXEL_RADIUS = 1.0 - 1e-4

_UINT32_MAX = 2**32 - 1

# cells (or edges) whose numbers are written together: it bounds the
# temporaries of _format_fixed, a few dozen bytes per number, and the
# batch's text
_CELL_BATCH = 1024

# what stands before, between and after the four numbers of a <line>
_LINE_START = b'<line x1="'
_LINE_SEPS = np.arange(1, 5, dtype=np.uint8)
_LINE_TEXT = ((b"\x01", b'" y1="'), (b"\x02", b'" x2="'), (b"\x03", b'" y2="'),
              (b"\x04", b'"/>\n' + _LINE_START))


def parse_palette(text: str) -> dict:
    """Parse ``value=#rrggbb`` lines into a palette overlay."""
    palette = dict(DEFAULT_PALETTE)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, sep, color = line.partition("=")
        color = color.strip()
        if (not sep or not _is_color(color)):
            raise ValueError(f"palette line {lineno}: expected value=#rrggbb, got {raw!r}")
        try:
            value = int(key.strip())
        except ValueError as exc:
            raise ValueError(f"palette line {lineno}: bad value {key!r}") from exc
        palette[value] = color.lower()
    return palette


def _is_color(text: str) -> bool:
    if len(text) != 7 or not text.startswith("#"):
        return False
    try:
        int(text[1:], 16)
    except ValueError:
        return False
    return True


def load_palette(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return parse_palette(fh.read())


def _fill_for(value: int, palette: dict) -> str:
    try:
        return palette[int(value)]
    except KeyError:
        warnings.warn(f"no palette entry for grain value {value}; using sentinel")
        return SENTINEL_COLOR


def _format_fixed(values, seps) -> bytes:
    """Each value as ``f"{x:.6f}"`` writes it, then its separator.

    ``values`` is a float array of any shape and ``seps`` a uint8 array of
    nonzero separator bytes that broadcasts to it, written in row-major
    order.  A value's magnitude scaled to millionths, ``rint(|x| * 1e6)``
    (half to even), is split into whole and fraction parts, and the digit
    kernel ``ball._write_digits`` writes both into one row of a zero-filled
    byte matrix per value, right-aligned against its separator: the
    fraction plus 10**6 into seven columns, whose leading 1 the point
    overwrites, and the whole part left of the point, NUL-padded on the
    left.  A sign goes where the sign bit is set, and one translate drops
    the NULs.  Python rounds the exact decimal value of ``x * 1e6`` where
    this rounds the float product, which is within half an ulp of it, so
    the two can differ only near a half: a value whose product lies within
    one ulp of a half, a product of 2**52 or more, nan and inf are written
    by ``str.format`` instead, right-aligned in their rows.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    seps = np.broadcast_to(seps, np.shape(values)).ravel()
    if not x.size:
        return b""
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.abs(x) * 1e6
        q = np.rint(p)
        plain = (p < 2.0**52) & (np.abs(p - q) < 0.5 - np.spacing(p))
    odd = np.flatnonzero(~plain)
    spelled = [f"{v:.6f}".encode("ascii") for v in x[odd].tolist()]
    mag = np.where(plain, q, 0.0).astype(np.int64)
    if mag.max() <= _UINT32_MAX:
        mag = mag.astype(np.uint32)  # narrower division is faster
    whole, frac = np.divmod(mag, 10**6)
    sign = np.signbit(x) & plain
    digits = len(str(int(whole.max())))
    width = max(int(sign.any()) + digits + 7, max(map(len, spelled), default=0)) + 1
    text = np.zeros((x.size, width), dtype=np.uint8)
    text[:, -1] = seps
    # the fraction is written with a leading 1, which keeps its leading
    # zeros, and the point takes the 1's column
    _write_digits(frac + 10**6, True, text[:, width - 8:width - 1])
    text[:, width - 8] = ord(".")
    _write_digits(whole, True, text[:, width - 8 - digits:width - 8])
    neg = np.flatnonzero(sign)
    text[neg, width - 1 - np.count_nonzero(text[neg], axis=1)] = ord("-")
    for row, word in zip(odd.tolist(), spelled):
        text[row, :-1] = 0
        text[row, width - 1 - len(word):-1] = np.frombuffer(word, dtype=np.uint8)
    return text.tobytes().translate(None, b"\0")


def render_state(state, embedding: Embedding, *, palette=None,
                 homothety: float = 1.0, edges: str = "none",
                 size: int = 800, skip_subpixel: bool = True,
                 zoom=None) -> str:
    """Render a state (or, with ``state=None``, just the tiling) to SVG text.

    ``homothety`` rescales hyperbolic distance from the root before
    projecting; 1.0 is the plain Klein picture, and small ratios spread the
    outer rings apart (for ratios other than 1 the picture is refit to the
    viewport).  ``edges`` draws the graph ("primal"), the cell boundaries
    ("dual"), "both", or "none".  ``zoom = (cx, cy, mag)`` magnifies around a
    Klein-plane point; cells falling outside the window are culled.  With
    ``skip_subpixel`` cells whose final radius exceeds 1 - 1e-4 are dropped.
    """
    if state is not None and state.ball != embedding.ball:
        raise ValueError("state and embedding use different balls")
    if edges not in ("none", "primal", "dual", "both"):
        raise ValueError(f"unknown edges mode {edges!r}")
    if homothety <= 0:
        raise ValueError("homothety ratio must be positive")
    if size < 1:
        raise ValueError(f"image size must be at least 1 pixel, got {size}")
    palette = dict(DEFAULT_PALETTE) if palette is None else palette
    ball = embedding.ball

    vk = radial_scale(embedding.vertex_pos, homothety)
    ck = radial_scale(embedding.corners, homothety)
    if homothety != 1.0:
        top = max(float(np.abs(vk).max(initial=0.0)), float(np.abs(ck).max(initial=0.0)))
        if top > 0:
            fit = 0.98 / max(top, 1e-12)
            vk *= fit
            ck *= fit
    # a cell is "subpixel" by its size on screen: the rim cutoff loosens in
    # proportion to any zoom magnification
    cell_radius = np.hypot(vk[:, 0], vk[:, 1])
    skip_beyond = _SUBPIXEL_RADIUS
    if zoom is not None:
        cx, cy, mag = (float(t) for t in zoom)
        if mag <= 0:
            raise ValueError("zoom magnification must be positive")
        center = np.array([cx, cy])
        for k in (vk, ck):
            k -= center
            k *= mag
        skip_beyond = 1.0 - (1.0 - _SUBPIXEL_RADIUS) / mag

    half = size / 2.0
    grains = state.grains if state is not None else None
    fill_cells = grains is not None
    draw_dual = edges in ("dual", "both")
    draw_primal = edges in ("primal", "both")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    if homothety == 1.0 and zoom is None:
        c, r = _format_fixed(np.array([half, half * 0.9999]), ord(" ")).decode("ascii").split()
        parts.append(f'<circle cx="{c}" cy="{c}" r="{r}" '
                     f'fill="none" stroke="#888888" stroke-width="1"/>')

    if fill_cells or draw_dual:
        attrs = ' stroke="#404040" stroke-width="0.5"' if draw_dual else ""
        parts.append(f"<g{attrs}>")
        ptr = embedding.cell_ptr
        keep = ~(cell_radius > skip_beyond) if skip_subpixel else np.ones(ball.n, bool)
        if zoom is not None:
            keep &= ~_outside_window(np.minimum.reduceat(ck, ptr[:-1], axis=0),
                                     np.maximum.reduceat(ck, ptr[:-1], axis=0))
        ids = np.flatnonzero(keep)
        # corners to pixels in place: x -> (x + 1) * half, y -> (1 - y) * half
        ck[:, 0] += 1.0
        np.subtract(1.0, ck[:, 1], out=ck[:, 1])
        ck *= half
        px = ck if ids.size == ball.n else ck[np.repeat(keep, np.diff(ptr))]
        counts = np.diff(ptr)[ids]
        ends = np.cumsum(counts)
        if fill_cells:
            values = grains[ids].tolist()
            # one lookup per distinct value, in order of first appearance
            colors = {g: _fill_for(g, palette) for g in dict.fromkeys(values)}
            fills = [colors[g] for g in values]
        else:
            fills = ["none"] * ids.size
        # a batch of cells at a time, its corners written as "x,y" pairs, a
        # space between the corners of a cell and a newline after its last
        for lo in range(0, ids.size, _CELL_BATCH):
            hi = min(lo + _CELL_BATCH, ids.size)
            base = int(ends[lo - 1]) if lo else 0
            seps = np.empty((int(ends[hi - 1]) - base, 2), dtype=np.uint8)
            seps[:, 0] = ord(",")
            seps[:, 1] = ord(" ")
            seps[ends[lo:hi] - base - 1, 1] = ord("\n")
            points = _format_fixed(px[base:ends[hi - 1]], seps).decode("ascii").split("\n")
            for v, k, fill, pts in zip(ids[lo:hi].tolist(), counts[lo:hi].tolist(),
                                       fills[lo:hi], points):
                if k < 3:
                    x, y = pts.split(" ", 1)[0].split(",")
                    parts.append(f'<circle id="v{v}" cx="{x}" cy="{y}" r="3" fill="{fill}"/>')
                else:
                    parts.append(f'<polygon id="v{v}" points="{pts}" fill="{fill}"/>')
        parts.append("</g>")

    if draw_primal:
        parts.append('<g stroke="#000000" stroke-width="0.6">')
        u, w = ball.edges()
        if zoom is not None:
            shown = ~_outside_window(np.minimum(vk[u], vk[w]), np.maximum(vk[u], vk[w]))
            u, w = u[shown], w[shown]
        xs, ys = (vk[:, 0] + 1.0) * half, (1.0 - vk[:, 1]) * half
        # a batch of edges at a time, each end's numbers followed by a
        # placeholder byte that becomes the text between them
        for lo in range(0, u.size, _CELL_BATCH):
            a, b = u[lo:lo + _CELL_BATCH], w[lo:lo + _CELL_BATCH]
            text = _LINE_START + _format_fixed(
                np.stack([xs[a], ys[a], xs[b], ys[b]], axis=1), _LINE_SEPS)
            for sep, between in _LINE_TEXT:
                text = text.replace(sep, between)
            # the last line's end wrote the start of a line that is not there
            parts.append(text[:-len(_LINE_START) - 1].decode("ascii"))
        parts.append("</g>")

    parts.append("</svg>\n")
    return "\n".join(parts)


def _outside_window(lo: np.ndarray, hi: np.ndarray, limit: float = 1.05) -> np.ndarray:
    """Rows whose bounding box, given by per-row (x, y) minima and maxima, misses the window."""
    return ((hi[:, 0] < -limit) | (lo[:, 0] > limit)
            | (hi[:, 1] < -limit) | (lo[:, 1] > limit))


def cell_fills(svg_text: str) -> dict:
    """Map vertex id to fill color for every cell in rendered SVG text."""
    out = {}
    pattern = re.compile(r'<(?:polygon|circle) id="v(\d+)"[^>]*fill="([^"]+)"')
    for match in pattern.finditer(svg_text):
        out[int(match.group(1))] = match.group(2)
    return out


def color_histogram(svg_text: str) -> dict:
    """Count rendered cells by fill color (a structural fingerprint)."""
    hist = {}
    for color in cell_fills(svg_text).values():
        hist[color] = hist.get(color, 0) + 1
    return hist
