"""SVG pictures of states in the Klein disk.

Each vertex is drawn as its dual cell, the polygon of surrounding triangle
centers, filled by the palette color of its grain count; geodesic boundaries
are straight chords in the Klein model, so the polygons are exact.  Output is
deterministic: fixed 6-decimal coordinates, cells in vertex-id order.

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

# cells whose coordinates are formatted together
_CELL_BATCH = 1024


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


def _fmt(x: float) -> str:
    return f"{x:.6f}"


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
        parts.append(
            f'<circle cx="{_fmt(half)}" cy="{_fmt(half)}" r="{_fmt(half * 0.9999)}" '
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
        ends = np.cumsum(np.diff(ptr)[ids])
        if fill_cells:
            values = grains[ids].tolist()
            # one lookup per distinct value, in order of first appearance
            colors = {g: _fill_for(g, palette) for g in dict.fromkeys(values)}
            fills = [colors[g] for g in values]
        else:
            fills = ["none"] * ids.size
        # coordinates are formatted a batch of cells at a time, which keeps
        # the short-lived strings few
        for lo in range(0, ids.size, _CELL_BATCH):
            hi = min(lo + _CELL_BATCH, ids.size)
            base = int(ends[lo - 1]) if lo else 0
            coords = list(map("{:.6f},{:.6f}".format, *px[base:ends[hi - 1]].T.tolist()))
            a = 0
            for v, b, fill in zip(ids[lo:hi].tolist(), (ends[lo:hi] - base).tolist(),
                                  fills[lo:hi]):
                if b - a < 3:
                    x, y = coords[a].split(",")
                    parts.append(f'<circle id="v{v}" cx="{x}" cy="{y}" r="3" fill="{fill}"/>')
                else:
                    parts.append(f'<polygon id="v{v}" points="{" ".join(coords[a:b])}" '
                                 f'fill="{fill}"/>')
                a = b
        parts.append("</g>")

    if draw_primal:
        parts.append('<g stroke="#000000" stroke-width="0.6">')
        u, w = ball.edges()
        if zoom is not None:
            shown = ~_outside_window(np.minimum(vk[u], vk[w]), np.maximum(vk[u], vk[w]))
            u, w = u[shown], w[shown]
        xs, ys = (vk[:, 0] + 1.0) * half, (1.0 - vk[:, 1]) * half
        parts += map('<line x1="{:.6f}" y1="{:.6f}" x2="{:.6f}" y2="{:.6f}"/>'.format,
                     xs[u].tolist(), ys[u].tolist(), xs[w].tolist(), ys[w].tolist())
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
