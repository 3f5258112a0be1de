"""Minimal static SVG emitters (no plotting dependency, deterministic bytes)."""

from __future__ import annotations

import numpy as np

INF_COLOR = "#b0b0b0"  # sentinel for the degenerate diagonal band

HEATMAP_SIZE = 480  # pixels per side
QUIVER_SIZE = 520   # pixels per side
ARROW = 0.05        # arrow length as a fraction of the quiver side


def _lerp_color(u: float) -> str:
    # dark blue -> yellow ramp
    lo = (48, 44, 110)
    hi = (250, 220, 60)
    rgb = tuple(int(round(a + u * (b - a))) for a, b in zip(lo, hi))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def heatmap_svg(energies: np.ndarray) -> str:
    """Render an n x n energy matrix; +inf cells get the sentinel color."""
    size = HEATMAP_SIZE
    n = energies.shape[0]
    finite = energies[np.isfinite(energies)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0
    cell = size / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    for i in range(n):
        for j in range(n):
            v = energies[i, j]
            color = INF_COLOR if not np.isfinite(v) else _lerp_color((v - lo) / span)
            # s1 on x, s2 on y, origin bottom-left
            x = i * cell
            y = size - (j + 1) * cell
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell:.2f}" '
                f'height="{cell:.2f}" fill="{color}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def quiver_svg(samples, vortices, boundary) -> str:
    """Render magnetization arrows, the domain outline, and vortex markers.

    ``samples`` is an iterable with x, y, mx, my attributes, ``vortices``
    a sequence of complex positions, ``boundary`` a complex polyline of
    the domain outline.  Arrows are shaded by their orientation angle.
    """
    size = QUIVER_SIZE
    xs = [s.x for s in samples] + [z.real for z in boundary]
    ys = [s.y for s in samples] + [z.imag for z in boundary]
    lo = min(min(xs), min(ys)) - 0.1
    hi = max(max(xs), max(ys)) + 0.1
    span = hi - lo

    def sx(x):
        return (x - lo) / span * size

    def sy(y):
        return size - (y - lo) / span * size

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    outline = " ".join(f"{sx(z.real):.2f},{sy(z.imag):.2f}" for z in boundary)
    parts.append(f'<polygon points="{outline}" fill="none" stroke="#404040" stroke-width="1.5"/>')

    scale = ARROW * size  # arrow length in pixels
    for s in samples:
        ang = np.arctan2(s.my, s.mx)
        shade = int(round(40 + 140 * (0.5 + 0.5 * np.sin(ang))))
        color = f"rgb({shade},{shade},{shade})"
        x0, y0 = sx(s.x), sy(s.y)
        dx = s.mx * scale
        dy = -s.my * scale
        x1, y1 = x0 + dx, y0 + dy
        # head: two short back-strokes
        hx, hy = -0.35 * dx, -0.35 * dy
        px, py = -0.2 * dy, 0.2 * dx
        parts.append(
            f'<path d="M {x0:.2f} {y0:.2f} L {x1:.2f} {y1:.2f} '
            f'M {x1:.2f} {y1:.2f} l {hx + px:.2f} {hy + py:.2f} '
            f'M {x1:.2f} {y1:.2f} l {hx - px:.2f} {hy - py:.2f}" '
            f'stroke="{color}" stroke-width="1.2" fill="none"/>'
        )
    for z in vortices:
        parts.append(
            f'<circle cx="{sx(z.real):.2f}" cy="{sy(z.imag):.2f}" r="5" '
            f'fill="#c02020"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
