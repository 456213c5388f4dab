"""Self-contained SVG trajectory charts with a fixed deterministic layout."""

from __future__ import annotations

from .errors import EmptyData, _io_errors
from .harness import TrialRecord
from .predictor import PhasePlan

__all__ = ["plot_trajectories", "render_trajectories_svg"]

_WIDTH, _HEIGHT = 800.0, 500.0
_MARGIN_LEFT, _MARGIN_RIGHT = 60.0, 20.0
_MARGIN_TOP, _MARGIN_BOTTOM = 20.0, 45.0
_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_trajectories_svg(
    records: list[TrialRecord],
    phases: PhasePlan | None = None,
    n: int | None = None,
) -> str:
    """Render |I_t|/n against t, one polyline per trial.

    ``phases`` adds one dashed vertical line per phase at the cumulative
    duration bounds (class ``phase-boundary``). The layout, colors and
    number formatting are fixed, so equal inputs give equal bytes.
    """
    traced = [r for r in records if r.informed_counts]
    if not traced:
        raise EmptyData("no per-round trajectories to plot")
    if n is None:
        n = max(r.n if r.n else max(r.informed_counts) for r in traced)
    horizon = max(len(r.informed_counts) - 1 for r in traced)
    horizon = max(horizon, 1)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(t: float) -> float:
        return _MARGIN_LEFT + plot_w * min(max(t / horizon, 0.0), 1.0)

    def sy(frac: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - min(max(frac, 0.0), 1.0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(sy(0.0))}" x2="{_fmt(_WIDTH - _MARGIN_RIGHT)}" '
        f'y2="{_fmt(sy(0.0))}" stroke="black" stroke-width="1"/>',
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(sy(0.0))}" x2="{_fmt(_MARGIN_LEFT)}" '
        f'y2="{_fmt(sy(1.0))}" stroke="black" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 8)}" y="{_fmt(sy(frac) + 4)}" '
            f'text-anchor="end" font-size="12" font-family="monospace">{_fmt(frac)}</text>'
        )
    for t in (0, horizon // 2, horizon):
        parts.append(
            f'<text x="{_fmt(sx(t))}" y="{_fmt(_HEIGHT - _MARGIN_BOTTOM + 18)}" '
            f'text-anchor="middle" font-size="12" font-family="monospace">{t}</text>'
        )
    parts.append(
        f'<text x="{_fmt(_MARGIN_LEFT + plot_w / 2)}" y="{_fmt(_HEIGHT - 8)}" '
        f'text-anchor="middle" font-size="12" font-family="monospace">round t</text>'
    )

    if phases is not None:
        boundary = 0.0
        for phase in phases.phases:
            boundary += phase.duration_bound
            x = sx(boundary)
            parts.append(
                f'<line class="phase-boundary" x1="{_fmt(x)}" y1="{_fmt(sy(1.0))}" '
                f'x2="{_fmt(x)}" y2="{_fmt(sy(0.0))}" stroke="#999999" '
                f'stroke-width="1" stroke-dasharray="4 3"/>'
            )

    for idx, record in enumerate(traced):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{_fmt(sx(t))},{_fmt(sy(count / n))}"
            for t, count in enumerate(record.informed_counts)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_trajectories(
    records: list[TrialRecord],
    path,
    phases: PhasePlan | None = None,
    n: int | None = None,
) -> None:
    svg = render_trajectories_svg(records, phases=phases, n=n)
    with _io_errors(), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
