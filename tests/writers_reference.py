"""The trajectory writers as they were written before they formatted a CSV
row or an SVG point with one ``%`` operation: every number passes through
``format`` on its own. The tests compare the package's writers with these,
byte for byte."""
from typing import Sequence

import numpy as np

from syndemic.cli import _PALETTE, _nice_ceiling
from syndemic.dynamics import Trajectory
from syndemic.model import COMPARTMENTS


def trajectory_csv(traj: Trajectory, spec: str, newline: str) -> str:
    lines = [",".join(["time_years", *COMPARTMENTS, "total"])]
    for t, y, total in zip(traj.times.tolist(), traj.states.tolist(),
                           traj.states.sum(axis=1).tolist()):
        lines.append(",".join([format(v, spec) for v in (t, *y, total)]))
    lines.append("")
    return newline.join(lines)


def emit_svg(traj: Trajectory, selection: Sequence[str]) -> str:
    indices = [COMPARTMENTS.index(name) for name in selection]
    width, height = 800, 500
    left, right, top, bottom = 70, 190, 20, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    data_max = float(np.max(traj.states[:, indices]))
    y_max = _nice_ceiling(data_max)
    t_span = max(t1 - t0, 1e-30)

    def sx(t):
        return left + (t - t0) / t_span * plot_w

    def sy(v):
        return top + plot_h - v / y_max * plot_h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
             f'y2="{top + plot_h}" stroke="black"/>',
             f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
             f'stroke="black"/>']
    for i in range(6):
        t = t0 + t_span * i / 5
        x = sx(t)
        parts.append(f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
                     f'y2="{top + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{top + plot_h + 20}" '
                     f'font-size="12" text-anchor="middle">{t:.6g}</text>')
        v = y_max * i / 5
        y = sy(v)
        parts.append(f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" '
                     f'y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" font-size="12" '
                     f'text-anchor="end">{v:.6g}</text>')
    parts.append(f'<text x="{left + plot_w / 2}" y="{height - 10}" '
                 f'font-size="13" text-anchor="middle">time (years)</text>')
    for slot, (name, idx) in enumerate(zip(selection, indices)):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                          zip(sx(traj.times).tolist(),
                              sy(traj.states[:, idx]).tolist()))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{points}"/>')
        ly = top + 14 + slot * 18
        lx = left + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="3"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="12">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
