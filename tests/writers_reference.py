"""The writers of ``region`` and ``conformal-table`` before they filled templates.

Kept unchanged as the oracles of the differential tests in ``test_cli.py``:
``region_svg`` formats every coordinate of the SVG one at a time, and
``conformal_answer`` builds the answer dict of ``conformal-table`` from the
library's table, for ``dumps_reference.dumps`` to write.  The template
writers must give these bytes, and end in the same error where these do.
``tabulated_bracket`` reads one entry of the published table at the labels,
as the library once did for these writers.
"""

from __future__ import annotations

import math

from kinematica import conformal
from kinematica.ckgeom import KappaPair
from kinematica.errors import NonFiniteResult


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise NonFiniteResult(f"SVG coordinate {value} is not finite")
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return f"{value:.9g}"


def _boundary_path(points: list[tuple[float, float]], close: bool = False) -> str:
    d = "M " + " L ".join(f"{_fmt(t)},{_fmt(x)}" for t, x in points)
    if close:
        d += " Z"
    return f'<path d="{d}" fill="none" stroke="black" stroke-width="0.02"/>'


def _boundary_elements(kp: KappaPair) -> list[str]:
    # boundary of the model region: 1 + kappa1*(t^2 + kappa2*x^2) = 0
    k1, k2 = kp.kappa1, kp.kappa2
    if k1 == 0.0:
        return []
    rhs = -1.0 / k1  # t^2 + kappa2*x^2 = rhs
    out = []
    if rhs > 0.0:
        if k2 > 0.0:
            rx = math.sqrt(rhs)
            ry = math.sqrt(rhs / k2)
            pts = []
            for i in range(96):
                angle = 2.0 * math.pi * i / 96.0
                pts.append((rx * math.cos(angle), ry * math.sin(angle)))
            out.append(_boundary_path(pts, close=True))
        elif k2 == 0.0:
            t0 = math.sqrt(rhs)
            for sgn in (1.0, -1.0):
                out.append(_boundary_path([(sgn * t0, -2.0), (sgn * t0, 2.0)]))
        else:
            # t^2 - |k2| x^2 = rhs > 0: branches open along the t axis
            for sgn in (1.0, -1.0):
                pts = []
                for i in range(65):
                    x = -2.0 + 4.0 * i / 64.0
                    t = sgn * math.sqrt(rhs - k2 * x * x)
                    pts.append((t, x))
                out.append(_boundary_path(pts))
    elif rhs < 0.0 and k2 < 0.0:
        # t^2 - |k2| x^2 = rhs < 0: branches open along the x axis
        for sgn in (1.0, -1.0):
            pts = []
            for i in range(65):
                t = -2.0 + 4.0 * i / 64.0
                x = sgn * math.sqrt((rhs - t * t) / k2)
                pts.append((t, x))
            out.append(_boundary_path(pts))
    return out


def region_svg(kp: KappaPair) -> str:
    """The SVG of ``region`` for one label pair, every coordinate formatted in turn."""
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="-2 -2 4 4" width="400" height="400">',
        f"<!-- kappa1={_fmt(kp.kappa1)} kappa2={_fmt(kp.kappa2)} -->",
    ]
    lines.extend(_boundary_elements(kp))
    if kp.kappa2 <= 0.0:
        slope = math.sqrt(-kp.kappa2)  # null directions t = +/- slope * x
        for sgn in (1.0, -1.0):
            lines.append(
                f'<line x1="{_fmt(-sgn * slope * 2.0)}" y1="-2" '
                f'x2="{_fmt(sgn * slope * 2.0)}" y2="2" '
                'stroke="black" stroke-width="0.01" '
                'stroke-dasharray="0.1,0.1"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def tabulated_bracket(kp: KappaPair, row: str, col: str):
    """Claimed entry for [row, col]; 'S2' where the symbol is undefined."""
    if row == col:
        return {}
    entry = conformal._antisymmetric(conformal.TABULATED_BRACKETS, row, col)
    return entry if entry == "S2" else conformal._evaluate(kp, conformal._nonzero(entry, *kp))


def _diff_vs_tabulated(kp: KappaPair, computed: dict) -> list[dict]:
    diffs = []
    for row in conformal.GENERATOR_TAGS:
        for col in conformal.GENERATOR_TAGS:
            if (row, col) not in conformal.ERRATA:
                continue
            claimed = tabulated_bracket(kp, row, col)
            actual = computed[(row, col)]
            if claimed == "S2":
                diffs.append(
                    {
                        "bracket": [row, col],
                        "computed": actual,
                        "claimed": "S2 (undefined symbol)",
                    }
                )
                continue
            tags = set(claimed) | set(actual)
            if any(
                abs(claimed.get(t, 0.0) - actual.get(t, 0.0)) > conformal.ALGEBRA_TOL
                for t in tags
            ):
                diffs.append(
                    {"bracket": [row, col], "computed": actual, "claimed": claimed}
                )
    return diffs


def conformal_answer(kp: KappaPair, diff: bool) -> dict:
    """The answer of ``conformal-table`` as a dict, with ``--diff-paper`` when ``diff``."""
    computed = conformal.computed_brackets(kp)
    brackets = {
        f"[{row},{col}]": coeffs
        for (row, col), coeffs in computed.items()
        if row != col and coeffs
    }
    if not diff:
        return {"brackets": brackets}
    records = [
        {
            "bracket": "[{},{}]".format(*record["bracket"]),
            "computed": record["computed"],
            "claimed": record["claimed"],
        }
        for record in _diff_vs_tabulated(kp, computed)
    ]
    return {"brackets": brackets, "diff": records}
