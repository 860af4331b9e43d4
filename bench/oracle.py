"""Correctness oracle for the request-stream benchmark.

Every answer the command line gives is checked here from first principles,
with numpy and the standard library only.  Nothing is imported from the
package under test: the oracle recomputes closed forms, invariants and the
expected error class of every request itself, so it stays valid when the
package's internals are rewritten.

A request is described by a ``spec`` dict (the generator's parameters); the
oracle predicts the outcome from the spec and compares it with what
``cli.main`` returned.  ``Oracle.check`` returns ``None`` for a correct answer
and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

# relative tolerance for values recomputed along a different route
REL_TOL = 1e-9
# draws closer than this (relative) to an outcome boundary are ambiguous:
# the generator discards them, so every prediction below is decidable
MARGIN = 1e-6

# golden file -> argv, as pinned by the package's CLI tests; every file in
# tests/golden must have an entry (see Oracle.golden_drift)
GOLDEN_CASES = (
    ("classify.json", ["classify"]),
    ("contract_ds_speed_space.json", ["contract", "--from", "dS", "--type", "speed-space"]),
    ("graph.json", ["graph", "--format", "json"]),
    ("graph.dot", ["graph", "--format", "dot"]),
    (
        "distance_poincare.json",
        ["distance", "--kappa1", "-1", "--kappa2", "1", "--w1", "0,0", "--w2", "0.5,0"],
    ),
    ("region_hyperbolic.svg", ["region", "--kappa1", "-1", "--kappa2", "1"]),
    ("region_cominkowski.svg", ["region", "--kappa1", "-1", "--kappa2", "0"]),
    ("region_minkowski.svg", ["region", "--kappa1", "0", "--kappa2", "-1"]),
    ("region_desitter.svg", ["region", "--kappa1", "1", "--kappa2", "-1"]),
)

# the published conformal bracket table, {tag: (const, kappa1 coeff, kappa2
# coeff)}; "S2" marks the slots printed with a symbol the table never defines
PUBLISHED_BRACKETS = {
    ("H", "P"): {"K": (0, 1, 0)},
    ("H", "K"): {"P": (-1, 0, 0)},
    ("H", "G1"): {"D": (1, 0, 0)},
    ("H", "G2"): {"K": (1, 0, 0)},
    ("H", "D"): {"H": (-1, 0, 0), "G1": (0, -1, 0)},
    ("P", "K"): {"H": (0, 0, 1)},
    ("P", "G1"): {"K": (1, 0, 0)},
    ("P", "G2"): {"D": (0, 0, -1)},
    ("P", "D"): {"P": (-1, 0, 0), "G2": (0, 1, 0)},
    ("K", "G1"): "S2",
    ("K", "G2"): {"G2": (0, 0, 1)},
    ("K", "D"): {},
    ("G1", "G2"): {},
    ("G1", "D"): {"G1": (1, 0, 0)},
    ("G2", "D"): {"G2": (1, 0, 0)},
}
CONFORMAL_TAGS = ("H", "P", "K", "G1", "G2", "D")


class Wrong(Exception):
    """An answer that disagrees with the oracle."""


# -- closed forms -------------------------------------------------------------


def ck_cos(kappa: float, phi: float) -> float:
    if kappa > 0.0:
        return float(np.cos(np.sqrt(kappa) * phi))
    if kappa < 0.0:
        return float(np.cosh(np.sqrt(-kappa) * phi))
    return 1.0


def ck_sin(kappa: float, phi: float) -> float:
    if kappa > 0.0:
        r = np.sqrt(kappa)
        return float(np.sin(r * phi) / r)
    if kappa < 0.0:
        r = np.sqrt(-kappa)
        return float(np.sinh(r * phi) / r)
    return phi


def ck_atan(kappa: float, x: float) -> float:
    if kappa > 0.0:
        r = np.sqrt(kappa)
        return float(np.arctan(r * x) / r)
    if kappa < 0.0:
        r = np.sqrt(-kappa)
        return float(np.arctanh(r * x) / r)
    return x


def form(k1: float, k2: float) -> np.ndarray:
    """G = diag(1, kappa1, kappa1*kappa2) on (z, t, x)."""
    return np.diag([1.0, k1, k1 * k2])


GEN_LABEL = {"H": lambda k1, k2: k1, "P": lambda k1, k2: k1 * k2, "K": lambda k1, k2: k2}


def motion(k1: float, k2: float, gen: str, param: float) -> np.ndarray:
    """exp(param * gen) in closed form: a labeled rotation of one plane."""
    label = GEN_LABEL[gen](k1, k2)
    c, s = ck_cos(label, param), ck_sin(label, param)
    i, j = {"H": (0, 1), "P": (0, 2), "K": (1, 2)}[gen]
    g = np.eye(3)
    g[i, i] = g[j, j] = c
    g[j, i] = s
    g[i, j] = -label * s
    return g


def sqmod(w, kappa: float) -> float:
    return w[0] * w[0] + kappa * w[1] * w[1]


# -- outcome predictions ----------------------------------------------------------


def project_outcome(point) -> str | None:
    return "ProjectionPole" if point[0] == -1.0 else None


def unproject_denominator(k1: float, k2: float, w) -> float:
    return 1.0 + k1 * sqmod(w, k2)


def unproject_outcome(k1: float, k2: float, w) -> str | None:
    return "OutsideModel" if unproject_denominator(k1, k2, w) <= 0.0 else None


def distance_outcome(k1: float, k2: float, w1, w2):
    """(error class or None, distance or None, ambiguous) for a pair.

    The separation is computed as sqmod(w2 - w1) / sqmod(den), using that the
    squared modulus is multiplicative, which is a different evaluation order
    from the package's.  A draw near a decision boundary is reported as
    ambiguous so the generator can discard it.
    """
    (u1, v1), (u2, v2) = w1, w2
    den = (k1 * (u1 * u2 + k2 * v1 * v2) + 1.0, k1 * (u1 * v2 - v1 * u2))
    den_sq = sqmod(den, k2)
    den_scale = den[0] * den[0] + abs(k2) * den[1] * den[1]
    if den_sq == 0.0:
        return "DenominatorNotInvertible", None, False
    if abs(den_sq) <= MARGIN * den_scale or den_scale < MARGIN:
        return None, None, True
    num = (u2 - u1, v2 - v1)
    num_sq = sqmod(num, k2)
    if num_sq != 0.0 and abs(num_sq) <= MARGIN * (num[0] ** 2 + abs(k2) * num[1] ** 2):
        return None, None, True
    s = num_sq / den_sq
    if s < 0.0:
        return "NullOrImaginarySeparation", None, False
    x = math.sqrt(s)
    if k1 < 0.0:
        rx = math.sqrt(-k1) * x
        if abs(rx - 1.0) < MARGIN:
            return None, None, True
        if rx >= 1.0:
            return "DomainError", None, False
    return None, ck_atan(k1, x), False


# -- the published conformal table ----------------------------------------------------


def _alg_block(re_: float, im: float, k2: float) -> np.ndarray:
    # multiplication by re + i*im (i^2 = -kappa2) as a real 2x2 matrix
    return np.array([[re_, -k2 * im], [im, re_]])


def _mat(entries, k2: float) -> np.ndarray:
    """A 2x2 matrix over the kappa2 algebra as a real 4x4 block matrix."""
    (a, b), (c, d) = entries
    return np.block(
        [[_alg_block(*a, k2), _alg_block(*b, k2)], [_alg_block(*c, k2), _alg_block(*d, k2)]]
    )


def _flat(m: np.ndarray) -> np.ndarray:
    # (re, im) of the four algebra entries: the first column of each block
    return np.array([m[r + part, c] for r in (0, 2) for c in (0, 2) for part in (0, 1)])


def conformal_table(k1: float, k2: float) -> dict:
    """Every bracket [row, col] decomposed over the six generators by least squares."""
    z = (0.0, 0.0)
    basis = {
        "H": _mat(((z, (0.5, 0.0)), ((-0.5 * k1, 0.0), z)), k2),
        "P": _mat(((z, (0.0, 0.5)), ((0.0, 0.5 * k1), z)), k2),
        "K": _mat((((0.0, 0.5), z), (z, (0.0, -0.5))), k2),
        "G1": _mat(((z, z), ((1.0, 0.0), z)), k2),
        "G2": _mat(((z, z), ((0.0, 1.0), z)), k2),
        "D": _mat((((0.5, 0.0), z), (z, (-0.5, 0.0))), k2),
    }
    columns = np.column_stack([_flat(basis[t]) for t in CONFORMAL_TAGS])
    out = {}
    for row in CONFORMAL_TAGS:
        for col in CONFORMAL_TAGS:
            x, y = basis[row], basis[col]
            target = _flat(x @ y - y @ x)
            coeffs, *_ = np.linalg.lstsq(columns, target, rcond=None)
            out[(row, col)] = dict(zip(CONFORMAL_TAGS, (float(c) for c in coeffs)))
    return out


def published_bracket(k1: float, k2: float, row: str, col: str):
    if (row, col) in PUBLISHED_BRACKETS:
        entry, sign = PUBLISHED_BRACKETS[(row, col)], 1.0
    else:
        entry, sign = PUBLISHED_BRACKETS[(col, row)], -1.0
    if entry == "S2":
        return "S2 (undefined symbol)"
    out = {}
    for tag, (c0, c1, c2) in entry.items():
        value = c0 + c1 * k1 + c2 * k2
        if value != 0.0:
            out[tag] = sign * float(value)
    return out


# -- answer checks -------------------------------------------------------------------


def _reject_constant(token: str):
    raise ValueError(f"non-finite token {token}")


def _finite(obj) -> None:
    if isinstance(obj, dict):
        for v in obj.values():
            _finite(v)
    elif isinstance(obj, list):
        for v in obj:
            _finite(v)
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise Wrong("non-finite number in output")


def parse_json(text: str):
    """One JSON document on one line, with only finite numbers."""
    if not text.endswith("\n") or "\n" in text[:-1]:
        raise Wrong("output is not a single line")
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise Wrong(f"invalid JSON: {exc}") from None
    _finite(obj)
    return obj


def close(got: float, want: float, scale: float = 1.0, what: str = "value") -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise Wrong(f"{what}: not a number")
    if abs(got - want) > REL_TOL * max(1.0, abs(want), scale):
        raise Wrong(f"{what}: {got!r} != {want!r}")


def close_array(got, want: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(got, dtype=float)
    if arr.shape != want.shape:
        raise Wrong(f"{what}: shape {arr.shape} != {want.shape}")
    scale = max(1.0, float(np.max(np.abs(want))))
    if np.max(np.abs(arr - want)) > REL_TOL * scale:
        raise Wrong(f"{what}: off by {np.max(np.abs(arr - want)):.3g}")
    return arr


def _check_motion_invariants(g: np.ndarray, k1: float, k2: float, what: str) -> None:
    big = form(k1, k2)
    scale = max(1.0, float(np.max(np.abs(g)))) ** 2 * max(1.0, abs(k1), abs(k1 * k2))
    if np.max(np.abs(g.T @ big @ g - big)) > REL_TOL * scale:
        raise Wrong(f"{what}: g^T G g != G")
    if abs(np.linalg.det(g) - 1.0) > REL_TOL * scale:
        raise Wrong(f"{what}: det != 1")


def _check_gc(obj, kappa: float, what: str) -> tuple[float, float]:
    if not isinstance(obj, dict) or set(obj) != {"re", "im", "kappa"}:
        raise Wrong(f"{what}: not a generalized complex number")
    if obj["kappa"] != kappa:
        raise Wrong(f"{what}: kappa {obj['kappa']!r} != {kappa!r}")
    return obj["re"], obj["im"]


class Oracle:
    """Checks one answer at a time; remembers what cross-request checks need."""

    def __init__(self, root: Path):
        golden = root / "tests" / "golden"
        self.golden = {name: (golden / name).read_text() for name, _ in GOLDEN_CASES}
        # GOLDEN_CASES copies the CLI tests' table; a golden added to the
        # directory without an argv here would go unreplayed, so the runner
        # counts each one as a failed answer
        self.golden_drift = [
            f"golden {path.name} has no argv in GOLDEN_CASES"
            for path in sorted(golden.iterdir())
            if path.is_file() and not path.name.startswith(".") and path.name not in self.golden
        ]
        edges = json.loads(self.golden["graph.json"])
        self.contractions = {(e["from"], e["type"]): e["to"] for e in edges}
        self._forward = None  # last forward distance answer, for symmetry
        self._tables: dict = {}

    # -- dispatch ------------------------------------------------------------------

    def check(self, spec: dict, code: int, out: str, err: str) -> str | None:
        """None when the answer is correct, else the reason it is not."""
        try:
            self._check(spec, code, out, err)
        except Wrong as exc:
            return str(exc)
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            return f"malformed answer: {exc!r}"
        return None

    def _check(self, spec, code, out, err) -> None:
        cmd = spec["cmd"]
        if cmd == "distance" and not spec["swapped"]:
            self._forward = None
        expect = self.expected_error(spec)
        if expect is not None:
            self._check_error(expect, code, out, err)
            if cmd == "distance":
                self._remember_distance(spec, expect, None)
            return
        if code != 0 or err:
            raise Wrong(f"exit {code}, stderr {err.strip()[:120]!r}; expected success")
        getattr(self, "_check_" + cmd.replace("-", "_"))(spec, out)

    def expected_error(self, spec: dict) -> str | None:
        cmd = spec["cmd"]
        if cmd == "project":
            return project_outcome(spec["point"])
        if cmd == "unproject":
            return unproject_outcome(spec["k1"], spec["k2"], spec["w"])
        if cmd == "distance":
            return distance_outcome(spec["k1"], spec["k2"], spec["w1"], spec["w2"])[0]
        if cmd == "contract" and spec["from"] not in self._names():
            return "usage"
        return None

    def _names(self) -> set[str]:
        return {src for src, _ in self.contractions} | set(self.contractions.values())

    def _check_error(self, expect: str, code: int, out: str, err: str) -> None:
        want_code = 2 if expect == "usage" else 1
        if code != want_code or out:
            raise Wrong(f"exit {code}; expected {expect} with exit {want_code}")
        payload = parse_json(err)
        if not isinstance(payload, dict) or payload.get("error") != expect:
            raise Wrong(f"error {payload!r}; expected {expect}")

    # -- geometry ------------------------------------------------------------------

    def _check_exp(self, spec, out) -> None:
        obj = parse_json(out)
        if obj.get("generator") != spec["gen"] or obj.get("param") != spec["param"]:
            raise Wrong("exp: generator or parameter not echoed")
        k1, k2 = spec["k1"], spec["k2"]
        want = motion(k1, k2, spec["gen"], spec["param"])
        g = close_array(obj.get("matrix"), want, "exp matrix")
        _check_motion_invariants(g, k1, k2, "exp")

    def _check_project(self, spec, out) -> None:
        z, t, x = spec["point"]
        re_, im = _check_gc(parse_json(out), spec["k2"], "project")
        close(re_, t / (z + 1.0), what="project re")
        close(im, x / (z + 1.0), what="project im")
        if "w" in spec:  # the point was lifted from w: project o unproject = id
            close(re_, spec["w"][0], what="round trip re")
            close(im, spec["w"][1], what="round trip im")

    def _check_unproject(self, spec, out) -> None:
        k1, k2, (u, v) = spec["k1"], spec["k2"], spec["w"]
        point = parse_json(out).get("point")
        if not isinstance(point, list) or len(point) != 3:
            raise Wrong("unproject: no 3-point")
        z, t, x = point
        terms = (z * z, k1 * t * t, k1 * k2 * x * x)
        close(sum(terms), 1.0, scale=sum(abs(a) for a in terms), what="quadric residual")
        if abs(z + 1.0) < MARGIN:
            raise Wrong("unproject: landed on the projection pole")
        close(t / (z + 1.0), u, scale=abs(t / (z + 1.0)), what="round trip re")
        close(x / (z + 1.0), v, scale=abs(x / (z + 1.0)), what="round trip im")

    def _check_distance(self, spec, out) -> None:
        obj = parse_json(out)
        _, want, _ = distance_outcome(spec["k1"], spec["k2"], spec["w1"], spec["w2"])
        close(obj.get("distance"), want, what="distance")
        self._remember_distance(spec, None, obj["distance"])

    def _remember_distance(self, spec, error, value) -> None:
        if not spec["swapped"]:
            self._forward = (error, value)
        elif self._forward is not None:  # None when the forward answer failed
            f_error, f_value = self._forward
            self._forward = None
            if error != f_error:
                raise Wrong(f"distance not symmetric: {f_error} vs {error}")
            if value is not None:
                close(value, f_value, what="distance symmetry")

    # -- rotors and spin ---------------------------------------------------------------

    def _check_rotate(self, spec, out) -> None:
        k1, k2 = spec["k1"], spec["k2"]
        obj = parse_json(out)
        n = np.asarray(spec["axis"], dtype=float)
        n = n / np.linalg.norm(n)
        x = n[0] ** 2 * k2 + n[1] ** 2 * k1 * k2 + n[2] ** 2 * k1
        half = 0.5 * spec["angle"]
        c, s = ck_cos(x, half), ck_sin(x, half)
        rotor = obj.get("rotor", {})
        if rotor.get("kappa1") != k1 or rotor.get("kappa2") != k2:
            raise Wrong("rotate: rotor labels not echoed")
        want = np.array([c, 0.0, 0.0, 0.0, n[0] * s, n[1] * s, n[2] * s, 0.0])
        close_array(rotor.get("coeffs"), want, "rotor")
        a = np.asarray(spec["vector"], dtype=float)
        b = np.asarray(obj.get("vector"), dtype=float)
        if b.shape != (3,):
            raise Wrong("rotate: no 3-vector")
        weights = np.array([1.0, k1, k1 * k2])
        scale = float(np.sum(np.abs(weights) * (a * a + b * b)))
        close(float(weights @ (b * b)), float(weights @ (a * a)), scale=scale, what="ck-length")

    def _check_spin(self, spec, out) -> None:
        k1, k2 = spec["k1"], spec["k2"]
        obj = parse_json(out)
        alpha = _check_gc(obj.get("alpha"), k2, "alpha")
        beta = _check_gc(obj.get("beta"), k2, "beta")
        terms = (alpha[0] ** 2, k2 * alpha[1] ** 2, k1 * beta[0] ** 2, k1 * k2 * beta[1] ** 2)
        close(sum(terms), 1.0, scale=sum(abs(a) for a in terms), what="spin unit condition")
        want = motion(k1, k2, spec["gen"], spec["param"])
        g = close_array(obj.get("so3"), want, "so3")
        _check_motion_invariants(g, k1, k2, "so3")

    # -- tables and graphs -------------------------------------------------------------

    def _check_golden(self, name: str, out: str) -> None:
        if out != self.golden[name]:
            raise Wrong(f"output differs from golden {name}")

    def _check_classify(self, spec, out) -> None:
        self._check_golden("classify.json", out)

    def _check_graph(self, spec, out) -> None:
        self._check_golden("graph.dot" if spec["format"] == "dot" else "graph.json", out)

    def _check_contract(self, spec, out) -> None:
        want = self.contractions.get((spec["from"], spec["type"]), spec["from"])
        if parse_json(out) != {"to": want}:
            raise Wrong(f"contract: {out.strip()} != {want}")

    def _check_region(self, spec, out) -> None:
        k1, k2 = spec["k1"], spec["k2"]
        for name, argv in GOLDEN_CASES:
            if argv[0] == "region" and (float(argv[2]), float(argv[4])) == (k1, k2):
                return self._check_golden(name, out)
        if not out.startswith("<svg ") or not out.endswith("</svg>\n"):
            raise Wrong("region: not an SVG document")
        labels = re.search(r"<!-- kappa1=(\S+) kappa2=(\S+) -->", out)
        if not labels or (float(labels[1]), float(labels[2])) != (k1, k2):
            raise Wrong("region: labels missing")
        # the boundary 1 + kappa1*(t^2 + kappa2*x^2) = 0 is an ellipse (one
        # closed path), a line pair or a hyperbola (two paths), or empty
        paths = 0
        if k1 < 0.0:
            paths = 1 if k2 > 0.0 else 2
        elif k1 > 0.0 and k2 < 0.0:
            paths = 2
        if out.count("<path ") != paths:
            raise Wrong(f"region: {out.count('<path ')} boundary paths, expected {paths}")
        nulls = out.count('stroke-dasharray="0.1,0.1"')
        if nulls != (2 if k2 <= 0.0 else 0):
            raise Wrong(f"region: {nulls} null lines")

    def _check_conformal_table(self, spec, out) -> None:
        k1, k2 = spec["k1"], spec["k2"]
        key = (k1, k2)
        if key not in self._tables:
            self._tables[key] = conformal_table(k1, k2)
        table = self._tables[key]
        obj = parse_json(out)
        brackets = obj.get("brackets")
        if not isinstance(brackets, dict):
            raise Wrong("conformal-table: no brackets")
        for (row, col), coeffs in table.items():
            if row == col:
                continue
            got = brackets.get(f"[{row},{col}]", {})
            self._same_coeffs(got, coeffs, f"[{row},{col}]")
        if set(brackets) - {f"[{r},{c}]" for r, c in table if r != c}:
            raise Wrong("conformal-table: unknown bracket slot")
        if not spec["diff"]:
            if "diff" in obj:
                raise Wrong("conformal-table: unrequested diff")
            return
        want = []
        for row in CONFORMAL_TAGS:
            for col in CONFORMAL_TAGS:
                if row == col:
                    continue
                claimed = published_bracket(k1, k2, row, col)
                actual = table[(row, col)]
                if isinstance(claimed, str) or any(
                    abs(claimed.get(t, 0.0) - actual[t]) > 1e-12 for t in CONFORMAL_TAGS
                ):
                    want.append((f"[{row},{col}]", actual, claimed))
        diff = obj.get("diff")
        if not isinstance(diff, list) or len(diff) != len(want):
            raise Wrong(f"conformal-table: diff has {len(diff or [])} slots, expected {len(want)}")
        for record, (slot, actual, claimed) in zip(diff, want):
            if record.get("bracket") != slot or record.get("claimed") != claimed:
                raise Wrong(f"conformal-table: diff slot {record.get('bracket')} != {slot}")
            self._same_coeffs(record.get("computed", {}), actual, slot)

    @staticmethod
    def _same_coeffs(got: dict, want: dict, slot: str) -> None:
        if not isinstance(got, dict) or set(got) - set(CONFORMAL_TAGS):
            raise Wrong(f"{slot}: malformed coefficients")
        if any(v == 0.0 for v in got.values()):
            raise Wrong(f"{slot}: zero coefficient kept")
        for tag in CONFORMAL_TAGS:
            close(got.get(tag, 0.0), want[tag], what=f"{slot} {tag}")
