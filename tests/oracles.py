"""Independent numerical oracles used by the test suite.

Everything in this module is deliberately self-contained: the matrix
exponential is a hand-rolled scaling-and-squaring series, the quadrature is
plain adaptive Simpson, the curvature estimator is a finite-difference
Liouville formula, and the 2x2 generalized-complex product table is computed
from raw (re, im) pairs.  None of it shares code with the closed-form
implementations it is used to check, and none of it is part of the library.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from kinematica.errors import KinematicaError


class NonConvergence(KinematicaError):
    """Adaptive quadrature exhausted its recursion depth."""


class SingularMetric(KinematicaError):
    """Conformal factor non-positive at a stencil point."""


SERIES_TERMS = 40  # terms of the series expm sums after scaling
QUAD_TOL = 1e-9  # quad_adaptive's default absolute tolerance
FD_STEP = 1e-5  # step of gaussian_curvature_fd's finite differences


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the truncated series."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expm needs a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("expm needs finite entries")
    norm = np.linalg.norm(m, ord=np.inf)
    squarings = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    a = m / (2.0**squarings)
    eye = np.eye(m.shape[0])
    term = eye.copy()
    total = eye.copy()
    for k in range(1, SERIES_TERMS + 1):
        term = term @ a / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def quad_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = QUAD_TOL,
    max_depth: int = 40,
) -> float:
    """Adaptive Simpson quadrature of f over [a, b]."""

    def simpson(x0: float, x2: float, f0: float, f1: float, f2: float) -> float:
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + x1)
        xr = 0.5 * (x1 + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, x1, f0, fl, f1)
        right = simpson(x1, x2, f1, fr, f2)
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        if depth >= max_depth:
            raise NonConvergence(
                f"adaptive Simpson did not converge on [{x0}, {x2}]"
            )
        return recurse(x0, x1, f0, fl, f1, left, eps / 2.0, depth + 1) + recurse(
            x1, x2, f1, fr, f2, right, eps / 2.0, depth + 1
        )

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def gaussian_curvature_fd(
    factor: Callable[[float, float], float],
    w: tuple[float, float],
) -> float:
    """Gaussian curvature of the conformal metric factor*(du^2 + dv^2).

    Liouville's formula K = -laplacian(log factor)/(2*factor), with a
    five-point finite-difference Laplacian of step ``FD_STEP``; the error is
    O(FD_STEP**2).
    """
    h = FD_STEP
    u, v = w

    def log_factor(x: float, y: float) -> float:
        lam = factor(x, y)
        if lam <= 0.0 or not math.isfinite(lam):
            raise SingularMetric(f"conformal factor {lam} at ({x}, {y})")
        return math.log(lam)

    lap = (
        log_factor(u + h, v)
        + log_factor(u - h, v)
        + log_factor(u, v + h)
        + log_factor(u, v - h)
        - 4.0 * log_factor(u, v)
    ) / (h * h)
    return -lap / (2.0 * factor(u, v))


# -- brute-force product table of the 2x2 matrix model -------------------------
#
# Each basis element of the eight-dimensional algebra is written as a 2x2
# matrix with entries (re, im), im**2 = -kappa2, and products are multiplied
# out entrywise.  Structure constants come from solving the resulting linear
# systems; the representation is faithful only for kappa1 != 0.


def _entry_mul(x, y, kappa2: float):
    return (
        x[0] * y[0] - kappa2 * x[1] * y[1],
        x[0] * y[1] + x[1] * y[0],
    )


def _mat_mul(p, q, kappa2: float):
    out = [[(0.0, 0.0), (0.0, 0.0)], [(0.0, 0.0), (0.0, 0.0)]]
    for i in range(2):
        for j in range(2):
            acc = (0.0, 0.0)
            for t in range(2):
                prod = _entry_mul(p[i][t], q[t][j], kappa2)
                acc = (acc[0] + prod[0], acc[1] + prod[1])
            out[i][j] = acc
    return out


def _basis_matrices(kappa1: float):
    z = (0.0, 0.0)
    one = (1.0, 0.0)
    i = (0.0, 1.0)
    return [
        [[one, z], [z, one]],                                  # 1
        [[one, z], [z, (-1.0, 0.0)]],                          # sigma1
        [[z, one], [(kappa1, 0.0), z]],                        # sigma2
        [[z, i], [(0.0, -kappa1), z]],                         # sigma3
        [[i, z], [z, (0.0, -1.0)]],                            # i sigma1
        [[z, i], [(0.0, kappa1), z]],                          # i sigma2
        [[z, one], [(-kappa1, 0.0), z]],                       # sigma3 / i
        [[i, z], [z, i]],                                      # i
    ]


def _flatten(mat) -> np.ndarray:
    return np.array(
        [mat[i][j][t] for i in range(2) for j in range(2) for t in range(2)]
    )


def pauli_product_table(kappa1: float, kappa2: float) -> np.ndarray:
    """8x8x8 structure constants of the matrix model (kappa1 != 0 only)."""
    basis = _basis_matrices(kappa1)
    basis_mat = np.column_stack([_flatten(b) for b in basis])
    table = np.zeros((8, 8, 8))
    for i in range(8):
        for j in range(8):
            prod = _flatten(_mat_mul(basis[i], basis[j], kappa2))
            table[i, j, :] = np.linalg.solve(basis_mat, prod)
    return table
