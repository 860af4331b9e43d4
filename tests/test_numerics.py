import math

import numpy as np
import pytest

from kinematica.errors import NonConvergence, SingularMetric
from kinematica.numerics import expm, gaussian_curvature_fd, quad_adaptive


def test_expm_zero_is_identity():
    np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    out = expm(np.diag([1.0, 2.0]))
    np.testing.assert_allclose(out, np.diag([math.e, math.e**2]), rtol=1e-13)


def test_expm_nilpotent():
    out = expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_allclose(out, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)


@pytest.mark.parametrize("theta", [0.2, 1.0, -2.5, 7.0])
def test_expm_rotation_and_boost_closed_forms(theta):
    rot = expm(theta * np.array([[0.0, -1.0], [1.0, 0.0]]))
    expected = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    np.testing.assert_allclose(rot, expected, atol=1e-12)

    boost = expm(theta * np.array([[0.0, 1.0], [1.0, 0.0]]))
    expected = np.array(
        [[math.cosh(theta), math.sinh(theta)], [math.sinh(theta), math.cosh(theta)]]
    )
    np.testing.assert_allclose(boost, expected, rtol=1e-12)


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError):
        expm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        expm(np.array([[math.inf, 0.0], [0.0, 0.0]]))


def test_quad_constant():
    assert quad_adaptive(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_quad_arctan_kernel():
    value = quad_adaptive(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0)
    assert value == pytest.approx(math.pi / 4, abs=1e-9)


def test_quad_artanh_kernel():
    value = quad_adaptive(lambda x: 1.0 / (1.0 - x * x), 0.0, 0.5)
    assert value == pytest.approx(math.atanh(0.5), abs=1e-9)


def test_quad_depth_exhaustion():
    with pytest.raises(NonConvergence):
        quad_adaptive(
            lambda x: math.sin(1.0 / (x + 1e-12)),
            0.0,
            1.0,
            tol=1e-300,
            max_depth=12,
        )


def test_curvature_flat():
    assert gaussian_curvature_fd(lambda u, v: 1.0, (0.2, -0.1)) == pytest.approx(
        0.0, abs=1e-8
    )


@pytest.mark.parametrize("kappa1", [1.0, -1.0, 0.5])
def test_curvature_of_constant_curvature_factor(kappa1):
    # 4/(1 + k r^2)^2 is the conformal factor of the curvature-k plane
    def factor(u, v):
        return 4.0 / (1.0 + kappa1 * (u * u + v * v)) ** 2

    for w in [(0.0, 0.0), (0.3, 0.0), (0.1, -0.25)]:
        assert gaussian_curvature_fd(factor, w) == pytest.approx(kappa1, abs=1e-4)


def test_curvature_scales_inversely_with_constant_factor():
    def quarter(u, v):
        return 1.0 / (1.0 + u * u + v * v) ** 2

    assert gaussian_curvature_fd(quarter, (0.2, 0.1)) == pytest.approx(4.0, abs=1e-4)


def test_curvature_singular_factor():
    with pytest.raises(SingularMetric):
        gaussian_curvature_fd(lambda u, v: -1.0, (0.0, 0.0))
