"""Box-constrained least-squares solver on standalone problems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpecf.errors import DomainError, FitError
from qpecf.solver import least_squares_box


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def residual(x):
        return x - center

    def jacobian(x):
        return np.eye(center.size)

    return residual, jacobian


class TestLeastSquaresBox:
    def test_linear_recovery_from_both_ends(self):
        residual, jacobian = quadratic([0.3])
        for start in (0.01, 0.49):
            result = least_squares_box(
                residual, jacobian, np.array([start]), np.array([0.0]), np.array([0.5])
            )
            assert abs(result.x[0] - 0.3) < 1e-12
            assert result.ssr >= 0.0
            assert result.converged
            assert result.status in ("gtol", "xtol")

    def test_interior_quadratic_bowl(self):
        residual, jacobian = quadratic([0.2, -0.7, 1.1])
        lower = np.array([-2.0, -2.0, -2.0])
        upper = np.array([2.0, 2.0, 2.0])
        result = least_squares_box(residual, jacobian, np.zeros(3) + 0.1, lower, upper)
        assert np.max(np.abs(result.x - [0.2, -0.7, 1.1])) < 1e-10
        assert result.ssr < 1e-20

    def test_minimum_outside_box_lands_on_boundary(self):
        residual, jacobian = quadratic([3.0])
        result = least_squares_box(
            residual, jacobian, np.array([0.5]), np.array([0.0]), np.array([1.0])
        )
        assert abs(result.x[0] - 1.0) < 1e-9
        assert result.converged

    def test_rosenbrock_valley_in_box(self):
        def residual(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def jacobian(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        result = least_squares_box(
            residual, jacobian, np.array([-1.2, 1.0]), np.array([-2.0, -2.0]), np.array([2.0, 2.0])
        )
        assert np.max(np.abs(result.x - 1.0)) < 1e-8
        assert result.converged
        assert result.iterations < 200

    def test_start_must_be_strictly_interior(self):
        residual, jacobian = quadratic([0.3])
        lower, upper = np.array([0.0]), np.array([1.0])
        with pytest.raises(DomainError):
            least_squares_box(residual, jacobian, np.array([0.0]), lower, upper)
        with pytest.raises(DomainError):
            least_squares_box(residual, jacobian, np.array([1.5]), lower, upper)

    def test_degenerate_box_rejected(self):
        residual, jacobian = quadratic([0.3])
        with pytest.raises(DomainError):
            least_squares_box(residual, jacobian, np.array([0.5]), np.array([1.0]), np.array([0.0]))

    def test_nonfinite_residual_at_start_raises(self):
        def residual(x):
            return np.array([float("nan")])

        def jacobian(x):
            return np.array([[1.0]])

        with pytest.raises(FitError):
            least_squares_box(residual, jacobian, np.array([0.5]), np.array([0.0]), np.array([1.0]))

    @settings(max_examples=150, deadline=None)
    @given(
        center=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
        frac=st.floats(0.05, 0.95),
    )
    def test_containment_and_descent_property(self, center, frac):
        residual, jacobian = quadratic(center)
        d = len(center)
        lower = np.full(d, -1.5)
        upper = np.full(d, 1.5)
        start = lower + frac * (upper - lower)
        result = least_squares_box(residual, jacobian, start, lower, upper)
        assert np.all(result.x >= lower) and np.all(result.x <= upper)
        r0 = residual(start)
        assert result.ssr <= r0 @ r0 + 1e-12



class TestBoundedNls:
    """Bounded least squares on a problem whose answer is known in closed form."""

    def test_linear_sanity_case(self):
        # straight-line fit: residual A x - b with a non-identity Jacobian,
        # unconstrained minimum inside the box, reached from both corners
        A = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        b = np.array([0.1, 0.9, 2.2, 2.8])
        x_ls, ssr_ls, _, _ = np.linalg.lstsq(A, b, rcond=None)
        lower, upper = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
        for start in (lower + 0.01, upper - 0.01):
            result = least_squares_box(lambda x: A @ x - b, lambda x: A, start, lower, upper)
            # damped steps stop short of the exact Gauss-Newton point; the
            # SSR, flat at the minimum, is met to second order in that gap
            assert np.max(np.abs(result.x - x_ls)) < 1e-8
            assert abs(result.ssr - ssr_ls[0]) < 1e-12
            assert result.converged
