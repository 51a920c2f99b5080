"""Box-constrained least-squares solver on standalone problems.

One call descends from many starts of one problem: each start goes in alone
as a batch of one, and stacked starts must each come out exactly as they do
alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpecf import solver
from qpecf.errors import DomainError
from qpecf.solver import least_squares_box


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def residual(x):
        return x - center

    def jacobian(x):
        return np.broadcast_to(np.eye(center.size), (len(x), center.size, center.size))

    return residual, jacobian


def linear(A, b):
    """Residual A x - b of an (m, p) matrix A."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)

    def residual(x):
        return (A @ x[:, :, np.newaxis])[:, :, 0] - b

    def jacobian(x):
        return np.broadcast_to(A, (len(x),) + A.shape)

    return residual, jacobian


def nan_left_of(edge, residual, jacobian):
    """The callables with the residual NaN wherever the first coordinate is below edge."""

    def masked(x):
        r = residual(x)
        r[x[:, 0] < edge] = np.nan
        return r

    return masked, jacobian


def solve_one(residual, jacobian, start, lower, upper):
    """A batch of one: 1-D start and bounds in, the one problem's results out."""
    result = least_squares_box(residual, jacobian, np.atleast_1d(start)[np.newaxis], lower, upper)
    return (
        result.x[0],
        float(result.ssr[0]),
        int(result.iterations[0]),
        bool(result.converged[0]),
        str(result.status[0]),
    )


def rosenbrock():
    def residual(x):
        return np.stack([10.0 * (x[:, 1] - x[:, 0] ** 2), 1.0 - x[:, 0]], axis=1)

    def jacobian(x):
        out = np.zeros((len(x), 2, 2))
        out[:, 0, 0] = -20.0 * x[:, 0]
        out[:, 0, 1] = 10.0
        out[:, 1, 0] = -1.0
        return out

    return residual, jacobian


# The straight-line fit of TestBoundedNls: a non-identity Jacobian.
LINE_A = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
LINE_B = np.array([0.1, 0.9, 2.2, 2.8])


class TestLeastSquaresBox:
    def test_linear_recovery_from_both_ends(self):
        residual, jacobian = quadratic([0.3])
        for start in (0.01, 0.49):
            x, ssr, _, converged, status = solve_one(
                residual, jacobian, start, np.array([0.0]), np.array([0.5])
            )
            assert abs(x[0] - 0.3) < 1e-12
            assert ssr >= 0.0
            assert converged
            assert status in ("gtol", "xtol")

    def test_interior_quadratic_bowl(self):
        residual, jacobian = quadratic([0.2, -0.7, 1.1])
        lower = np.array([-2.0, -2.0, -2.0])
        upper = np.array([2.0, 2.0, 2.0])
        x, ssr, _, _, _ = solve_one(residual, jacobian, np.zeros(3) + 0.1, lower, upper)
        assert np.max(np.abs(x - [0.2, -0.7, 1.1])) < 1e-10
        assert ssr < 1e-20

    def test_minimum_outside_box_lands_on_boundary(self):
        residual, jacobian = quadratic([3.0])
        x, _, _, converged, _ = solve_one(
            residual, jacobian, np.array([0.5]), np.array([0.0]), np.array([1.0])
        )
        assert abs(x[0] - 1.0) < 1e-9
        assert converged

    def test_rosenbrock_valley_in_box(self):
        x, _, iterations, converged, _ = solve_one(
            *rosenbrock(), np.array([-1.2, 1.0]), np.array([-2.0, -2.0]), np.array([2.0, 2.0])
        )
        assert np.max(np.abs(x - 1.0)) < 1e-8
        assert converged
        assert iterations < 200

    def test_xtol_sets_the_step_norm_stop(self, monkeypatch):
        # the same path, stopped at its first step shorter than XTOL
        start, lower, upper = np.array([[-1.2, 1.0]]), np.full(2, -2.0), np.full(2, 2.0)
        tight = least_squares_box(*rosenbrock(), start, lower, upper)
        monkeypatch.setattr(solver, "XTOL", 1e-3)
        loose = least_squares_box(*rosenbrock(), start, lower, upper)
        assert (loose.status[0], loose.converged[0]) == ("xtol", True)
        assert loose.iterations[0] < tight.iterations[0]
        assert np.max(np.abs(loose.x[0] - 1.0)) < 1e-2

    def test_start_must_be_strictly_interior(self):
        residual, jacobian = quadratic([0.3])
        lower, upper = np.array([0.0]), np.array([1.0])
        with pytest.raises(DomainError):
            solve_one(residual, jacobian, np.array([0.0]), lower, upper)
        with pytest.raises(DomainError):
            solve_one(residual, jacobian, np.array([1.5]), lower, upper)

    def test_degenerate_box_rejected(self):
        residual, jacobian = quadratic([0.3])
        with pytest.raises(DomainError):
            solve_one(residual, jacobian, np.array([0.5]), np.array([1.0]), np.array([0.0]))
        # a start without its batch axis, and bounds that do not fit the start
        with pytest.raises(DomainError):
            least_squares_box(residual, jacobian, np.array([0.5]), np.array([0.0]), np.array([1.0]))
        with pytest.raises(DomainError):
            least_squares_box(residual, jacobian, np.array([[0.5]]), np.zeros(2), np.ones(2))

    def test_bounds_are_one_box_for_every_start(self):
        # lower and upper broadcast to (p,); a bound per start is rejected
        residual, jacobian = quadratic([0.3, 0.2])
        start = np.array([[0.5, 0.5], [0.4, 0.6]])
        for shape in ((2, 2), (1, 2)):
            with pytest.raises(DomainError, match="one box"):
                least_squares_box(residual, jacobian, start, np.zeros(shape), np.ones(2))
            with pytest.raises(DomainError, match="one box"):
                least_squares_box(residual, jacobian, start, np.zeros(2), np.ones(shape))
        result = least_squares_box(residual, jacobian, start, 0.0, np.ones(2))
        assert np.all(result.converged)

    def test_nonfinite_residual_at_start_fails_only_that_start(self):
        # the straight line's residual is NaN left of x0 = -1.5, so start 1's
        # residual is non-finite at its start
        problem = nan_left_of(-1.5, *linear(LINE_A, LINE_B))
        start = np.array([[0.1, 0.1], [-1.9, 0.5], [-0.5, 1.5]])
        lower, upper = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
        result = least_squares_box(*problem, start, lower, upper)
        assert result.status[1] == "nonfinite"
        assert not result.converged[1]
        assert result.iterations[1] == 0
        assert np.isnan(result.ssr[1])
        assert np.array_equal(result.x[1], start[1])
        for i in (0, 2):
            alone = solve_one(*problem, start[i], lower, upper)
            got = (result.x[i], result.ssr[i], result.iterations[i], result.status[i])
            assert np.array_equal(got[0], alone[0])
            assert got[1:] == (alone[1], alone[2], alone[4])
            assert result.converged[i]

    def test_every_start_nonfinite_calls_no_jacobian(self):
        # every start lies left of x0 = -1.5, where the residual is NaN: the
        # solver returns after the one residual call, before any Jacobian
        residual, jacobian = nan_left_of(-1.5, *linear(LINE_A, LINE_B))
        calls = []

        def logged(points):
            calls.append(points.shape)
            return jacobian(points)

        start = np.array([[-1.9, 0.5], [-1.6, -0.5]])
        result = least_squares_box(residual, logged, start, [-2.0, -2.0], [2.0, 2.0])
        assert calls == []
        assert result.status.tolist() == ["nonfinite", "nonfinite"]
        assert result.iterations.tolist() == [0, 0]
        assert not result.converged.any()
        assert np.isnan(result.ssr).all()
        assert np.array_equal(result.x, start)

    def test_stacked_starts_match_their_single_solves(self):
        # one call per problem, each from the same five starts: an interior
        # bowl, a bowl whose minimum lies outside the box, the straight line
        # and the Rosenbrock valley; each start must end exactly as it does alone
        bowl = np.eye(4, 2)
        lower, upper = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
        start = np.array([[0.1, 0.1], [1.9, -1.9], [-0.5, 1.5], lower + 0.01, upper - 0.01])
        problems = [
            linear(bowl, [0.3, -0.4, 0.0, 0.0]),
            linear(bowl, [3.0, 0.5, 0.0, 0.0]),
            linear(LINE_A, LINE_B),
            rosenbrock(),
        ]
        for k, problem in enumerate(problems):
            result = least_squares_box(*problem, start, lower, upper)
            assert np.all(result.converged)
            if k == 1:
                assert np.all(np.abs(result.x[:, 0] - 2.0) < 1e-9)
            for i in range(len(start)):
                alone = solve_one(*problem, start[i], lower, upper)
                assert np.array_equal(result.x[i], alone[0])
                assert np.array_equal(result.ssr[i], alone[1])
                assert np.array_equal(result.iterations[i], alone[2])
                assert result.status[i] == alone[4]

    def test_callables_see_only_running_starts(self):
        # starts that stop at different iterations of the Rosenbrock valley,
        # NaN left of x0 = -1.5: start 0 sits on the minimum (gtol at once),
        # start 5 has a NaN residual, the rest stop by xtol after different
        # numbers of steps
        lower, upper = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
        start = np.array(
            [[1.0, 1.0], [0.8, 1.6], [0.5, 1.5], [-0.4, 0.2], [-1.5, 1.2], [-1.9, 0.0]]
        )
        residual, jacobian = nan_left_of(-1.5, *rosenbrock())

        def recorded(calls):
            """The callables, logging each call as (kind, its points)."""

            def log(kind, fn):
                def call(points):
                    calls.append((kind, [tuple(point) for point in points]))
                    return fn(points)

                return call

            return log("residual", residual), log("jacobian", jacobian)

        # alone, the solver returns once the start stops, so its calls are
        # exactly the (kind, point) events that start may cause
        alone = []
        for i in range(len(start)):
            calls = []
            least_squares_box(*recorded(calls), start[i : i + 1], lower, upper)
            assert all(len(points) == 1 for _, points in calls)
            alone.append([(kind, points[0]) for kind, points in calls])
        calls = []
        result = least_squares_box(*recorded(calls), start, lower, upper)
        assert len(set(result.iterations.tolist())) >= 4
        # each point of a call is the next event of exactly one start, which
        # appears at most once in that call; a call on a start after its
        # status became final would match no start's events
        events = [[] for _ in start]
        for kind, points in calls:
            seen = set()
            for point in points:
                owners = [
                    i for i in range(len(start))
                    if i not in seen and alone[i][len(events[i]) : len(events[i]) + 1]
                    == [(kind, point)]
                ]
                assert len(owners) == 1
                events[owners[0]].append((kind, point))
                seen.add(owners[0])
        assert events == alone
        # the two starts that stop before any step appear in no later call
        assert (result.status[0], result.status[5]) == ("gtol", "nonfinite")
        assert events[0] == [("residual", (1.0, 1.0)), ("jacobian", (1.0, 1.0))]
        assert events[5] == [("residual", (-1.9, 0.0))]
        for i in range(1, 5):
            assert result.status[i] == "xtol"
            # a reflected candidate equal to the clipped one is not evaluated again
            for (kind, point), (next_kind, next_point) in zip(events[i], events[i][1:]):
                assert not (kind == next_kind == "residual" and point == next_point)

            # the Jacobian is taken at the start and then only at a point just
            # evaluated that lowered the SSR; the last is the solver's result
            def ssr(point):
                r = residual(np.array([point]))[0]
                return float(r @ r)

            jacobian_at = [point for kind, point in events[i] if kind == "jacobian"]
            assert jacobian_at[0] == tuple(start[i])
            assert jacobian_at[-1] == tuple(result.x[i])
            tried = []
            for kind, point in events[i][2:]:
                if kind == "residual":
                    tried.append(point)
                else:
                    assert point in tried
                    tried = []
            for before, after in zip(jacobian_at, jacobian_at[1:]):
                assert ssr(after) < ssr(before)

    def test_every_status_with_its_iteration_count(self, monkeypatch):
        # one call on the Rosenbrock valley, NaN left of x0 = -1.5, that ends
        # in all four statuses: start 0 reaches gtol at iteration 11, start 1
        # stops on a short step at 8, start 2 would reach gtol at iteration
        # 22 but is cut at MAX_ITER = 12, start 3 has a NaN residual, and
        # start 4 sits on the minimum
        problem = nan_left_of(-1.5, *rosenbrock())
        start = np.array([[1.0, 1.7], [0.8, 1.6], [1.8, -1.6], [-1.9, 0.0], [1.0, 1.0]])
        lower, upper = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
        uncapped = solve_one(*problem, start[2], lower, upper)
        assert uncapped[2:] == (22, True, "gtol")

        monkeypatch.setattr(solver, "MAX_ITER", 12)
        result = least_squares_box(*problem, start, lower, upper)
        assert result.iterations.tolist() == [11, 8, 12, 0, 1]
        assert result.status.tolist() == ["gtol", "xtol", "maxiter", "nonfinite", "gtol"]
        assert result.converged.tolist() == [True, True, False, False, True]
        for i in range(len(start)):
            alone = solve_one(*problem, start[i], lower, upper)
            assert np.array_equal(result.x[i], alone[0])
            assert np.array_equal(result.ssr[i], alone[1], equal_nan=True)
            assert (result.iterations[i], result.converged[i], result.status[i]) == alone[2:]

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
        x, ssr, _, _, _ = solve_one(residual, jacobian, start, lower, upper)
        assert np.all(x >= lower) and np.all(x <= upper)
        r0 = residual(start[np.newaxis])[0]
        assert ssr <= r0 @ r0 + 1e-12



class TestBoundedNls:
    """Bounded least squares on a problem whose answer is known in closed form."""

    def test_linear_sanity_case(self):
        # straight-line fit: residual A x - b with a non-identity Jacobian,
        # unconstrained minimum inside the box, reached from both corners
        x_ls, ssr_ls, _, _ = np.linalg.lstsq(LINE_A, LINE_B, rcond=None)
        lower, upper = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
        for start in (lower + 0.01, upper - 0.01):
            x, ssr, _, converged, _ = solve_one(*linear(LINE_A, LINE_B), start, lower, upper)
            # damped steps stop short of the exact Gauss-Newton point; the
            # SSR, flat at the minimum, is met to second order in that gap
            assert np.max(np.abs(x - x_ls)) < 1e-8
            assert abs(ssr - ssr_ls[0]) < 1e-12
            assert converged
