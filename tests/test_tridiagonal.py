"""The kernel's tridiagonal solve, ode._tridiagonal_solve, against dense
np.linalg.solve, on random systems and on every system shoot and
policy_cost hand it."""

import numpy as np
import pytest

from targetcost import ode
from targetcost.ode import _tridiagonal_solve, policy_cost, shoot

# Sizes about the dense hand-off at 64 rows, odd and even; past 1000 rows the
# dense reference would take 280 MB, so those sizes check the residual only.
SIZES = [2, 3, 63, 64, 65, 128, 129, 1000, 5949, 5950]
DENSE_LIMIT = 1000


def _apply(sub, diag, sup, x):
    """The tridiagonal matrix times x."""
    y = diag * x
    y[1:] += sub[1:] * x[:-1]
    y[:-1] += sup[:-1] * x[1:]
    return y


def _backward_error(sub, diag, sup, rhs, x):
    """max |A x - rhs| / (||A||_inf ||x||_inf), the normwise relative
    residual of a solution x."""
    norm = np.max(np.abs(sub) + np.abs(diag) + np.abs(sup))
    return (np.max(np.abs(_apply(sub, diag, sup, x) - rhs))
            / (norm * np.max(np.abs(x))))


def _dense(sub, diag, sup):
    return np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)


def _random_dominant(n, rng):
    sub, sup = rng.uniform(-1.0, 1.0, (2, n))
    sub[0] = sup[-1] = 0.0
    margin = rng.uniform(0.1, 1.0, n)
    diag = (np.abs(sub) + np.abs(sup) + margin) * rng.choice((-1.0, 1.0), n)
    return sub, diag, sup, rng.standard_normal(n)


def _recorded_systems(monkeypatch, run):
    """Every (sub, diag, sup, rhs) that run() hands the solve, copied."""
    systems = []
    solve = ode._tridiagonal_solve

    def record(*args):
        systems.append(tuple(np.array(a) for a in args))
        return solve(*args)

    monkeypatch.setattr(ode, "_tridiagonal_solve", record)
    run()
    monkeypatch.undo()
    return systems


@pytest.mark.parametrize("n", SIZES)
def test_random_dominant_systems(n):
    rng = np.random.default_rng(n)
    sub, diag, sup, rhs = _random_dominant(n, rng)
    x = _tridiagonal_solve(sub, diag, sup, rhs)
    assert x.shape == (n,)
    assert _backward_error(sub, diag, sup, rhs, x) <= 1e-12
    if n <= DENSE_LIMIT:
        exact = np.linalg.solve(_dense(sub, diag, sup), rhs)
        assert np.max(np.abs(x - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("n", [1, 2, 64, 65, 1000])
def test_end_coefficients_are_not_read(n):
    # sub[0] and sup[-1] reach past the system; _linear_solve hands them
    # over as they are, so whatever they hold, inf and NaN included, gives
    # the same solution.
    rng = np.random.default_rng(n + 1)
    sub, diag, sup, rhs = _random_dominant(n, rng)
    x = _tridiagonal_solve(sub, diag, sup, rhs)
    for ends in ((1.5, -2.0), (np.inf, np.nan)):
        sub[0], sup[-1] = ends
        assert np.array_equal(_tridiagonal_solve(sub, diag, sup, rhs), x)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_newton_jacobians(monkeypatch, p):
    # shoot's Howard steps, Newton steps on the HJB equation, on the three
    # ladder levels: each level has 2 n + 1 rows where the one below has n.
    steps = {1.5: [7, 2, 2], 2.0: [7, 2, 2], 3.0: [9, 3, 2]}[p]
    systems = _recorded_systems(monkeypatch, lambda: shoot(p))
    rows = len(systems[0][1])
    assert [len(s[1]) for s in systems] == (
        [rows] * steps[0] + [2 * rows + 1] * steps[1] + [4 * rows + 3] * steps[2])
    for sub, diag, sup, rhs in systems:
        x = _tridiagonal_solve(sub, diag, sup, rhs)
        assert _backward_error(sub, diag, sup, rhs, x) <= 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_policy_cost_operators(monkeypatch, shots_all, p):
    # The linear cost-to-go equation on policy_cost's two grids, one solve
    # each.
    systems = _recorded_systems(
        monkeypatch, lambda: policy_cost(shots_all[p].curve))
    assert len(systems) == len({len(s[1]) for s in systems}) == 2
    for sub, diag, sup, rhs in systems:
        x = _tridiagonal_solve(sub, diag, sup, rhs)
        assert _backward_error(sub, diag, sup, rhs, x) <= 1e-12


@pytest.mark.parametrize("n", [63, 64, 65, 129, 1000])
def test_grid_operator_against_dense(n):
    # The kernel ODE's difference operator on a grid of n interior nodes
    # spanning the 1e-4 quantiles, with f'(g) between its extremes at p = 2.
    rng = np.random.default_rng(n)
    zs = np.linspace(-3.72, 3.72, n + 2)
    h, zi = zs[1] - zs[0], zs[1:-1]
    sub = 1.0 / h ** 2 - zi / (2.0 * h)
    sup = 1.0 / h ** 2 + zi / (2.0 * h)
    sub[0] = sup[-1] = 0.0
    diag = rng.uniform(-2.0, 2.0, n) - 2.0 / h ** 2
    rhs = rng.standard_normal(n)
    x = _tridiagonal_solve(sub, diag, sup, rhs)
    exact = np.linalg.solve(_dense(sub, diag, sup), rhs)
    assert _backward_error(sub, diag, sup, rhs, x) <= 1e-12
    assert np.max(np.abs(x - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_leaves_its_inputs_alone():
    # _linear_solve hands the same sub- and super-diagonals to every
    # Howard step on a grid.
    rng = np.random.default_rng(7)
    system = _random_dominant(5949, rng)
    copies = [a.copy() for a in system]
    _tridiagonal_solve(*system)
    assert all(np.array_equal(a, b) for a, b in zip(system, copies))
