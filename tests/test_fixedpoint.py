import numpy as np
import pytest

from greenbound import (DivergingBracketError, DomainError, GridFn, Interval,
                        power_product, Problem, thm4_conditions,
                        InvalidSignError, Kernel, PreconditionFailedError,
                        make_grid, potential, sample, scalar_recurrence,
                        sharp_constants, solve_integral_equation)


@pytest.fixture(scope="module")
def setting():
    grid = make_grid(Interval(0.0, 1.0), 401)
    k = Kernel.closed_form(grid.interval)
    h = potential(k, sample(lambda x: 1.0, grid)).value
    return grid, k, h


def test_sharp_constants_values():
    assert sharp_constants(-1.0) == (pytest.approx(0.25), pytest.approx(0.5))
    assert sharp_constants(2.0)[0] == pytest.approx(0.25)
    assert sharp_constants(2.0)[1] == pytest.approx(2.0)
    # q = -2: a* = (1.5)^{-2}/3 = 4/27, x* = 2/3
    a, x = sharp_constants(-2.0)
    assert a == pytest.approx(4.0 / 27.0) and x == pytest.approx(2.0 / 3.0)
    with pytest.raises(DomainError):
        sharp_constants(0.5)


def test_recurrence_geometric_limit():
    # fixed point of b = 1 - a/b is the larger root of b² - b + a = 0
    seq = scalar_recurrence(-1.0, 0.225, 200)
    root = (1.0 + np.sqrt(1.0 - 4 * 0.225)) / 2.0
    assert abs(seq[-1] - root) <= 1e-12
    assert abs(seq[-1] - (1.0 - 0.225 / seq[-1])) <= 1e-12
    assert all(seq[i + 1] <= seq[i] for i in range(len(seq) - 1))


def test_recurrence_tangent_rate():
    seq = scalar_recurrence(-1.0, 0.25, 1000)
    assert all(seq[k] >= 0.5 for k in range(1001))
    assert all(seq[k] - 0.5 <= 1.0 / k for k in range(10, 1001))


def test_recurrence_above_threshold():
    with pytest.raises(DivergingBracketError):
        scalar_recurrence(-1.0, 0.3, 100)


def test_recurrence_rejects_positive_q():
    with pytest.raises(DomainError):
        scalar_recurrence(2.0, 0.1, 10)


def test_solve_zero_potential_single_step(setting):
    grid, k, h = setting
    tr = solve_integral_equation(k, h, GridFn(grid, np.zeros(grid.n)), -1.0)
    assert tr.converged and tr.k_stop == 1
    assert np.array_equal(tr.solution.values, h.values)


def test_solve_tangent_exact_fixed_point(setting):
    grid, k, h = setting
    a_star, x_star = sharp_constants(-1.0)
    V = GridFn(grid, a_star * h.values)          # V = a* h^{-q}, q = -1
    tr = solve_integral_equation(k, h, V, -1.0)
    assert tr.converged
    inner = slice(1, -1)
    assert np.max(np.abs(tr.solution.values[inner] - 0.5 * h.values[inner])) <= 1e-8
    assert tr.residual_norm <= 1e-10 * float(np.max(h.values))
    its = tr.iterates
    for i in range(len(its) - 1):
        assert np.all(its[i + 1].values[inner] <= its[i].values[inner] + 1e-12)


def test_solve_monotone_envelope_q_negative(setting):
    grid, k, h = setting
    a_star, _ = sharp_constants(-1.0)
    V = GridFn(grid, 0.9 * a_star * h.values)
    tr = solve_integral_equation(k, h, V, -1.0)
    assert tr.converged
    inner = slice(1, -1)
    # nodewise bracket b_k h <= u_k <= u_{k-1} from the scalar envelope
    for i, it in enumerate(tr.iterates):
        assert np.all(it.values[inner] >= tr.b_sequence[min(i, len(tr.b_sequence) - 1)]
                      * h.values[inner] - 1e-12)
    theta = (1.0 + np.sqrt(1.0 - 4 * 0.9 * a_star)) / 2.0
    assert np.max(np.abs(tr.solution.values[inner] / h.values[inner] - theta)) <= 1e-8


def test_solve_residual_certificate(setting):
    grid, k, h = setting
    V = GridFn(grid, 0.2 * h.values)
    tr = solve_integral_equation(k, h, V, -1.0, tol=1e-12 * float(np.max(h.values)))
    assert tr.converged
    ku = potential(k, power_product(tr.solution, -1.0, V)).value.values
    resid = tr.solution.values[1:-1] + ku[1:-1] - h.values[1:-1]
    assert np.max(np.abs(resid)) <= 1e-12 * float(np.max(h.values)) * 1.01


def test_solve_maximality_probe(setting):
    grid, k, h = setting
    a_star, x_star = sharp_constants(-1.0)
    V = GridFn(grid, 0.9 * a_star * h.values)
    tol = 1e-10 * float(np.max(h.values))
    tr = solve_integral_equation(k, h, V, -1.0, tol=tol)
    # restart 10% below the converged maximal solution: returns to it
    down = GridFn(grid, 0.9 * tr.solution.values)
    tr2 = solve_integral_equation(k, h, V, -1.0, tol=tol, u0=down)
    assert tr2.converged
    assert np.max(np.abs(tr2.solution.values - tr.solution.values)) <= 10 * tol
    # an admissible low start (x* h) converges to something <= u + tol
    tr3 = solve_integral_equation(k, h, V, -1.0, tol=tol,
                                  u0=GridFn(grid, x_star * h.values))
    assert tr3.converged
    assert np.all(tr3.solution.values <= tr.solution.values + 10 * tol)


def test_solve_superlinear_regime_sandwich(setting):
    grid, k, h = setting
    V = sample(lambda x: -0.5, grid)
    tr = solve_integral_equation(k, h, V, 2.0)
    assert tr.converged
    inner = slice(1, -1)
    for i in range(len(tr.iterates) - 1):
        assert np.all(tr.iterates[i + 1].values[inner]
                      >= tr.iterates[i].values[inner] - 1e-14)
    assert np.all(tr.solution.values[inner] >= h.values[inner] - 1e-14)
    assert np.all(tr.solution.values[inner] <= 2.0 * h.values[inner] + 1e-14)


def test_solve_condition_violation_reports_nodes(setting):
    grid, k, h = setting
    a_star, _ = sharp_constants(-1.0)
    V = GridFn(grid, 1.2 * a_star * h.values)
    with pytest.raises(PreconditionFailedError) as err:
        solve_integral_equation(k, h, V, -1.0)
    assert len(err.value.nodes) > 0


def test_solve_sign_and_regime_validation(setting):
    grid, k, h = setting
    with pytest.raises(InvalidSignError):
        solve_integral_equation(k, h, sample(lambda x: -1.0, grid), -1.0)
    with pytest.raises(InvalidSignError):
        solve_integral_equation(k, h, sample(lambda x: 1.0, grid), 2.0)
    with pytest.raises(DomainError):
        solve_integral_equation(k, h, sample(lambda x: 1.0, grid), 0.5)


def test_solve_kmax_reached_returns_trace(setting):
    grid, k, h = setting
    a_star, _ = sharp_constants(-1.0)
    V = GridFn(grid, a_star * h.values)
    tr = solve_integral_equation(k, h, V, -1.0, k_max=3)
    assert not tr.converged
    assert tr.k_stop == 3 and tr.solution is not None


def test_trace_export_steps(setting):
    grid, k, h = setting
    tr = solve_integral_equation(k, h, GridFn(grid, 0.1 * h.values), -1.0)
    steps = tr.export_steps()
    assert steps[0]["k"] == 0 and "residual" in steps[0] and "b_k" in steps[0]


@pytest.mark.parametrize("q,ratio,k_stop,converged,accelerated", [
    (-2.0, 0.5, 14, True, False), (-2.0, 1.0, 200, False, False),
    (-0.5, 0.5, 12, True, False), (-0.5, 1.0, 20, True, True),
    (3.0, 0.5, 17, True, False), (3.0, 1.0, 200, False, False)])
def test_tangent_style_weights_keep_their_iterates(q, ratio, k_stop, converged,
                                                   accelerated):
    # V = ±c h^{-q} makes h^q V = ±c, 0·inf at both endpoints, so every map
    # application integrates both boundary panels by shell moments; u = x_c h
    grid = make_grid(Interval(0.0, 1.0), 2001)
    k = Kernel.closed_form(grid.interval)
    h = potential(k, sample(lambda x: 1.0, grid)).value
    a_star, x_star = sharp_constants(q)
    c = ratio * a_star
    with np.errstate(divide="ignore"):
        V = GridFn(grid, (c if q < 0 else -c) * h.values ** (-q))
    tr = solve_integral_equation(k, h, V, q, k_max=200)
    assert (tr.k_stop, tr.converged, tr.accelerated) == (k_stop, converged, accelerated)
    if converged:
        x_c = 1.0
        for _ in range(2000):
            x_c = 1.0 - c * x_c ** q if q < 0 else 1.0 + c * x_c ** q
        x_c = x_c if ratio < 1.0 else x_star
        hv = h.values
        assert np.max(np.abs(tr.solution.values - x_c * hv)) <= 1e-7 * np.max(hv)


@pytest.mark.parametrize("q", [-1.0, 2.0])
@pytest.mark.parametrize("r", [0.98, 1.0, 1.01])
def test_solver_precondition_nodes_are_the_thm4_failures(q, r):
    """The solver refuses exactly where Theorem 4's sufficiency flag fails.

    V is scaled so that max ±G(h^q V)/h = r·a*.
    """
    grid = make_grid(Interval(0.0, 1.0), 401)
    k = Kernel.closed_form(grid.interval)
    f = sample(lambda x: 1.0, grid)
    h = potential(k, f).value
    sign = 1.0 if q < 0.0 else -1.0
    shape = sign * (0.5 + np.sin(3.0 * grid.nodes) ** 2)
    g = potential(k, power_product(h, q, GridFn(grid, shape))).value.values
    c = r * sharp_constants(q)[0] / np.max(sign * g[1:-1] / h.values[1:-1])
    V = GridFn(grid, c * shape)
    failing = [int(i) for i in
               np.flatnonzero(~thm4_conditions(Problem(q, V, f, k)).sufficient_ok)]
    try:
        solve_integral_equation(k, h, V, q, k_max=2)
        refused = []
    except PreconditionFailedError as exc:
        refused = exc.nodes
    assert refused == failing
    assert bool(failing) == (r > 1.0)
