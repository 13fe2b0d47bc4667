import numpy as np
import pytest

from greenbound import (GridFn, Interval, Kernel, NotOrderedError, PhiFamily,
                        power_product,
                        Problem, ScenarioSpec, build_scenario, check_sub_super,
                        fd_solve, lemma41_identity_check, make_grid, potential,
                        sample, sharp_constants, thm4_conditions)
from greenbound import InfeasibleStartError, SolverFailureError


@pytest.fixture(scope="module")
def unit():
    grid = make_grid(Interval(0.0, 1.0), 401)
    k = Kernel.closed_form(grid.interval)
    one = sample(lambda x: 1.0, grid)
    h = potential(k, one).value
    return grid, k, one, h


def test_fd_linear_problem_exact(unit):
    grid, k, one, h = unit
    prob = Problem(2.0, GridFn(grid, np.zeros(grid.n)), one, k)
    rep = fd_solve(prob)
    exact = 0.5 * grid.nodes * (1 - grid.nodes)
    assert rep.converged
    assert np.max(np.abs(rep.solution.values - exact)) <= 1e-10


def test_fd_recovers_power_profile():
    # q=-1, lam=0.25, gamma=1: V = 0.125 (1-x²) and u = 0.25 (1-x²).  For this
    # V the profile family lam (1-x²) solves 2 lam² - lam + 1/8 = 0, a double
    # root: the solution is a fold point and the Newton error floor is
    # ~sqrt(residual), which still sits inside the O(dx²) recovery band.
    grid = make_grid(Interval(-1.0, 1.0), 801)
    prob, exact = build_scenario(ScenarioSpec("ex4", grid, q=-1.0, lam=0.25, gamma=1.0))
    rep = fd_solve(prob, tol=1e-11)
    assert rep.converged
    dx = grid.spacing
    assert np.max(np.abs(rep.solution.values - exact.values)) <= 10 * dx * dx


def test_fd_absorbing_sandwich(unit):
    grid, k, one, h = unit
    prob = Problem(2.0, sample(lambda x: -1.0, grid), one, k)
    cond = thm4_conditions(prob)
    assert np.all(cond.sufficient_ok)
    rep = fd_solve(prob, init=h, tol=1e-9)
    assert rep.converged
    inner = slice(1, -1)
    u = rep.solution.values
    assert np.all(u[inner] >= h.values[inner] - 1e-12)
    assert np.all(u[inner] <= 2.0 * h.values[inner] + 1e-12)


def test_fd_manufactured_solution(unit):
    # choose a smooth positive profile and build V = (u'' + f)/u^q around it
    grid, k, one, h = unit
    q = -0.7
    x = grid.nodes
    u_star = 0.3 + np.sin(np.pi * x) ** 2
    upp = (2 * np.pi ** 2 * np.cos(2 * np.pi * x))
    V = GridFn(grid, (upp + 1.0) / u_star ** q)
    prob = Problem(q, V, one, k)
    rep = fd_solve(prob, boundary=(0.3, 0.3),
                   init=GridFn(grid, np.full(grid.n, 0.5)), tol=1e-10)
    assert rep.converged
    err = np.max(np.abs(rep.solution.values - u_star))
    assert err <= 5e-5  # O(dx²) for the trigonometric part


def test_fd_newton_quadratic_tail(unit):
    grid, k, one, h = unit
    prob = Problem(3.0, sample(lambda x: -2.0, grid), one, k)
    rep = fd_solve(prob, tol=1e-12)
    rs = [r for r in rep.residual_history if r < 1e-3]
    assert len(rs) >= 2
    # once inside the quadratic basin, r_{k+1} <= C r_k² for a moderate C
    for r0, r1 in zip(rs, rs[1:]):
        if r1 <= 1e-14:  # rounding floor
            continue
        assert r1 <= 1e4 * r0 ** 2


@pytest.mark.parametrize("n", [2001, 8001])
@pytest.mark.parametrize("q,c", [(3.0, -2.0), (2.0, 0.5)])
def test_fd_newton_stops_at_rounding_floor(q, c, n):
    # the sup-residual cannot fall below ~eps·max|u|/dx², which exceeds the
    # default tol = 1e-10 on fine grids; convergence is declared at the floor
    grid = make_grid(Interval(0.0, 1.0), n)
    k = Kernel.closed_form(grid.interval)
    prob = Problem(q, sample(lambda x: c, grid), sample(lambda x: 1.0, grid), k)
    rep = fd_solve(prob)
    assert rep.converged
    assert rep.residual_floor > 1e-10
    assert rep.residual_norm <= rep.residual_floor


def test_check_sub_super_h_supersolution(unit):
    grid, k, one, h = unit
    q = -1.0
    V = GridFn(grid, 0.1 * h.values)     # V >= 0 so h is a supersolution
    prob = Problem(q, V, one, k)
    a_star, x_star = sharp_constants(q)
    ghqv = potential(k, power_product(h, q, V)).value.values
    sub_vals = h.values - x_star ** q * ghqv
    sub_vals[0] = sub_vals[-1] = 0.0
    sub_ok, sup_ok = check_sub_super(GridFn(grid, np.minimum(sub_vals, h.values)),
                                     h, prob, tol=1e-9)
    assert np.all(sup_ok)
    assert np.all(sub_ok[2:-2])


def test_check_sub_super_exact_solution_both_pass(unit):
    grid, k, one, h = unit
    prob = Problem(2.0, GridFn(grid, np.zeros(grid.n)), one, k)
    sub_ok, sup_ok = check_sub_super(h, h, prob, tol=1e-8)
    assert np.all(sub_ok) and np.all(sup_ok)


def test_check_sub_super_ordering(unit):
    grid, k, one, h = unit
    prob = Problem(2.0, GridFn(grid, np.zeros(grid.n)), one, k)
    with pytest.raises(NotOrderedError):
        check_sub_super(GridFn(grid, h.values + 1.0), h, prob, tol=1e-8)


def test_identity_constant_v():
    # gradient term vanishes; both sides agree to the stencil rounding floor
    grid = make_grid(Interval(0.0, 1.0), 201)
    hsm = GridFn(grid, 1.0 + np.sin(np.pi * grid.nodes))
    v = GridFn(grid, np.full(grid.n, 0.3))
    assert lemma41_identity_check(hsm, v, PhiFamily(2.0)) <= 1e-10


def test_identity_rejects_v_outside_domain():
    grid = make_grid(Interval(0.0, 1.0), 51)
    h = GridFn(grid, np.ones(grid.n))
    v = GridFn(grid, np.full(grid.n, 2.0))   # I_q for q=2 is (-inf, 1)
    with pytest.raises(Exception):
        lemma41_identity_check(h, v, PhiFamily(2.0))


def test_identity_unit_h_is_chain_rule():
    discs = []
    for n in (101, 201):
        grid = make_grid(Interval(0.0, 1.0), n)
        x = grid.nodes
        hone = GridFn(grid, np.ones(grid.n))
        v = GridFn(grid, 0.3 * np.sin(2 * np.pi * x))
        discs.append(lemma41_identity_check(hone, v, PhiFamily(-1.0)))
    assert discs[0] / discs[1] >= 3.5


@pytest.mark.parametrize("q", [-1.0, 0.5, 2.0])
def test_identity_second_order(q):
    rng = np.random.default_rng(9)
    a1, a2 = rng.uniform(0.1, 0.3, 2)
    discs = []
    for n in (101, 201, 401, 801):
        grid = make_grid(Interval(0.0, 1.0), n)
        x = grid.nodes
        hsm = GridFn(grid, 2.0 + np.cos(2 * np.pi * x) + a1 * np.sin(4 * np.pi * x))
        v = GridFn(grid, 0.2 * np.sin(2 * np.pi * x) + a2 * np.cos(6 * np.pi * x))
        discs.append(lemma41_identity_check(hsm, v, PhiFamily(q)))
    for c0, c1 in zip(discs, discs[1:]):
        assert c0 / c1 >= 3.5


def test_import_leaves_scipy_unloaded():
    # scipy is only needed once fd_solve runs; importing greenbound is cheap
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, greenbound; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("q", [2.0, -1.0])
def test_fd_non_finite_initial_guess_is_infeasible(unit, q):
    grid, k, one, h = unit
    prob = Problem(q, GridFn(grid, np.full(grid.n, -1.0 if q > 1 else 1.0)), one, k)
    u = h.values.copy()
    u[40] = np.nan
    with pytest.raises(InfeasibleStartError, match="not finite"):
        fd_solve(prob, init=GridFn(grid, u))


def test_fd_unsolvable_jacobian_is_a_solver_failure(unit, monkeypatch):
    # every shift of the ladder fails: the Newton step cannot be formed
    import scipy.linalg

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(scipy.linalg, "solve_banded", singular)
    grid, k, one, h = unit
    with pytest.raises(SolverFailureError):
        fd_solve(Problem(2.0, sample(lambda x: -1.0, grid), one, k))


def test_fd_positivity_lost_after_every_halving():
    grid = make_grid(Interval(0.0, 1.0), 101)
    k = Kernel.closed_form(grid.interval)
    prob = Problem(0.5, sample(lambda x: -20.0, grid), sample(lambda x: 1.0, grid), k)
    with pytest.raises(InfeasibleStartError,
                       match="positivity could not be restored by damping"):
        fd_solve(prob, boundary=(0.3, 0.1))
