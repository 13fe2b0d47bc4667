import numpy as np
import pytest

from greenbound import (DomainError, GridFn, Interval, InvalidScenarioError,
                        Kernel, ResolutionInsufficientError, ScenarioSpec,
                        WindowTooSmallError, build_scenario,
                        ex1_functions, ex4_functions, fit_boundary_rate,
                        make_grid, potential, sample, sharpness_report_ex4,
                        thm1_bound, verify_cancellation_ex1)
from greenbound._oscillate import green_apply_oscillatory
from greenbound.scenarios import EX1_HEAD_BUDGET, EX1_WINDOW_BUDGET
from greenbound.bvp import laplacian_1d


def test_ex1_exact_solution_formula():
    grid = make_grid(Interval(0.0, 1.0), 101)
    spec = ScenarioSpec("ex1", grid, q=1.0, alpha=0.5)
    problem, exact = build_scenario(spec)
    x = grid.nodes[1:-1]
    expect = x * (1 - x) * (1 + x * np.sin(np.pi / np.sqrt(x)))
    assert np.allclose(exact.values[1:-1], expect, rtol=1e-13)
    assert exact.values[0] == 0.0 and exact.values[-1] == 0.0
    assert np.all(exact.values[1:-1] > 0)


def test_ex1_V_consistent_with_solution():
    # V must close the equation -u'' + V u = 1 at interior nodes, which the
    # FD residual verifies at second order on a window clear of aliasing
    errs = []
    for n in (401, 801, 1601):
        grid = make_grid(Interval(0.0, 1.0), n)
        _, exact = build_scenario(ScenarioSpec("ex1", grid, q=1.0, alpha=0.5))
        fns = ex1_functions(0.5)
        x = grid.nodes
        res = (-laplacian_1d(exact.values, grid.spacing)
               + fns["V"](x[1:-1]) * exact.values[1:-1] - 1.0)
        window = (x[1:-1] >= 0.3) & (x[1:-1] <= 0.7)
        errs.append(np.max(np.abs(res[window])))
    assert errs[0] / errs[2] >= 10.0  # ~second order over two halvings


def test_ex4_V_closed_form_gamma1():
    grid = make_grid(Interval(-1.0, 1.0), 101)
    lam, q = 0.25, -1.0
    problem, exact = build_scenario(ScenarioSpec("ex4", grid, q=q, lam=lam, gamma=1.0))
    x = grid.nodes[1:-1]
    expect = lam ** (-q) * (1 - 2 * lam) * (1 - x * x) ** (-q)
    assert np.allclose(problem.V.values[1:-1], expect, rtol=1e-13)
    assert np.all(problem.V.values[1:-1] > 0)


def test_ex4_exact_solution_solves_equation():
    grid = make_grid(Interval(-1.0, 1.0), 801)
    for lam, gamma, q in [(0.25, 1.0, -1.0), (1.0, 0.9, -1.0), (0.3, 1.5, -1.0)]:
        problem, exact = build_scenario(
            ScenarioSpec("ex4", grid, q=q, lam=lam, gamma=gamma))
        inner = slice(1, -1)
        res = (-laplacian_1d(exact.values, grid.spacing)
               + problem.V.values[inner] * exact.values[inner] ** q - 1.0)
        x = grid.nodes[inner]
        window = np.abs(x) <= 0.9   # second-order window clear of the boundary
        assert np.max(np.abs(res[window])) <= 50 * grid.spacing ** 2


def test_ex1_alpha1_potential_undefined_but_improper_converges():
    # at alpha = 1 both signed parts of G(hV) diverge, so the node-level
    # potential is undefined, while the exhaustion evaluation converges
    grid = make_grid(Interval(0.0, 1.0), 801)
    fns = ex1_functions(1.0)
    hV = sample(lambda x: fns["hV"](x) if 0 < x < 1 else np.inf, grid)
    res = potential(Kernel.closed_form(grid.interval), hV)
    assert res.plus_infinite and res.minus_infinite
    assert not res.well_defined[1:-1].any()
    rep = verify_cancellation_ex1(1.0, grid, probes=np.array([1e-3, 1e-2]),
                                  levels=(12, 16), max_periods=100_000)
    assert np.all(np.isfinite(rep.improper_values))


def test_ex1_alpha_half_potential_defined():
    grid = make_grid(Interval(0.0, 1.0), 801)
    fns = ex1_functions(0.5)
    hV = sample(lambda x: fns["hV"](x) if 0 < x < 1 else np.inf, grid)
    res = potential(Kernel.closed_form(grid.interval), hV)
    assert not res.plus_infinite and not res.minus_infinite


def test_ex3_mild_absorption_bound_scales_like_distance():
    # q=-0.5, beta=0.25 < 1+q: the upper bound is comparable to d near the
    # boundary, fitted slope 1 within 0.05
    grid = make_grid(Interval(0.0, 1.0), 2001)
    prob, _ = build_scenario(ScenarioSpec("ex3", grid, q=-0.5, beta=0.25))
    rep = thm1_bound(prob)
    one = GridFn(grid, np.ones(grid.n))
    fit = fit_boundary_rate(rep.bound, one)
    assert abs(fit.slope - 1.0) <= 0.05


def test_ex2_weight_not_integrable_at_threshold():
    grid = make_grid(Interval(0.0, 1.0), 801)
    q = -0.5
    spec = ScenarioSpec("ex2", grid, q=q, lam=1.0, beta=2.0 + q)
    problem, _ = build_scenario(spec)
    rep = thm1_bound(problem)
    assert rep.ghqv.plus_infinite


def test_scenario_validation():
    grid = make_grid(Interval(0.0, 1.0), 11)
    with pytest.raises(InvalidScenarioError):
        ScenarioSpec("ex9", grid)
    with pytest.raises(InvalidScenarioError):
        build_scenario(ScenarioSpec("ex1", grid, q=1.0, alpha=-0.5))
    with pytest.raises(InvalidScenarioError):
        build_scenario(ScenarioSpec("ex2", grid, q=0.5, lam=1.0, beta=1.0))
    with pytest.raises(InvalidScenarioError):
        build_scenario(ScenarioSpec("ex4", grid, q=-1.0, lam=1.0, gamma=1.0))


def test_scenario_determinism():
    grid = make_grid(Interval(0.0, 1.0), 101)
    p1, _ = build_scenario(ScenarioSpec("ex2", grid, q=-0.5, lam=1.0, beta=1.0))
    p2, _ = build_scenario(ScenarioSpec("ex2", grid, q=-0.5, lam=1.0, beta=1.0))
    assert np.array_equal(p1.V.values, p2.V.values)


def test_fit_power_law_synthetic():
    grid = make_grid(Interval(0.0, 1.0), 2001)
    d = grid.boundary_distance()
    ref = GridFn(grid, np.ones(grid.n))
    with np.errstate(divide="ignore"):
        g = GridFn(grid, d ** (-0.5))
    fit = fit_boundary_rate(g, ref)
    assert fit.model == "power"
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.n_nodes >= 8


def test_fit_log_profile_synthetic():
    grid = make_grid(Interval(0.0, 1.0), 2001)
    d = grid.boundary_distance()
    ref = GridFn(grid, np.ones(grid.n))
    with np.errstate(divide="ignore"):
        g = GridFn(grid, 3.0 * np.log(2.0 / np.maximum(d, 1e-300)))
    fit = fit_boundary_rate(g, ref)
    assert fit.model == "power_log"


def test_fit_bounded_synthetic():
    grid = make_grid(Interval(0.0, 1.0), 2001)
    ref = GridFn(grid, np.ones(grid.n))
    g = GridFn(grid, 2.0 + 0.01 * grid.boundary_distance())
    fit = fit_boundary_rate(g, ref)
    assert fit.model == "bounded"
    assert abs(fit.slope) < 0.1


def test_fit_window_too_small():
    grid = make_grid(Interval(0.0, 1.0), 51)
    ref = GridFn(grid, np.ones(grid.n))
    with pytest.raises(WindowTooSmallError):
        fit_boundary_rate(ref, ref)  # default window holds no nodes at n=51


def test_oscillatory_engine_against_smooth_oracle():
    # a smooth integrand exercises the panel plumbing without oscillation;
    # compare with a dense trapezoid of the full Green potential.  The
    # non-alternating head below the resolved depth (~1e-8 here) limits the
    # attainable agreement; the alternating certificate targets signed w.
    w_fn = lambda y: np.sin(3.0 * y) + 0.5
    xs = np.array([0.2, 0.5, 0.8])
    res = green_apply_oscillatory(w_fn, 1.0, xs, head_budget=1e-9)
    y = np.linspace(1e-9, 1.0, 2_000_001)
    for x, got in zip(xs, res.values):
        gk = np.minimum(x * (1 - y), y * (1 - x))
        oracle = np.trapezoid(gk * w_fn(y), y)
        assert got == pytest.approx(oracle, rel=2e-6)


def test_cancellation_alpha_half_quick():
    grid = make_grid(Interval(0.0, 1.0), 501)
    rep = verify_cancellation_ex1(0.5, grid)
    assert rep.positivity_min > 0.5
    assert rep.sup_ratio is not None and np.isfinite(rep.sup_ratio)
    assert rep.stability <= 0.02
    assert rep.bound_violations == 0
    assert rep.bound_margin_min >= -1e-6


def test_cancellation_absolute_value_diverges():
    # with |V| in place of V the window sup grows under refinement near
    # alpha = 1 (the rectified integrand loses the cancellation)
    alpha = 0.9
    hV = ex1_functions(alpha)["hV"]
    sups = []
    for n in (501, 1001, 2001):
        grid = make_grid(Interval(0.0, 1.0), n)
        xs = grid.nodes[1:-1]
        # truncated below dx/64, so each grid resolves its own window
        habs = lambda y: np.where(y > grid.spacing / 64, np.abs(hV(y)), 0.0)
        res = green_apply_oscillatory(habs, alpha, xs, max_periods=400_000)
        ratio = res.values / (0.5 * xs * (1 - xs))
        sups.append(np.max(ratio[xs <= 0.5]))
    assert sups[1] >= 1.2 * sups[0]
    assert sups[2] >= 1.2 * sups[1]


def test_sharpness_gamma1_ratio():
    grid = make_grid(Interval(-1.0, 1.0), 801)
    rep = sharpness_report_ex4(1.0, 1.0, -1.0, grid)
    assert rep.classification == "sharp"
    assert rep.sup_ratio == pytest.approx(2.0 / np.sqrt(5.0), rel=1e-10)


def test_sharpness_gamma_between():
    grid = make_grid(Interval(-1.0, 1.0), 2001)
    rep = sharpness_report_ex4(1.0, 0.9, -1.0, grid)
    assert rep.classification == "sharp"
    assert abs(rep.bound_exponent - rep.exact_exponent) <= 0.05


def test_sharpness_trivialized():
    grid = make_grid(Interval(-1.0, 1.0), 801)
    rep = sharpness_report_ex4(1.0, 0.4, -1.0, grid)
    assert rep.classification == "trivialized"


def test_sharpness_fast_decay_not_sharp():
    grid = make_grid(Interval(-1.0, 1.0), 2001)
    rep = sharpness_report_ex4(0.3, 1.5, -1.0, grid)
    assert rep.classification == "not-sharp"
    assert rep.exact_exponent > rep.bound_exponent + 0.3


def test_reports_serialize(tmp_path):
    grid = make_grid(Interval(-1.0, 1.0), 801)
    rep = sharpness_report_ex4(1.0, 1.0, -1.0, grid)
    path = tmp_path / "ex4.json"
    rep.to_json(path)
    import json
    data = json.loads(path.read_text())
    assert data["schema"] == "greenbound/1"
    assert data["classification"] == "sharp"


def _two_trig_ex1(alpha):
    # reference: hV and D as evaluated before the single-trig rewrite, with
    # x^{-α}, sin and cos computed once for 1 + u'' and again for D
    def trig(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = x ** (-alpha)
            phase = np.pi * t
            return t, np.sin(phase), np.cos(phase)

    def D(x):
        _, s, _ = trig(x)
        return 1.0 + np.asarray(x, dtype=float) * s

    def one_plus_upp(x):
        t, s, c = trig(x)
        return (-1.0 + 2.0 * (1.0 - 3.0 * x) * s
                - 2.0 * alpha * np.pi * (1.0 - 2.0 * x) * t * c
                - alpha ** 2 * np.pi ** 2 * (1.0 - x) * t * t * s
                + alpha * np.pi * (alpha - 1.0) * (1.0 - x) * t * c)

    def hV(x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & (x < 1.0)
        xs = np.where(inside, x, 0.5)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = one_plus_upp(xs) / (2.0 * D(xs))
        return np.where(inside, vals, 0.0)

    return hV, D


@pytest.mark.parametrize("alpha", [0.01, 0.5, 0.75, 1.0])
def test_ex1_single_trig_bitwise(alpha):
    x = np.concatenate([np.geomspace(1e-300, 1.0, 4001),
                        np.linspace(-0.5, 1.5, 4001), [0.0, 1.0]])
    hV_ref, D_ref = _two_trig_ex1(alpha)
    fns = ex1_functions(alpha)
    assert np.array_equal(fns["hV"](x), hV_ref(x), equal_nan=True)
    assert np.array_equal(fns["D"](x), D_ref(x), equal_nan=True)


def test_ex1_levels_pass_matches_single_level_passes():
    # one call over all exhaustion levels against one call per level; the
    # probe at 1e-5 lies outside the shallow levels and must stay NaN there,
    # and the windows of the deeper levels are summed, each from its own
    # edge and the budget, so they carry a certificate
    probes = np.array([1e-5, 1e-3])
    levels, max_periods = (12, 16), 100_000
    grid = make_grid(Interval(0.0, 1.0), 801)
    rep = verify_cancellation_ex1(1.0, grid, probes=probes, levels=levels,
                                  max_periods=max_periods)
    hV = ex1_functions(1.0)["hV"]
    worst = 0.0
    assert len(rep.improper_sequence) == levels[1] - levels[0] + 1
    for m, got in zip(range(levels[0], levels[1] + 1), rep.improper_sequence):
        delta = 2.0 ** (-(m + 2))
        inside = (probes > delta * 1.5) & (probes < 1.0 - delta * 1.5)
        r = green_apply_oscillatory(hV, 1.0, probes[inside], a=delta,
                                    b=1.0 - delta, head_budget=EX1_WINDOW_BUDGET,
                                    max_periods=max_periods)
        assert np.all(np.isnan(got[~inside]))
        np.testing.assert_allclose(got[inside], r.values, rtol=1e-12, atol=0)
        worst = max(worst, float(np.max(r.eps)))
    assert np.isnan(rep.improper_sequence[0][0])
    assert np.isfinite(rep.improper_sequence[-1][0])
    assert worst > 0.0
    assert rep.certified_remainder == pytest.approx(worst, rel=1e-9)


def test_ex1_levels_result_shapes():
    hV = ex1_functions(1.0)["hV"]
    deltas = np.array([2.0 ** -10, 2.0 ** -12])
    xs = np.array([5e-4, 1e-2, 0.5])
    r = green_apply_oscillatory(hV, 1.0, xs, a=deltas, b=1.0 - deltas)
    for arr in (r.values, r.eps):
        assert arr.shape == (2, 3)
    assert r.head_bound.shape == (2,)
    assert isinstance(r.periods, int) and isinstance(r.alternating_ok, bool)
    assert np.isnan(r.values[0, 0]) and np.all(np.isfinite(r.values[1]))
    single = green_apply_oscillatory(hV, 1.0, xs[1:], a=deltas[0],
                                     b=1.0 - deltas[0])
    assert np.ndim(single.head_bound) == 0 and single.values.shape == (2,)
    np.testing.assert_allclose(r.values[0, 1:], single.values, rtol=1e-12)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.3, 0.61, 0.75])
def test_ex1_coarse_readoff_matches_coarse_pass(alpha):
    # the coarse ratio is read off the refined pass at every other node;
    # a separate pass on the grid's own nodes differs only by quadrature
    grid = make_grid(Interval(0.0, 1.0), 2001)
    rep = verify_cancellation_ex1(alpha, grid)
    xs = grid.nodes[1:-1]
    assert np.array_equal(rep.curve_x, xs)
    res = green_apply_oscillatory(ex1_functions(alpha)["hV"], alpha, xs,
                                  head_budget=5e-11, max_periods=400_000)
    ratio = res.values / (0.5 * xs * (1.0 - xs))
    scale = np.max(np.abs(ratio))
    assert np.max(np.abs(rep.curve_ratio - ratio)) <= 5e-9 * scale
    assert rep.certified_remainder == res.head_bound


def _brute_ex1_green(alpha, xs, periods=2 ** 17, a=0.0, w=None):
    """G(w) on (a, 1 - a) at xs from Gauss panels on every sign interval down to y_N.

    w is ex1's hV unless given.
    N = periods + 1 and y_k = k^{-1/alpha}.  Every interval between sign
    changes, points, edges and a 0.005 fill is split in two 8-point Gauss
    panels.  For a = 0 the partial sums down to y_{N-1} and y_N bracket the
    limit; the middle of that bracket and its half-width are returned.  An
    edge a > y_{N+1} (or an array of them, one row each) is summed down to
    exactly, and its half-width is 0.
    """
    hV = w if w is not None else ex1_functions(alpha)["hV"]
    gx, gw = np.polynomial.legendre.leggauss(8)
    zeros = np.arange(1, periods + 2, dtype=float) ** (-1.0 / alpha)
    cuts = np.ravel(a)[np.ravel(a) > 0.0]
    edges = np.unique(np.concatenate([zeros, xs, np.linspace(0.0, 1.0, 201)[1:],
                                      cuts, 1.0 - cuts]))
    edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    m0, m1 = [], []
    for lo, hi in zip(np.array_split(edges[:-1], 16), np.array_split(edges[1:], 16)):
        half = 0.5 * (hi - lo)[:, None]
        y = 0.5 * (lo + hi)[:, None] + half * gx
        f = hV(y) * half * gw
        m0.append(f.sum(axis=1))
        m1.append((y * f).sum(axis=1))
    m0, m1 = np.concatenate(m0), np.concatenate(m1)
    rows = []
    for am in np.ravel(a):
        bm = 1.0 - am
        (i_a, i_b), i_x = np.searchsorted(edges, [am, bm]), np.searchsorted(edges, xs)
        A = np.array([np.sum(m1[i_a:i] - am * m0[i_a:i]) for i in i_x])
        B = np.array([np.sum(bm * m0[i:i_b] - m1[i:i_b]) for i in i_x])
        rows.append(((bm - xs) * A + (xs - am) * B) / (bm - am))
    if np.ndim(a):
        return np.array(rows), 0.0
    if a > 0.0:
        return rows[0], 0.0
    deepest = (1.0 - xs) * (m1[0] + m1[1])   # the deepest interval's two panels
    return rows[0] - 0.5 * deepest, 0.5 * np.abs(deepest)


@pytest.mark.parametrize("alpha", [0.4, 0.6, 0.8])
def test_ex1_summed_head_against_brute_force_periods(alpha):
    # the summed head against 2^17 resolved periods, which the oscillatory
    # pass never reaches: both agree within the head certificate plus the
    # bracket of the brute-force partial sums, up to the rounding of two
    # panel layouts.  At alpha = 0.8 the point 5e-4 lies below y_439, so
    # the main pass runs below y_254, where the summed periods start
    xs = np.array([5e-4, 0.002, 0.05, 0.3, 0.7])
    res = green_apply_oscillatory(ex1_functions(alpha)["hV"], alpha, xs,
                                  head_budget=EX1_HEAD_BUDGET)
    ref, half_bracket = _brute_ex1_green(alpha, xs)
    assert res.periods < 2 ** 17
    rounding = 1e-14 * np.max(np.abs(ref))
    assert np.all(np.abs(res.values - ref) <= res.head_bound + half_bracket + rounding)


def test_ex1_summed_windows_against_brute_force_periods():
    # at alpha = 1 the windows of levels 12..17 against every sign interval
    # summed down to each edge a_m = 2^-(m+2): both agree within the window
    # certificate, up to the rounding of two panel layouts.  The probe at
    # 1e-5, inside levels 15 to 17 only, takes their main pass below the
    # summed periods, down to y_100002
    xs = np.array([1e-5, 1e-3, 1e-2])
    deltas = 2.0 ** -(np.arange(12, 18) + 2.0)
    res = green_apply_oscillatory(ex1_functions(1.0)["hV"], 1.0, xs, a=deltas,
                                  b=1.0 - deltas, head_budget=EX1_WINDOW_BUDGET,
                                  max_periods=400_000)
    ref, half_bracket = _brute_ex1_green(1.0, xs, periods=2 ** 19 - 1, a=deltas)
    assert res.periods < 2 ** 17 and np.all(res.head_bound <= EX1_WINDOW_BUDGET)
    inside = ~np.isnan(res.values)
    assert np.array_equal(inside[:, 0], deltas < 1e-5) and np.all(inside[:, 1:])
    rounding = 1e-14 * np.max(np.abs(ref))
    assert np.all(np.abs(res.values - ref)[inside]
                  <= (res.eps + half_bracket + rounding)[inside])


def test_ex1_summed_window_adds_the_partial_period_above_its_edge():
    # an edge halfway between two sign changes: the window is read off the
    # sign changes down to y_10000 plus the half period between it and a
    a = 1.0 / 10000.5
    xs = np.array([1e-3, 1e-2])
    res = green_apply_oscillatory(ex1_functions(1.0)["hV"], 1.0, xs, a=a, b=1.0 - a,
                                  head_budget=EX1_WINDOW_BUDGET)
    ref, _ = _brute_ex1_green(1.0, xs, periods=10_001, a=a)
    assert np.all(np.abs(res.values - ref) <= res.eps + 1e-14 * np.max(np.abs(ref)))


def test_ex1_point_above_the_partial_period_keeps_the_edge_resolved():
    # a point between an edge a and the last sign change y_10000 above it:
    # that level's main pass runs down to a, in one call with a summed level
    a = np.array([1.0 / 10000.5, 2.0 ** -14])
    xs = np.array([9.9997e-5, 1e-2])
    res = green_apply_oscillatory(ex1_functions(1.0)["hV"], 1.0, xs, a=a, b=1.0 - a,
                                  head_budget=EX1_WINDOW_BUDGET)
    ref, _ = _brute_ex1_green(1.0, xs, periods=10_001, a=a[0])
    assert res.head_bound[0] == 0.0 and res.head_bound[1] > 0.0
    np.testing.assert_allclose(res.values[0], ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("levels", [(20, 12), (-3, 2)])
def test_ex1_levels_must_be_ordered_and_nonnegative(levels):
    grid = make_grid(Interval(0.0, 1.0), 401)
    with pytest.raises(InvalidScenarioError, match="levels"):
        verify_cancellation_ex1(1.0, grid, levels=levels)


def test_ex1_summed_windows_stop_at_max_periods():
    # level 20's probe at 4e-7 lies below y_{400,002}, the deepest sign change
    # that max_periods lets the main pass reach
    grid = make_grid(Interval(0.0, 1.0), 401)
    with pytest.raises(ResolutionInsufficientError, match="raise max_periods"):
        verify_cancellation_ex1(1.0, grid, probes=np.array([4e-7]), max_periods=400_000)


@pytest.mark.parametrize("a", [-0.5, np.array([2.0 ** -14, -0.5])])
def test_oscillatory_edge_below_zero_is_refused(a):
    # the sign changes accumulate at 0, inside (a, b) for an edge a < 0
    w = lambda y: y * np.sin(np.pi / y)
    with pytest.raises(DomainError, match="a < 0"):
        green_apply_oscillatory(w, 1.0, np.array([0.01, 0.3]), a=a, b=1.0)


def test_summed_head_takes_the_exact_sum_where_w_vanishes_deep():
    # w vanishes below y_2800, on the deepest quarter of the first 4,096
    # periods, whose sum is then exact; an extrapolation through the
    # vanished periods would be certified by about 4e-12
    w = lambda y: (y * np.sin(np.pi / y) + 0.3 * y) * (y > 1.0 / 2800)
    xs = np.array([0.01, 0.3])
    res = green_apply_oscillatory(w, 1.0, xs)
    ref, half_bracket = _brute_ex1_green(1.0, xs, periods=2800, w=w)
    assert res.head_bound <= 1e-20 and np.all(half_bracket == 0.0)
    np.testing.assert_allclose(res.values, ref, rtol=1e-13, atol=0)


def test_ex1_alpha1_memory_stays_small():
    # the summed windows need 65,536 periods, evaluated 1,024 panels at a
    # time; resolving every period down to the deepest edge held the panels
    # of 400,000 of them at once
    import tracemalloc

    grid = make_grid(Interval(0.0, 1.0), 2001)
    tracemalloc.start()
    try:
        verify_cancellation_ex1(1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


def test_ex1_head_certificate_keeps_the_rounding():
    # at alpha = 0.05 the deep periods fall below the rounding of the head
    # and the three extrapolations agree bitwise; the certificate is then
    # the rounding of the summed periods, not 0
    res = green_apply_oscillatory(ex1_functions(0.05)["hV"], 0.05, np.array([0.3]),
                                  head_budget=EX1_HEAD_BUDGET)
    assert res.head_bound > 0.0


@pytest.mark.parametrize("alpha", [0.72, 0.8, 0.85, 0.9])
def test_ex1_head_budget_met_within_default_periods(alpha):
    rep = verify_cancellation_ex1(alpha, make_grid(Interval(0.0, 1.0), 501))
    assert rep.certified_remainder <= EX1_HEAD_BUDGET
    assert rep.summary()["head_budget_met"] is True
    assert rep.alternating_ok


def test_ex1_summary_reports_head_diagnostics():
    grid = make_grid(Interval(0.0, 1.0), 501)
    half = verify_cancellation_ex1(0.5, grid).summary()
    assert half["alternating_ok"] is True
    assert half["head_budget_met"] is True
    assert isinstance(half["periods"], int) and half["periods"] > 0
    assert {"sup_ratio", "stability", "bound_violations"} <= half.keys()
    one = verify_cancellation_ex1(1.0, grid, probes=np.array([1e-3, 1e-2]),
                                  levels=(12, 14)).summary()
    assert isinstance(one["alternating_ok"], bool)
    assert one["periods"] == 2 ** 15
    assert {"growth_factor", "improper_values", "probes"} <= one.keys()
    assert one["head_budget_met"] is True
    assert one["schema"] == half["schema"] == "greenbound/1"


def test_benchmark_ex1_sweep_ops_succeed(tmp_path, monkeypatch):
    """One seeded cycle of perfbench's ex1_sweep workload, through execute.

    Its 16 cancellation ops, alpha = 1 included, must each meet criterion
    08's thresholds; any other result counts as a failure of the workload.
    """
    from pathlib import Path

    import greenbound
    from perfbench.tracer import Tracer

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    load = workloads.Ex1Sweep(greenbound, Tracer(), tmp_path)
    load.setup(np.random.default_rng(3101))
    ops = load.cycle(np.random.default_rng(3101))
    assert len(ops) == 16 and ops[-1].params == {"alpha": 1.0}
    for op in ops:
        assert load.execute(op) is None, op


def test_scenario_spec_takes_the_table_defaults():
    spec = ScenarioSpec("ex4", make_grid(Interval(-1.0, 1.0), 11))
    assert (spec.q, spec.lam, spec.gamma) == (-1.0, 1.0, 1.0)
    assert spec.alpha is None and spec.beta is None
    spec = ScenarioSpec("ex2", make_grid(Interval(0.0, 1.0), 11), beta=1.5)
    assert (spec.q, spec.lam, spec.beta) == (-0.5, 1.0, 1.5)


@pytest.mark.parametrize("sid,params", [
    ("ex3", {"lam": 1.0}), ("ex1", {"beta": 1.0}), ("ex2", {"gamma": 1.0}),
    ("ex4", {"alpha": 0.5}), ("ex1", {"q": -0.5}), ("ex3", {"q": 0.5}),
    ("ex2", {"beta": 0.0}), ("ex4", {"gamma": np.nan}),
])
def test_scenario_spec_refuses_what_the_scenario_does_not_read(sid, params):
    # ScenarioSpec itself refuses these, before build_scenario
    interval = Interval(-1.0, 1.0) if sid == "ex4" else Interval(0.0, 1.0)
    with pytest.raises(InvalidScenarioError):
        ScenarioSpec(sid, make_grid(interval, 11), **params)


@pytest.mark.parametrize("seed", [3101, 3102])
def test_benchmark_scenario_ops_fail_only_with_known_defects(tmp_path, monkeypatch, seed):
    """perfbench's bounds_sweep ops that build scenarios, directly and by the CLI.

    One seeded cycle's scenario_fit, ex4, cli_ex4 and cli_ex2 ops.  A result
    other than None or a known defect counts as an unexpected failure of the
    workload, so a ScenarioSpec check these ops trip on shows here.
    """
    from pathlib import Path

    import greenbound
    from perfbench.tracer import Tracer

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    load = workloads.BoundsSweep(greenbound, Tracer(), tmp_path)
    rng = np.random.default_rng(seed)
    load.setup(rng)
    known = set(workloads.O.KNOWN_DEFECTS) | {None}
    kinds = {"scenario_fit", "ex4", "cli_ex4", "cli_ex2"}
    ops = [op for op in load.cycle(rng) if op.kind in kinds]
    assert {op.kind for op in ops} == kinds
    for op in ops:
        assert load.execute(op) in known, op
