import numpy as np
import pytest

from greenbound import (DegenerateSourceError, DomainError, GridFn, Interval,
                        InvalidHError, InvalidSignError, Kernel, Problem,
                        ScenarioSpec, build_scenario, make_grid, potential,
                        sample, sharp_constants, thm1_bound, thm2_bound,
                        thm3_bound, thm4_conditions, unified_bound)


@pytest.fixture(scope="module")
def setup():
    grid = make_grid(Interval(0.0, 1.0), 401)
    k = Kernel.closed_form(grid.interval)
    one = sample(lambda x: 1.0, grid)
    h = potential(k, one).value
    return grid, k, one, h


def test_zero_potential_collapses_to_h(setup):
    grid, k, one, h = setup
    for q in (-1.5, -1.0, 0.5, 1.0, 2.0, 3.0):
        prob = Problem(q, GridFn(grid, np.zeros(grid.n)), one, k)
        u = h if 0 < q < 1 else None
        rep = thm1_bound(prob, u=u)
        assert np.array_equal(rep.bound.values[1:-1], h.values[1:-1])
        assert np.all(rep.necessary_ok)


def test_q1_exponential_form(setup):
    grid, k, one, h = setup
    V = sample(lambda x: np.sin(5 * x), grid)
    rep = thm1_bound(Problem(1.0, V, one, k))
    w = GridFn(grid, h.values * V.values)
    gv = potential(k, w).value.values
    inner = slice(1, -1)
    expect = h.values[inner] * np.exp(-gv[inner] / h.values[inner])
    assert np.allclose(rep.bound.values[inner], expect, rtol=1e-13)
    assert rep.kind == "lower"


def test_ex4_constant_ratio_and_sqrt5_bound():
    grid = make_grid(Interval(-1.0, 1.0), 801)
    prob, exact = build_scenario(ScenarioSpec("ex4", grid, q=-1.0, lam=1.0, gamma=1.0))
    rep = thm1_bound(prob)
    inner = slice(1, -1)
    assert np.max(np.abs(rep.ratio[inner] - (-2.0))) <= 1e-12
    expect = np.sqrt(5.0) * rep.h.values[inner]
    assert np.max(np.abs(rep.bound.values[inner] - expect)) <= 1e-12
    # the known solution u = 2h sits under the bound with a constant ratio
    ratio = exact.values[inner] / rep.bound.values[inner]
    assert np.max(np.abs(ratio - 2.0 / np.sqrt(5.0))) <= 1e-12
    assert rep.kind == "upper"


def test_q2_absorbing_bound_against_dense_oracle(setup):
    grid, k, one, h = setup
    V = sample(lambda x: -1.0, grid)
    rep = thm1_bound(Problem(2.0, V, one, k))
    assert np.all(rep.necessary_ok)
    # independent dense-trapezoid oracle for G(h²) at a few nodes
    y = np.linspace(0.0, 1.0, 40001)
    hy = 0.5 * y * (1 - y)
    for idx in (40, 200, 330):
        x = grid.nodes[idx]
        gk = np.minimum(x * (1 - y), y * (1 - x))
        oracle = -np.trapezoid(gk * hy * hy, y)          # V = -1
        bound_oracle = h.values[idx] / (1.0 + oracle / h.values[idx])
        assert rep.bound.values[idx] == pytest.approx(bound_oracle, rel=1e-7)


@pytest.mark.parametrize("q", [-2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])
def test_unified_form_equivalence(setup, q):
    grid, k, one, h = setup
    V = sample(lambda x: 0.8 * np.cos(3 * x) - 0.2, grid)
    u = h if 0 < q < 1 else None
    prob = Problem(q, V, one, k)
    reports = [thm1_bound(prob, u=u), thm2_bound(prob, h, u=u)]
    if q > 1 or q < 0:
        signed = GridFn(grid, np.sign(1.0 - q) * np.abs(V.values))
        reports.append(thm4_conditions(Problem(q, signed, one, k)))
    inner = slice(1, -1)
    for rep in reports:
        uni = unified_bound(q, rep.h.values, rep.ratio)
        assert np.array_equal(rep.bound.values[inner], uni[inner], equal_nan=True)


def test_monotone_in_V(setup):
    grid, k, one, h = setup
    rng = np.random.default_rng(5)
    base = rng.uniform(-0.5, 0.5, grid.n)
    bump = rng.uniform(0.0, 0.5, grid.n)
    for q, kind in ((2.0, "lower"), (-1.0, "upper")):
        r1 = thm1_bound(Problem(q, GridFn(grid, base), one, k))
        r2 = thm1_bound(Problem(q, GridFn(grid, base + bump), one, k))
        inner = slice(1, -1)
        ok = np.isfinite(r1.bound.values[inner]) & np.isfinite(r2.bound.values[inner])
        assert np.all(r2.bound.values[inner][ok] <= r1.bound.values[inner][ok] + 1e-12)


def test_necessity_refusal_q2(setup):
    grid, k, one, h = setup
    rep = thm1_bound(Problem(2.0, sample(lambda x: -300.0, grid), one, k))
    bad = ~rep.necessary_ok
    assert bad.any()
    assert np.isnan(rep.bound.values[bad]).all()
    assert rep.summary()["violated_nodes"] == rep.violated_nodes()


def test_degenerate_source(setup):
    grid, k, one, h = setup
    zero = GridFn(grid, np.zeros(grid.n))
    with pytest.raises(DegenerateSourceError):
        thm1_bound(Problem(1.0, one, zero, k))


def test_sublinear_needs_u(setup):
    grid, k, one, h = setup
    with pytest.raises(DomainError):
        thm1_bound(Problem(0.5, one, one, k))


def test_sublinear_chi_restriction(setup):
    grid, k, one, h = setup
    # u vanishing on the right half: weight is cut there
    u = GridFn(grid, np.where(grid.nodes < 0.5, h.values, 0.0))
    V = sample(lambda x: 1.0, grid)
    rep = thm1_bound(Problem(0.5, V, one, k), u=u)
    full = thm1_bound(Problem(0.5, V, one, k), u=h)
    # positive V restricted to a smaller set -> weaker subtraction -> larger bound
    inner = slice(1, -1)
    assert np.all(rep.bound.values[inner] >= full.bound.values[inner] - 1e-14)


def test_thm2_constant_profile(setup):
    grid, k, one, h = setup
    V = sample(lambda x: np.sin(2 * np.pi * x) + 0.3, grid)
    rep = thm2_bound(Problem(1.0, V, one, k), GridFn(grid, np.ones(grid.n)))
    gv = potential(k, V).value.values
    assert np.allclose(rep.bound.values[1:-1], np.exp(-gv[1:-1]), rtol=1e-13)


def test_thm2_consistency_with_thm1(setup):
    grid, k, one, h = setup
    V = sample(lambda x: 0.5 - x, grid)
    prob = Problem(2.0, V, one, k)
    r1 = thm1_bound(prob)
    r2 = thm2_bound(prob, h)
    assert np.allclose(r1.bound.values[1:-1], r2.bound.values[1:-1],
                       rtol=1e-12, equal_nan=True)


def test_thm2_rejects_bad_h(setup):
    grid, k, one, h = setup
    prob = Problem(2.0, sample(lambda x: -1.0, grid), one, k)
    with pytest.raises(InvalidHError):   # interior zero
        thm2_bound(prob, GridFn(grid, np.abs(grid.nodes - 0.5)))
    with pytest.raises(InvalidHError):   # subharmonic profile
        thm2_bound(prob, GridFn(grid, 1.0 + grid.nodes ** 2))


def test_thm2_accepts_harmonic_profile(setup):
    grid, k, one, h = setup
    prob = Problem(1.0, sample(lambda x: 0.1, grid), one, k)
    rep = thm2_bound(prob, GridFn(grid, 1.0 + grid.nodes))   # -h'' = 0
    assert np.all(np.isfinite(rep.bound.values[1:-1]))


def test_thm3_regimes(setup):
    grid, k, one, h = setup
    inner = slice(1, -1)
    # q=1, V=0 -> bound 1
    r = thm3_bound(1.0, GridFn(grid, np.zeros(grid.n)), k)
    assert np.allclose(r.bound.values, 1.0)
    # q=2, V=1 -> [(q-1) G1]^{-1} = 1/h, blowing up at the boundary
    r = thm3_bound(2.0, one, k)
    assert np.allclose(r.bound.values[inner] * h.values[inner], 1.0, rtol=1e-12)
    assert np.all(r.necessary_ok[inner])
    # q=-1, V=-1 -> GV=-h < 0, upper bound sqrt(2h)
    r = thm3_bound(-1.0, sample(lambda x: -1.0, grid), k)
    assert np.allclose(r.bound.values[inner], np.sqrt(2 * h.values[inner]), rtol=1e-12)
    # necessity flags: q=2 with V=-1 has GV<0 everywhere -> no bound anywhere
    r = thm3_bound(2.0, sample(lambda x: -1.0, grid), k)
    assert not r.necessary_ok[inner].any()
    assert np.isnan(r.bound.values[inner]).all()
    # the bracket (q-1) GV goes to φ as is: where GV > 0 is tiny (3.4e-16
    # here) the bound is large but finite, t^{-1/(q-1)} to the last bit
    g2 = make_grid(Interval(-1.0, 1.0), 401)
    r = thm3_bound(1.5, sample(lambda x: 40.0 * (x - 0.3), g2),
                   Kernel.closed_form(g2.interval))
    gv = r.ghqv.value.values
    pos = gv > 0
    assert np.array_equal(pos, r.necessary_ok)
    assert np.min(gv[pos]) < 1e-15
    assert np.all(np.isfinite(r.bound.values[pos]))
    assert np.array_equal(r.bound.values[pos], (0.5 * gv[pos]) ** -2.0)


def test_chi_at_singular_endpoint(setup):
    # V = 0.3 d^{-1.2} is +inf at both ends, where χ_u = 0 for u = h
    grid, k, one, h = setup
    V = sample(lambda x: 0.3 * np.minimum(x, 1.0 - x) ** -1.2, grid)
    r = thm3_bound(0.5, V, k, u=h)
    expect = potential(k, GridFn(grid, V.values)).value.values
    assert np.array_equal(r.ghqv.value.values, expect)
    # a profile positive at the ends meets the same inf·0 in h^q V χ_u
    # (RuntimeWarnings are errors under the test configuration)
    h_pos = GridFn(grid, 1.0 + h.values)
    rep = thm2_bound(Problem(0.5, V, one, k), h_pos, u=h)
    assert np.all(np.isfinite(rep.bound.values[1:-1]))


def test_thm4_threshold_constants():
    a_m1, x_m1 = sharp_constants(-1.0)
    assert a_m1 == pytest.approx(0.25) and x_m1 == pytest.approx(0.5)
    a_2, x_2 = sharp_constants(2.0)
    assert a_2 == pytest.approx(0.25) and x_2 == pytest.approx(2.0)


def test_thm4_zero_potential_envelopes(setup):
    grid, k, one, h = setup
    zero = GridFn(grid, np.zeros(grid.n))
    rep = thm4_conditions(Problem(2.0, zero, one, k))
    inner = slice(1, -1)
    assert np.all(rep.sufficient_ok)
    assert np.allclose(rep.lower_envelope.values[inner], h.values[inner])
    assert np.allclose(rep.upper_envelope.values[inner], 2.0 * h.values[inner])


def test_thm4_sign_validation(setup):
    grid, k, one, h = setup
    with pytest.raises(InvalidSignError):
        thm4_conditions(Problem(2.0, one, one, k))       # q>1 needs V<=0
    with pytest.raises(InvalidSignError):
        thm4_conditions(Problem(-1.0, sample(lambda x: -1.0, grid), one, k))


def test_sufficient_implies_necessary_sampled(setup):
    grid, k, one, h = setup
    rng = np.random.default_rng(11)
    x = grid.nodes
    for _ in range(50):
        for regime in ("q>1", "q<0"):
            q = 1.0 + rng.uniform(0.1, 3.0) if regime == "q>1" else -rng.uniform(0.1, 3.0)
            mag = rng.uniform(0, 20.0) * np.sin(rng.integers(1, 5) * np.pi * x) ** 2
            V = GridFn(grid, -mag if regime == "q>1" else mag)
            rep = thm4_conditions(Problem(q, V, one, k))
            assert not np.any(rep.sufficient_ok & ~rep.necessary_ok)


def test_report_serialization(setup, tmp_path):
    grid, k, one, h = setup
    rep = thm1_bound(Problem(2.0, sample(lambda x: -1.0, grid), one, k))
    csv_path = tmp_path / "rep.csv"
    json_path = tmp_path / "rep.json"
    rep.to_csv(csv_path)
    rep.to_json(json_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "x,h,GhqV,bound,necessary_ok,sufficient_ok"
    import json
    summary = json.loads(json_path.read_text())
    assert summary["schema"] == "greenbound/1"
    assert summary["regime"] == "q>1"
    assert summary["min_bracket"] > 0
