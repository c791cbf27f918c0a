import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvsheet.norms as norms_module
from cvsheet.grid import Grid, GridFunction, diff_time, trapezoid
from cvsheet.norms import (HARNESS_KINDS, MultiIndex, _l2,
                           conormal_derivative, enumerate_indices,
                           hm_star_norm, inequality_harness, lift,
                           random_smooth_field, w_star_norm)
from cvsheet.profiles import SigmaWeight


@pytest.fixture
def grid():
    return Grid(n1=40, n2=32, L1=2.0, L2=2 * np.pi)


def _l2_norm(grid, f, dt):
    """The L2 norm over Omega_T by the grid's quadrature, trapezoid in t."""
    return np.sqrt(np.sum(grid.integrate(np.asarray(f) ** 2)
                          * trapezoid(len(f), dt)))


def test_weight_counts_normal_twice():
    assert MultiIndex(0, 1, 0, 1).weight == 3


def test_sigma_profile():
    sig = SigmaWeight()
    x = np.linspace(0, 2, 2001)
    v = sig.value(x)
    assert np.allclose(v[x <= 0.5], x[x <= 0.5])
    assert np.allclose(v[x >= 1.0], 1.0)
    assert np.all(np.diff(v) >= -1e-14)


def test_identity_and_weighted_derivative(grid):
    x1, x2 = grid.mesh()
    u = GridFunction(values=np.stack([x1] * 3), grid=grid, dt=0.1)
    ident = conormal_derivative(u, MultiIndex())
    assert np.array_equal(ident.values, u.values)
    d = conormal_derivative(u, MultiIndex(0, 1, 0, 0))
    inner = grid.x1 <= 0.5
    assert np.allclose(d.values[:, inner, :], x1[inner, :], atol=1e-10)


def test_time_derivative_requires_history(grid):
    # two snapshots are a field, but too few for the time stencil
    u = GridFunction(values=np.zeros((2, grid.n1, grid.n2)), grid=grid,
                     dt=0.1)
    with pytest.raises(ValueError):
        conormal_derivative(u, MultiIndex(1, 0, 0, 0))


def test_norm_m0_is_l2_and_constant(grid):
    nt, T = 5, 1.0
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(nt, grid.n1, grid.n2))
    u = GridFunction(values=vals, grid=grid, dt=T / (nt - 1))
    rep = hm_star_norm(u, 0)
    assert rep.total == pytest.approx(_l2_norm(grid, vals, u.dt))
    c = GridFunction(values=np.full((nt, grid.n1, grid.n2), 3.0), grid=grid,
                     dt=T / (nt - 1))
    rep1 = hm_star_norm(c, 1)
    assert rep1.total == pytest.approx(3.0 * np.sqrt(grid.L1 * grid.L2 * T))


def test_norm_monotone_in_order(grid):
    u = random_smooth_field(grid, nt=7, T=1.0, rng=np.random.default_rng(4))
    prev = 0.0
    for m in range(4):
        tot = hm_star_norm(u, m).total
        assert tot >= prev - 1e-13
        prev = tot


def test_spacetime_norm_equals_time_integral_of_triple(grid):
    # || u ||_{m,*,T}^2 = integral of ||| u(s) |||_{m,*}^2 ds discretely
    nt, T, m = 9, 1.0, 2
    u = random_smooth_field(grid, nt=nt, T=T, rng=np.random.default_rng(8))
    total = hm_star_norm(u, m).total
    # independent summation order: triple norm per slice, trapezoid in time
    acc = 0.0
    wt = np.full(nt, u.dt)
    wt[0] *= 0.5
    wt[-1] *= 0.5
    for alpha in enumerate_indices(m):
        d = conormal_derivative(u, alpha)
        space = np.einsum("tij,i->t", d.values ** 2, grid.w1) * grid.h2
        acc += float(np.sum(space * wt))
    assert total == pytest.approx(np.sqrt(acc), rel=1e-12)


@given(n1=st.integers(5, 16), n2=st.integers(5, 16), nt=st.integers(3, 6),
       m=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_walk_matches_per_index_oracle(n1, n2, nt, m, seed):
    grid = Grid(n1=n1, n2=n2, L1=2.0, L2=2 * np.pi)
    rng = np.random.default_rng(seed)
    u = GridFunction(rng.normal(size=(nt, n1, n2)), grid, dt=0.1)
    rep = hm_star_norm(u, m)
    indices = enumerate_indices(m)
    keys = [(a.a0, a.a1, a.a2, a.a3) for a in indices]
    assert list(rep.contributions) == keys
    for alpha, key in zip(indices, keys):
        oracle = _l2(u, conormal_derivative(u, alpha).values)
        assert rep.contributions[key] == oracle
    for k in range(m + 1):
        low, fresh = rep.truncate(k), hm_star_norm(u, k)
        assert list(low.contributions.items()) == list(
            fresh.contributions.items())
        assert low.total == fresh.total
    with pytest.raises(ValueError):
        rep.truncate(m + 1)


def test_walk_applies_one_stencil_per_index(monkeypatch):
    # 24 indices at m = 3 and 130 at m = 6: every index but the identity
    # extends a computed prefix by one stencil (per-index chains: 52, 556)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Grid, "d1", counted(Grid.d1))
    monkeypatch.setattr(Grid, "d2", counted(Grid.d2))
    monkeypatch.setattr(norms_module, "diff_time",
                        counted(norms_module.diff_time))
    grid = Grid(n1=16, n2=16, L1=2.0, L2=2 * np.pi)
    u = random_smooth_field(grid, nt=5, T=1.0, rng=np.random.default_rng(0))
    for m, stencils in ((3, 23), (6, 129)):
        calls.clear()
        hm_star_norm(u, m)
        assert len(calls) == stencils


def test_walk_keeps_the_per_index_checks():
    def field(n1, n2, nt=3):
        g = Grid(n1=n1, n2=n2, L1=2.0, L2=2 * np.pi)
        return GridFunction(np.ones((nt, n1, n2)), g, dt=0.1)

    with pytest.raises(ValueError, match="x1 stencil"):
        hm_star_norm(field(4, 8), 1)
    with pytest.raises(ValueError, match="x2 stencil"):
        hm_star_norm(field(8, 4), 1)
    with pytest.raises(ValueError, match="time axis too short"):
        hm_star_norm(field(8, 8, nt=2), 1)
    assert hm_star_norm(field(4, 4, nt=2), 0).total > 0.0
    # a derivative that overflows is an error, as a non-finite GridFunction
    u = field(8, 8)
    u.values[:, ::2] = 1e308
    u.values[:, 1::2] = -1e308
    with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                   match="finite"):
        hm_star_norm(u, 2)


def _roll_d2(f, h):
    """The periodic stencil through np.roll."""
    return (8.0 * (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1))
            - (np.roll(f, -2, axis=-1) - np.roll(f, 2, axis=-1))) / (12.0 * h)


def _layouts(f):
    """``f`` in C order, transposed, and as a strided view."""
    wide = np.repeat(f, 2, axis=-1)
    return {"C": f, "transposed": np.ascontiguousarray(f.T).T,
            "strided": wide[..., ::2]}


@pytest.mark.parametrize("n2", [1, 2, 3, 4, 5, 64])
def test_periodic_d2_equals_roll_oracle(n2):
    # n2 <= 4: every column is a wrap column, the set {0, 1, n - 2, n - 1}
    # taken mod n2
    grid = Grid(n1=6, n2=n2, L1=2.0, L2=2 * np.pi)
    rng = np.random.default_rng(n2)
    for shape in ((3, 6, n2), (2, 6, 6, n2)):
        for layout, f in _layouts(rng.normal(size=shape)).items():
            oracle = _roll_d2(f, grid.h2)
            got = grid.d2(f)
            assert got.flags.c_contiguous, (shape, layout)
            assert np.array_equal(got, oracle), (shape, layout)
            assert np.array_equal(grid.d2_boundary(f[..., 0, :]),
                                  oracle[..., 0, :]), (shape, layout)


@pytest.mark.parametrize("n", [5, 256])
def test_stencils_vanish_exactly_on_constants(n):
    # weighted differences: f[k] - f[l] is exactly 0 on a constant, so
    # every stencil returns exact zeros, edges and wrap included
    grid = Grid(n1=n, n2=n, L1=2.0, L2=2 * np.pi)
    rng = np.random.default_rng(n)
    c = np.full((2, n, n), 1.4)
    x2_only = np.broadcast_to(rng.normal(size=(2, 1, n)), (2, n, n))
    x1_only = np.broadcast_to(rng.normal(size=(2, n, 1)), (2, n, n))
    for f in (c, x2_only):
        assert not np.any(grid.d1(f))
    for f in (c, x1_only):
        assert not np.any(grid.d2(f))
    assert not np.any(grid.d2_boundary(c[:, 0]))
    steady = np.broadcast_to(rng.normal(size=(1, 3, 4)), (n, 3, 4))
    for order in (2, 4):
        assert not np.any(diff_time(steady, 0.1, order=order))
        assert not np.any(diff_time(np.full((n, 3), 1.4), 0.1, order=order))


def _moveaxis_stencil(f, h, axis):
    """The non-periodic stencil as written before on a moved axis."""
    f = np.moveaxis(f, axis, -1)
    out = np.empty_like(f)
    out[..., 2:-2] = (8.0 * (f[..., 3:-1] - f[..., 1:-3])
                      - (f[..., 4:] - f[..., :-4])) / (12.0 * h)
    for e, s in ((0, 1), (-1, -1)):
        f0, f1, f2, f3 = (f[..., e + k * s] for k in range(4))
        out[..., e] = s * (18.0 * (f1 - f0) - 9.0 * (f2 - f0)
                           + 2.0 * (f3 - f0)) / (6.0 * h)
        out[..., e + s] = s * (6.0 * (f2 - f1) - 2.0 * (f0 - f1)
                               - (f3 - f1)) / (6.0 * h)
    return np.moveaxis(out, -1, axis)


@pytest.mark.parametrize("n", [4, 5, 33])
@pytest.mark.parametrize("layout", ["C", "transposed"])
def test_nonperiodic_stencils_contiguous_and_exact(n, layout):
    # the stencils write into a C-ordered result: the same bits as before,
    # and C order whatever the input layout, so the contractions downstream
    # read their operands contiguously; at n = 4 every row is a closure row
    grid = Grid(n1=n, n2=n + 3, L1=2.0, L2=2 * np.pi)
    rng = np.random.default_rng(n)
    for shape in ((n, n + 3), (2, 6, n, n + 3), (n, 2, 6, n, n + 3)):
        f = _layouts(rng.normal(size=shape))[layout]
        got = grid.d1(f)
        assert got.flags.c_contiguous, shape
        assert np.array_equal(got, _moveaxis_stencil(f, grid.h1, -2))
        if len(f) >= 5:
            got = diff_time(f, 0.1, order=4)
            assert got.flags.c_contiguous, shape
            assert np.array_equal(got, _moveaxis_stencil(f, 0.1, 0))
            assert diff_time(f, 0.1).flags.c_contiguous


@settings(max_examples=40, deadline=None)
@given(lead=st.lists(st.integers(1, 3), max_size=3), n1=st.integers(4, 9),
       n2=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1),
       layout=st.sampled_from(["C", "transposed", "strided"]))
def test_flat_stencils_equal_the_oracles(lead, n1, n2, seed, layout):
    # one flat pass plus the edges written afterwards gives the bits of the
    # stencils evaluated on moved axes and through np.roll
    grid = Grid(n1=n1, n2=n2, L1=2.0, L2=2 * np.pi)
    f = _layouts(np.random.default_rng(seed).normal(
        size=(*lead, n1, n2)))[layout]
    assert np.array_equal(grid.d1(f), _moveaxis_stencil(f, grid.h1, -2))
    assert np.array_equal(grid.d2(f), _roll_d2(f, grid.h2))
    if len(f) >= 5:
        assert np.array_equal(diff_time(f, 0.1, order=4),
                              _moveaxis_stencil(f, 0.1, 0))


def test_w_star_norm_orders(grid):
    u = random_smooth_field(grid, nt=7, T=1.0, rng=np.random.default_rng(5))
    w1 = w_star_norm(u, 1)
    w2 = w_star_norm(u, 2)
    assert 0 < w1 < w2
    with pytest.raises(ValueError):
        w_star_norm(u, 3)


def test_trace_lift_roundtrip(grid):
    rng = np.random.default_rng(9)
    v0 = rng.normal(size=grid.n2)
    v1 = rng.normal(size=grid.n2)
    R = lift([v0, v1], grid)
    assert np.allclose(R[0, :], v0)
    d1R = grid.d1(R)
    assert np.allclose(d1R[0, :], v1, atol=1e-10)
    # lift of (v0, 0) has vanishing normal derivative at the wall
    R0 = lift([v0, np.zeros_like(v0)], grid)
    assert np.allclose(grid.d1(R0)[0, :], 0.0, atol=1e-10)


@pytest.mark.parametrize("lead", [(5,), (5, 2), (3, 2, 6)])
def test_lift_of_a_boundary_stack_is_the_stack_of_lifts(grid, lead):
    # an (nt, n2) stack once needed a dt it had no use for
    v = np.random.default_rng(2).normal(size=lead + (grid.n2,))
    R = lift([v], grid)
    assert R.shape == lead + (grid.n1, grid.n2)
    for idx in np.ndindex(*lead):
        assert np.array_equal(R[idx], lift([v[idx]], grid))
    assert np.array_equal(R[..., 0, :], v)


@pytest.mark.parametrize("shape, dt, match", [
    pytest.param((4, 3, 8, 8), 0.1, "GridFunction is", id="shape0"),
    pytest.param((2, 2, 2, 8, 8), 0.1, "GridFunction is", id="shape1"),
    # a space-only field, and one snapshot, which once took the trapezoid
    # weight dt / 4 for the time integral
    pytest.param((8, 8), 0.1, "GridFunction is", id="spatial"),
    pytest.param((1, 8, 8), 0.1, "GridFunction is", id="one-snapshot"),
    # a step that is not positive and finite: -0.1 once gave a NaN norm
    pytest.param((3, 8, 8), 0.0, "dt must be", id="dt-zero"),
    pytest.param((3, 8, 8), -0.1, "dt must be", id="dt-negative"),
    pytest.param((3, 8, 8), float("nan"), "dt must be", id="dt-nan")])
def test_grid_function_rejects_more_than_three_axes(shape, dt, match):
    grid = Grid(n1=8, n2=8, L1=1.0, L2=1.0)
    with pytest.raises(ValueError, match=match):
        GridFunction(np.zeros(shape), grid, dt=dt)


def test_trace_norm_constant_refinement_stable():
    # same random functions, three grids: the fitted constant may not drift
    from cvsheet.norms import evaluate_field_params, sample_field_params
    rng = np.random.default_rng(3)
    draws = [sample_field_params(rng) for _ in range(8)]
    consts = []
    for n in (24, 48, 96):
        grid = Grid(n1=n, n2=32, L1=2.0, L2=2 * np.pi)
        ratios = []
        for params in draws:
            u = evaluate_field_params(params, grid, nt=9, T=1.0)
            tr = u.values[:, 0, :]
            wt = np.full(u.values.shape[0], u.dt)
            wt[0] *= 0.5
            wt[-1] *= 0.5
            num = np.sqrt(np.sum(np.sum(tr ** 2, axis=-1) * grid.h2 * wt))
            den = hm_star_norm(u, 1).total
            ratios.append(num / den)
        consts.append(max(ratios))
    cmax, cmin = max(consts), min(consts)
    assert cmax / cmin <= 2.0


def test_trace_inequality_unit_constant():
    grid = Grid(n1=64, n2=32, L1=2.0, L2=2 * np.pi)
    rep = inequality_harness("trace_in", samples=12, grid=grid, nt=9,
                             rng=np.random.default_rng(0))
    # squared-trace over squared-RHS stays below 1 + O(h)
    assert rep.ratios.max() <= 1.1


def test_harness_all_kinds_run_and_stay_bounded():
    grid = Grid(n1=28, n2=24, L1=2.0, L2=2 * np.pi)
    rng = np.random.default_rng(1)
    for kind in HARNESS_KINDS:
        rep = inequality_harness(kind, samples=4, grid=grid, nt=7, m=2,
                                 rng=rng)
        assert np.all(np.isfinite(rep.ratios))
        assert rep.ratios.max() < 1e3


def test_moser4_refinement_stability():
    # identical draws across resolutions: rebuild the rng per level
    maxima = []
    for n in (24, 48):
        grid = Grid(n1=n, n2=n, L1=2.0, L2=2 * np.pi)
        rep = inequality_harness("moser4", samples=6, grid=grid, nt=7, m=2,
                                 rng=np.random.default_rng(6))
        maxima.append(rep.ratios.max())
    assert max(maxima) / min(maxima) <= 2.0


def test_zero_field_all_ratios_zero(grid):
    from cvsheet.norms import _harness_ratio
    z = GridFunction(np.zeros((5, grid.n1, grid.n2)), grid, dt=0.25)
    assert _harness_ratio("moser4", z, z, 2, np.random.default_rng(0)) == 0.0


def _moveaxis_diff_time2(f, dt, axis):
    """The order-2 time stencil as written before, on the axis moved last."""
    res = np.empty(f.shape)
    f, out = np.moveaxis(f, axis, -1), np.moveaxis(res, axis, -1)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * dt)
    out[..., 0] = (4.0 * (f[..., 1] - f[..., 0])
                   - (f[..., 2] - f[..., 0])) / (2.0 * dt)
    out[..., -1] = (4.0 * (f[..., -1] - f[..., -2])
                    - (f[..., -1] - f[..., -3])) / (2.0 * dt)
    return res


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 7), min_size=1, max_size=4),
       dt=st.floats(1e-3, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       layout=st.sampled_from(["C", "transposed", "strided"]))
def test_order2_time_stencil_equals_the_moved_axis_oracle(shape, dt, seed,
                                                          layout):
    # slicing the leading axis in place runs the same ufuncs on the same
    # values as slicing that axis moved last
    shape[0] = max(shape[0], 3)
    f = _layouts(np.random.default_rng(seed).normal(size=shape))[layout]
    got = diff_time(f, dt)
    assert got.flags.c_contiguous
    assert np.array_equal(got, _moveaxis_diff_time2(f, dt, 0))
