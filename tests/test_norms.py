import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvsheet.norms as norms_module
from cvsheet.grid import Grid, GridFunction, diff_time
from cvsheet.norms import (HARNESS_KINDS, MultiIndex, _l2,
                           conormal_derivative, enumerate_indices,
                           hm_star_norm, inequality_harness, lift,
                           random_smooth_field, trace, triple_norm,
                           w_star_norm)
from cvsheet.profiles import SigmaWeight


@pytest.fixture
def grid():
    return Grid(n1=40, n2=32, L1=2.0, L2=2 * np.pi)


mi = st.integers(0, 3)


@given(a=st.tuples(mi, mi, mi, mi), b=st.tuples(mi, mi, mi, mi))
@settings(max_examples=50, deadline=None)
def test_weight_additivity(a, b):
    ma, mb = MultiIndex(*a), MultiIndex(*b)
    assert (ma + mb).weight == ma.weight + mb.weight


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
    u = GridFunction(values=x1.copy(), grid=grid)
    ident = conormal_derivative(u, MultiIndex())
    assert np.array_equal(ident.values, u.values)
    d = conormal_derivative(u, MultiIndex(0, 1, 0, 0))
    inner = grid.x1 <= 0.5
    assert np.allclose(d.values[inner, :], x1[inner, :], atol=1e-10)


def test_time_derivative_requires_history(grid):
    u = GridFunction(values=np.zeros((grid.n1, grid.n2)), grid=grid)
    with pytest.raises(ValueError):
        conormal_derivative(u, MultiIndex(1, 0, 0, 0))


def test_norm_m0_is_l2_and_constant(grid):
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(grid.n1, grid.n2))
    u = GridFunction(values=vals, grid=grid)
    rep = hm_star_norm(u, 0, "omega")
    assert rep.total == pytest.approx(grid.l2_norm(vals))
    c = GridFunction(values=np.full((grid.n1, grid.n2), 3.0), grid=grid)
    rep1 = hm_star_norm(c, 1, "omega")
    assert rep1.total == pytest.approx(3.0 * np.sqrt(grid.L1 * grid.L2))


def test_norm_monotone_in_order(grid):
    u = random_smooth_field(grid, nt=7, T=1.0, rng=np.random.default_rng(4))
    prev = 0.0
    for m in range(4):
        tot = hm_star_norm(u, m, "omega_t").total
        assert tot >= prev - 1e-13
        prev = tot


def test_spacetime_norm_equals_time_integral_of_triple(grid):
    # || u ||_{m,*,T}^2 = integral of ||| u(s) |||_{m,*}^2 ds discretely
    nt, T, m = 9, 1.0, 2
    u = random_smooth_field(grid, nt=nt, T=T, rng=np.random.default_rng(8))
    total = hm_star_norm(u, m, "omega_t").total
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
       m=st.integers(0, 4), space_only=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_walk_matches_per_index_oracle(n1, n2, nt, m, space_only, seed):
    grid = Grid(n1=n1, n2=n2, L1=2.0, L2=2 * np.pi)
    rng = np.random.default_rng(seed)
    if space_only:
        u, domain = GridFunction(rng.normal(size=(n1, n2)), grid), "omega"
    else:
        u = GridFunction(rng.normal(size=(nt, n1, n2)), grid, dt=0.1)
        domain = "omega_t"
    rep = hm_star_norm(u, m, domain)
    indices = enumerate_indices(m, space_only=space_only)
    assert list(rep.contributions) == [a.as_tuple() for a in indices]
    for alpha in indices:
        oracle = _l2(u, conormal_derivative(u, alpha).values)
        assert rep.contributions[alpha.as_tuple()] == oracle
    for k in range(m + 1):
        low, fresh = rep.truncate(k), hm_star_norm(u, k, domain)
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
        hm_star_norm(u, m, "omega_t")
        assert len(calls) == stencils


def test_walk_keeps_the_per_index_checks():
    def field(n1, n2, nt=None):
        g = Grid(n1=n1, n2=n2, L1=2.0, L2=2 * np.pi)
        shape = (n1, n2) if nt is None else (nt, n1, n2)
        return GridFunction(np.ones(shape), g, dt=None if nt is None else 0.1)

    with pytest.raises(ValueError, match="x1 stencil"):
        hm_star_norm(field(4, 8), 1)
    with pytest.raises(ValueError, match="x2 stencil"):
        hm_star_norm(field(8, 4), 1)
    with pytest.raises(ValueError, match="time axis too short"):
        hm_star_norm(field(8, 8, nt=2), 1, "omega_t")
    assert hm_star_norm(field(4, 4, nt=2), 0, "omega_t").total > 0.0
    # a derivative that overflows is an error, as a non-finite GridFunction
    u = field(8, 8)
    u.values[::2] = 1e308
    u.values[1::2] = -1e308
    with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                   match="finite"):
        hm_star_norm(u, 2)


@pytest.mark.parametrize("n2", [1, 2, 3, 5, 64])
def test_periodic_d2_equals_roll_oracle(n2):
    grid = Grid(n1=6, n2=n2, L1=2.0, L2=2 * np.pi)
    f = np.random.default_rng(n2).normal(size=(3, 6, n2))
    oracle = (8.0 * (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1))
              - (np.roll(f, -2, axis=-1) - np.roll(f, 2, axis=-1))) \
        / (12.0 * grid.h2)
    assert np.array_equal(grid.d2(f), oracle)
    assert np.array_equal(grid.d2_boundary(f[:, 0]), oracle[:, 0])


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


@pytest.mark.parametrize("n", [5, 33])
@pytest.mark.parametrize("layout", ["C", "transposed"])
def test_nonperiodic_stencils_contiguous_and_exact(n, layout):
    # the stencils write into a C-ordered result through a moved view: the
    # same bits as before, and C order whatever the input layout, so the
    # contractions downstream read their operands contiguously
    grid = Grid(n1=n, n2=n + 3, L1=2.0, L2=2 * np.pi)
    rng = np.random.default_rng(n)
    for shape in ((n, n + 3), (2, 6, n, n + 3), (n, 2, 6, n, n + 3)):
        f = rng.normal(size=shape)
        if layout == "transposed":
            f = np.ascontiguousarray(f.T).T
        got = grid.d1(f)
        assert got.flags.c_contiguous, shape
        assert np.array_equal(got, _moveaxis_stencil(f, grid.h1, -2))
        for axis in range(f.ndim):
            if f.shape[axis] < 5:
                continue
            got = diff_time(f, 0.1, axis=axis, order=4)
            assert got.flags.c_contiguous, (shape, axis)
            assert np.array_equal(got, _moveaxis_stencil(f, 0.1, axis))
            assert diff_time(f, 0.1, axis=axis).flags.c_contiguous


def test_w_star_norm_orders(grid):
    u = random_smooth_field(grid, nt=7, T=1.0, rng=np.random.default_rng(5))
    w1 = w_star_norm(u, 1)
    w2 = w_star_norm(u, 2)
    assert 0 < w1 < w2
    with pytest.raises(ValueError):
        w_star_norm(u, 3)


def test_triple_norm_order_zero_is_slice_l2(grid):
    u = random_smooth_field(grid, nt=7, T=1.0, rng=np.random.default_rng(12))
    rep = triple_norm(u, 0)
    assert rep.total == pytest.approx(grid.l2_norm(u.values[-1]))


def test_norm_report_json_roundtrip(grid):
    import json
    u = random_smooth_field(grid, nt=7, T=1.0, rng=np.random.default_rng(13))
    rep = hm_star_norm(u, 1, "omega_t")
    payload = json.loads(rep.to_json())
    assert payload["order"] == 1
    assert payload["total"] == pytest.approx(rep.total)
    assert len(payload["contributions"]) == len(rep.contributions)


def test_harness_csv(tmp_path, grid):
    from cvsheet.norms import harness_to_csv
    rep = inequality_harness("trace_in", samples=2, grid=grid, nt=7,
                             rng=np.random.default_rng(0))
    out = tmp_path / "harness.csv"
    harness_to_csv([rep], out)
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,nt,n1,n2,max_ratio"
    assert lines[1].startswith("trace_in,")


def test_trace_lift_roundtrip(grid):
    rng = np.random.default_rng(9)
    v0 = rng.normal(size=grid.n2)
    v1 = rng.normal(size=grid.n2)
    R = lift([v0, v1], grid)
    assert np.allclose(trace(GridFunction(R, grid)), v0)
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


@pytest.mark.parametrize("shape", [(4, 3, 8, 8), (2, 2, 2, 8, 8)])
def test_grid_function_rejects_more_than_three_axes(shape):
    grid = Grid(n1=8, n2=8, L1=1.0, L2=1.0)
    with pytest.raises(ValueError, match="GridFunction is"):
        GridFunction(np.zeros(shape), grid, dt=0.1)
    with pytest.raises(ValueError, match="GridFunction is"):
        GridFunction(np.zeros(shape), grid)


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
            den = hm_star_norm(u, 1, "omega_t").total
            ratios.append(num / den)
        consts.append(max(ratios))
    cmax, cmin = max(consts), min(consts)
    assert cmax / cmin <= 2.0


def test_trace_inequality_unit_constant():
    grid = Grid(n1=64, n2=32, L1=2.0, L2=2 * np.pi)
    rep = inequality_harness("trace_in", samples=12, grid=grid, nt=9,
                             rng=np.random.default_rng(0))
    # squared-trace over squared-RHS stays below 1 + O(h)
    assert rep.max_ratio <= 1.1


def test_harness_all_kinds_run_and_stay_bounded():
    grid = Grid(n1=28, n2=24, L1=2.0, L2=2 * np.pi)
    rng = np.random.default_rng(1)
    for kind in HARNESS_KINDS:
        rep = inequality_harness(kind, samples=4, grid=grid, nt=7, m=2,
                                 rng=rng)
        assert np.all(np.isfinite(rep.ratios))
        assert rep.max_ratio < 1e3


def test_moser4_refinement_stability():
    # identical draws across resolutions: rebuild the rng per level
    maxima = []
    for n in (24, 48):
        grid = Grid(n1=n, n2=n, L1=2.0, L2=2 * np.pi)
        rep = inequality_harness("moser4", samples=6, grid=grid, nt=7, m=2,
                                 rng=np.random.default_rng(6))
        maxima.append(rep.max_ratio)
    assert max(maxima) / min(maxima) <= 2.0


def test_zero_field_all_ratios_zero(grid):
    from cvsheet.norms import _harness_ratio
    z = GridFunction(np.zeros((5, grid.n1, grid.n2)), grid, dt=0.25)
    assert _harness_ratio("moser4", z, z, 2, np.random.default_rng(0)) == 0.0


def test_gridfunction_binary_roundtrip(tmp_path, grid):
    u = random_smooth_field(grid, nt=5, T=0.5, rng=np.random.default_rng(2))
    p = tmp_path / "field.cvsg"
    u.save(p)
    v = GridFunction.load(p)
    assert np.array_equal(u.values, v.values)
    assert v.dt == pytest.approx(u.dt)
    assert (v.grid.n1, v.grid.n2) == (grid.n1, grid.n2)


def test_gridfunction_csv(tmp_path, grid):
    u = GridFunction(np.ones((grid.n1, grid.n2)), grid)
    p = tmp_path / "field.csv"
    u.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 1 + grid.n1 * grid.n2
