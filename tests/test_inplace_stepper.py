"""The in-place SSP-RK3 step and the blocked stencil kernel against the
allocating forms they replace, kept here as oracles, bit for bit; the
step's allocations, the forcing memo, and the ledger multiplier read off
the wall rows."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvsheet.evolve as ev
import cvsheet.grid as grid_mod
from cvsheet.compat import (build_approximate, manufactured_initial_data,
                            time_jet)
from cvsheet.grid import Grid
from cvsheet.linearized import BasicState, trivial_sheet_state
from cvsheet.mhd import IH2, IP, IdealGasEos, PhysState
from cvsheet.nashmoser import NashMoserDriver, _SnapshotInterpolant
from cvsheet.scenarios import ManufacturedBoundaryData, ManufacturedForcing
from cvsheet.stability import (LambdaPair, StabilityError, build_lambda,
                               extend_lambda)
from support import sheared_sheet_state

EOS = IdealGasEos()


# -- oracles: the allocating kernel, rhs and step ----------------------------


def _one_pass_central(flat, s, h, o):
    """The interior stencil in one pass over the whole flat array, written
    into its interior points ``o``."""
    n = flat.size
    if n <= 4 * s:
        return
    np.subtract(flat[3 * s:n - s], flat[s:n - 3 * s], out=o)
    o *= 8.0
    o -= flat[4 * s:] - flat[:n - 4 * s]
    o /= 12.0 * h


def _alloc_mat_apply2(M, v):
    if M.shape[-1] != 1:
        return np.einsum("sij...,sj...->si...", M, v)
    m = M[..., 0]
    out = np.zeros(v.shape)
    for s, i, j in zip(*np.nonzero(np.any(m != 0.0, axis=-1))):
        out[s, i] += m[s, i, j, :, None] * v[s, j]
    return out


def _alloc_rhs(stp, V, phi, t, co, g, pair=None):
    grid = stp.grid
    d1V, d2V = pair if pair is not None else (None, None)
    dV = (_alloc_mat_apply2(co["A0invJt"], stp.F_at(t))
          - _alloc_mat_apply2(co["M1"], grid.d1(V) if d1V is None else d1V)
          - _alloc_mat_apply2(co["M2"], grid.d2(V) if d2V is None else d2V)
          - _alloc_mat_apply2(co["M3"], V))
    dV -= stp.sponge * V
    return dV, stp.phi_rate(V, phi, grid.d2_boundary(phi), co["traces"], g)


def _alloc_step(stp, V, phi, t, dt, pair=None):
    s0, sh, s1 = t, t + 0.5 * dt, t + dt
    co0, g0 = stp.cache.at(s0), stp.g_at(s0)
    coh, gh = stp.cache.at(sh), stp.g_at(sh)
    co1, g1 = stp.cache.at(s1), stp.g_at(s1)
    k1V, k1p = _alloc_rhs(stp, V, phi, s0, co0, g0, pair)
    V1 = V + dt * k1V
    p1 = phi + dt * k1p
    stp.apply_bc(V1, p1, co1, g1)
    k2V, k2p = _alloc_rhs(stp, V1, p1, s1, co1, g1)
    V2 = 0.75 * V + 0.25 * (V1 + dt * k2V)
    p2 = 0.75 * phi + 0.25 * (p1 + dt * k2p)
    stp.apply_bc(V2, p2, coh, gh)
    k3V, k3p = _alloc_rhs(stp, V2, p2, sh, coh, gh)
    Vn = V / 3.0 + 2.0 / 3.0 * (V2 + dt * k3V)
    pn = phi / 3.0 + 2.0 / 3.0 * (p2 + dt * k3p)
    stp.apply_bc(Vn, pn, co1, g1)
    return Vn, pn


def _same_bits(a, b):
    """Equal shapes and bytes: signed zeros differ here, unlike under ==."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the four states ---------------------------------------------------------


def _grid(n):
    return Grid(n1=n, n2=n, L1=2 * np.pi, L2=2 * np.pi)


def _planar():
    # 64^2: a field spans more than one stencil block, the last one ragged
    grid = _grid(64)
    basic = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4,
                                H2_minus=1.2)
    return basic, dict(forcing=ManufacturedForcing(grid, amplitude=1.0,
                                                   k2=2))


def _x1_only():
    grid = _grid(24)
    basic = trivial_sheet_state(grid, EOS, H2_plus=1.3, H2_minus=1.1)
    bump = 0.05 * np.cos(grid.x1)[:, None]
    basic.U[:, :, IH2] += bump
    basic.U[:, :, IP] += bump
    return basic, dict(forcing=ManufacturedForcing(grid, amplitude=1.0,
                                                   k2=2))


def _sheared():
    grid = _grid(16)
    basic = sheared_sheet_state(grid, EOS, rng=np.random.default_rng(4))
    return basic, dict(
        forcing=ManufacturedForcing(grid, amplitude=1.0, k2=2),
        bdata=ManufacturedBoundaryData(grid, amplitude=0.05, k2=2,
                                       ramp=0.05))


def _modified():
    grid = _grid(16)
    data = manufactured_initial_data(grid, EOS, amplitude=8e-6, seed=3,
                                     k2=1, p_plus=0.8, u2_jump=0.1,
                                     H2_plus=0.7, H2_minus=0.6)
    approx = build_approximate(time_jet(data, order=2), T=1.0, delta=1e-3)
    drv = NashMoserDriver(approx, np.linspace(0.0, 1.0, 9))
    basic = drv.modified_state(drv.fresh_state(), theta=2.0)
    g = 1e-4 * np.random.default_rng(5).normal(size=(drv.nt, 3, grid.n2))
    return basic, dict(forcing=_SnapshotInterpolant(drv.tgrid, drv.Fa),
                       bdata=_SnapshotInterpolant(drv.tgrid, g),
                       sponge_strength=0.0)


_STATES = {"planar": _planar, "x1": _x1_only, "sheared": _sheared,
           "modified": _modified}


@pytest.mark.parametrize("case", list(_STATES))
def test_inplace_steps_and_rhs_equal_the_allocating_oracle(case,
                                                           monkeypatch):
    basic, kw = _STATES[case]()
    co = ev.LinearizedStepper(basic, **kw).cache.at(0.1)
    keys = ("A0invJt", "M1", "M2", "M3")
    # each case takes the path it is here for: the planar and the x1-only
    # sheet are assembled on one x2 column, the planar one uniform on it
    compact = case in ("planar", "x1")
    n1, n2 = basic.grid.n1, basic.grid.n2
    shape = {"planar": (1, 1), "x1": (n1, 1)}.get(case, (n1, n2))
    assert all(co[k].shape[-2:] == shape for k in keys)
    if case == "planar":
        assert not np.any(co["M3"])

    grid = basic.grid
    rng = np.random.default_rng(11)
    V0 = 1e-3 * rng.normal(size=(2, 6, grid.n1, grid.n2))
    phi0 = 1e-3 * rng.normal(size=grid.n2)
    t0, dt, steps = 0.1, 0.01, 4

    def march(step, rhs, derivatives):
        V, phi, t, out = V0.copy(), phi0.copy(), t0, []
        for n in range(steps):
            co, g = stepper.cache.at(t), stepper.g_at(t)
            out.append(rhs(V, phi, t, co, g))
            pair = derivatives(V) if n % 2 else None  # as evolve's monitors
            V, phi = step(V, phi, t, dt, pair)
            t += dt
            out.append((V, phi))
        return out

    # the oracle runs the one-pass kernel inside every stencil and time row
    stepper = ev.LinearizedStepper(basic, **kw)
    with monkeypatch.context() as m:
        m.setattr(grid_mod, "_central", _one_pass_central)
        want = march(lambda V, phi, t, dt, pair:
                     _alloc_step(stepper, V, phi, t, dt, pair),
                     lambda *a: _alloc_rhs(stepper, *a),
                     lambda V: (grid.d1(V), grid.d2(V)))
    stepper = ev.LinearizedStepper(basic, **kw)
    calls = {"_row_apply": 0, "_mat_apply2": 0}

    def counted(name):
        f = getattr(ev, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper
    with monkeypatch.context() as m:
        for name in calls:
            m.setattr(ev, name, counted(name))
        got = march(lambda V, phi, t, dt, pair: stepper.step(V, phi, t, dt),
                    stepper.rhs, stepper.derivatives)
    # rhs forms a one-column bundle row by row, and applies any other
    # bundle one matrix at a time
    assert (calls["_row_apply"] > 0) == compact
    assert (calls["_mat_apply2"] > 0) != compact
    assert len(got) == len(want) == 2 * steps
    for k, ((gV, gp), (wV, wp)) in enumerate(zip(got, want)):
        assert _same_bits(gV, wV), k
        assert _same_bits(gp, wp), k


def test_concurrent_planar_marches_equal_the_allocating_oracle():
    # two planar marches at once share the side pool: four threads on two
    # cores, switching every microsecond, each march writing its halves of
    # its own stepper's buffers with its own stencil blocks
    basic, kw = _planar()
    grid = basic.grid
    rng = np.random.default_rng(12)
    V0 = 1e-3 * rng.normal(size=(2, 6, grid.n1, grid.n2))
    phi0 = 1e-3 * rng.normal(size=grid.n2)
    t0, dt = 0.1, 0.01
    oracle = ev.LinearizedStepper(basic, **kw)
    want = (V0, phi0)
    for n in range(3):
        want = _alloc_step(oracle, *want, t0 + n * dt, dt)
    got = {}

    def march(name):
        stepper = ev.LinearizedStepper(basic, **kw)
        V, phi = V0.copy(), phi0.copy()
        for n in range(3):
            V, phi = stepper.step(V, phi, t0 + n * dt, dt)
        got[name] = (V, phi)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=march, args=(k,)) for k in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert sorted(got) == [0, 1]
    for V, phi in got.values():
        assert _same_bits(V, want[0]) and _same_bits(phi, want[1])


@pytest.mark.parametrize("stored", [(1, 1), (7, 1), (7, 5)])
def test_mat_apply2_and_row_apply_equal_the_allocating_apply(stored):
    # signed zeros in v and in out: a compact row accumulates onto 0.0,
    # and a row without entries (M[0, 2]) is not formed, as the +0.0 row
    rng = np.random.default_rng(6)
    M = rng.normal(size=(2, 6, 6, *stored))
    M[rng.random(M.shape[:3]) < 0.6] = 0.0
    M[0, 2] = 0.0
    v = rng.normal(size=(2, 6, 7, 5))
    v[rng.random(v.shape) < 0.3] = -0.0
    want = _alloc_mat_apply2(M, v)
    assert _same_bits(ev._mat_apply2(M, v), want)
    out = np.full(v.shape, -0.0)
    assert ev._mat_apply2(M, v, out) is out
    assert _same_bits(out, want)
    if stored[-1] != 1:
        return
    prod = np.empty((7, 5))
    cols = ev._row_columns(M)
    for s, i in np.ndindex(2, 6):
        row = np.full((7, 5), -0.0)
        got = ev._row_apply(M, v, s, i, row, prod, cols[s][i])
        if np.any(M[s, i]):
            assert got is row and _same_bits(row, want[s, i]), (s, i)
        else:
            assert got is None and _same_bits(row, np.full((7, 5), -0.0))
            assert _same_bits(want[s, i], np.zeros((7, 5)))


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 5), n1=st.integers(1, 160),
       n2=st.integers(1, 160), axis=st.sampled_from([-1, -2, -3]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(k=1, n1=4, n2=4, axis=-1, seed=0)           # below one block
@example(k=1, n1=128, n2=256, axis=-2, seed=1)       # exactly one block
@example(k=4, n1=128, n2=256, axis=-3, seed=2)       # four whole blocks
@example(k=5, n1=131, n2=157, axis=-1, seed=3)       # a ragged last block
def test_blocked_central_equals_the_one_pass_kernel(k, n1, n2, axis, seed):
    # strides 1, n2 and n1 n2 over arrays from below one block to several
    f = np.random.default_rng(seed).normal(size=(k, n1, n2))
    stride = {-1: 1, -2: n2, -3: n1 * n2}[axis]
    got = np.full(f.size, np.nan)
    want = np.full(f.size, np.nan)
    interior = slice(2 * stride, f.size - 2 * stride)
    grid_mod._central(f.reshape(-1), stride, 0.3, got[interior])
    _one_pass_central(f.reshape(-1), stride, 0.3, want[interior])
    assert _same_bits(got, want)


def test_derivatives_into_out_equal_fresh_ones():
    grid = _grid(24)
    f = np.random.default_rng(2).normal(size=(2, 6, grid.n1, grid.n2))
    for d in (grid.d1, grid.d2):
        buf = np.empty_like(f)
        assert d(f, out=buf) is buf
        assert _same_bits(buf, d(f))
    with pytest.raises(ValueError, match="out"):
        grid.d1(f, out=np.empty((2, 6, grid.n1, grid.n2 + 1)))


def test_warm_stencils_allocate_only_their_output():
    # each thread holds its block temporary: a warm d1 or d2 of a field
    # larger than one block traces its output and the edge rows' small
    # temporaries (27 kB here), not a fresh 256 kB block
    grid = _grid(64)
    f = np.random.default_rng(3).normal(size=(2, 6, grid.n1, grid.n2))
    assert f.size > grid_mod._BLOCK
    for d in (grid.d1, grid.d2):
        d(f)
        tracemalloc.start()
        try:
            d(f)
            extra = tracemalloc.get_traced_memory()[1] - f.nbytes
        finally:
            tracemalloc.stop()
        assert extra < 8 * grid_mod._BLOCK / 4, extra


def test_warm_step_allocates_few_full_fields():
    # the in-place step hands out V_{n+1}; the forcing of its two new
    # stage times is the rest of what it allocates
    grid = _grid(128)
    basic = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4,
                                H2_minus=1.2)
    stepper = ev.LinearizedStepper(
        basic, forcing=ManufacturedForcing(grid, amplitude=1.0, k2=2))
    V, phi, dt = np.zeros((2, 6, grid.n1, grid.n2)), np.zeros(grid.n2), 1e-3
    for n in range(2):
        stepper.derivatives(V)
        V, phi = stepper.step(V, phi, n * dt, dt, (n + 1) * dt)
    stepper.derivatives(V)
    tracemalloc.start()
    try:
        stepper.step(V, phi, 2 * dt, dt, 3 * dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fields = peak / V.nbytes
    assert fields <= 5.5, fields


def test_warm_steps_of_evolve_form_no_field(monkeypatch):
    # V rotates between two buffers and Vt sits in one the stepper holds:
    # with every end-of-step V and Vt held, steps 4-10 of a monitored march
    # trace less than one (2, 6, n1, n2) field above step 3's level
    grid = _grid(64)
    basic = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4,
                                H2_minus=1.2)
    field_bytes = 2 * 6 * grid.n1 * grid.n2 * 8
    held, traced = [], []
    observe = ev._LedgerAccumulator.observe

    def watched(self, end):
        observe(self, end)
        held.append((end.V, end.Vt))
        if len(held) == 3:
            tracemalloc.start()
        elif len(held) == 10:
            traced.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    monkeypatch.setattr(ev._LedgerAccumulator, "observe", watched)
    dt = 1e-3
    try:
        traj = ev.evolve(basic, 12 * dt, dt_override=dt,
                         bdata=ManufacturedBoundaryData(grid, amplitude=0.1,
                                                        k2=2, ramp=0.01))
    finally:
        tracemalloc.stop()
    assert len(held) == 12 and traj.ledger is not None
    assert np.max(np.abs(traj.phi[-1])) > 0
    assert len({id(V) for V, _ in held}) == 2
    assert len({id(Vt) for _, Vt in held}) == 1
    assert traced[0] < field_bytes, traced[0] / field_bytes


def test_forcing_evaluated_once_per_stage_time():
    grid = _grid(16)
    basic = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4,
                                H2_minus=1.2)
    manufactured = ManufacturedForcing(grid, amplitude=1.0, k2=2)
    times = []

    def forcing(t):         # not a ManufacturedForcing: the a priori
        times.append(t)     # monitor reads the forcing itself
        return manufactured(t)

    dt, nsteps = 0.01, 6
    ev.evolve(basic, t_final=nsteps * dt, forcing=forcing, dt_override=dt)
    assert len(times) == len(set(times)) == 1 + 2 * nsteps


def _no_frame(basic, k):
    raise AssertionError("the ledger multiplier built a frame")


def _frame_multiplier(basic):
    """The ledger multiplier from the steady frame's wall rows."""
    grid = basic.grid
    fr = basic.frame(0)
    plus = PhysState.from_vector(fr.U[0, :, 0, :])
    minus = PhysState.from_vector(fr.U[1, :, 0, :])
    fallback = None
    try:
        pair = build_lambda(plus, minus, basic.eos)
    except StabilityError as exc:
        fallback = str(exc)
        pair = LambdaPair(lam_plus=np.zeros(grid.n2),
                          lam_minus=np.zeros(grid.n2))
    lam = extend_lambda(pair, grid.x1, eps=max(4 * grid.h1, 0.05 * grid.L1))
    return np.broadcast_to(lam, (2, grid.n1, grid.n2)).copy(), fallback


@pytest.mark.parametrize("state", ["planar", "sheared", "unstable"])
def test_multiplier_from_wall_rows_equals_the_frame_path(state, monkeypatch):
    grid = _grid(24)
    basic = {
        "planar": lambda: trivial_sheet_state(grid, EOS, u2_jump=0.5,
                                              H2_plus=1.4, H2_minus=1.2),
        "sheared": lambda: sheared_sheet_state(
            grid, EOS, rng=np.random.default_rng(4)),
        "unstable": lambda: trivial_sheet_state(grid, EOS, u2_jump=3.0,
                                                H2_plus=0.2, H2_minus=0.2),
    }[state]()
    with monkeypatch.context() as m:
        m.setattr(BasicState, "frame", _no_frame)
        lam, fallback = ev._ledger_multiplier(basic)
    want_lam, want_fallback = _frame_multiplier(basic)
    assert _same_bits(lam, want_lam)
    assert fallback == want_fallback
    assert (fallback is None) == (state != "unstable")
    assert np.any(lam != 0.0) == (state != "unstable")
