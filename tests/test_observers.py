"""``evolve`` as one march plus observers: the shared derivative pair, the
observers against a bare march, and the monitors' shortcuts against the
stencil and einsum forms they replace."""

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvsheet.evolve as ev
from cvsheet.compat import (build_approximate, manufactured_initial_data,
                            time_jet)
from cvsheet.evolve import evolve
from cvsheet.grid import Grid
from cvsheet.linearized import trivial_sheet_state
from cvsheet.mhd import IdealGasEos
from cvsheet.nashmoser import NashMoserDriver, _SnapshotInterpolant
from cvsheet.scenarios import ManufacturedBoundaryData, ManufacturedForcing
from support import sheared_sheet_state

EOS = IdealGasEos()


def _sheet(n):
    grid = Grid(n1=n, n2=n, L1=2 * np.pi, L2=2 * np.pi)
    basic = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4,
                                H2_minus=1.2)
    return grid, basic, ManufacturedForcing(grid, amplitude=1.0, k2=2)


def test_each_end_of_step_field_differentiated_once(monkeypatch):
    # the ledger, the a priori monitor and the next step's first stage all
    # read one pair d1 V, d2 V of each end-of-step V; the planar march
    # differentiates each side's (6, n1, n2) field apart, on the side pool,
    # so a stacked field is hashed side by side and a repeat collides
    # whichever shape it comes in
    grid, basic, forcing = _sheet(32)
    side = (6, grid.n1, grid.n2)
    seen = {"d1": [], "d2": []}

    def hashed(name, fn):
        def wrapper(self, f, **kwargs):
            f = np.asarray(f)
            sides = list(f) if f.shape == (2,) + side else [f]
            for g in sides:
                # the state at rest is also the first stage's output, since
                # the forcing vanishes at t = 0: equal content, not repeated
                # work
                if g.shape == side and np.any(g != 0.0):
                    seen[name].append(hashlib.sha256(g.tobytes()).hexdigest())
            return fn(self, f, **kwargs)
        return wrapper

    monkeypatch.setattr(Grid, "d1", hashed("d1", Grid.d1))
    monkeypatch.setattr(Grid, "d2", hashed("d2", Grid.d2))
    traj = evolve(basic, t_final=0.05, forcing=forcing, dt_override=0.005)
    assert len(traj.times) == 11
    for name, hashes in seen.items():
        assert len(hashes) > 40, name
        assert len(set(hashes)) == len(hashes), name


def test_two_marches_start_at_most_two_threads(monkeypatch):
    # the side pool starts on its first task and serves every march after
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self.name)
        start(self)
    monkeypatch.setattr(threading.Thread, "start", counted)
    monkeypatch.setattr(ev, "_side_pool", None)
    grid, basic, forcing = _sheet(32)
    try:
        for _ in range(2):
            evolve(basic, t_final=0.02, forcing=forcing, dt_override=0.005)
    finally:
        if ev._side_pool is not None:
            ev._side_pool.shutdown()
    assert 1 <= len(started) <= 2, started


def test_side_task_error_reaches_the_caller_after_both_sides_end():
    ended = []

    def task(s):
        if s == 0:
            raise ZeroDivisionError("side 0")
        ended.append(s)
    with pytest.raises(ZeroDivisionError, match="side 0"):
        ev._on_sides(task)
    assert ended == [1]


def _driver():
    """The 16^2, 9-snapshot Nash-Moser driver of ``test_nashmoser``."""
    grid = Grid(n1=16, n2=16, L1=2 * np.pi, L2=2 * np.pi)
    data = manufactured_initial_data(grid, EOS, amplitude=8e-6, seed=3,
                                     k2=1, p_plus=0.8, u2_jump=0.1,
                                     H2_plus=0.7, H2_minus=0.6)
    approx = build_approximate(time_jet(data, order=2), T=1.0, delta=1e-3)
    return NashMoserDriver(approx, np.linspace(0.0, 1.0, 9))


def _modified_state():
    """A time-dependent Nash-Moser modified state with the iteration's
    forcing."""
    drv = _driver()
    basic = drv.modified_state(drv.fresh_state(), theta=2.0)
    return basic, _SnapshotInterpolant(drv.tgrid, drv.Fa), drv.tgrid


@pytest.mark.parametrize("case", ["trivial", "sheared", "modified"])
def test_march_records_the_bare_steppers_fields(case):
    # the observers read the march and never perturb it: the times, phi and
    # snapshots of evolve are those of a bare LinearizedStepper loop, bit
    # for bit, with every observer on a steady state and the recorder alone
    # on a time-dependent one
    kw = {}
    if case == "modified":
        basic, forcing, _ = _modified_state()
        grid, t_final, kw["sponge_strength"] = basic.grid, 1.0, 0.0
    else:
        grid, basic, forcing = _sheet(24)
        if case == "sheared":
            basic = sheared_sheet_state(grid, EOS)
        kw["bdata"] = ManufacturedBoundaryData(grid, amplitude=0.05, k2=2,
                                               ramp=0.05)
        t_final = 0.1
    dt = t_final / 16
    traj = evolve(basic, t_final=t_final, forcing=forcing, dt_override=dt,
                  snapshot_times=dt * np.arange(0, 17, 4), **kw)
    observers = {"constraints", "apriori", "ledger"}
    assert set(traj.timings) == ({"march", "snapshots"}
                                 | (observers if basic.steady else set()))

    stepper = ev.LinearizedStepper(basic, forcing=forcing, **kw)
    t, V, phi = 0.0, np.zeros((2, 6, grid.n1, grid.n2)), np.zeros(grid.n2)
    times, phis, snaps = [t], [phi], [V]
    for n in range(16):
        V, phi = stepper.step(V, phi, t, dt, (n + 1) * dt)
        t = (n + 1) * dt
        times.append(t)
        phis.append(phi)
        if n % 4 == 3:
            snaps.append(V)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.phi, phis)
    assert np.array_equal(traj.snapshot_times, times[::4])
    assert np.array_equal(traj.snapshots, snaps)


def test_solve_interpolates_only_what_the_march_applies(monkeypatch):
    interpolate = ev._CoeffCache._interpolate
    blended = []

    def recording(self, t):
        out = interpolate(self, t)
        if all(out is not b for b in self._snap.values()):
            blended.append(set(out))
        return out

    monkeypatch.setattr(ev._CoeffCache, "_interpolate", recording)
    drv = _driver()
    drv.step(drv.fresh_state())
    assert blended
    for keys in blended:
        assert keys == {"M1", "M2", "M3", "A0invJt", "traces"}


def test_solve_holds_two_snapshot_bundles_at_most(monkeypatch):
    # the march reads its brackets in time order, so the solve's cache
    # drops each snapshot bundle the march has left behind
    build = ev._CoeffCache._build
    held = []

    def recording(self, t):
        held.append(len(self._snap) + 1)
        return build(self, t)

    monkeypatch.setattr(ev._CoeffCache, "_build", recording)
    drv = _driver()
    drv.step(drv.fresh_state())
    assert len(held) >= len(drv.tgrid)
    assert max(held) == 2


def test_monitored_march_builds_the_solved_family_per_bundle(monkeypatch):
    # the solved family is built once per bundle the cache builds (one on a
    # steady state); the ledger builds its symmetrized family and J alone
    counts = {"assemble_effective": 0, "_build": 0}

    def counted(owner, name):
        orig = getattr(owner, name)

        def wrapper(*args):
            counts[name] += 1
            return orig(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(ev, "assemble_effective")
    counted(ev._CoeffCache, "_build")
    grid = Grid(n1=16, n2=16, L1=2 * np.pi, L2=2 * np.pi)
    basic = sheared_sheet_state(grid, EOS, rng=np.random.default_rng(4))
    traj = evolve(basic, t_final=0.02,
                  forcing=ManufacturedForcing(grid, amplitude=1.0, k2=2))
    assert traj.ledger is not None
    assert counts == {"assemble_effective": 1, "_build": 1}


def test_ledger_timings_cover_every_observer():
    _, basic, forcing = _sheet(16)
    traj = evolve(basic, t_final=0.05, forcing=forcing)
    assert set(traj.timings) == {"march", "snapshots", "constraints",
                                 "apriori", "ledger"}
    assert traj.timings["march"] > 0.0


def test_separable_forcing_sum_equals_stencil_path():
    # a plain callable hides the forcing's profile, so the monitor
    # differentiates the field every step
    _, basic, forcing = _sheet(32)
    kw = dict(t_final=0.1)
    fast = evolve(basic, forcing=forcing, **kw)
    slow = evolve(basic, forcing=lambda t: forcing(t), **kw)
    assert fast.apriori["f_sq"] > 0
    assert fast.apriori["f_sq"] == pytest.approx(slow.apriori["f_sq"],
                                                 rel=1e-12, abs=0)
    for key in ("u_sq", "phi_sq"):
        assert fast.apriori[key] == slow.apriori[key], key
    assert np.array_equal(fast.phi, slow.phi)


def test_profile_times_field_is_the_forcing():
    grid, _, forcing = _sheet(16)
    for t in (-0.1, 0.0, 0.05, 0.3, 1.7):
        want = forcing.profile(t) * forcing.F0
        assert np.array_equal(forcing(t), want)
    assert forcing.profile(0.0) == 0.0 and not np.any(forcing(0.0))


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_uniform_j_commutes_with_the_stencils():
    grid, basic, _ = _sheet(32)
    cache = ev._CoeffCache(basic)
    J = cache.at(0.0)["J"]
    assert J.shape == (2, 6, 6, 1, 1)
    # so the a priori monitor takes the Gram path with the uniform J^T J
    JtJ = ev._AprioriMonitor(grid, cache, None, 0.01)._JtJ
    assert JtJ.shape == (2, 6, 6, 1, 1)
    V = np.random.default_rng(5).normal(size=(2, 6, grid.n1, grid.n2))
    JV = ev._mat_apply2(J, V)
    for d in (grid.d1, grid.d2):
        assert _rel(ev._mat_apply2(J, d(V)), d(JV)) <= 1e-12


def _einsum_ledger_terms(led, grid, V, F, div):
    """The ledger's quadratic form and right-hand side through the
    broadcast einsums it used before its explicit products."""
    ops = led.ops
    q = float(grid.integrate(np.einsum(
        "si...,si...->s...", V,
        np.einsum("sij...,sj...->si...", ops.B0, V)).sum(axis=0)))
    b_wall = np.einsum("sij...,si...,sj...->s...",
                       ops.B1[..., 0, :], V[..., 0, :], V[..., 0, :])
    b_far = np.einsum("sij...,si...,sj...->s...",
                      ops.B1[..., -1, :], V[..., -1, :], V[..., -1, :])
    flux = float((b_wall.sum(axis=0) * grid.h2).sum()
                 - (b_far.sum(axis=0) * grid.h2).sum())
    SF = np.einsum("sij...,sj...->si...", ops.S, F)
    SF += ops.T * (div / led._d1phi)[:, None]
    Fc = np.einsum("sij...,sj...->si...", led._Jt, SF)
    src = 2.0 * float(grid.integrate(
        np.einsum("si...,si...->s...", Fc, V).sum(axis=0)))
    zo = float(grid.integrate(np.einsum(
        "sij...,si...,sj...->s...", led._zo_matrix, V, V).sum(axis=0)))
    return q, flux + src + zo


def test_ledger_products_equal_broadcast_einsums():
    grid, basic, _ = _sheet(32)
    stepper = ev.LinearizedStepper(basic)
    led = ev._LedgerAccumulator(grid, stepper.cache.source, 0.01,
                                stepper.sponge)
    ledger_matrices = (led.ops.S, led.ops.B0, led._zo_matrix)
    for M in ledger_matrices:
        assert M.shape == (2, 6, 6, grid.n1, 1)
    rng = np.random.default_rng(7)
    V, F = (rng.normal(size=(2, 6, grid.n1, grid.n2)) for _ in range(2))
    div = rng.normal(size=(2, grid.n1, grid.n2))
    for M in ledger_matrices:
        want = np.einsum("sij...,sj...->si...", M, V)
        assert _rel(ev._mat_apply2(M, V), want) <= 1e-13
    q, integrand = _einsum_ledger_terms(led, grid, V, F, div)
    assert led._q(V) == pytest.approx(q, rel=1e-13, abs=0)
    assert led._integrand(V, F, div) == pytest.approx(integrand, rel=1e-13,
                                                      abs=0)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["x1", "uniform", "full"]),
       cols=st.sampled_from([6, 1]), n1=st.integers(4, 12),
       n2=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_gram_form_equals_the_applied_form(kind, cols, n1, n2, seed):
    # the Gram contraction of an x1-only or uniform M is the quadrature of
    # X . (M Y) with M applied; a full-field M is applied; one-column M and
    # Y are the ledger's J^T T and div hdot / d1Phi
    rng = np.random.default_rng(seed)
    stored = {"x1": (n1, 1), "uniform": (1, 1), "full": (n1, n2)}[kind]
    M = rng.normal(size=(2, 6, cols, *stored))
    M[rng.random(M.shape[:3]) < 0.5] = 0.0      # sparse, as the ledger's
    X = rng.normal(size=(2, 6, n1, n2))
    Y = rng.normal(size=(2, cols, n1, n2))
    w = rng.random(n1)
    full = np.ascontiguousarray(np.broadcast_to(M, (2, 6, cols, n1, n2)))
    want = ev._inner(X, np.einsum("sij...,sj...->si...", full, Y), w)
    scale = ev._inner(np.abs(X), np.einsum("sij...,sj...->si...",
                                           np.abs(full), np.abs(Y)), w)
    got = ev._form(M, X, Y, w)
    assert abs(got - want) <= 1e-13 * scale
    if M.shape[-1] != 1:
        assert got == ev._inner(X, ev._mat_apply2(M, Y), w)
    else:
        assert got == ev._form(M, X, Y, w, ev._gram(X, Y))


def test_sheared_ledger_takes_the_full_field_path(monkeypatch):
    # the sheared sheet's matrices vary along x2: the ledger applies them
    # to the fields, forming no Gram for its matrix forms, and the a priori
    # monitor differentiates J V
    grid = Grid(n1=16, n2=16, L1=2 * np.pi, L2=2 * np.pi)
    basic = sheared_sheet_state(grid, EOS, rng=np.random.default_rng(4))
    stepper = ev.LinearizedStepper(basic)
    led = ev._LedgerAccumulator(grid, stepper.cache.source, 0.01,
                                stepper.sponge)
    for M in (led.ops.B0, led._zo_matrix, led._JtS, led._JtT):
        assert M.shape[-2:] == (grid.n1, grid.n2)
    assert ev._AprioriMonitor(grid, stepper.cache, None, 0.01)._JtJ is None
    rng = np.random.default_rng(9)
    V, F = (rng.normal(size=(2, 6, grid.n1, grid.n2)) for _ in range(2))
    div = rng.normal(size=(2, grid.n1, grid.n2))
    q, integrand = _einsum_ledger_terms(led, grid, V, F, div)

    def no_gram(X, Y):
        raise AssertionError("a full-field form took the Gram path")

    monkeypatch.setattr(ev, "_gram", no_gram)
    assert led._q(V) == pytest.approx(q, rel=1e-13, abs=0)
    assert led._integrand(V, F, div) == pytest.approx(integrand, rel=1e-13,
                                                      abs=0)


def test_energy_integrals_equal_the_summed_squares():
    grid, _, _ = _sheet(32)
    from cvsheet.linearized import IHN, IQ, IUN
    from cvsheet.profiles import SigmaWeight
    sigma = SigmaWeight().value(grid.x1)[:, None]
    V = np.random.default_rng(3).normal(size=(2, 6, grid.n1, grid.n2))
    d1V, d2V = grid.d1(V), grid.d2(V)
    want = [grid.integrate((a ** 2).sum(axis=(0, 1))) for a in
            (V, d1V[:, (IQ, IUN, IHN)], sigma * d1V, d2V)]
    got = ev.energy_integrals(grid, V)
    for g, w in zip(got, want):
        assert g == pytest.approx(float(w), rel=1e-13, abs=0)


def test_apriori_front_rate_is_the_marchs_with_boundary_data():
    # |phi|^2_{H1} of the a priori monitor differentiates phi in time with
    # the rate the march advances it by, the boundary datum g1+ included
    grid = Grid(n1=16, n2=16, L1=2 * np.pi, L2=2 * np.pi)
    basic = sheared_sheet_state(grid, EOS)
    bdata = ManufacturedBoundaryData(grid, amplitude=0.05, k2=2, ramp=0.05)
    traj = evolve(basic, t_final=0.1, bdata=bdata,
                  dt_override=0.01, snapshot_times=0.01 * np.arange(11))
    assert np.array_equal(traj.snapshot_times, traj.times)
    dt = traj.times[1]
    stepper = ev.LinearizedStepper(basic, bdata=bdata)
    phi_sq = 0.0
    for t, V, phi in zip(traj.times[1:], traj.snapshots[1:], traj.phi[1:]):
        dtp = stepper.rhs(V, phi, t, stepper.cache.at(t), stepper.g_at(t))[1]
        d2p = grid.d2_boundary(phi)
        phi_sq += float(np.sum(phi ** 2 + dtp ** 2 + d2p ** 2)) * grid.h2 * dt
    assert traj.apriori["phi_sq"] == pytest.approx(phi_sq, rel=1e-12, abs=0)


@pytest.mark.parametrize("times, bad", [
    ([0.0, 0.1, 5.0], 5.0), ([-1.0, 0.1], -1.0), ([0.1, 0.05], 0.05),
    ([0.0, float("nan")], float("nan"))])
def test_evolve_refuses_bad_snapshot_times(times, bad):
    # each would give snapshots that are missing or at other times
    grid = Grid(n1=16, n2=16, L1=2 * np.pi, L2=2 * np.pi)
    with pytest.raises(ValueError, match=f"snapshot time {bad!r}"):
        evolve(trivial_sheet_state(grid, EOS), t_final=0.1,
               snapshot_times=times)


def test_snapshot_times_take_the_nearest_step():
    # each time takes the nearest step, also a repeated time, one within half
    # a step of the start and t_final plus roundoff
    grid = Grid(n1=16, n2=16, L1=2 * np.pi, L2=2 * np.pi)
    traj = evolve(trivial_sheet_state(grid, EOS), t_final=0.1,
                  dt_override=0.01,
                  snapshot_times=[0.0, 0.0, 0.004, 0.026, 0.1 * (1 + 1e-10)])
    assert np.allclose(traj.snapshot_times, [0.0, 0.0, 0.0, 0.03, 0.1],
                       rtol=0, atol=1e-15)
