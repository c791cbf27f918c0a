import dataclasses
import tracemalloc

import numpy as np
import pytest

from cvsheet.compat import build_approximate, manufactured_initial_data, time_jet
from cvsheet.evolve import NumericsError
from cvsheet.front import apply_L, lift_front, straightened_coefficients
from cvsheet.grid import Grid, diff_time
from cvsheet.linearized import c_matrix
from cvsheet.mhd import IH1, IH2, IP, IU1, IU2, IdealGasEos
from cvsheet.nashmoser import (NashMoserConfig, NashMoserDriver,
                               ThetaSchedule)
from support import linearized_L

EOS = IdealGasEos()


def _driver(n=32, nt=33, T=2.0, amplitude=8e-6, **cfg):
    grid = Grid(n1=n, n2=n, L1=2 * np.pi, L2=2 * np.pi)
    data = manufactured_initial_data(grid, EOS, amplitude=amplitude, seed=3,
                                     k2=1, p_plus=0.8, u2_jump=0.1,
                                     H2_plus=0.7, H2_minus=0.6)
    jet = time_jet(data, order=2)
    approx = build_approximate(jet, T=T, delta=1e-3)
    tgrid = np.linspace(0.0, T, nt)
    return NashMoserDriver(approx, tgrid, NashMoserConfig(**cfg))


def test_theta_schedule_bounds():
    for theta0 in (1.0, 2.0, 5.0):
        sch = ThetaSchedule(theta0)
        assert sch.bounds_hold(10_000)
    for theta0 in (0.5, np.nan):
        with pytest.raises(ValueError, match="theta0 must be >= 1"):
            ThetaSchedule(theta0)


def test_theta_schedule_values():
    sch = ThetaSchedule(2.0)
    assert sch.theta(0) == 2.0
    assert sch.theta(5) == pytest.approx(3.0)
    assert sch.theta(1) - sch.theta(0) == pytest.approx(np.sqrt(5.0) - 2.0)


def test_stationary_data_stays_at_zero():
    grid = Grid(n1=24, n2=24, L1=2 * np.pi, L2=2 * np.pi)
    data = manufactured_initial_data(grid, EOS, amplitude=0.0, p_plus=0.8,
                                     u2_jump=0.1, H2_plus=0.7, H2_minus=0.6)
    jet = time_jet(data, order=2)
    approx = build_approximate(jet, T=1.0, delta=1e-3)
    drv = NashMoserDriver(approx, np.linspace(0, 1.0, 9))
    state = drv.fresh_state()
    assert drv._l2_spacetime(drv.Fa) < 1e-11
    state = drv.step(state)
    h = state.history[-1]
    assert h["delta_v_norm"] < 1e-9
    assert h["residual_interior"] < 1e-9


def test_modified_state_of_zero_iterate_restores_wall_relation():
    drv = _driver(n=24, nt=17, T=1.0)
    state = drv.fresh_state()
    drv.modified_state(state, theta=2.0)
    rep = drv.last_modified_report
    assert rep.jump_residual <= 1e-10
    assert rep.stability_margin > 0
    # H part solves the summed transport; residual at tolerance scale
    assert rep.transport_residual < 1e-4


def test_bookkeeping_identities_exact():
    drv = _driver(n=24, nt=17, T=1.0)
    state = drv.fresh_state()
    for _ in range(3):
        state = drv.step(state)
        assert state.history[-1]["bookkeeping_residual"] <= 1e-12


def test_bookkeeping_residual_equals_the_full_series_check():
    # one (side, component) series at a time gives the bits of S_theta
    # applied to the whole series at once
    drv = _driver(n=16, nt=9, T=1.0)
    state = drv.step(drv.fresh_state())
    new = drv.step(state)
    theta = float(drv.schedule.theta(state.i))
    book_i = np.max(np.abs(new.f_sum + drv.smooth_field(state.E, theta)
                           - drv.smooth_field(drv.Fa, theta)))
    book_b = np.max(np.abs(new.g_sum
                           + drv.smooth_boundary(state.Etilde, theta)))
    assert np.any(state.E != 0.0)
    got = drv.bookkeeping_residual(state, new.f_sum, new.g_sum, theta)
    assert got == float(max(book_i, book_b))
    assert got == new.history[-1]["bookkeeping_residual"]
    # the interior part alone, with a boundary sum that cancels exactly
    g_cancel = -drv.smooth_boundary(state.Etilde, theta)
    assert drv.bookkeeping_residual(state, new.f_sum, g_cancel,
                                    theta) == book_i > 0.0


def test_bookkeeping_residual_is_nan_on_a_nan_defect():
    # a NaN in a later (side, component) series, or in the boundary sum
    # only, is not dropped by the max over the series
    drv = _driver(n=16, nt=9, T=1.0)
    state = drv.fresh_state()
    theta = float(drv.schedule.theta(0))
    assert np.isfinite(drv.bookkeeping_residual(state, state.f_sum,
                                                state.g_sum, theta))
    E = state.E.copy()
    E[:, 1, 3] = np.nan
    nan_E = dataclasses.replace(state, E=E)
    assert np.isnan(drv.bookkeeping_residual(nan_E, state.f_sum,
                                             state.g_sum, theta))
    g_sum = state.g_sum.copy()
    g_sum[-1, 2, 0] = np.nan
    assert np.isnan(drv.bookkeeping_residual(state, state.f_sum, g_sum,
                                             theta))


@pytest.mark.slow
def test_residual_strictly_decreasing():
    drv = _driver(n=32, nt=33, T=2.0, iterations=5)
    report = drv.run()
    res = [report["initial_residual"]] + report["residuals"]
    for a, b in zip(res, res[1:]):
        assert b < a
    assert not report["stopped_early"]


def test_quadratic_error_scaling_under_forcing_halving():
    e1 = []
    for scale in (1.0, 0.5):
        drv = _driver(n=24, nt=17, T=1.0)
        drv.Fa *= scale
        state = drv.step(drv.fresh_state())
        e1.append(state.history[-1]["eprime_norm"])
    ratio = e1[0] / e1[1]
    assert 3.0 <= ratio <= 5.0


def test_iterates_causal():
    drv = _driver(n=24, nt=17, T=1.0)
    state = drv.step(drv.fresh_state())
    # data vanish in the past: the t = 0 snapshot stays identically zero
    assert np.max(np.abs(state.V[0])) < 1e-12
    assert np.max(np.abs(state.psi[0])) < 1e-12


def test_each_operator_value_computed_once_per_iterate(monkeypatch):
    from cvsheet.linearized import SheetOperators
    calls = {"nonlinear_L": 0, "boundary_B": 0, "smooth_field": 0}

    def counted(cls, name):
        orig = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counted(SheetOperators, "nonlinear_L")
    counted(SheetOperators, "boundary_B")
    counted(NashMoserDriver, "smooth_field")
    walked = []     # the number of base points of each snapshot walk
    walk = SheetOperators.walk

    def counted_walk(self, bases, *args):
        walked.append(len(bases))
        return walk(self, bases, *args)
    monkeypatch.setattr(SheetOperators, "walk", counted_walk)
    iterates = 2
    _driver(n=16, nt=9, T=1.0).run(iterations=iterates)
    # calL(V_{i+1}) per iterate, and L(U^a) once inside the first, each a
    # walk of one base point; the error terms walk U^a + V_i and the
    # modified state together, L at the modified state coming from its
    # linearization, once per iterate; the modified state and the source
    # f_i each smooth one full series, and the bookkeeping check smooths
    # one (side, component) series at a time through the smoother itself
    assert calls == {"nonlinear_L": 1 + iterates,
                     "boundary_B": 1 + iterates,
                     "smooth_field": 2 * iterates}
    assert walked == [1] + [1, 2] * iterates


def test_carried_residual_values_equal_fresh_evaluation():
    drv = _driver(n=16, nt=9, T=1.0)
    state = drv.fresh_state()
    for _ in range(3):
        state = drv.step(state)
        assert np.array_equal(state.calL, drv.calL(state.V, state.psi))
        assert np.array_equal(
            state.B, drv.ops.boundary_B(drv.Ua + state.V,
                                        drv.phia + state.psi))


def _old_boundary_B_prime(ops, Uhat, phihat, dU, dphi):
    """The linearized wall operator, without the good-unknown front terms."""
    g = ops.grid
    dt_dphi = diff_time(dphi, ops.dt, axis=0, order=4)
    d2_dphi = np.stack([g.d2_boundary(p) for p in dphi])
    d2phihat = np.stack([g.d2_boundary(p) for p in phihat])
    trh = Uhat[:, :, :, 0, :]
    trd = dU[:, :, :, 0, :]
    duN = trd[:, :, IU1] - trd[:, :, IU2] * d2phihat[:, None, :]
    dq = trd[:, :, IP] + (trh[:, :, IH1] * trd[:, :, IH1]
                          + trh[:, :, IH2] * trd[:, :, IH2])
    return np.stack([
        dt_dphi + trh[:, 0, IU2] * d2_dphi - duN[:, 0],
        dt_dphi + trh[:, 1, IU2] * d2_dphi - duN[:, 1],
        dq[:, 0] - dq[:, 1]], axis=1)


def _old_boundary_B_e_prime(ops, Uhat, phihat, dUdot, dphi):
    g = ops.grid
    out = _old_boundary_B_prime(ops, Uhat, phihat, dUdot, dphi)
    d2phihat = np.stack([g.d2_boundary(p) for p in phihat])
    uN = Uhat[:, :, IU1] - Uhat[:, :, IU2] * d2phihat[:, None, None, :]
    d1uN = np.stack([g.d1(uN[:, i])[:, 0, :] for i in range(2)], axis=1)
    q = Uhat[:, :, IP] + 0.5 * (Uhat[:, :, IH1] ** 2 + Uhat[:, :, IH2] ** 2)
    d1q = np.stack([g.d1(q[:, i])[:, 0, :] for i in range(2)], axis=1)
    out[:, 0] -= dphi * d1uN[:, 0]
    out[:, 1] += dphi * d1uN[:, 1]
    out[:, 2] += dphi * (d1q[:, 0] + d1q[:, 1])
    return out


def test_two_base_point_errors_equal_three_leg_oracle():
    # the errors as the base changes V_i -> S_theta V_i -> V_{i+1/2} write
    # them, with the legs at S_theta V_i that telescope away
    drv = _driver(n=16, nt=9, T=1.0)
    ops, g = drv.ops, drv.grid
    seen = []
    error_terms = drv._error_terms

    def spy(*args):
        out = error_terms(*args)
        seen.append((args, out))
        return out
    drv._error_terms = spy

    def rel(new, old):
        return np.max(np.abs(new - old)) / np.max(np.abs(old))

    state = drv.fresh_state()
    for _ in range(3):
        theta = float(drv.schedule.theta(state.i))
        state = drv.step(state)
        (prev, basic, dV, dpsi, dUdot_wall, shift, calL_next, B_next), \
            (e, e1, etilde) = seen[-1]
        U0, phi0 = drv.Ua + prev.V, drv.phia + prev.psi
        Us = drv.Ua + drv.smooth_field(prev.V, theta)
        lin0 = linearized_L(ops, U0, phi0, dV, dpsi)[1]
        lin_s = linearized_L(ops, Us, basic.phi, dV, dpsi)[1]
        L_half, lin_h = linearized_L(ops, basic.U, basic.phi, dV, dpsi)
        L_direct = ops.nonlinear_L(basic.U, basic.phi)
        assert np.array_equal(L_half, L_direct)
        e1_old = (calL_next - prev.calL) - lin0
        e_old = (e1_old + (lin0 - lin_s) + (lin_s - lin_h)
                 + shift * g.d1(L_direct))
        bp0 = _old_boundary_B_prime(ops, U0, phi0, dV, dpsi)
        bps = _old_boundary_B_prime(ops, Us, basic.phi, dV, dpsi)
        bpe = _old_boundary_B_e_prime(ops, basic.U, basic.phi, dUdot_wall,
                                      dpsi)
        etilde_old = ((B_next - prev.B) - bp0) + (bp0 - bps) + (bps - bpe)
        assert np.array_equal(e1, e1_old)
        assert rel(e, e_old) <= 1e-12
        assert rel(etilde, etilde_old) <= 1e-12


def _full_series_linearized_L(ops, Uhat, phihat, dU, dphi):
    """(L(Uhat), L'(Uhat)[dU, dphi]) with the time derivatives and the
    increment's derivatives taken over the whole series first, as the
    operators did before they walked one snapshot at a time."""
    g, dt = ops.grid, ops.dt
    dtU = diff_time(Uhat, dt, axis=0, order=4)
    dtphi = diff_time(phihat, dt, axis=0, order=4)
    dt_dU = diff_time(dU, dt, axis=0, order=4)
    d1_dU, d2_dU = g.d1(dU), g.d2(dU)
    dl = lift_front(dphi, g, diff_time(dphi, dt, axis=0, order=4))
    value, lin = np.empty_like(Uhat), np.empty_like(Uhat)
    for n in range(len(Uhat)):
        d1U, d2U = g.d1(Uhat[n]), g.d2(Uhat[n])
        lifted = lift_front(phihat[n], g, dtphi[n])
        coeffs = straightened_coefficients(Uhat[n], lifted, ops.eos)
        C = c_matrix(Uhat[n], dtU[n], d1U, d2U, lifted, ops.eos)
        r1 = d1U / lifted.d1_phi_map[:, None]
        apply_L(coeffs, dtU[n], d1U, d2U, value[n])
        apply_L(coeffs, dt_dU[n] - dl.dt_psi[:, n, None] * r1,
                d1_dU[n] - dl.d1_psi[:, n, None] * r1,
                d2_dU[n] - dl.d2_psi[:, n, None] * r1, lin[n])
        lin[n] += np.einsum("sij...,sj...->si...", C, dU[n])
    return value, lin


def _full_series_error_terms(drv, state, basic, dV, dpsi, dUdot_wall, shift,
                             calL_next, B_next):
    """(e, e', e~) from two full-series linearizations, the value at
    U^a + V_i formed and dropped."""
    ops = drv.ops
    _, lin0 = _full_series_linearized_L(ops, drv.Ua + state.V,
                                        drv.phia + state.psi, dV, dpsi)
    L_half, lin_half = _full_series_linearized_L(ops, basic.U, basic.phi,
                                                 dV, dpsi)
    dcalL = calL_next - state.calL
    e1 = dcalL - lin0
    e = dcalL - lin_half + shift * drv.grid.d1(L_half)
    etilde = (B_next - state.B) - ops.boundary_B_e_prime(
        basic.U, basic.phi, dUdot_wall, dpsi)
    return e, e1, etilde


def test_streamed_error_terms_equal_full_series_oracle():
    drv = _driver(n=16, nt=9, T=1.0)
    seen = []
    error_terms = drv._error_terms

    def spy(*args):
        out = error_terms(*args)
        seen.append((args, out))
        return out
    drv._error_terms = spy
    state = drv.fresh_state()
    for _ in range(3):
        state = drv.step(state)
        args, streamed = seen[-1]
        for got, want in zip(streamed, _full_series_error_terms(drv, *args)):
            assert np.array_equal(got, want)


def test_error_terms_hold_few_full_series_arrays():
    # streamed, the error terms hold e, e' and U^a + V_i at full length and
    # one snapshot of everything else; from full-series walks they held
    # 12.8 (nt, 2, 6, n1, n2) arrays at their peak
    drv = _driver(n=16, nt=33, T=2.0)
    peaks = []
    error_terms = drv._error_terms

    def traced(*args):
        tracemalloc.start()
        try:
            return error_terms(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    drv._error_terms = traced
    drv.step(drv.fresh_state())
    arrays = max(peaks) / drv.Ua.nbytes
    assert arrays <= 6.0, arrays


def test_iterations_below_one_raise_and_none_means_the_config():
    with pytest.raises(ValueError, match="iterations"):
        NashMoserConfig(iterations=0)
    drv = _driver(n=16, nt=9, T=1.0, iterations=1)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="iterations"):
            drv.run(iterations=bad)
    assert len(drv.run()["history"]) == 1


def test_misaligned_snapshot_series_raises(monkeypatch):
    import cvsheet.nashmoser as nm
    evolve = nm.evolve

    def stretched(basic, **kwargs):
        # a step 1.3x the requested one cannot land on every snapshot time
        kwargs["dt_override"] *= 1.3
        return evolve(basic, **kwargs)
    monkeypatch.setattr(nm, "evolve", stretched)
    drv = _driver(n=16, nt=9, T=1.0)
    with pytest.raises(NumericsError, match="snapshot times"):
        drv.step(drv.fresh_state())
