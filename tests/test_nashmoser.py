import numpy as np
import pytest

from cvsheet.compat import build_approximate, manufactured_initial_data, time_jet
from cvsheet.evolve import NumericsError
from cvsheet.grid import Grid, diff_time
from cvsheet.mhd import IH1, IH2, IP, IU1, IU2, IdealGasEos
from cvsheet.nashmoser import (NashMoserConfig, NashMoserDriver,
                               ThetaSchedule)

EOS = IdealGasEos()


def _driver(n=32, nt=33, T=2.0, amplitude=8e-6, fa_scale=1.0, **cfg):
    grid = Grid(n1=n, n2=n, L1=2 * np.pi, L2=2 * np.pi)
    data = manufactured_initial_data(grid, EOS, amplitude=amplitude, seed=3,
                                     k2=1, p_plus=0.8, u2_jump=0.1,
                                     H2_plus=0.7, H2_minus=0.6)
    jet = time_jet(data, order=2)
    approx = build_approximate(jet, T=T, delta=1e-3)
    tgrid = np.linspace(0.0, T, nt)
    return NashMoserDriver(approx, tgrid, NashMoserConfig(**cfg),
                           fa_scale=fa_scale)


def test_theta_schedule_bounds():
    for theta0 in (1.0, 2.0, 5.0):
        sch = ThetaSchedule(theta0)
        assert sch.bounds_hold(10_000)
    with pytest.raises(ValueError):
        ThetaSchedule(0.5)


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
        drv = _driver(n=24, nt=17, T=1.0, fa_scale=scale)
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
    from cvsheet.nashmoser import SheetOperators
    calls = {"nonlinear_L": 0, "linearized_L": 0, "boundary_B": 0,
             "smooth_field": 0}

    def counted(cls, name):
        orig = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counted(SheetOperators, "nonlinear_L")
    counted(SheetOperators, "linearized_L")
    counted(SheetOperators, "boundary_B")
    counted(NashMoserDriver, "smooth_field")
    iterates = 2
    _driver(n=16, nt=9, T=1.0).run(iterations=iterates)
    # L(U^a) once, then calL(V_{i+1}) per iterate; L at the modified state
    # comes from its linearization walk, one of two per iterate
    assert calls == {"nonlinear_L": 1 + iterates,
                     "linearized_L": 2 * iterates,
                     "boundary_B": 1 + iterates,
                     "smooth_field": 4 * iterates}


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
        (prev, basic, dV, dpsi, dUdot, shift, calL_next, B_next), \
            (e, e1, etilde) = seen[-1]
        U0, phi0 = drv.Ua + prev.V, drv.phia + prev.psi
        Us = drv.Ua + drv.smooth_field(prev.V, theta)
        inc = ops.increment(dV, dpsi)
        lin0 = ops.linearized_L(U0, phi0, inc)[1]
        lin_s = ops.linearized_L(Us, basic.phi, inc)[1]
        L_half, lin_h = ops.linearized_L(basic.U, basic.phi, inc)
        L_direct = ops.nonlinear_L(basic.U, basic.phi)
        assert np.array_equal(L_half, L_direct)
        e1_old = (calL_next - prev.calL) - lin0
        e_old = (e1_old + (lin0 - lin_s) + (lin_s - lin_h)
                 + shift * g.d1(L_direct))
        bp0 = _old_boundary_B_prime(ops, U0, phi0, dV, dpsi)
        bps = _old_boundary_B_prime(ops, Us, basic.phi, dV, dpsi)
        bpe = _old_boundary_B_e_prime(ops, basic.U, basic.phi, dUdot, dpsi)
        etilde_old = ((B_next - prev.B) - bp0) + (bp0 - bps) + (bps - bpe)
        assert np.array_equal(e1, e1_old)
        assert rel(e, e_old) <= 1e-12
        assert rel(etilde, etilde_old) <= 1e-12


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
