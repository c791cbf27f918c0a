import numpy as np
import pytest

from cvsheet.compat import build_approximate, manufactured_initial_data, time_jet
from cvsheet.grid import Grid
from cvsheet.mhd import IdealGasEos
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
    assert sch.delta(0) == pytest.approx(np.sqrt(5.0) - 2.0)


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
    Vh, psi_half = drv.modified_state(state, theta=2.0)
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
    iterates = 2
    _driver(n=16, nt=9, T=1.0).run(iterations=iterates)
    assert calls == {"nonlinear_L": 1 + 2 * iterates,
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
