import numpy as np
import pytest

from cvsheet.compat import (SmallnessError, build_approximate,
                            check_compatibility, forcing_fa, front_slope,
                            front_speed, manufactured_initial_data, time_jet)
from cvsheet.grid import Grid
from cvsheet.mhd import IH1, IH2, IP, IdealGasEos

EOS = IdealGasEos()


@pytest.fixture
def grid():
    return Grid(n1=48, n2=48, L1=2 * np.pi, L2=2 * np.pi)


def _traces(H1p, H2p, H1m, H2m, u1p=0.0, u2p=0.0, n=8):
    U = np.zeros((2, 6, n))
    U[0, IH1], U[0, IH2] = H1p, H2p
    U[1, IH1], U[1, IH2] = H1m, H2m
    U[0, 1], U[0, 2] = u1p, u2p
    return U


def test_front_slope_zero_H1():
    U = _traces(0.0, 1.0, 0.0, 0.5, u1p=0.7)
    assert np.allclose(front_slope(U), 0.0)
    assert np.allclose(front_speed(U), 0.7)


def test_front_slope_closed_form_value():
    # H+ = (1, 2), H- = (0, 1): mu = 2/5
    U = _traces(1.0, 2.0, 0.0, 1.0)
    assert np.allclose(front_slope(U), 0.4)


def test_front_slope_orthogonality_identity():
    rng = np.random.default_rng(4)
    U = np.zeros((2, 6, 16))
    U[0, IH1], U[0, IH2] = rng.normal(size=16), rng.normal(size=16) + 2.0
    U[1, IH1], U[1, IH2] = rng.normal(size=16), rng.normal(size=16) + 1.5
    mu = front_slope(U)
    HNp = U[0, IH1] - U[0, IH2] * mu
    HNm = U[1, IH1] - U[1, IH2] * mu
    assert np.max(np.abs(HNp * U[0, IH2] + HNm * U[1, IH2])) < 1e-12


def test_front_slope_degenerate_raises():
    U = _traces(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        front_slope(U)


def test_stationary_data_zero_jets(grid):
    data = manufactured_initial_data(grid, EOS, amplitude=0.0)
    jet = time_jet(data, order=3)
    # differencing amplifies roundoff by step^-j: noise floor ~1e-10 here
    for U in jet.Uj[1:]:
        assert np.max(np.abs(U)) < 1e-9
    for p in jet.phij[1:]:
        assert np.max(np.abs(p)) < 1e-15


def test_first_front_jet_is_wall_speed(grid):
    data = manufactured_initial_data(grid, EOS, amplitude=0.04, seed=1)
    jet = time_jet(data, order=1)
    expected = front_speed(data.U0[:, :, 0, :])
    assert np.allclose(jet.phij[1], expected, atol=1e-12)


def test_manufactured_data_compatible_to_high_order(grid):
    data = manufactured_initial_data(grid, EOS, amplitude=0.05, seed=3)
    jet = time_jet(data, order=3)
    rep = check_compatibility(jet, order=3)
    assert rep.compatible_up_to() >= 3
    assert max(rep.velocity_residuals) < 1e-10
    assert max(rep.pressure_residuals) < 1e-10


def test_compatibility_violation_measured_exactly(grid):
    data = manufactured_initial_data(grid, EOS, amplitude=0.0)
    data.U0[0, IP] += 0.37  # breaks [q] = 0 at order zero
    jet = time_jet(data, order=1)
    rep = check_compatibility(jet, order=1)
    assert rep.pressure_residuals[0] == pytest.approx(0.37, abs=1e-12)
    assert rep.compatible_up_to() == -1


def test_forcing_scaling_matches_jet_order(grid):
    data = manufactured_initial_data(grid, EOS, amplitude=0.05, seed=3)
    jet = time_jet(data, order=2)
    approx = build_approximate(jet, T=1.0, delta=10.0)
    F = forcing_fa(approx)
    ts = np.geomspace(1e-3, 1e-1, 9)
    norms = np.array([np.sqrt(grid.integrate((F(t) ** 2).sum(axis=(0, 1))))
                      for t in ts])
    slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
    assert 1.7 <= slope <= 2.3
    # bounded ratio |F|/t^2 as t -> 0+
    ratios = norms / ts ** 2
    assert ratios.max() / ratios.min() < 1.5


def test_forcing_causal_and_stationary_zero(grid):
    data = manufactured_initial_data(grid, EOS, amplitude=0.0)
    jet = time_jet(data, order=2)
    F = forcing_fa(build_approximate(jet, T=1.0, delta=1.0))
    assert np.all(F(-0.2) == 0.0)
    assert np.all(F(0.0) == 0.0)
    for t in (0.1, 0.5, 0.9):
        assert np.max(np.abs(F(t))) < 1e-11


def test_cutoff_halving_shrinks_forcing(grid):
    data = manufactured_initial_data(grid, EOS, amplitude=0.05, seed=5)
    jet = time_jet(data, order=2)
    F1 = forcing_fa(build_approximate(jet, T=1.0, delta=10.0))
    F2 = forcing_fa(build_approximate(jet, T=0.5, delta=10.0))
    ts = np.linspace(0.05, 0.95, 10)
    n1 = sum(np.sqrt(grid.integrate((F1(t) ** 2).sum(axis=(0, 1)))) for t in ts)
    n2 = sum(np.sqrt(grid.integrate((F2(t) ** 2).sum(axis=(0, 1)))) for t in ts)
    assert n2 < n1


def test_smallness_budget_enforced(grid):
    data = manufactured_initial_data(grid, EOS, amplitude=0.05, seed=5)
    jet = time_jet(data, order=2)
    with pytest.raises(SmallnessError):
        build_approximate(jet, T=1.0, delta=1e-6)
    # a small enough horizon passes (size scales like sqrt(T))
    full = build_approximate(jet, T=1.0, delta=10.0).smallness
    half = build_approximate(jet, T=0.25, delta=10.0).smallness
    assert half < full


def test_horizon_without_a_measurable_size_is_refused(grid):
    # no such horizon has a size to measure (each gave a NaN), and a NaN
    # size misses any budget
    jet = time_jet(manufactured_initial_data(grid, EOS, seed=5), order=2)
    for T in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="finite and > 0"):
            build_approximate(jet, T=T, delta=10.0)
    jet.Uj[0][0, IP, -1, 0] = np.nan    # a NaN reference constant
    with pytest.raises(SmallnessError):
        build_approximate(jet, T=1.0, delta=10.0)


def test_manufactured_data_refuses_nonpositive_minus_pressure(grid):
    # the total-pressure balance gives p- = 0.1 + (0.01 - 1)/2 = -0.395
    with pytest.raises(ValueError, match="p- <= 0"):
        manufactured_initial_data(grid, EOS, p_plus=0.1, H2_plus=0.1,
                                  H2_minus=1.0)


def test_initial_data_satisfies_divergence(grid):
    data = manufactured_initial_data(grid, EOS, amplitude=0.05, seed=7)
    div = grid.d1(data.U0[:, IH1]) + grid.d2(data.U0[:, IH2])
    assert np.max(np.abs(div)) < 1e-13
    assert np.max(np.abs(data.U0[:, IH1, 0, :])) == 0.0  # wall H_N = 0


def _rhs_by_solve(data, Upoly, phipoly, dphipoly):
    """The interior right-hand side by a 6x6 solve at every grid point."""
    from cvsheet.front import apply_L, lift_front, straightened_coefficients
    g = data.grid
    lifted = lift_front(phipoly, g, dphipoly)
    coeffs = straightened_coefficients(Upoly, lifted, data.eos)
    rhs = apply_L(coeffs, None, g.d1(Upoly), g.d2(Upoly),
                  np.empty_like(Upoly))
    for i, (a0, _, _) in enumerate(coeffs):
        a0m = np.moveaxis(a0, (0, 1), (-2, -1))
        rhs[i] = -np.moveaxis(
            np.linalg.solve(a0m, np.moveaxis(rhs[i], 0, -1)[..., None])[..., 0],
            -1, 0)
    return rhs


def test_rhs_division_equals_pointwise_solve(grid):
    # the straightened A0 is diagonal: dividing by its diagonal gives the
    # bits of the dense solve, on a perturbed state under a moving front
    from cvsheet.compat import _rhs_eval
    data = manufactured_initial_data(grid, EOS, amplitude=0.05, seed=2)
    jet = time_jet(data, order=1)
    for t in (0.0, 0.1):
        args = (jet.u_poly(t), jet.phi_poly(t) + 0.1 * np.sin(grid.x2),
                jet.phi_poly(t, shift=1) + 0.2 * np.cos(grid.x2))
        got = _rhs_eval(data, *args)
        assert np.max(np.abs(got)) > 0
        assert np.array_equal(got, _rhs_by_solve(data, *args))
