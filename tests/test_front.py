import numpy as np
import pytest

from cvsheet.front import (DegenerateJacobianError, FrontField, TangentFrame,
                           lift_front, make_cutoff, straightened_coefficients,
                           transformed_vectors)
from cvsheet.grid import Grid
from cvsheet.mhd import IdealGasEos, PhysState, assemble_coefficients

EOS = IdealGasEos()


@pytest.fixture
def grid():
    return Grid(n1=48, n2=48, L1=6.0, L2=2 * np.pi)


def _both_sides(state, grid):
    """``state`` on both sides of the grid: U of shape (2, 6, n1, n2)."""
    fields = np.broadcast_arrays(state.p, state.u1, state.u2, state.H1,
                                 state.H2, state.S, np.zeros((grid.n1, grid.n2)))
    return np.stack([np.stack(fields[:6])] * 2)


def test_cutoff_plateau_and_support():
    chi = make_cutoff()
    assert chi.value(0.0) == pytest.approx(1.0)
    assert chi.value(0.9) == pytest.approx(1.0)
    assert chi.value(-1.0) == pytest.approx(1.0)
    assert chi.value(5.0) == 0.0
    assert chi.value(-4.7) == 0.0


def test_cutoff_slope_budget():
    chi = make_cutoff()
    x = np.linspace(-6.0, 6.0, 100_000)
    slopes = np.abs(chi.derivative(x))
    assert np.max(slopes) <= 0.5
    # sampled derivative agrees with a centered difference of the values
    h = 1e-6
    fd = (chi.value(x + h) - chi.value(x - h)) / (2 * h)
    assert np.allclose(chi.derivative(x), fd, atol=1e-8)


def test_lift_flat_front(grid):
    chi = make_cutoff()
    front = FrontField(phi=np.zeros(grid.n2), grid=grid)
    lifted = lift_front(front, chi)
    assert np.allclose(lifted.psi, 0.0)
    jac = lifted.d1_phi_map
    assert np.allclose(jac[0], 1.0)
    assert np.allclose(jac[1], -1.0)


def test_lift_small_front_jacobian_bound(grid):
    chi = make_cutoff()
    phi = 0.3 * np.cos(grid.x2)
    lifted = lift_front(FrontField(phi=phi, grid=grid), chi)
    jmin_plus, jmax_minus = lifted.jacobian_min
    assert jmin_plus >= 0.5
    assert jmax_minus <= -0.5
    # boundary trace of the lift is phi itself (chi(0) = 1)
    assert np.allclose(lifted.psi[0][0, :], phi)
    assert np.allclose(lifted.psi[1][0, :], phi)


def test_lift_pointwise_value(grid):
    chi = make_cutoff()
    phi = 0.1 * np.sin(grid.x2)
    lifted = lift_front(FrontField(phi=phi, grid=grid), chi)
    assert np.allclose(lifted.psi[0][0, :], 0.1 * np.sin(grid.x2))


def test_a1_tilde_flat_front_reduces_to_a1(grid):
    chi = make_cutoff()
    lifted = lift_front(FrontField(phi=np.zeros(grid.n2), grid=grid), chi)
    state = PhysState(p=1.2, u1=0.3, u2=-0.4, H1=0.2, H2=1.0, S=0.1)
    A1 = assemble_coefficients(state, EOS)[1]
    (_, At_plus, _), (_, At_minus, _) = straightened_coefficients(
        _both_sides(state, grid), lifted, EOS)
    assert np.allclose(At_plus[..., 0, 0], A1)
    assert np.allclose(At_minus[..., 0, 0], -A1)


def test_a1_tilde_symmetric_and_scaling(grid):
    chi = make_cutoff()
    phi = 0.25 * np.sin(grid.x2)
    lifted = lift_front(FrontField(phi=phi, grid=grid), chi)
    x1g, x2g = grid.mesh()
    state = PhysState(p=1.0 + 0.1 * np.cos(x2g), u1=0.0, u2=0.0,
                      H1=0.0, H2=0.0, S=0.0)
    At = straightened_coefficients(_both_sides(state, grid), lifted, EOS)[0][1]
    assert np.allclose(At, np.swapaxes(At, 0, 1))
    # steady front, u = H = 0: entries scale by 1/d1Phi pointwise
    _, A1, A2 = assemble_coefficients(state, EOS)
    i, j = 7, 11
    expected = ((A1 - A2 * lifted.d2_psi[0])
                / lifted.d1_phi_map[0])[..., i, j]
    assert np.allclose(At[..., i, j], expected)


def test_a1_tilde_degenerate_jacobian_error(grid):
    chi = make_cutoff()
    phi = 2.5 * np.ones(grid.n2)  # far beyond the smallness hypothesis
    front = FrontField(phi=phi, grid=grid)
    assert not front.small
    lifted = lift_front(front, chi)
    state = PhysState(p=1.0, u1=0, u2=0, H1=0, H2=0, S=0)
    with pytest.raises(DegenerateJacobianError):
        straightened_coefficients(_both_sides(state, grid), lifted, EOS)


def test_transformed_vectors_flat(grid):
    chi = make_cutoff()
    lifted = lift_front(FrontField(phi=np.zeros(grid.n2), grid=grid), chi)
    state = PhysState(p=1.0, u1=0.2, u2=0.5, H1=0.3, H2=0.9, S=0.0)
    u_n, H_n, v, w, h = transformed_vectors(state, lifted, side=+1)
    assert np.allclose(u_n, 0.2)
    assert np.allclose(h[0], 0.3)
    assert np.allclose(h[1], 0.9)
    _, _, _, _, hm = transformed_vectors(state, lifted, side=-1)
    assert np.allclose(hm[1], -0.9)


def test_boundary_trace_is_N_component(grid):
    chi = make_cutoff()
    phi = 0.2 * np.sin(grid.x2)
    front = FrontField(phi=phi, grid=grid)
    lifted = lift_front(front, chi)
    x1g, x2g = grid.mesh()
    state = PhysState(p=1.0, u1=0.1 * x2g, u2=0.3, H1=np.cos(x2g), H2=0.7,
                      S=0.0)
    u_n, H_n, *_ = transformed_vectors(state, lifted, side=+1)
    d2phi = front.d2()
    H_N = np.cos(grid.x2) - 0.7 * d2phi
    u_N = 0.1 * grid.x2 - 0.3 * d2phi
    assert np.allclose(H_n[0, :], H_N)
    assert np.allclose(u_n[0, :], u_N)


def test_divergence_free_sample_from_stream_function(grid):
    # h = (d2 psi_s, -d1 psi_s) gives exactly commuting discrete div
    chi = make_cutoff()
    lifted = lift_front(FrontField(phi=np.zeros(grid.n2), grid=grid), chi)
    x1g, x2g = grid.mesh()
    psi_s = np.exp(-((x1g - 3.0) ** 2)) * np.sin(x2g)
    H1 = grid.d2(psi_s)
    H2 = -grid.d1(psi_s)
    state = PhysState(p=1.0, u1=0.0, u2=0.0, H1=H1, H2=H2, S=0.0)
    _, H_n, _, _, h = transformed_vectors(state, lifted, side=+1)
    div = grid.d1(h[0]) + grid.d2(h[1])
    assert np.max(np.abs(div)) < 1e-12


def test_tangent_frame_identity():
    s = np.linspace(-1, 1, 11)
    fr = TangentFrame.from_slope(s)
    assert np.allclose(fr.N1 * fr.tau1 + fr.N2 * fr.tau2, 0.0)
