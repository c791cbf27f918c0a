import numpy as np
import pytest

from cvsheet.front import (DegenerateJacobianError, induction_advection,
                           induction_flow, induction_rate, lift_front,
                           straightened_coefficients, transformed_vectors)
from cvsheet.grid import Grid
from cvsheet.mhd import IdealGasEos, PhysState, assemble_coefficients
from cvsheet.profiles import chi, chi_d

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
    assert chi(0.0) == pytest.approx(1.0)
    assert chi(0.9) == pytest.approx(1.0)
    assert chi(-1.0) == pytest.approx(1.0)
    assert chi(5.0) == 0.0
    assert chi(-4.7) == 0.0


def test_cutoff_slope_budget():
    x = np.linspace(-6.0, 6.0, 100_000)
    slopes = np.abs(chi_d(x))
    assert np.max(slopes) <= 0.5
    # sampled derivative agrees with a centered difference of the values
    h = 1e-6
    fd = (chi(x + h) - chi(x - h)) / (2 * h)
    assert np.allclose(chi_d(x), fd, atol=1e-8)


def test_lift_flat_front(grid):
    lifted = lift_front(np.zeros(grid.n2), grid)
    assert np.allclose(lifted.psi, 0.0)
    jac = lifted.d1_phi_map
    assert np.allclose(jac[0], 1.0)
    assert np.allclose(jac[1], -1.0)


def test_lift_small_front_jacobian_bound(grid):
    phi = 0.3 * np.cos(grid.x2)
    lifted = lift_front(phi, grid)
    jac = lifted.d1_phi_map
    assert np.min(jac[0]) >= 0.5
    assert np.max(jac[1]) <= -0.5
    # boundary trace of the lift is phi itself (chi(0) = 1)
    assert np.allclose(lifted.psi[0][0, :], phi)
    assert np.allclose(lifted.psi[1][0, :], phi)


def test_lift_pointwise_value(grid):
    phi = 0.1 * np.sin(grid.x2)
    lifted = lift_front(phi, grid)
    assert np.allclose(lifted.psi[0][0, :], 0.1 * np.sin(grid.x2))


def test_a1_tilde_flat_front_reduces_to_a1(grid):
    lifted = lift_front(np.zeros(grid.n2), grid)
    state = PhysState(p=1.2, u1=0.3, u2=-0.4, H1=0.2, H2=1.0, S=0.1)
    A1 = assemble_coefficients(state, EOS)[1]
    (_, At_plus, _), (_, At_minus, _) = straightened_coefficients(
        _both_sides(state, grid), lifted, EOS)
    assert np.allclose(At_plus[..., 0, 0], A1)
    assert np.allclose(At_minus[..., 0, 0], -A1)


def test_a1_tilde_symmetric_and_scaling(grid):
    phi = 0.25 * np.sin(grid.x2)
    lifted = lift_front(phi, grid)
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
    phi = 2.5 * np.ones(grid.n2)  # far beyond the smallness hypothesis
    lifted = lift_front(phi, grid)
    state = PhysState(p=1.0, u1=0, u2=0, H1=0, H2=0, S=0)
    with pytest.raises(DegenerateJacobianError):
        straightened_coefficients(_both_sides(state, grid), lifted, EOS)


def test_transformed_vectors_flat(grid):
    lifted = lift_front(np.zeros(grid.n2), grid)
    state = PhysState(p=1.0, u1=0.2, u2=0.5, H1=0.3, H2=0.9, S=0.0)
    u_n, H_n, v, w, h = transformed_vectors(state, lifted, side=+1)
    assert np.allclose(u_n, 0.2)
    assert np.allclose(h[0], 0.3)
    assert np.allclose(h[1], 0.9)
    _, _, _, _, hm = transformed_vectors(state, lifted, side=-1)
    assert np.allclose(hm[1], -0.9)


def test_boundary_trace_is_N_component(grid):
    phi = 0.2 * np.sin(grid.x2)
    lifted = lift_front(phi, grid)
    x1g, x2g = grid.mesh()
    state = PhysState(p=1.0, u1=0.1 * x2g, u2=0.3, H1=np.cos(x2g), H2=0.7,
                      S=0.0)
    u_n, H_n, *_ = transformed_vectors(state, lifted, side=+1)
    d2phi = grid.d2_boundary(phi)
    H_N = np.cos(grid.x2) - 0.7 * d2phi
    u_N = 0.1 * grid.x2 - 0.3 * d2phi
    assert np.allclose(H_n[0, :], H_N)
    assert np.allclose(u_n[0, :], u_N)


def test_divergence_free_sample_from_stream_function(grid):
    # h = (d2 psi_s, -d1 psi_s) gives exactly commuting discrete div
    lifted = lift_front(np.zeros(grid.n2), grid)
    x1g, x2g = grid.mesh()
    psi_s = np.exp(-((x1g - 3.0) ** 2)) * np.sin(x2g)
    H1 = grid.d2(psi_s)
    H2 = -grid.d1(psi_s)
    state = PhysState(p=1.0, u1=0.0, u2=0.0, H1=H1, H2=H2, S=0.0)
    _, H_n, _, _, h = transformed_vectors(state, lifted, side=+1)
    div = grid.d1(h[0]) + grid.d2(h[1])
    assert np.max(np.abs(div)) < 1e-12



def _one_side_induction(u, H, lifted, side):
    """induction_advection as one expression over transformed_vectors."""
    g = lifted.grid
    st = PhysState(p=None, u1=u[0], u2=u[1], H1=H[0], H2=H[1], S=None)
    _, _, v, w, h = transformed_vectors(st, lifted, side)
    adv = (w[0] * g.d1(H) + w[1] * g.d2(H)
           - (h[0] * g.d1(u) + h[1] * g.d2(u))
           + H * (g.d1(v[0]) + g.d2(v[1])))
    return adv / lifted.d1_phi_map[0 if side > 0 else 1]


def test_induction_split_keeps_each_sides_bits():
    # one side at a time, or both sides in one stencil call each, the split
    # gives the one-expression formula bit for bit
    g = Grid(n1=20, n2=16, L1=6.0, L2=2 * np.pi)
    rng = np.random.default_rng(4)
    phi = 0.1 * np.sin(g.x2) + 0.01 * rng.normal(size=g.n2)
    lifted = lift_front(phi, g, rng.normal(size=g.n2))
    u = rng.normal(size=(2, 2, g.n1, g.n2))
    H = rng.normal(size=(2, 2, g.n1, g.n2))
    want = np.stack([_one_side_induction(u[i], H[i], lifted, side)
                     for i, side in enumerate((+1, -1))])
    both = induction_rate(H, induction_flow(u, lifted, slice(None)))
    assert np.array_equal(both, want)
    for i, side in enumerate((+1, -1)):
        assert np.array_equal(induction_advection(u[i], H[i], lifted, side),
                              want[i])
