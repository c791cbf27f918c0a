import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsheet.mhd import (AdmissibilityError, IdealGasEos, PhysState,
                         assemble_coefficients, check_hyperbolicity,
                         coefficient_jacobians, rh_residual, sound_speed)

EOS = IdealGasEos()


def _state(p=1.0, u1=0.0, u2=0.0, H1=0.0, H2=0.0, S=0.0, side=+1):
    return PhysState(p=p, u1=u1, u2=u2, H1=H1, H2=H2, S=S, side=side)


def test_sound_speed_unit_density():
    # rho = 1, rho_p = 1 forced through a bespoke closure: c = 1
    class Unit:
        def density(self, p, S):
            return np.ones_like(np.asarray(p, float))

        def density_dp(self, p, S):
            return np.ones_like(np.asarray(p, float))

    assert sound_speed(_state(), Unit()) == pytest.approx(1.0)


def test_sound_speed_ideal_gas():
    # p = 1, S = 0: rho = 1 and c = sqrt(gamma p / rho) = sqrt(5/3)
    st0 = _state(p=1.0, S=0.0)
    rho = EOS.density(1.0, 0.0)
    assert rho == pytest.approx(1.0)
    assert sound_speed(st0, EOS) == pytest.approx(np.sqrt(5.0 / 3.0))


def test_sound_speed_rejects_nonpositive_pressure():
    with pytest.raises(AdmissibilityError):
        sound_speed(_state(p=-1.0), EOS)
    with pytest.raises(AdmissibilityError):
        sound_speed(_state(p=0.0), EOS)


def test_a0_identity_at_unit_state():
    class Unit:
        def density(self, p, S):
            return np.ones_like(np.asarray(p, float))

        def density_dp(self, p, S):
            return np.ones_like(np.asarray(p, float))

    A0 = assemble_coefficients(_state(), Unit())[0]
    assert np.allclose(A0, np.eye(6))


def test_a1_row_pattern():
    # u1 = 0, H2 = 3, H1 = -1: second row of A1 is (1, 0, 0, 0, 3, 0)
    class Rho2:
        def density(self, p, S):
            return 2.0 * np.ones_like(np.asarray(p, float))

        def density_dp(self, p, S):
            return np.ones_like(np.asarray(p, float))

    A1 = assemble_coefficients(_state(u1=0.0, H1=-1.0, H2=3.0), Rho2())[1]
    assert np.allclose(A1[1], [1.0, 0.0, 0.0, 0.0, 3.0, 0.0])


@given(p=st.floats(0.1, 10.0), u1=st.floats(-3, 3), u2=st.floats(-3, 3),
       H1=st.floats(-3, 3), H2=st.floats(-3, 3), S=st.floats(-1, 1))
@settings(max_examples=60, deadline=None)
def test_matrices_symmetric(p, u1, u2, H1, H2, S):
    state = _state(p, u1, u2, H1, H2, S)
    for A in assemble_coefficients(state, EOS):
        assert np.array_equal(A, np.swapaxes(A, 0, 1))


def test_hyperbolicity_flags_and_eigenvalues():
    ok = check_hyperbolicity(_state(p=1.0), EOS, k=0.5)
    assert ok and ok.rho_min >= 0.5
    # rho_p = rho/(gamma p): small at large p relative to rho
    bad = check_hyperbolicity(_state(p=1.0), EOS, k=0.9)
    assert not bad.ok and bad.rho_p_min < 0.9

    rng = np.random.default_rng(7)
    for _ in range(1000):
        state = _state(p=rng.uniform(0.2, 5.0), S=rng.uniform(-1, 1),
                       u1=rng.normal(), u2=rng.normal(),
                       H1=rng.normal(), H2=rng.normal())
        cert = check_hyperbolicity(state, EOS, k=1e-6)
        A0 = assemble_coefficients(state, EOS)[0]
        eig_min = np.min(np.linalg.eigvalsh(
            np.moveaxis(A0, (0, 1), (-2, -1))))
        assert cert.ok == (eig_min > 0)


def test_rh_residual_contact_zero():
    # piecewise-constant states with [q] = 0 across a flat front
    plus = _state(p=1.0, u2=1.0, H2=1.0, S=0.2)
    minus = _state(p=1.0 + 0.5 * (1.0**2 - 1.5**2), u2=-1.0, H2=1.5, S=0.0,
                   side=-1)
    assert plus.q == pytest.approx(minus.q)
    res, (jp, jm) = rh_residual(plus, minus, 0.0, 0.0, EOS)
    assert np.allclose(res, 0.0)
    assert jp == pytest.approx(0.0) and jm == pytest.approx(0.0)


def test_rh_residual_identical_states_moving_frame():
    s = _state(p=2.0, u1=0.7, u2=0.3, H1=0.0, H2=1.0)
    res, _ = rh_residual(s, s, dphi_t=0.7, dphi_2=0.0, eos=EOS)
    assert np.allclose(res, 0.0)


@given(eps=st.floats(-0.5, 2))
@settings(max_examples=30, deadline=None)
def test_rh_residual_linear_in_q_jump(eps):
    plus = _state(p=1.0, u2=1.0, H2=1.0)
    minus = _state(p=plus.q - 0.5 * 1.5**2, u2=-1.0, H2=1.5, side=-1)
    base, _ = rh_residual(plus, minus, 0.0, 0.0, EOS)
    pert = PhysState(p=plus.p + eps, u1=plus.u1, u2=plus.u2, H1=plus.H1,
                     H2=plus.H2, S=plus.S)
    res, _ = rh_residual(pert, minus, 0.0, 0.0, EOS)
    diff = res - base
    assert np.allclose(diff[:4], 0.0, atol=1e-12)
    assert diff[4] == pytest.approx(eps, abs=1e-12)


def test_coefficient_jacobians_match_finite_differences():
    rng = np.random.default_rng(3)
    state = _state(p=1.3, u1=0.4, u2=-0.2, H1=0.5, H2=-1.1, S=0.3)
    dA0, dA1, dA2 = coefficient_jacobians(state, EOS)
    U = state.as_vector().astype(float)
    eps = 1e-6
    for l in range(6):
        Up, Um = U.copy(), U.copy()
        Up[l] += eps
        Um[l] -= eps
        Ap = assemble_coefficients(PhysState.from_vector(Up), EOS)
        Am = assemble_coefficients(PhysState.from_vector(Um), EOS)
        for m, dA in enumerate((dA0, dA1, dA2)):
            fd = (Ap[m] - Am[m]) / (2 * eps)
            assert np.allclose(dA[l], fd, atol=1e-6), (l, f"A{m}")
