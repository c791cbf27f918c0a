import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsheet.mhd import (AdmissibilityError, IdealGasEos, PhysState,
                         _require_admissible, assemble_coefficients,
                         contact_states, sound_speed)
from support import coefficient_jacobians

EOS = IdealGasEos()


def _state(p=1.0, u1=0.0, u2=0.0, H1=0.0, H2=0.0, S=0.0):
    return PhysState(p=p, u1=u1, u2=u2, H1=H1, H2=H2, S=S)


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


def test_contact_states_balance_the_total_pressure():
    # u1 = H1 = 0, u2 = +-u2_jump/2, and p + H2^2/2 equal on both sides
    plus, minus = contact_states(1.2, 0.5, 1.4, 1.2, S_plus=0.3)
    assert (plus.u1, plus.H1, minus.u1, minus.H1) == (0.0,) * 4
    assert (plus.u2, minus.u2, plus.S, minus.S) == (0.25, -0.25, 0.3, 0.0)
    assert plus.p + 0.5 * plus.H2 ** 2 == pytest.approx(
        minus.p + 0.5 * minus.H2 ** 2, rel=1e-15)
    # p- = 0.1 + (0.01 - 1)/2 < 0 has no admissible minus side
    with pytest.raises(ValueError, match="p- <= 0"):
        contact_states(0.1, 0.0, 0.1, 1.0)


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


def _admissible(state, k):
    try:
        _require_admissible(state, EOS, k)
    except AdmissibilityError:
        return False
    return True


def test_hyperbolicity_flags_and_eigenvalues():
    rho, _ = _require_admissible(_state(p=1.0), EOS, k=0.5)
    assert rho >= 0.5
    # rho_p = rho/(gamma p): small at large p relative to rho
    with pytest.raises(AdmissibilityError, match="drho/dp below margin"):
        _require_admissible(_state(p=1.0), EOS, k=0.9)

    rng = np.random.default_rng(7)
    for _ in range(1000):
        state = _state(p=rng.uniform(0.2, 5.0), S=rng.uniform(-1, 1),
                       u1=rng.normal(), u2=rng.normal(),
                       H1=rng.normal(), H2=rng.normal())
        ok = _admissible(state, k=1e-6)
        A0 = assemble_coefficients(state, EOS)[0]
        eig_min = np.min(np.linalg.eigvalsh(
            np.moveaxis(A0, (0, 1), (-2, -1))))
        assert ok == (eig_min > 0)


def test_coefficient_jacobians_match_finite_differences():
    rng = np.random.default_rng(3)
    state = _state(p=1.3, u1=0.4, u2=-0.2, H1=0.5, H2=-1.1, S=0.3)
    dA0, dA1, dA2 = coefficient_jacobians(state, EOS)
    U = np.array([state.p, state.u1, state.u2, state.H1, state.H2, state.S],
                 dtype=float)
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
