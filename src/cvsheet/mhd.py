"""Equation of state, the one-sided unknown vector, and coefficient matrices.

The quasilinear 2D compressible MHD system in the unknown
U = (p, u1, u2, H1, H2, S) reads

    A0(U) dU/dt + A1(U) dU/dx1 + A2(U) dU/dx2 = 0,

with A0 = diag(1/(rho c^2), rho, rho, 1, 1, 1) and symmetric A1, A2
assembled below.  The system is symmetric hyperbolic wherever rho > 0 and
drho/dp > 0; the sound speed is c = sqrt(1 / (drho/dp)).

All operations broadcast: state fields may be scalars or numpy arrays of a
common shape, and the assembled matrices carry that shape in trailing axes
(6, 6, *shape).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NCOMP = 6

#: component indices in U
IP, IU1, IU2, IH1, IH2, IS = range(6)


class AdmissibilityError(ValueError):
    """State outside the hyperbolic region (or margin) of the EOS."""


@dataclass(frozen=True)
class IdealGasEos:
    """Ideal polytropic gas closure rho(p, S) = p^(1/gamma) exp(-S/gamma).

    Gives c^2 = gamma p / rho, smooth and hyperbolic for every p > 0.
    Second derivatives are exposed because the linearized zero-order
    coefficient needs d/dU of the matrix entries.
    """

    gamma: float = 5.0 / 3.0

    def density(self, p, S):
        p = np.asarray(p, dtype=float)
        return p ** (1.0 / self.gamma) * np.exp(-np.asarray(S, dtype=float) / self.gamma)

    def density_dp(self, p, S):
        return self.density(p, S) / (self.gamma * np.asarray(p, dtype=float))

    def density_dS(self, p, S):
        return -self.density(p, S) / self.gamma

    def density_dpp(self, p, S):
        p = np.asarray(p, dtype=float)
        return self.density(p, S) * (1.0 - self.gamma) / (self.gamma * p) ** 2

    def density_dpS(self, p, S):
        return -self.density_dp(p, S) / self.gamma


@dataclass
class PhysState:
    """One-sided unknown vector; fields broadcast as numpy arrays.

    ``side`` is +1 or -1 and tags which half of the split problem the state
    lives on.  ``q`` is the total pressure p + |H|^2 / 2.
    """

    p: np.ndarray | float
    u1: np.ndarray | float
    u2: np.ndarray | float
    H1: np.ndarray | float
    H2: np.ndarray | float
    S: np.ndarray | float
    side: int = +1

    @property
    def q(self):
        return self.p + 0.5 * (np.asarray(self.H1) ** 2 + np.asarray(self.H2) ** 2)

    def as_vector(self) -> np.ndarray:
        """Stack components on a leading axis: shape (6, *field_shape)."""
        return np.stack(np.broadcast_arrays(
            self.p, self.u1, self.u2, self.H1, self.H2, self.S))

    @classmethod
    def from_vector(cls, U: np.ndarray, side: int = +1) -> "PhysState":
        return cls(p=U[IP], u1=U[IU1], u2=U[IU2], H1=U[IH1], H2=U[IH2], S=U[IS],
                   side=side)


def _require_admissible(state: PhysState, eos, k: float = 1e-6):
    """(rho, drho/dp) of an admissible state; raises outside the margin."""
    p = np.asarray(state.p, dtype=float)
    if np.any(p <= 0.0):
        raise AdmissibilityError("pressure must be positive (density undefined)")
    rho = eos.density(state.p, state.S)
    rho_p = eos.density_dp(state.p, state.S)
    if np.any(rho < k):
        raise AdmissibilityError(f"density below margin k={k}: min rho={np.min(rho)}")
    if np.any(rho_p < k):
        raise AdmissibilityError(
            f"drho/dp below margin k={k}: min rho_p={np.min(rho_p)}")
    return rho, rho_p


def sound_speed(state: PhysState, eos, k: float = 1e-6):
    """c = sqrt(1 / (drho/dp)); raises on non-admissible states."""
    _, rho_p = _require_admissible(state, eos, k)
    return np.sqrt(1.0 / rho_p)


def alfven_speed(state: PhysState, eos, k: float = 1e-6):
    """c_A = |H| / sqrt(rho)."""
    rho, _ = _require_admissible(state, eos, k)
    return np.hypot(np.asarray(state.H1, float), np.asarray(state.H2, float)) / np.sqrt(rho)


def _zeros_like_state(state: PhysState):
    shape = np.broadcast_shapes(*(np.shape(np.asarray(f)) for f in
                                  (state.p, state.u1, state.u2, state.H1,
                                   state.H2, state.S)))
    return shape


def assemble_coefficients(state: PhysState, eos, k: float = 1e-6):
    """(A0, A1, A2), each (6, 6, *field); A1 and A2 are symmetric.

    A0 = diag(1/(rho c^2), rho, rho, 1, 1, 1).  The density and its
    pressure derivative come once from the admissibility check and serve
    all three matrices.
    """
    rho, rho_p = _require_admissible(state, eos, k)
    shape = _zeros_like_state(state)
    rho = np.broadcast_to(rho, shape)
    g = np.broadcast_to(rho_p, shape) / rho  # 1/(rho c^2)
    u1, u2, H1, H2 = (np.broadcast_to(np.asarray(f, float), shape)
                      for f in (state.u1, state.u2, state.H1, state.H2))
    A0 = np.zeros((NCOMP, NCOMP) + shape)
    A0[IP, IP] = g
    A0[IU1, IU1] = rho
    A0[IU2, IU2] = rho
    A0[IH1, IH1] = 1.0
    A0[IH2, IH2] = 1.0
    A0[IS, IS] = 1.0

    A1 = np.zeros_like(A0)
    A1[IP, IP] = u1 * g
    A1[IP, IU1] = A1[IU1, IP] = 1.0
    A1[IU1, IU1] = rho * u1
    A1[IU1, IH2] = A1[IH2, IU1] = H2
    A1[IU2, IU2] = rho * u1
    A1[IU2, IH2] = A1[IH2, IU2] = -H1
    A1[IH1, IH1] = u1
    A1[IH2, IH2] = u1
    A1[IS, IS] = u1

    A2 = np.zeros_like(A0)
    A2[IP, IP] = u2 * g
    A2[IP, IU2] = A2[IU2, IP] = 1.0
    A2[IU1, IU1] = rho * u2
    A2[IU1, IH1] = A2[IH1, IU1] = -H2
    A2[IU2, IU2] = rho * u2
    A2[IU2, IH1] = A2[IH1, IU2] = H1
    A2[IH1, IH1] = u2
    A2[IH2, IH2] = u2
    A2[IS, IS] = u2
    return A0, A1, A2


def coefficient_jacobians(state: PhysState, eos, k: float = 1e-6):
    """State derivatives (dA0/dy_l, dA1/dy_l, dA2/dy_l), each (6, 6, 6, *field).

    Leading axis l runs over the six components of U.  This is the test
    oracle of the closed-form zero-order matrix ``linearized.c_matrix``
    and has no runtime caller; a finite-difference oracle in the tests
    checks every entry.
    """
    _require_admissible(state, eos, k)
    shape = _zeros_like_state(state)
    p, S = state.p, state.S
    rho = np.broadcast_to(eos.density(p, S), shape)
    rho_p = np.broadcast_to(eos.density_dp(p, S), shape)
    rho_S = np.broadcast_to(eos.density_dS(p, S), shape)
    rho_pp = np.broadcast_to(eos.density_dpp(p, S), shape)
    rho_pS = np.broadcast_to(eos.density_dpS(p, S), shape)
    g = rho_p / rho
    g_p = (rho_pp * rho - rho_p**2) / rho**2
    g_S = (rho_pS * rho - rho_p * rho_S) / rho**2
    u1 = np.broadcast_to(np.asarray(state.u1, float), shape)
    u2 = np.broadcast_to(np.asarray(state.u2, float), shape)

    dA0 = np.zeros((NCOMP, NCOMP, NCOMP) + shape)
    dA1 = np.zeros_like(dA0)
    dA2 = np.zeros_like(dA0)

    for l, (gl, rl) in ((IP, (g_p, rho_p)), (IS, (g_S, rho_S))):
        dA0[l, IP, IP] = gl
        dA0[l, IU1, IU1] = rl
        dA0[l, IU2, IU2] = rl
        dA1[l, IP, IP] = u1 * gl
        dA1[l, IU1, IU1] = rl * u1
        dA1[l, IU2, IU2] = rl * u1
        dA2[l, IP, IP] = u2 * gl
        dA2[l, IU1, IU1] = rl * u2
        dA2[l, IU2, IU2] = rl * u2

    # d/du1 of A1: the advective diagonal
    dA1[IU1, IP, IP] = g
    dA1[IU1, IU1, IU1] = rho
    dA1[IU1, IU2, IU2] = rho
    dA1[IU1, IH1, IH1] = 1.0
    dA1[IU1, IH2, IH2] = 1.0
    dA1[IU1, IS, IS] = 1.0
    # d/du2 of A2
    dA2[IU2, IP, IP] = g
    dA2[IU2, IU1, IU1] = rho
    dA2[IU2, IU2, IU2] = rho
    dA2[IU2, IH1, IH1] = 1.0
    dA2[IU2, IH2, IH2] = 1.0
    dA2[IU2, IS, IS] = 1.0
    # magnetic couplings
    dA1[IH2, IU1, IH2] = dA1[IH2, IH2, IU1] = 1.0
    dA1[IH1, IU2, IH2] = dA1[IH1, IH2, IU2] = -1.0
    dA2[IH2, IU1, IH1] = dA2[IH2, IH1, IU1] = -1.0
    dA2[IH1, IU2, IH1] = dA2[IH1, IH1, IU2] = 1.0
    return dA0, dA1, dA2


@dataclass(frozen=True)
class HyperbolicityCertificate:
    ok: bool
    rho_min: float
    rho_p_min: float
    margin: float

    def __bool__(self) -> bool:
        return self.ok


def check_hyperbolicity(state: PhysState, eos, k: float) -> HyperbolicityCertificate:
    """True iff rho >= k and drho/dp >= k everywhere on the state's fields."""
    p = np.asarray(state.p, dtype=float)
    if np.any(p <= 0.0):
        return HyperbolicityCertificate(False, float("-inf"), float("-inf"), k)
    rho = np.asarray(eos.density(state.p, state.S), dtype=float)
    rho_p = np.asarray(eos.density_dp(state.p, state.S), dtype=float)
    rmin = float(np.min(rho))
    rpmin = float(np.min(rho_p))
    return HyperbolicityCertificate(rmin >= k and rpmin >= k, rmin, rpmin, k)


def rh_residual(plus: PhysState, minus: PhysState, dphi_t, dphi_2, eos,
                k: float = 1e-6):
    """Rankine-Hugoniot residual of a contact configuration.

    Components: (dphi/dt - u+_N, dphi/dt - u-_N, H+_N, H-_N, [q]) with
    N = (1, -dphi/dx2).  Also returns the mass fluxes j± = rho (u_N -
    dphi/dt) as diagnostics; for exact current-vortex sheets every entry
    vanishes.
    """
    _require_admissible(plus, eos, k)
    _require_admissible(minus, eos, k)
    dphi_t = np.asarray(dphi_t, dtype=float)
    dphi_2 = np.asarray(dphi_2, dtype=float)
    uNp = plus.u1 - plus.u2 * dphi_2
    uNm = minus.u1 - minus.u2 * dphi_2
    HNp = plus.H1 - plus.H2 * dphi_2
    HNm = minus.H1 - minus.H2 * dphi_2
    res = np.stack(np.broadcast_arrays(
        dphi_t - uNp, dphi_t - uNm, HNp, HNm, plus.q - minus.q))
    jp = eos.density(plus.p, plus.S) * (uNp - dphi_t)
    jm = eos.density(minus.p, minus.S) * (uNm - dphi_t)
    return res, (jp, jm)
