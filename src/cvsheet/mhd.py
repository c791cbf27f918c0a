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

    def density_jet(self, p, S):
        """(rho, rho_p, rho_S, rho_pp, rho_pS) from one density evaluation:
        rho_p = rho / (gamma p), rho_S = -rho / gamma,
        rho_pp = rho (1 - gamma) / (gamma p)^2 and rho_pS = -rho_p / gamma."""
        p = np.asarray(p, dtype=float)
        rho = self.density(p, S)
        rho_p = rho / (self.gamma * p)
        return (rho, rho_p, -rho / self.gamma,
                rho * (1.0 - self.gamma) / (self.gamma * p) ** 2,
                -rho_p / self.gamma)


@dataclass
class PhysState:
    """One-sided unknown vector; fields broadcast as numpy arrays."""

    p: np.ndarray | float
    u1: np.ndarray | float
    u2: np.ndarray | float
    H1: np.ndarray | float
    H2: np.ndarray | float
    S: np.ndarray | float

    @classmethod
    def from_vector(cls, U: np.ndarray) -> "PhysState":
        return cls(p=U[IP], u1=U[IU1], u2=U[IU2], H1=U[IH1], H2=U[IH2], S=U[IS])


def _require_admissible(state: PhysState, eos, k: float = 1e-6, *,
                        jet: bool = False):
    """(rho, drho/dp) of an admissible state; raises outside the margin.

    With ``jet`` it returns the closure's whole ``density_jet`` instead.
    """
    p = np.asarray(state.p, dtype=float)
    if np.any(p <= 0.0):
        raise AdmissibilityError("pressure must be positive (density undefined)")
    if jet:
        out = eos.density_jet(state.p, state.S)
    else:
        out = eos.density(state.p, state.S), eos.density_dp(state.p, state.S)
    rho, rho_p = out[:2]
    if np.any(rho < k):
        raise AdmissibilityError(f"density below margin k={k}: min rho={np.min(rho)}")
    if np.any(rho_p < k):
        raise AdmissibilityError(
            f"drho/dp below margin k={k}: min rho_p={np.min(rho_p)}")
    return out


def sound_speed(state: PhysState, eos, k: float = 1e-6):
    """c = sqrt(1 / (drho/dp)); raises on non-admissible states."""
    _, rho_p = _require_admissible(state, eos, k)
    return np.sqrt(1.0 / rho_p)


def alfven_speed(state: PhysState, eos, k: float = 1e-6):
    """c_A = |H| / sqrt(rho)."""
    rho, _ = _require_admissible(state, eos, k)
    return np.hypot(np.asarray(state.H1, float), np.asarray(state.H2, float)) / np.sqrt(rho)


def contact_states(p_plus: float, u2_jump: float, H2_plus: float,
                   H2_minus: float, S_plus: float = 0.0,
                   S_minus: float = 0.0) -> tuple[PhysState, PhysState]:
    """(plus, minus) of the planar contact: u1 = H1 = 0, u2 = +-u2_jump/2,
    and p- = p+ + (H2+^2 - H2-^2)/2, which balances the total pressure
    p + H2^2/2 across it; ``ValueError`` when the balance forces p- <= 0."""
    p_minus = p_plus + 0.5 * (H2_plus ** 2 - H2_minus ** 2)
    if not p_minus > 0:
        raise ValueError(f"total-pressure balance forces p- <= 0: "
                         f"p- = {p_minus:.6g}")
    return (PhysState(p=p_plus, u1=0.0, u2=0.5 * u2_jump, H1=0.0,
                      H2=H2_plus, S=S_plus),
            PhysState(p=p_minus, u1=0.0, u2=-0.5 * u2_jump, H1=0.0,
                      H2=H2_minus, S=S_minus))


def assemble_coefficients(state: PhysState, eos):
    """(A0, A1, A2), each (6, 6, *field); A1 and A2 are symmetric.

    A0 = diag(1/(rho c^2), rho, rho, 1, 1, 1).  The density and its
    pressure derivative come once from the admissibility check and serve
    all three matrices.
    """
    rho, rho_p = _require_admissible(state, eos)
    shape = np.broadcast_shapes(*(np.shape(f) for f in vars(state).values()))
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
