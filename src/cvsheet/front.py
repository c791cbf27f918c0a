"""Front lifting and the straightened-coordinate geometry.

The discontinuity front x1 = phi(t, x2) is flattened by the change of
variables Phi±(t, x) = ±x1 + Psi±(t, x), Psi±(t, x) = chi(±x1) phi(t, x2),
which maps both sides onto the fixed half-plane x1 > 0.  Because the cutoff
chi has slope at most 1/2, any front with sup|phi| < 1/2 keeps the Jacobian
d1Phi+ >= 1/2 (and d1Phi- <= -1/2), so the transform never degenerates.

This module is the one home of the straightened operator

    L = A0 dt + A1~ d1 + A2 d2,   A1~ = (A1 - A0 dtPsi - A2 d2Psi) / d1Phi,

from which the absorbed forcing, the time jets, the effective linearized
operator and the Nash-Moser error terms are all built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid
from .mhd import PhysState, assemble_coefficients
from .profiles import CutoffChi, make_cutoff

__all__ = [
    "CutoffChi", "make_cutoff", "FrontField", "TangentFrame", "LiftedFront",
    "lift_front", "straighten", "straightened_coefficients", "apply_L",
    "transformed_vectors", "induction_advection",
]

_JAC_TOL = 1e-3


class DegenerateJacobianError(RuntimeError):
    """|d1Phi| fell below tolerance: front smallness violated."""


@dataclass
class FrontField:
    """Front phi on the boundary grid, optionally with its time derivative.

    ``phi`` is (..., n2) (a leading time axis is allowed).  ``small`` flags
    sup|phi| < 1/2, the hypothesis under which the straightening map stays
    uniformly non-degenerate.
    """

    phi: np.ndarray
    grid: Grid
    dphi_t: np.ndarray | None = None

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)

    @property
    def small(self) -> bool:
        return bool(np.max(np.abs(self.phi)) < 0.5)

    def d2(self) -> np.ndarray:
        return self.grid.d2_boundary(self.phi)


@dataclass(frozen=True)
class TangentFrame:
    """Boundary frame N = (1, -d2 phi), tau = (d2 phi, 1)."""

    N1: np.ndarray
    N2: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray

    @classmethod
    def from_slope(cls, dphi_2) -> "TangentFrame":
        s = np.asarray(dphi_2, dtype=float)
        one = np.ones_like(s)
        return cls(N1=one, N2=-s, tau1=s, tau2=one)


@dataclass
class LiftedFront:
    """Psi±, Phi± and their derivatives on the spatial grid.

    Arrays are stacked on a leading side axis (index 0 = '+', 1 = '-') and
    broadcast any leading time axes of phi.
    """

    front: FrontField
    chi: CutoffChi
    psi: np.ndarray          # (2, ..., n1, n2)
    d1_psi: np.ndarray
    d2_psi: np.ndarray
    dt_psi: np.ndarray
    grid: Grid = field(init=False)

    def __post_init__(self):
        self.grid = self.front.grid

    @property
    def d1_phi_map(self) -> np.ndarray:
        """d1Phi± = ±1 + d1Psi±."""
        sgn = np.array([1.0, -1.0]).reshape((2,) + (1,) * (self.psi.ndim - 1))
        return sgn + self.d1_psi

    @property
    def jacobian_min(self) -> tuple[float, float]:
        """(min over grid of d1Phi+, max of d1Phi-)."""
        j = self.d1_phi_map
        return float(np.min(j[0])), float(np.max(j[1]))


def lift_front(front: FrontField, chi: CutoffChi) -> LiftedFront:
    """Build Psi± = chi(±x1) phi and Phi± = ±x1 + Psi± on the grid.

    ``front.dphi_t`` supplies the time derivative of phi when the lift of
    dPsi/dt is needed (steady fronts leave it None and get zero).
    """
    grid = front.grid
    x1 = grid.x1[:, None]
    phi = front.phi[..., None, :]       # (..., 1, n2)
    # chi is even, so chi(+x1) = chi(-x1) on the grid and the lifts agree;
    # the derivative d/dx1[chi(±x1)] = ±chi'(±x1) also coincides sidewise.
    cv = chi.value(x1)
    cdp = chi.derivative(x1)            # d/dx1 chi(x1)
    cdm = -chi.derivative(-x1)          # d/dx1 chi(-x1)
    psi = np.stack([cv * phi, cv * phi])
    d1_psi = np.stack([cdp * phi, cdm * phi])
    d2p = front.d2()[..., None, :]
    d2_psi = np.stack([cv * d2p, cv * d2p])
    if front.dphi_t is None:
        dt_psi = np.zeros_like(psi)
    else:
        dpt = np.asarray(front.dphi_t, dtype=float)[..., None, :]
        dt_psi = np.stack([cv * dpt, cv * dpt])
    return LiftedFront(front=front, chi=chi, psi=psi, d1_psi=d1_psi,
                       d2_psi=d2_psi, dt_psi=dt_psi)


def straighten(m0, m1, m2, lifted: LiftedFront, i: int):
    """The straightened normal combination (m1 - m0 dtPsi - m2 d2Psi) / d1Phi.

    Applied to (A0, A1, A2) on side ``i`` (0 = '+', 1 = '-') it gives A1~;
    the same combination straightens the symmetrized B matrices.  For a
    flat steady front it reduces to ±m1.
    """
    return (m1 - m0 * lifted.dt_psi[i] - m2 * lifted.d2_psi[i]) \
        / lifted.d1_phi_map[i]


def straightened_coefficients(U: np.ndarray, lifted: LiftedFront, eos):
    """Per-side (A0, A1~, A2) of L = A0 dt + A1~ d1 + A2 d2.

    ``U`` is (2, 6, n1, n2).  Raises when the Jacobian is not sign-definite,
    d1Phi+ >= tol and d1Phi- <= -tol, i.e. when the front breaks the
    smallness hypothesis sup|phi| < 1/2.
    """
    jac = lifted.d1_phi_map
    if min(np.min(jac[0]), -np.max(jac[1])) < _JAC_TOL:
        raise DegenerateJacobianError(
            "sign-definite |d1Phi| >= %g failed on the grid; the front "
            "violates the smallness hypothesis sup|phi| < 1/2" % _JAC_TOL)
    out = []
    for i in range(2):
        a0, a1, a2 = assemble_coefficients(PhysState.from_vector(U[i]), eos)
        a1 = straighten(a0, a1, a2, lifted, i)   # frees A1 before side i+1
        out.append((a0, a1, a2))
    return out


def apply_L(coeffs, dtU, d1U, d2U) -> np.ndarray:
    """A0 dtU + A1~ d1U + A2 d2U for one side's (A0, A1~, A2).

    A derivative passed as None drops its term.
    """
    out = None
    for m, d in zip(coeffs, (dtU, d1U, d2U)):
        if d is not None:
            term = np.einsum("ij...,j...->i...", m, d)
            out = term if out is None else out + term
    return out


def transformed_vectors(state: PhysState, lifted: LiftedFront, side: int):
    """Straightened velocity/field vectors (u_n, H_n, v, w, h) for one side.

    u_n = u1 - u2 d2Psi, v = (u_n, u2 d1Phi), w = v - (dPsi/dt, 0),
    h = (H_n, H2 d1Phi).  At x1 = 0 the n-components coincide with the
    N-components built from the raw front slope.
    """
    i = 0 if side > 0 else 1
    d2psi = lifted.d2_psi[i]
    d1phi = lifted.d1_phi_map[i]
    u_n = state.u1 - state.u2 * d2psi
    H_n = state.H1 - state.H2 * d2psi
    v = np.stack(np.broadcast_arrays(u_n, state.u2 * d1phi))
    w = v.copy()
    w[0] = w[0] - lifted.dt_psi[i]
    h = np.stack(np.broadcast_arrays(H_n, state.H2 * d1phi))
    return u_n, H_n, v, w, h


def induction_advection(u, H, lifted: LiftedFront, side: int):
    """(1/d1Phi) [(w . grad) H - (h . grad) u + H div v] for one side.

    ``u`` and ``H`` are the (2, n1, n2) velocity and magnetic field; the
    straightened induction equation reads dH/dt + this = 0.
    """
    g = lifted.grid
    st = PhysState(p=None, u1=u[0], u2=u[1], H1=H[0], H2=H[1], S=None)
    _, _, v, w, h = transformed_vectors(st, lifted, side)
    adv = (w[0] * g.d1(H) + w[1] * g.d2(H)
           - (h[0] * g.d1(u) + h[1] * g.d2(u))
           + H * (g.d1(v[0]) + g.d2(v[1])))
    return adv / lifted.d1_phi_map[0 if side > 0 else 1]
