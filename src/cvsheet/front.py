"""Front lifting and the straightened-coordinate geometry.

The discontinuity front x1 = phi(t, x2) is flattened by the change of
variables Phi±(t, x) = ±x1 + Psi±(t, x), Psi±(t, x) = chi(±x1) phi(t, x2),
which maps both sides onto the fixed half-plane x1 > 0.  The cutoff chi is
one fixed profile (``profiles.chi``).  Because it has slope at most 1/2,
any front with sup|phi| < 1/2 keeps the Jacobian
d1Phi+ >= 1/2 (and d1Phi- <= -1/2), so the transform never degenerates.

This module is the one home of the straightened operator

    L = A0 dt + A1~ d1 + A2 d2,   A1~ = (A1 - A0 dtPsi - A2 d2Psi) / d1Phi,

from which the absorbed forcing, the time jets, the effective linearized
operator and the Nash-Moser error terms are all built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .mhd import PhysState, assemble_coefficients
from .profiles import chi, chi_d

__all__ = [
    "LiftedFront", "lift_front", "straighten",
    "straightened_coefficients", "apply_L", "transformed_vectors",
    "InductionFlow", "induction_flow", "induction_rate", "induction_advection",
]

_JAC_TOL = 1e-3


class DegenerateJacobianError(RuntimeError):
    """|d1Phi| fell below tolerance: front smallness violated."""


@dataclass
class LiftedFront:
    """Psi±, Phi± and their derivatives on the spatial grid.

    Arrays are stacked on a leading side axis (index 0 = '+', 1 = '-') and
    broadcast any leading time axes of phi.
    """

    grid: Grid
    psi: np.ndarray          # (2, ..., n1, n2)
    d1_psi: np.ndarray
    d2_psi: np.ndarray
    dt_psi: np.ndarray

    @property
    def d1_phi_map(self) -> np.ndarray:
        """d1Phi± = ±1 + d1Psi±."""
        sgn = np.array([1.0, -1.0]).reshape((2,) + (1,) * (self.psi.ndim - 1))
        return sgn + self.d1_psi


def lift_front(phi, grid: Grid, dphi_t=None) -> LiftedFront:
    """Build Psi± = chi(±x1) phi and Phi± = ±x1 + Psi± on the grid, with
    the one fixed cutoff ``profiles.chi``.

    ``phi`` is (..., n2) (a leading time axis is allowed).  ``dphi_t``
    supplies its time derivative when the lift of dPsi/dt is needed
    (steady fronts leave it None and get zero).
    """
    x1 = grid.x1[:, None]
    phi = np.asarray(phi, dtype=float)
    # chi is even, so chi(+x1) = chi(-x1) on the grid and the lifts agree;
    # the derivative d/dx1[chi(±x1)] = ±chi'(±x1) also coincides sidewise.
    cv = chi(x1)
    cdp = chi_d(x1)                     # d/dx1 chi(x1)
    cdm = -chi_d(-x1)                   # d/dx1 chi(-x1)
    d2p = grid.d2_boundary(phi)[..., None, :]
    phi = phi[..., None, :]             # (..., 1, n2)
    psi = np.stack([cv * phi, cv * phi])
    d1_psi = np.stack([cdp * phi, cdm * phi])
    d2_psi = np.stack([cv * d2p, cv * d2p])
    if dphi_t is None:
        dt_psi = np.zeros_like(psi)
    else:
        dpt = np.asarray(dphi_t, dtype=float)[..., None, :]
        dt_psi = np.stack([cv * dpt, cv * dpt])
    return LiftedFront(grid=grid, psi=psi, d1_psi=d1_psi, d2_psi=d2_psi,
                       dt_psi=dt_psi)


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


def apply_L(coeffs, dtU, d1U, d2U, out: np.ndarray) -> np.ndarray:
    """A0 dtU + A1~ d1U + A2 d2U on both sides, written into ``out``.

    ``coeffs`` is the per-side list of ``straightened_coefficients`` and
    the fields are (2, 6, n1, n2); a derivative passed as None drops its
    term.  Returns ``out``.
    """
    for i, co in enumerate(coeffs):
        acc = None
        for m, d in zip(co, (dtU, d1U, d2U)):
            if d is not None:
                term = np.einsum("ij...,j...->i...", m, d[i])
                acc = term if acc is None else acc + term
        out[i] = acc
    return out


def _normal_pair(a1, a2, lifted: LiftedFront, i):
    """(a_n, a2 d1Phi) with a_n = a1 - a2 d2Psi: the straightened pair of
    the vector (a1, a2) on side ``i`` of ``lifted`` (an index or a slice)."""
    return a1 - a2 * lifted.d2_psi[i], a2 * lifted.d1_phi_map[i]


def transformed_vectors(state: PhysState, lifted: LiftedFront, side: int):
    """Straightened velocity/field vectors (u_n, H_n, v, w, h) for one side.

    u_n = u1 - u2 d2Psi, v = (u_n, u2 d1Phi), w = v - (dPsi/dt, 0),
    h = (H_n, H2 d1Phi).  At x1 = 0 the n-components coincide with the
    N-components built from the raw front slope.
    """
    i = 0 if side > 0 else 1
    u_n, u_t = _normal_pair(state.u1, state.u2, lifted, i)
    H_n, H_t = _normal_pair(state.H1, state.H2, lifted, i)
    v = np.stack(np.broadcast_arrays(u_n, u_t))
    w = v.copy()
    w[0] = w[0] - lifted.dt_psi[i]
    h = np.stack(np.broadcast_arrays(H_n, H_t))
    return u_n, H_n, v, w, h


@dataclass
class InductionFlow:
    """What ``induction_rate`` reads of the velocity u and the front, on
    one side or on both (a leading side axis): w, the stencils of u, div v
    and d2Psi, d1Phi.  None of it depends on H."""

    grid: Grid
    w: tuple              # (w_n, w_2), each (..., 1, n1, n2)
    d1u: np.ndarray       # (..., 2, n1, n2)
    d2u: np.ndarray
    divv: np.ndarray      # (..., 1, n1, n2)
    d2psi: np.ndarray     # (..., n1, n2)
    d1phi: np.ndarray


def induction_flow(u, lifted: LiftedFront, i) -> InductionFlow:
    """The H-independent part of ``induction_advection``.

    ``u`` is the velocity (..., 2, n1, n2) of side ``i`` of ``lifted`` (0
    for '+', 1 for '-'), or of both sides with ``i = slice(None)`` and u
    (2, 2, n1, n2): the stencils act elementwise on leading axes, so both
    sides in one call have each side's bits.
    """
    g = lifted.grid
    d2psi, d1phi = lifted.d2_psi[i], lifted.d1_phi_map[i]
    u_n, u_t = _normal_pair(u[..., 0, :, :], u[..., 1, :, :], lifted, i)
    w = (u_n - lifted.dt_psi[i], u_t)
    divv = g.d1(u_n) + g.d2(u_t)
    return InductionFlow(grid=g, w=tuple(c[..., None, :, :] for c in w),
                         d1u=g.d1(u), d2u=g.d2(u),
                         divv=divv[..., None, :, :], d2psi=d2psi,
                         d1phi=d1phi)


def induction_rate(H, flow: InductionFlow):
    """(1/d1Phi) [(w . grad) H - (h . grad) u + H div v] for the magnetic
    field H (..., 2, n1, n2) of the sides of ``flow``."""
    g = flow.grid
    h_n = H[..., 0, :, :] - H[..., 1, :, :] * flow.d2psi
    h = (h_n[..., None, :, :], (H[..., 1, :, :] * flow.d1phi)[..., None, :, :])
    adv = (flow.w[0] * g.d1(H) + flow.w[1] * g.d2(H)
           - (h[0] * flow.d1u + h[1] * flow.d2u)
           + H * flow.divv)
    return adv / flow.d1phi[..., None, :, :]


def induction_advection(u, H, lifted: LiftedFront, side: int):
    """(1/d1Phi) [(w . grad) H - (h . grad) u + H div v] for one side.

    ``u`` and ``H`` are the (2, n1, n2) velocity and magnetic field; the
    straightened induction equation reads dH/dt + this = 0.
    """
    return induction_rate(H, induction_flow(u, lifted,
                                            0 if side > 0 else 1))
