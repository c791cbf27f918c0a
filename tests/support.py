"""Code that only the tests read: the state-derivative oracle of
``linearized.c_matrix``, the sheared-sheet basic state and L' on a
snapshot series.  pytest collects no test from this module."""

import numpy as np

from cvsheet.grid import Grid
from cvsheet.linearized import BasicState
from cvsheet.mhd import (IH1, IH2, IP, IS, IU1, IU2, NCOMP, PhysState,
                         _require_admissible, contact_states)


def coefficient_jacobians(state: PhysState, eos):
    """State derivatives (dA0/dy_l, dA1/dy_l, dA2/dy_l), each (6, 6, 6, *field).

    Leading axis l runs over the six components of U.  This is the oracle
    of the closed-form zero-order matrix ``linearized.c_matrix``; a
    finite-difference check in the tests covers every entry.
    """
    _require_admissible(state, eos)
    shape = np.broadcast_shapes(*(np.shape(f) for f in vars(state).values()))
    rho, rho_p, rho_S, rho_pp, rho_pS = (
        np.broadcast_to(x, shape) for x in eos.density_jet(state.p, state.S))
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


def sheared_sheet_state(grid: Grid, eos, rng=None) -> BasicState:
    """Non-constant manufactured basic state satisfying all constraints.

    Wall-normal shear profiles u2±(x1), H2±(x1) (u1 = H1 = 0, flat front)
    satisfy the transport identity and div h = 0 identically; pressure and
    entropy may vary in both variables without breaking any constraint.
    The profiles have amplitude 0.15 about p+ = 1.5, a u2 jump of 0.3 and
    H2± = 1.5 / 1.2, with p- from the total-pressure balance.
    """
    amplitude, p_plus, u2_jump, H2_plus, H2_minus = 0.15, 1.5, 0.3, 1.5, 1.2
    rng = rng or np.random.default_rng(0)
    x1 = grid.x1[:, None]
    x2 = grid.x2[None, :]

    def prof():
        a, b, c = rng.uniform(-1, 1, 3)
        return (a * np.cos(np.pi * x1 / grid.L1)
                + b * np.sin(2 * np.pi * x1 / grid.L1) + 0.3 * c)

    U = np.zeros((2, NCOMP, grid.n1, grid.n2))
    for i, st in enumerate(contact_states(p_plus, u2_jump, H2_plus,
                                          H2_minus)):
        U[i, IP] = st.p * (1.0 + amplitude * prof()
                           * np.cos(2 * np.pi * x2 / grid.L2)) + 0.0 * x2
        U[i, IU2] = st.u2 + amplitude * prof() + 0.0 * x2
        U[i, IH2] = st.H2 * (1.0 + amplitude * prof()) + 0.0 * x2
        U[i, IS] = amplitude * prof() * np.sin(2 * np.pi * x2 / grid.L2)
    return BasicState(grid=grid, eos=eos, U=U, phi=np.zeros(grid.n2))


def linearized_L(ops, Uhat, phihat, dU, dphi):
    """(L(Uhat), L'(Uhat)[dU, dphi]) at (Uhat, phihat) from one
    ``SheetOperators.walk`` of one base point."""
    value = np.empty_like(Uhat)
    lin = np.empty_like(Uhat)
    for n, [(value_n, lin_n)] in enumerate(
            ops.walk([(Uhat, phihat, True)], dU, dphi)):
        value[n], lin[n] = value_n, lin_n
    return value, lin
