"""Basic states and assembly of the effective linearized operators.

The linearization lives on the straightened half-plane around a basic state
(U-hat±, phi-hat) that must satisfy, up to tolerances: hyperbolicity with a
margin, the kinematic jump condition dphi/dt = u_N± at the wall, the
magnetic transport identity in the interior, div h = 0 with H_N = 0 at the
wall, the boundary stability margin, and sup|phi| < 1/2.
The linearized wall rows (kin+, kin-, H_N+, H_N-, [q]) have one home,
``stability.linearized_wall_rows``; ``boundary_traces`` gives the basic
wall traces they read.  Boundary data (g1+, g1-, g2) are the right-hand
sides of kin+, kin- and [q].

In the Alinhac good unknown the effective interior operator is

    L'_e Udot = A0 dt Udot + A1~ d1 Udot + A2 d2 Udot + C Udot,

where C Udot is the derivative of the straightened coefficients along Udot
applied to the basic state's derivatives; ``c_matrix`` writes its 24
nonzero entries in closed form.  Rewriting in the characteristic unknown
V = (qdot, udot_n, udot_2, Hdot_n, Hdot_2, Sdot) via Udot = J V turns the
boundary matrix into diag(E12, -E12)/d1Phi + a correction vanishing on the
wall: a constant-rank-4 characteristic boundary with exactly two incoming
modes per side.

J is the identity plus four entries above the diagonal and the straightened
A0 is diagonal, so each coefficient family has a closed-form pass over one
shared prelude: ``assemble_effective`` builds the march's solved family and
``assemble_symmetrized`` the energy ledger's family of a multiplier field,
which at lambda = 0 is the unsymmetrized one, boundary matrix included.

``SheetOperators`` is the one discretization of L and L'_e on snapshot
series, with 4th-order time stencils, walked one snapshot at a time: the
Nash-Moser scheme applies it.  The straightened coefficients (A0, A1~, A2)
and their apply come from ``cvsheet.front``; ``heun_march`` is the one time
marcher of the Nash-Moser magnetic transport solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .front import (LiftedFront, apply_L, induction_advection, lift_front,
                    straighten, straightened_coefficients, transformed_vectors)
from .grid import Grid, diff_time, time_row
from .mhd import (IH1, IH2, IP, IS, IU1, IU2, NCOMP, PhysState,
                  _require_admissible, contact_states)
from .stability import (LambdaPair, assemble_symmetrizer, build_lambda,
                        check_stability, linearized_wall_rows)

#: characteristic components of V
IQ, IUN, IU2V, IHN, IH2V, ISV = range(6)

SIDES = (+1, -1)

_TGRID_TOL = 1e-9   # largest spread of a uniform tgrid's steps, in units of dt


@dataclass
class BasicState:
    """Background state given as one or more time snapshots.

    ``U`` is (nt, 2, 6, n1, n2) and ``phi`` (nt, n2); nt = 1 means a steady
    state (all time derivatives vanish).  ``frame(k)`` gives snapshot k with
    its rates, finite differences over the uniform ``tgrid``; values between
    snapshots are the caller's to interpolate.
    """

    grid: Grid
    eos: object
    U: np.ndarray
    phi: np.ndarray
    tgrid: np.ndarray | None = None

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if self.U.ndim == 4:
            self.U = self.U[None]
        if self.phi.ndim == 1:
            self.phi = self.phi[None]
        g, nt = self.grid, self.U.shape[0]
        if (self.U.shape != (nt, 2, NCOMP, g.n1, g.n2)
                or self.phi.shape != (nt, g.n2)):
            raise ValueError(f"U {self.U.shape} and phi {self.phi.shape} are "
                             f"not (nt, 2, {NCOMP}, {g.n1}, {g.n2}) and "
                             f"(nt, {g.n2}) on the grid")
        if self.U.shape[0] > 1 and self.tgrid is None:
            raise ValueError("time-dependent basic state needs tgrid")
        if self.tgrid is not None:
            self.tgrid = np.asarray(self.tgrid, dtype=float)
            if len(self.tgrid) != self.U.shape[0]:
                raise ValueError(f"tgrid has {len(self.tgrid)} times for "
                                 f"{self.U.shape[0]} snapshots")
            if not self.steady:
                time_step(self.tgrid)
        self._Ut = None
        self._phit = None

    @property
    def steady(self) -> bool:
        return self.U.shape[0] == 1

    def _rates(self):
        if self._Ut is None:
            if self.steady:
                self._Ut = np.zeros_like(self.U)
                self._phit = np.zeros_like(self.phi)
            else:
                dt = time_step(self.tgrid)
                self._Ut = diff_time(self.U, dt)
                self._phit = diff_time(self.phi, dt)
        return self._Ut, self._phit

    def lambda_boundary(self) -> LambdaPair:
        """The wall multiplier of the first snapshot, built from its wall
        rows alone (no frame)."""
        plus, minus = (PhysState.from_vector(u) for u in self.U[0, :, :, 0])
        return build_lambda(plus, minus, self.eos)

    def frame(self, k: int) -> "BasicFrame":
        """The frame of snapshot ``k`` in [0, nt), with its rates (zero on a
        steady state); ``ValueError`` for any other k."""
        nt = self.U.shape[0]
        if not 0 <= k < nt:
            raise ValueError(f"snapshot {k!r} is outside [0, {nt})")
        Ut, phit = self._rates()
        return BasicFrame(self, self.U[k], Ut[k], self.phi[k], phit[k])


def time_step(tgrid: np.ndarray) -> float:
    """The step tgrid[1] - tgrid[0] of a strictly increasing, uniform time
    grid; ``ValueError`` for any other grid, whose snapshot rates a single
    step would get wrong."""
    steps = np.diff(tgrid)
    if len(tgrid) < 2 or not np.all(steps > 0):
        raise ValueError("tgrid must hold two or more strictly increasing "
                         "times")
    dt = float(tgrid[1] - tgrid[0])
    if np.max(np.abs(steps - dt)) > _TGRID_TOL * dt:
        raise ValueError(f"tgrid is not uniform: steps from "
                         f"{steps.min():.6g} to {steps.max():.6g}")
    return dt


def bracket(tgrid: np.ndarray, t: float):
    """Snapshot interval k and weight w of linear interpolation at t.

    The value at t is (1 - w) f[k] + w f[k + 1].  A t off
    [tgrid[0], tgrid[-1]] by at most ``_TGRID_TOL`` of its length is
    roundoff and clamped; any other t (NaN included) is a ``ValueError``.
    """
    slack = _TGRID_TOL * (tgrid[-1] - tgrid[0])
    if not tgrid[0] - slack <= t <= tgrid[-1] + slack:
        raise ValueError(f"t = {t!r} is outside the snapshots' "
                         f"[{tgrid[0]:.6g}, {tgrid[-1]:.6g}]")
    t = float(np.clip(t, tgrid[0], tgrid[-1]))
    k = max(min(int(np.searchsorted(tgrid, t, side="right")) - 1,
                len(tgrid) - 2), 0)
    return k, (t - tgrid[k]) / (tgrid[k + 1] - tgrid[k])


class BasicFrame:
    """All derived geometry of the basic state frozen at one time."""

    def __init__(self, basic: BasicState, U, Ut, phi, phit):
        self.grid = basic.grid
        self.eos = basic.eos
        self.U = U                   # (2, 6, n1, n2)
        self.Ut = Ut
        self.phi = phi               # (n2,)
        self.phit = phit
        self.lifted: LiftedFront = lift_front(phi, basic.grid, phit)
        self.states = tuple(PhysState.from_vector(u) for u in U)


def boundary_traces(grid: Grid, U: np.ndarray, phi: np.ndarray) -> dict:
    """The basic wall traces of U (..., 2, 6, n1, n2), phi (..., n2), a frame
    or a series, each (..., n2): ``d2phi``, ``d1q_jump`` and per side (p, m)
    ``u2``, ``H2``, ``uN``, ``HN``, ``d1uN`` and ``d1HN``.  The stencils act
    elementwise, so a series and its frames give the same bits, and the d1
    row at the wall reads rows 0-3 alone, so only those rows are taken."""
    U = U[..., :4, :]
    d2phi = grid.d2_boundary(phi)[..., None, None, :]
    q = U[..., IP, :, :] + 0.5 * (U[..., IH1, :, :] ** 2
                                  + U[..., IH2, :, :] ** 2)
    d1q = grid.d1(q)
    uN = U[..., IU1, :, :] - U[..., IU2, :, :] * d2phi
    HN = U[..., IH1, :, :] - U[..., IH2, :, :] * d2phi
    out = {"d2phi": d2phi[..., 0, 0, :]}
    for name, f in (("u2", U[..., IU2, :, :]), ("H2", U[..., IH2, :, :]),
                    ("uN", uN), ("HN", HN), ("d1uN", grid.d1(uN)),
                    ("d1HN", grid.d1(HN))):
        out[name + "p"], out[name + "m"] = f[..., 0, 0, :], f[..., 1, 0, :]
    out["d1q_jump"] = d1q[..., 0, 0, :] + d1q[..., 1, 0, :]
    return out


@dataclass
class ValidationReport:
    hyperbolicity_margin: float
    stability_margin: float
    jump_residual: float
    transport_residual: float
    div_residual: float
    hn_residual: float
    phi_sup: float

    @property
    def ok(self) -> bool:
        tol = DEFAULT_TOLERANCES
        return (self.hyperbolicity_margin >= tol["hyperbolicity"]
                and self.stability_margin >= tol["stability"]
                and self.jump_residual <= tol["jump"]
                and self.transport_residual <= tol["transport"]
                and self.div_residual <= tol["div"]
                and self.hn_residual <= tol["hn"]
                and self.phi_sup < 0.5)


DEFAULT_TOLERANCES = {
    "hyperbolicity": 1e-6, "stability": 1e-3, "jump": 1e-8,
    "transport": 1e-6, "div": 1e-8, "hn": 1e-8,
}


def validate_basic_state(basic: BasicState,
                         snapshots=None) -> ValidationReport:
    """Residuals of every constraint the linearization assumes.

    Checks the hyperbolicity and stability margins, the kinematic wall
    condition, the magnetic transport identity, div h = 0, H_N = 0 at the
    wall, and the front smallness; the report carries worst-case values
    over the sampled snapshot indices (all of them by default), judged
    against ``DEFAULT_TOLERANCES``.
    """
    if snapshots is None:
        snapshots = range(basic.U.shape[0])
    worst = dict(hyper=np.inf, stab=np.inf, jump=0.0, trans=0.0, div=0.0,
                 hn=0.0, phi=0.0)
    eos = basic.eos
    g = basic.grid
    for k in snapshots:
        fr = basic.frame(k)
        rho = np.stack([eos.density(st.p, st.S) for st in fr.states])
        rho_p = np.stack([eos.density_dp(st.p, st.S) for st in fr.states])
        worst["hyper"] = min(worst["hyper"], float(np.min(rho)),
                             float(np.min(rho_p)))
        rep = check_stability(fr.states[0], fr.states[1], eos,
                              k=DEFAULT_TOLERANCES["stability"])
        worst["stab"] = min(worst["stab"],
                            float(np.min(rep.margin[..., 0, :])))
        tr = boundary_traces(g, fr.U, fr.phi)
        for i, (side, tag) in enumerate(zip(SIDES, "pm")):
            worst["jump"] = max(worst["jump"], float(np.max(np.abs(
                fr.phit - tr["uN" + tag]))))
            worst["hn"] = max(worst["hn"],
                              float(np.max(np.abs(tr["HN" + tag]))))
            # residuals of the interior constraints
            h = transformed_vectors(fr.states[i], fr.lifted, side)[4]
            div = g.d1(h[0]) + g.d2(h[1])
            worst["div"] = max(worst["div"], float(np.max(np.abs(div))))
            trans = fr.Ut[i, (IH1, IH2), :, :] + induction_advection(
                fr.U[i, (IU1, IU2), :, :], fr.U[i, (IH1, IH2), :, :],
                fr.lifted, side)
            worst["trans"] = max(worst["trans"], float(np.max(np.abs(trans))))
        worst["phi"] = max(worst["phi"], float(np.max(np.abs(fr.phi))))
    return ValidationReport(
        hyperbolicity_margin=worst["hyper"], stability_margin=worst["stab"],
        jump_residual=worst["jump"], transport_residual=worst["trans"],
        div_residual=worst["div"], hn_residual=worst["hn"],
        phi_sup=worst["phi"])


# -- manufactured family ---------------------------------------------------

def trivial_sheet_state(grid: Grid, eos, *, p_plus=1.0, u2_jump=0.0,
                        H2_plus=1.0, H2_minus=1.0, S_plus=0.0,
                        S_minus=0.0) -> BasicState:
    """Piecewise-constant contact configuration with [q] = 0.

    u1 = H1 = 0 on both sides, flat front; the total-pressure balance fixes
    the minus-side pressure.  Satisfies every basic-state constraint
    exactly, stable or not depending on the field strength versus the
    tangential-velocity jump.
    """
    U = np.zeros((2, NCOMP, grid.n1, grid.n2))
    for i, st in enumerate(contact_states(p_plus, u2_jump, H2_plus,
                                          H2_minus, S_plus, S_minus)):
        U[i, IP], U[i, IU2], U[i, IH2], U[i, IS] = st.p, st.u2, st.H2, st.S
    return BasicState(grid=grid, eos=eos, U=U, phi=np.zeros(grid.n2))


# -- good unknown -----------------------------------------------------------

def good_unknown_inverse(Udot: np.ndarray, psi: np.ndarray,
                         frame: BasicFrame) -> np.ndarray:
    """deltaU = Udot + (d1 U-hat / d1 Phi-hat) Psi, per side: the Alinhac
    good unknown Udot taken back to the perturbation deltaU."""
    d1U = frame.grid.d1(frame.U)
    jac = frame.lifted.d1_phi_map
    return Udot + d1U / jac[:, None] * psi[:, None]


# -- zero-order coefficient -------------------------------------------------

def c_matrix(U: np.ndarray, Ut: np.ndarray, d1U: np.ndarray,
             d2U: np.ndarray, lifted: LiftedFront, eos) -> np.ndarray:
    """Zero-order matrix of the linearization, per side: (2, 6, 6, n1, n2).

    C_{kl} = sum_m [dA0/dy_l]_{km} dtU_m + [dA1~/dy_l]_{km} d1U_m
             + [dA2/dy_l]_{km} d2U_m at the state ``U`` with rate ``Ut``
    and the derivatives ``d1U``, ``d2U`` (``grid.d1(U)``, ``grid.d2(U)``),
    which every caller already holds.
    Straightening is linear, so with

        r1 = d1U / d1Phi,  r0 = Ut - dtPsi r1,  r2 = d2U - d2Psi r1

    C = dA0 . r0 + dA1 . r1 + dA2 . r2, and only 24 entries survive.  With
    g = rho_p / rho, D = diag(g, rho, rho, 1, 1, 1) and
    a = r0 + u1 r1 + u2 r2 they read, for l in (P, S) and g_l = dg/dl:

        C[P, l] = g_l a_P,  C[U1, l] = rho_l a_U1,  C[U2, l] = rho_l a_U2,
        C[k, U1] = D_k r1_k,  C[k, U2] = D_k r2_k,
        C[U1, H2] = r1_H2 - r2_H1 = -C[U2, H1],
        C[H2, H2] = r1_U1,  C[H2, H1] = -r1_U2,
        C[H1, H2] = -r2_U1,  C[H1, H1] = r2_U2.

    Raises ``AdmissibilityError`` outside the hyperbolic region of the EOS.
    """
    grid = lifted.grid
    rho, rho_p, rho_S, rho_pp, rho_pS = _require_admissible(
        PhysState.from_vector(U.swapaxes(0, 1)), eos, jet=True)
    g = rho_p / rho
    g_p = (rho_pp * rho - rho_p ** 2) / rho ** 2
    g_S = (rho_pS * rho - rho_p * rho_S) / rho ** 2
    r1 = d1U / lifted.d1_phi_map[:, None]
    r0 = Ut - lifted.dt_psi[:, None] * r1
    r2 = d2U - lifted.d2_psi[:, None] * r1
    a = r0 + U[:, IU1, None] * r1 + U[:, IU2, None] * r2
    C = np.zeros((2, NCOMP, NCOMP, grid.n1, grid.n2))
    for l, gl, rl in ((IP, g_p, rho_p), (IS, g_S, rho_S)):
        C[:, IP, l] = gl * a[:, IP]
        C[:, IU1, l] = rl * a[:, IU1]
        C[:, IU2, l] = rl * a[:, IU2]
    for k, Dk in enumerate((g, rho, rho, 1.0, 1.0, 1.0)):
        C[:, k, IU1] = Dk * r1[:, k]
        C[:, k, IU2] = Dk * r2[:, k]
    C[:, IU1, IH2] = r1[:, IH2] - r2[:, IH1]
    C[:, IU2, IH1] = -C[:, IU1, IH2]
    C[:, IH2, IH2] = r1[:, IU1]
    C[:, IH2, IH1] = -r1[:, IU2]
    C[:, IH1, IH2] = -r2[:, IU1]
    C[:, IH1, IH1] = r2[:, IU2]
    return C


# -- operators on snapshot series -------------------------------------------


class SheetOperators:
    """Straightened-domain operators evaluated on snapshot series.

    Fields: U is (nt, 2, 6, n1, n2), phi is (nt, n2); time derivatives come
    from the stored history, so every operator application here uses the
    same discrete stencils and the Nash-Moser error decompositions are
    literal operator differences, exact up to floating point.
    """

    def __init__(self, grid: Grid, eos, tgrid: np.ndarray):
        self.grid = grid
        self.eos = eos
        self.dt = time_step(tgrid)

    def walk(self, bases, dU=None, dphi=None):
        """L and L' at several base points, one snapshot at a time.

        ``bases`` lists base points (U, phi, value), U (nt, 2, 6, n1, n2)
        and phi (nt, n2).  Snapshot n yields a list with one pair per base
        point: (L(U)[n] if ``value`` else None, L'(U)[dU, dphi][n] if an
        increment is given else None), each (2, 6, n1, n2).  Time
        derivatives come from five-snapshot windows and the increment's
        derivatives are taken once per snapshot for all base points, so no
        full-series temporary is held.  With r1 = d1U / d1Phi and Psi the
        lift of dphi, the front increment shifts every derivative of dU:

            L' = A0 (dt dU - dtPsi r1) + A1~ (d1 dU - d1Psi r1)
                 + A2 (d2 dU - d2Psi r1) + C dU.
        """
        g, dt = self.grid, self.dt
        for n in range(len(bases[0][0])):
            if dU is not None:
                dl = lift_front(dphi[n], g, time_row(dphi, dt, n))
                dU_derivs = ((time_row(dU, dt, n), dl.dt_psi),
                             (g.d1(dU[n]), dl.d1_psi),
                             (g.d2(dU[n]), dl.d2_psi))
            pairs = []
            for U, phi, value in bases:
                dtU, d1U, d2U = time_row(U, dt, n), g.d1(U[n]), g.d2(U[n])
                lifted = lift_front(phi[n], g, time_row(phi, dt, n))
                coeffs = straightened_coefficients(U[n], lifted, self.eos)
                val = lin = None
                if value:
                    val = apply_L(coeffs, dtU, d1U, d2U, np.empty_like(dtU))
                if dU is not None:
                    r1 = d1U / lifted.d1_phi_map[:, None]
                    lin = apply_L(coeffs, *(d - dpsi[:, None] * r1
                                            for d, dpsi in dU_derivs),
                                  np.empty_like(dtU))
                    C = c_matrix(U[n], dtU, d1U, d2U, lifted, self.eos)
                    lin += np.einsum("sij...,sj...->si...", C, dU[n])
                pairs.append((val, lin))
            yield pairs

    def nonlinear_L(self, U: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """L(U, Psi) = A0(U) dt U + A1~(U, Psi) d1 U + A2(U) d2 U."""
        out = np.empty_like(U)
        for n, [(value, _)] in enumerate(self.walk([(U, phi, True)])):
            out[n] = value
        return out

    def boundary_B(self, U: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Nonlinear wall operator: (dphi/dt - uN+, dphi/dt - uN-, [q])."""
        g = self.grid
        dtphi = diff_time(phi, self.dt, order=4)
        d2phi = g.d2_boundary(phi)
        tr = U[:, :, :, 0, :]
        uN = tr[:, :, IU1] - tr[:, :, IU2] * d2phi[:, None, :]
        q = tr[:, :, IP] + 0.5 * (tr[:, :, IH1] ** 2 + tr[:, :, IH2] ** 2)
        return np.stack([dtphi - uN[:, 0], dtphi - uN[:, 1],
                         q[:, 0] - q[:, 1]], axis=1)

    def boundary_B_e_prime(self, Uhat, phihat, dUdot, dphi) -> np.ndarray:
        """Good-unknown wall operator at (Uhat, phihat): the kin+, kin- and
        [q] rows of ``linearized_wall_rows`` of (dUdot, dphi), zero-order
        front terms included.  Of ``dUdot`` only the wall row x1 = 0 is
        read, so its trace (nt, 2, 6, 1, n2) will do."""
        g = self.grid
        tr = boundary_traces(g, Uhat, phihat)
        d2phihat = tr["d2phi"][:, None, :]
        trh = Uhat[:, :, :, 0, :]
        trd = dUdot[:, :, :, 0, :]
        v = {"uN": trd[:, :, IU1] - trd[:, :, IU2] * d2phihat,
             "HN": trd[:, :, IH1] - trd[:, :, IH2] * d2phihat,
             "q": trd[:, :, IP] + (trh[:, :, IH1] * trd[:, :, IH1]
                                   + trh[:, :, IH2] * trd[:, :, IH2])}
        kin_p, kin_m, _, _, jump_q = linearized_wall_rows(
            *({k: x[:, i] for k, x in v.items()} for i in (0, 1)), dphi,
            diff_time(dphi, self.dt, order=4), g.d2_boundary(dphi), tr)
        return np.stack([kin_p, kin_m, jump_q], axis=1)


#: the entries (row, column) of N in J = I + N, all above the diagonal
_J_OFF = ((IP, IHN), (IP, IH2V), (IU1, IU2V), (IH1, IH2V))
_EYE = np.eye(NCOMP)[..., None, None]


def _j_off(frame: BasicFrame, rates: bool = False):
    """(N's entries -H1, -(H1 d2Psi + H2), d2Psi, d2Psi at ``_J_OFF`` per
    side, (2, 4, n1, n2); with ``rates`` their time rates by the product
    rule from the frame's own ``Ut``, as ``c_matrix`` reads it, and the lift
    of its ``phit``, else None)."""
    H1, H2 = frame.U[:, IH1], frame.U[:, IH2]
    d2psi = frame.lifted.d2_psi
    off = np.stack([-H1, -(H1 * d2psi + H2), d2psi, d2psi], axis=1)
    if not rates:
        return off, None
    H1t, H2t = frame.Ut[:, IH1], frame.Ut[:, IH2]
    d2psit = lift_front(frame.phit, frame.grid).d2_psi
    return off, np.stack([-H1t, -(H1t * d2psi + H1 * d2psit + H2t), d2psit,
                          d2psit], axis=1)


def j_matrix(frame: BasicFrame) -> np.ndarray:
    """Characteristic change of unknown Udot = J V, per side: the identity
    plus the four entries of ``_j_off`` at ``_J_OFF``."""
    off, _ = _j_off(frame)
    J = np.zeros((2, NCOMP, NCOMP) + off.shape[-2:])
    J[:] = _EYE
    for e, (r, c) in enumerate(_J_OFF):
        J[:, r, c] = off[:, e]
    return J


def _off_columns(rows, off) -> dict:
    """{c: sum over the ``_J_OFF`` entries (r, c) of rows[r] * off[k]}.

    Rows are summed in ascending order, as a dense contraction sums them.
    """
    cols = {}
    for (r, c), v in zip(_J_OFF, off):
        term = rows[r] * v
        cols[c] = term if c not in cols else cols[c] + term
    return cols


def _add_columns(out, m, off):
    """out += m N for N's entries ``off`` at ``_J_OFF``; returns ``out``."""
    for c, col in _off_columns(np.swapaxes(m, 0, 1), off).items():
        out[:, c] += col
    return out


def _jt_times(off, m):
    """J^T m for J = I + N with N's entries ``off`` at ``_J_OFF``: rows,
    updated in place in ``m``, which is returned."""
    for c, row in _off_columns(m, off).items():
        m[c] += row
    return m


def _j_inv_times(off, m):
    """J^{-1} m by back substitution in descending row order, in place in
    ``m``, which is returned."""
    for (r, c), v in reversed(tuple(zip(_J_OFF, off))):
        m[r] -= v * m[c]
    return m


def _right_products(m0, m1, m2, zc, off, d1off, d2off, dtoff):
    """[m1 J, m2 J, zc J + m1 d1J + m2 d2J + m0 dJ/dt] for one side, from
    N's entries ``off`` and their derivatives.  m0 J, which only the
    symmetrized family reads, its caller forms."""
    R = [_add_columns(m.copy(), m, off) for m in (m1, m2, zc)]
    for m, doff in ((m1, d1off), (m2, d2off), (m0, dtoff)):
        _add_columns(R[2], m, doff)
    return R


@dataclass
class EffectiveOperators:
    """The solved family the march applies: with A_kc = J^T R_k for
    R_0 = A0 J and the right products R_1-R_3 of ``_right_products``,
    M_k = A0c^{-1} A_kc = J^{-1} A0^{-1} R_k and ``A0invJt`` = A0c^{-1} J^T,
    each (2, 6, 6, n1, n2).  J itself is ``j_matrix``'s."""

    M1: np.ndarray
    M2: np.ndarray
    M3: np.ndarray
    A0invJt: np.ndarray


@dataclass
class SymmetrizedOperators:
    """The symmetrized family the energy ledger checks: B_k = J^T R_k with
    the secondary symmetrizer's B0-B2 and S C in the right products, each
    (2, 6, 6, n1, n2), and its ``S`` and ``T`` (2, 6, n1, n2).  At
    lambda = 0 (S = I, T = 0) it is the A_kc family."""

    B0: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    B3: np.ndarray
    S: np.ndarray
    T: np.ndarray


def _prelude(frame: BasicFrame):
    """What both coefficient families read at ``frame``: N's entries
    (``_j_off``), their d1, d2 and time rates, and C (``c_matrix``)."""
    g = frame.grid
    off, dtoff = _j_off(frame, rates=True)
    d1off, d2off = g.d1(off), g.d2(off)
    C = c_matrix(frame.U, frame.Ut, g.d1(frame.U), g.d2(frame.U),
                 frame.lifted, frame.eos)
    return off, d1off, d2off, dtoff, C


def assemble_effective(frame: BasicFrame) -> EffectiveOperators:
    """Assemble the march's solved coefficients at one time frame.

    A0^{-1} is the reciprocal of A0's diagonal, J^{-1} a back substitution
    and dJ/dt the frame's own rate (``_j_off``).
    """
    g = frame.grid
    off, d1off, d2off, dtoff, C = _prelude(frame)
    shape = (2, NCOMP, NCOMP, g.n1, g.n2)
    M = [np.empty(shape) for _ in range(4)]     # M1, M2, M3, A0invJt
    for i, (a0, a1t, a2) in enumerate(
            straightened_coefficients(frame.U, frame.lifted, frame.eos)):
        R = _right_products(a0, a1t, a2, C[i], off[i], d1off[i], d2off[i],
                            dtoff[i])
        a0inv = 1.0 / np.einsum("kk...->k...", a0)[:, None]  # A0 is diagonal
        for k, r in enumerate(R + [_EYE]):
            M[k][i] = _j_inv_times(off[i], a0inv * r)
    return EffectiveOperators(*M)


def assemble_symmetrized(frame: BasicFrame,
                         lam_field: np.ndarray) -> SymmetrizedOperators:
    """Assemble the symmetrized family of the multiplier ``lam_field``
    (2, n1, n2) at one time frame.  At ``lam_field`` = 0 it is the
    unsymmetrized family A_kc, whose boundary matrix B1 at the wall is
    diag(E12, -E12) up to roundoff exactly when the basic state honors the
    kinematic and magnetic wall constraints.
    """
    off, d1off, d2off, dtoff, C = _prelude(frame)
    sides = []
    for i in range(2):
        bundle = assemble_symmetrizer(frame.states[i], lam_field[i],
                                      frame.eos)
        b1t = straighten(bundle.B0, bundle.B1, bundle.B2, frame.lifted, i)
        SC = np.einsum("ik...,kj...->ij...", bundle.S, C[i])
        R = [_add_columns(bundle.B0.copy(), bundle.B0, off[i]),
             *_right_products(bundle.B0, b1t, bundle.B2, SC, off[i],
                              d1off[i], d2off[i], dtoff[i])]
        sides.append([_jt_times(off[i], r) for r in R]
                     + [bundle.S, bundle.T])
    return SymmetrizedOperators(*map(np.stack, zip(*sides)))


# -- transport march ---------------------------------------------------------

_HEUN_SUBSTEPS = 2      # Heun steps per interval of the transport march


def heun_march(rhs, y0, dts) -> np.ndarray:
    """Heun's method over the intervals ``dts``, each cut into
    ``_HEUN_SUBSTEPS`` steps.

    ``rhs(y, n, w)`` is the right-hand side at the fraction ``w`` in [0, 1]
    of interval ``n``.  Returns the solution at the len(dts) + 1 nodes.
    """
    out = np.empty((len(dts) + 1,) + np.shape(y0))
    out[0] = y0
    for n, dt in enumerate(dts):
        y = out[n]
        h = dt / _HEUN_SUBSTEPS
        for s in range(_HEUN_SUBSTEPS):
            k1 = rhs(y, n, s / _HEUN_SUBSTEPS)
            k2 = rhs(y + h * k1, n, (s + 1) / _HEUN_SUBSTEPS)
            y = y + 0.5 * h * (k1 + k2)
        out[n + 1] = y
    return out
