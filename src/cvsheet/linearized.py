"""Basic states and assembly of the effective linearized operators.

The linearization lives on the straightened half-plane around a basic state
(U-hat±, phi-hat) that must satisfy, up to tolerances: hyperbolicity with a
margin, the kinematic jump condition dphi/dt = u_N± at the wall, the
magnetic transport identity in the interior, div h = 0 with H_N = 0 at the
wall, the boundary stability margin, and sup|phi| < 1/2.

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
A0 is diagonal, so ``assemble_effective``, the one place the march's solved
coefficients are built, forms them in closed form.

``SheetOperators`` is the one discretization of L and L'_e on snapshot
series, with 4th-order time stencils: the Nash-Moser scheme and the
boundary homogenization both apply it.  The straightened coefficients
(A0, A1~, A2) and their apply come from ``cvsheet.front``; ``heun_march``
is the one time marcher of the boundary, divergence and magnetic
transport solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compat import _SLOPE_TOL
from .front import (_JAC_TOL, LiftedFront, apply_L, induction_advection,
                    lift_front, straighten, straightened_coefficients,
                    transformed_vectors)
from .grid import Grid, diff_time
from .mhd import (IH1, IH2, IP, IS, IU1, IU2, NCOMP, PhysState,
                  _require_admissible)
from .norms import lift
from .profiles import CutoffChi
from .stability import (LambdaPair, assemble_symmetrizer, build_lambda,
                        check_stability)

#: characteristic components of V
IQ, IUN, IU2V, IHN, IH2V, ISV = range(6)

SIDES = (+1, -1)


@dataclass
class BasicState:
    """Background state given as one or more time snapshots.

    ``U`` is (nt, 2, 6, n1, n2) and ``phi`` (nt, n2); nt = 1 means a steady
    state (all time derivatives vanish).  Linear interpolation in time with
    snapshot finite differences supplies values and rates at arbitrary t.
    """

    grid: Grid
    eos: object
    U: np.ndarray
    phi: np.ndarray
    tgrid: np.ndarray | None = None
    chi: CutoffChi = field(default_factory=CutoffChi)

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if self.U.ndim == 4:
            self.U = self.U[None]
        if self.phi.ndim == 1:
            self.phi = self.phi[None]
        if self.U.shape[0] > 1 and self.tgrid is None:
            raise ValueError("time-dependent basic state needs tgrid")
        if self.tgrid is not None:
            self.tgrid = np.asarray(self.tgrid, dtype=float)
        self._Ut = None
        self._phit = None
        self._steady_frame = None

    @property
    def steady(self) -> bool:
        return self.U.shape[0] == 1

    def _rates(self):
        if self._Ut is None:
            if self.steady:
                self._Ut = np.zeros_like(self.U)
                self._phit = np.zeros_like(self.phi)
            else:
                dt = float(self.tgrid[1] - self.tgrid[0])
                self._Ut = diff_time(self.U, dt, axis=0)
                self._phit = diff_time(self.phi, dt, axis=0)
        return self._Ut, self._phit

    def frame(self, t: float) -> "BasicFrame":
        if self.steady:
            if self._steady_frame is None:
                self._steady_frame = BasicFrame(self, self.U[0],
                                                np.zeros_like(self.U[0]),
                                                self.phi[0],
                                                np.zeros_like(self.phi[0]))
            return self._steady_frame
        Ut, phit = self._rates()
        k, w = bracket(self.tgrid, t)
        Uf = (1 - w) * self.U[k] + w * self.U[k + 1]
        pf = (1 - w) * self.phi[k] + w * self.phi[k + 1]
        Utf = (1 - w) * Ut[k] + w * Ut[k + 1]
        ptf = (1 - w) * phit[k] + w * phit[k + 1]
        return BasicFrame(self, Uf, Utf, pf, ptf)


def bracket(tgrid: np.ndarray, t: float):
    """Snapshot interval k and weight w of linear interpolation at t.

    t is clamped to [tgrid[0], tgrid[-1]]; the value at t is
    (1 - w) f[k] + w f[k + 1].
    """
    t = float(np.clip(t, tgrid[0], tgrid[-1]))
    k = max(min(int(np.searchsorted(tgrid, t, side="right")) - 1,
                len(tgrid) - 2), 0)
    return k, (t - tgrid[k]) / (tgrid[k + 1] - tgrid[k])


class BasicFrame:
    """All derived geometry of the basic state frozen at one time."""

    def __init__(self, basic: BasicState, U, Ut, phi, phit):
        self.basic = basic
        self.grid = basic.grid
        self.eos = basic.eos
        self.U = U                   # (2, 6, n1, n2)
        self.Ut = Ut
        self.phi = phi               # (n2,)
        self.phit = phit
        self.lifted: LiftedFront = lift_front(phi, basic.grid, basic.chi,
                                              phit)
        self.states = tuple(
            PhysState.from_vector(U[i], side=s) for i, s in enumerate(SIDES))

    # -- boundary traces used by the boundary conditions -------------------

    def boundary_traces(self) -> dict:
        g = self.grid
        d2phi = g.d2_boundary(self.phi)
        out = {"d2phi": d2phi, "phit": self.phit}
        q = self.U[:, IP] + 0.5 * (self.U[:, IH1] ** 2 + self.U[:, IH2] ** 2)
        d1q = g.d1(q)
        uN = self.U[:, IU1] - self.U[:, IU2] * d2phi[None, None, :]
        HN = self.U[:, IH1] - self.U[:, IH2] * d2phi[None, None, :]
        d1uN = g.d1(uN)
        d1HN = g.d1(HN)
        for i, tag in enumerate("pm"):
            out[f"u2{tag}"] = self.U[i, IU2, 0, :]
            out[f"H2{tag}"] = self.U[i, IH2, 0, :]
            out[f"d1uN{tag}"] = d1uN[i, 0, :]
            out[f"d1HN{tag}"] = d1HN[i, 0, :]
        out["d1q_jump"] = d1q[0, 0, :] + d1q[1, 0, :]
        return out

    def lambda_boundary(self) -> LambdaPair:
        plus = PhysState.from_vector(self.U[0, :, 0, :], side=+1)
        minus = PhysState.from_vector(self.U[1, :, 0, :], side=-1)
        return build_lambda(plus, minus, self.eos)


@dataclass
class ValidationReport:
    hyperbolicity_margin: float
    stability_margin: float
    jump_residual: float
    transport_residual: float
    div_residual: float
    hn_residual: float
    phi_sup: float
    tolerances: dict

    @property
    def ok(self) -> bool:
        tol = self.tolerances
        return (self.hyperbolicity_margin >= tol["hyperbolicity"]
                and self.stability_margin >= tol["stability"]
                and self.jump_residual <= tol["jump"]
                and self.transport_residual <= tol["transport"]
                and self.div_residual <= tol["div"]
                and self.hn_residual <= tol["hn"]
                and self.phi_sup < 0.5)

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "hyperbolicity_margin", "stability_margin", "jump_residual",
            "transport_residual", "div_residual", "hn_residual", "phi_sup")}


DEFAULT_TOLERANCES = {
    "hyperbolicity": 1e-6, "stability": 1e-3, "jump": 1e-8,
    "transport": 1e-6, "div": 1e-8, "hn": 1e-8,
}


def validate_basic_state(basic: BasicState, times=None) -> ValidationReport:
    """Residuals of every constraint the linearization assumes.

    Checks the hyperbolicity and stability margins, the kinematic wall
    condition, the magnetic transport identity, div h = 0, H_N = 0 at the
    wall, and the front smallness; the report carries worst-case values
    over the sampled times, judged against ``DEFAULT_TOLERANCES``.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if times is None:
        times = [0.0] if basic.steady else list(basic.tgrid)
    worst = dict(hyper=np.inf, stab=np.inf, jump=0.0, trans=0.0, div=0.0,
                 hn=0.0, phi=0.0)
    eos = basic.eos
    g = basic.grid
    for t in times:
        fr = basic.frame(t)
        rho = np.stack([eos.density(st.p, st.S) for st in fr.states])
        rho_p = np.stack([eos.density_dp(st.p, st.S) for st in fr.states])
        worst["hyper"] = min(worst["hyper"], float(np.min(rho)),
                             float(np.min(rho_p)))
        rep = check_stability(fr.states[0], fr.states[1], eos, k=tol["stability"])
        worst["stab"] = min(worst["stab"],
                            float(np.min(rep.margin[..., 0, :]))
                            if rep.margin.ndim > 1 else rep.margin_min)
        tr = fr.boundary_traces()
        for i, side in enumerate(SIDES):
            uN0 = fr.U[i, IU1, 0, :] - fr.U[i, IU2, 0, :] * tr["d2phi"]
            worst["jump"] = max(worst["jump"],
                                float(np.max(np.abs(fr.phit - uN0))))
            HN0 = fr.U[i, IH1, 0, :] - fr.U[i, IH2, 0, :] * tr["d2phi"]
            worst["hn"] = max(worst["hn"], float(np.max(np.abs(HN0))))
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
        phi_sup=worst["phi"], tolerances=tol)


# -- manufactured families -------------------------------------------------

def trivial_sheet_state(grid: Grid, eos, *, p_plus=1.0, u2_jump=0.0,
                        H2_plus=1.0, H2_minus=1.0, S_plus=0.0,
                        S_minus=0.0) -> BasicState:
    """Piecewise-constant contact configuration with [q] = 0.

    u1 = H1 = 0 on both sides, flat front; the total-pressure balance fixes
    the minus-side pressure.  Satisfies every basic-state constraint
    exactly, stable or not depending on the field strength versus the
    tangential-velocity jump.
    """
    p_minus = p_plus + 0.5 * (H2_plus ** 2 - H2_minus ** 2)
    if p_minus <= 0:
        raise ValueError("total-pressure balance forces p- <= 0")
    U = np.zeros((2, NCOMP, grid.n1, grid.n2))
    for i, (p, u2, H2, S) in enumerate((
            (p_plus, +0.5 * u2_jump, H2_plus, S_plus),
            (p_minus, -0.5 * u2_jump, H2_minus, S_minus))):
        U[i, IP] = p
        U[i, IU2] = u2
        U[i, IH2] = H2
        U[i, IS] = S
    return BasicState(grid=grid, eos=eos, U=U, phi=np.zeros(grid.n2))


def sheared_sheet_state(grid: Grid, eos, rng=None, *, amplitude=0.15,
                        p_plus=1.5, u2_jump=0.3, H2_plus=1.5,
                        H2_minus=1.2) -> BasicState:
    """Non-constant manufactured basic state satisfying all constraints.

    Wall-normal shear profiles u2±(x1), H2±(x1) (u1 = H1 = 0, flat front)
    satisfy the transport identity and div h = 0 identically; pressure and
    entropy may vary in both variables without breaking any constraint.
    """
    rng = rng or np.random.default_rng(0)
    x1 = grid.x1[:, None]
    x2 = grid.x2[None, :]

    def prof():
        a, b, c = rng.uniform(-1, 1, 3)
        return (a * np.cos(np.pi * x1 / grid.L1)
                + b * np.sin(2 * np.pi * x1 / grid.L1) + 0.3 * c)

    U = np.zeros((2, NCOMP, grid.n1, grid.n2))
    for i, (p0, u20, H20) in enumerate(((p_plus, 0.5 * u2_jump, H2_plus),
                                        (p_plus + 0.5 * (H2_plus ** 2
                                                         - H2_minus ** 2),
                                         -0.5 * u2_jump, H2_minus))):
        U[i, IP] = p0 * (1.0 + amplitude * prof()
                         * np.cos(2 * np.pi * x2 / grid.L2)) + 0.0 * x2
        U[i, IU2] = u20 + amplitude * prof() + 0.0 * x2
        U[i, IH2] = H20 * (1.0 + amplitude * prof()) + 0.0 * x2
        U[i, IS] = amplitude * prof() * np.sin(2 * np.pi * x2 / grid.L2)
    return BasicState(grid=grid, eos=eos, U=U, phi=np.zeros(grid.n2))


# -- good unknown -----------------------------------------------------------

def good_unknown(deltaU: np.ndarray, psi: np.ndarray,
                 frame: BasicFrame) -> np.ndarray:
    """Udot = deltaU - (d1 U-hat / d1 Phi-hat) Psi, per side."""
    d1U = frame.grid.d1(frame.U)
    jac = frame.lifted.d1_phi_map
    if np.min(np.abs(jac)) < _JAC_TOL:
        raise ValueError("degenerate straightening Jacobian")
    return deltaU - d1U / jac[:, None] * psi[:, None]


def good_unknown_inverse(Udot: np.ndarray, psi: np.ndarray,
                         frame: BasicFrame) -> np.ndarray:
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

    def __init__(self, grid: Grid, eos, chi, tgrid: np.ndarray):
        self.grid = grid
        self.eos = eos
        self.chi = chi
        self.dt = float(tgrid[1] - tgrid[0])

    def _walk(self, U, phi):
        """Per snapshot of (U, phi): dtU, d1U, d2U, the front lift and the
        per-side straightened coefficients (A0, A1~, A2)."""
        g = self.grid
        dtU = diff_time(U, self.dt, axis=0, order=4)
        dtphi = diff_time(phi, self.dt, axis=0, order=4)
        for n in range(U.shape[0]):
            lifted = lift_front(phi[n], g, self.chi, dtphi[n])
            yield (dtU[n], g.d1(U[n]), g.d2(U[n]), lifted,
                   straightened_coefficients(U[n], lifted, self.eos))

    def nonlinear_L(self, U: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """L(U, Psi) = A0(U) dt U + A1~(U, Psi) d1 U + A2(U) d2 U."""
        out = np.empty_like(U)
        for n, (dtU, d1U, d2U, _, coeffs) in enumerate(self._walk(U, phi)):
            apply_L(coeffs, dtU, d1U, d2U, out[n])
        return out

    def increment(self, dU: np.ndarray, dphi: np.ndarray) -> tuple:
        """(dU, dt dU, d1 dU, d2 dU, lift of dphi) over the whole series:
        what every base point of ``linearized_L`` reads of the increment."""
        g, dt = self.grid, self.dt
        return (dU, diff_time(dU, dt, axis=0, order=4), g.d1(dU), g.d2(dU),
                lift_front(dphi, g, self.chi,
                           diff_time(dphi, dt, axis=0, order=4)))

    def linearized_L(self, Uhat: np.ndarray, phihat: np.ndarray, inc):
        """(L(Uhat), L'(Uhat)[dU, dphi]) at (Uhat, phihat), from one walk.

        ``inc`` is ``increment(dU, dphi)``.  With r1 = d1Uhat / d1Phihat
        and Psi the lift of dphi, the front increment shifts every
        derivative of dU:

            L' = A0 (dt dU - dtPsi r1) + A1~ (d1 dU - d1Psi r1)
                 + A2 (d2 dU - d2Psi r1) + C dU.
        """
        dU, dt_dU, d1_dU, d2_dU, dl = inc
        value = np.empty_like(Uhat)
        lin = np.empty_like(Uhat)
        for n, (dtU, d1U, d2U, lifted, coeffs) in enumerate(
                self._walk(Uhat, phihat)):
            C = c_matrix(Uhat[n], dtU, d1U, d2U, lifted, self.eos)
            r1 = d1U / lifted.d1_phi_map[:, None]
            apply_L(coeffs, dtU, d1U, d2U, value[n])
            apply_L(coeffs, dt_dU[n] - dl.dt_psi[:, n, None] * r1,
                    d1_dU[n] - dl.d1_psi[:, n, None] * r1,
                    d2_dU[n] - dl.d2_psi[:, n, None] * r1, lin[n])
            lin[n] += np.einsum("sij...,sj...->si...", C, dU[n])
        return value, lin

    def boundary_B(self, U: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Nonlinear wall operator: (dphi/dt - uN+, dphi/dt - uN-, [q])."""
        g = self.grid
        dtphi = diff_time(phi, self.dt, axis=0, order=4)
        d2phi = np.stack([g.d2_boundary(p) for p in phi])
        tr = U[:, :, :, 0, :]
        uN = tr[:, :, IU1] - tr[:, :, IU2] * d2phi[:, None, :]
        q = tr[:, :, IP] + 0.5 * (tr[:, :, IH1] ** 2 + tr[:, :, IH2] ** 2)
        return np.stack([dtphi - uN[:, 0], dtphi - uN[:, 1],
                         q[:, 0] - q[:, 1]], axis=1)

    def boundary_B_e_prime(self, Uhat, phihat, dUdot, dphi) -> np.ndarray:
        """Good-unknown wall operator at (Uhat, phihat): the linearized B
        applied to (dUdot, dphi) plus the zero-order front terms
        -dphi d1uN+, +dphi d1uN- and dphi (d1q+ + d1q-)."""
        g = self.grid
        dt_dphi = diff_time(dphi, self.dt, axis=0, order=4)
        d2_dphi = g.d2_boundary(dphi)
        d2phihat = g.d2_boundary(phihat)
        uN = Uhat[:, :, IU1] - Uhat[:, :, IU2] * d2phihat[:, None, None, :]
        q = Uhat[:, :, IP] + 0.5 * (Uhat[:, :, IH1] ** 2
                                    + Uhat[:, :, IH2] ** 2)
        d1uN = g.d1(uN)[..., 0, :]
        d1q = g.d1(q)[..., 0, :]
        trh = Uhat[:, :, :, 0, :]
        trd = dUdot[:, :, :, 0, :]
        duN = trd[:, :, IU1] - trd[:, :, IU2] * d2phihat[:, None, :]
        dq = trd[:, :, IP] + (trh[:, :, IH1] * trd[:, :, IH1]
                              + trh[:, :, IH2] * trd[:, :, IH2])
        return np.stack([
            dt_dphi + trh[:, 0, IU2] * d2_dphi - duN[:, 0] - dphi * d1uN[:, 0],
            dt_dphi + trh[:, 1, IU2] * d2_dphi - duN[:, 1] + dphi * d1uN[:, 1],
            dq[:, 0] - dq[:, 1] + dphi * (d1q[:, 0] + d1q[:, 1])], axis=1)


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
    d2psit = lift_front(frame.phit, frame.grid, frame.basic.chi).d2_psi
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
    """[m0 J, m1 J, m2 J, zc J + m1 d1J + m2 d2J + m0 dJ/dt] for one side,
    from N's entries ``off`` and their derivatives."""
    R = [_add_columns(m.copy(), m, off) for m in (m0, m1, m2, zc)]
    for m, doff in ((m1, d1off), (m2, d2off), (m0, dtoff)):
        _add_columns(R[3], m, doff)
    return R


class BoundaryStructureError(RuntimeError):
    """The boundary matrix failed to reduce to diag(E12, -E12)."""


@dataclass
class EffectiveOperators:
    """Calligraphic coefficient families of the characteristic system.

    A_k = J^T R_k for the right products R_k of ``_right_products``; the
    march applies M_k = A0c^{-1} A_kc = J^{-1} A0^{-1} R_k (k = 1, 2, 3)
    and ``A0invJt`` = A0c^{-1} J^T.  The ``B`` family, ``S`` and ``T``
    (given a multiplier field) enter the energy ledger.  Shapes are
    (2, 6, 6, n1, n2), and (2, 6, n1, n2) for ``T``.
    """

    J: np.ndarray
    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    M1: np.ndarray
    M2: np.ndarray
    M3: np.ndarray
    A0invJt: np.ndarray
    A1_boundary_residual: float
    B0: np.ndarray | None = None
    B1: np.ndarray | None = None
    B2: np.ndarray | None = None
    B3: np.ndarray | None = None
    S: np.ndarray | None = None
    T: np.ndarray | None = None


def assemble_effective(frame: BasicFrame, lam_field: np.ndarray | None = None,
                       *, boundary_tol: float | None = None
                       ) -> EffectiveOperators:
    """Assemble the characteristic-system coefficients at one time frame.

    A0^{-1} is the reciprocal of A0's diagonal, J^{-1} a back substitution
    and dJ/dt the frame's own rate (``_j_off``).  With ``lam_field``
    (2, n1, n2) the symmetrized family is assembled as well.
    ``boundary_tol`` turns on the wall-structure check: the boundary matrix
    must match diag(E12, -E12) entrywise, which only happens when the basic
    state honors the kinematic and magnetic wall constraints.
    """
    g = frame.grid
    eos = frame.eos
    off, dtoff = _j_off(frame, rates=True)
    d1off, d2off = g.d1(off), g.d2(off)
    C = c_matrix(frame.U, frame.Ut, g.d1(frame.U), g.d2(frame.U),
                 frame.lifted, eos)
    shape = (2, NCOMP, NCOMP, g.n1, g.n2)
    A = [np.empty(shape) for _ in range(4)]
    M = [np.empty(shape) for _ in range(4)]     # M1, M2, M3, A0invJt
    for i, (a0, a1t, a2) in enumerate(
            straightened_coefficients(frame.U, frame.lifted, eos)):
        R = _right_products(a0, a1t, a2, C[i], off[i], d1off[i], d2off[i],
                            dtoff[i])
        a0inv = 1.0 / np.einsum("kk...->k...", a0)[:, None]  # A0 is diagonal
        for k, r in enumerate(R[1:] + [_EYE]):
            M[k][i] = _j_inv_times(off[i], a0inv * r)
        for k in range(4):                      # R is spent here
            A[k][i] = _jt_times(off[i], R[k])

    target = np.zeros((2, NCOMP, NCOMP))
    target[0, IQ, IUN] = target[0, IUN, IQ] = 1.0
    target[1, IQ, IUN] = target[1, IUN, IQ] = -1.0
    res = float(np.max(np.abs(A[1][..., 0, :] - target[..., None])))
    if boundary_tol is not None and res > boundary_tol:
        raise BoundaryStructureError(
            f"boundary matrix off diag(E12,-E12) by {res:.3e}: the basic "
            "state violates a wall constraint (kinematic jump or H_N = 0)")

    ops = EffectiveOperators(j_matrix(frame), *A, *M,
                             A1_boundary_residual=res)
    if lam_field is not None:
        B = [np.empty(shape) for _ in range(4)]
        ops.S = np.empty(shape)
        ops.T = np.empty((2, NCOMP, g.n1, g.n2))
        for i in range(2):
            bundle = assemble_symmetrizer(frame.states[i], lam_field[i], eos)
            b1t = straighten(bundle.B0, bundle.B1, bundle.B2, frame.lifted, i)
            SC = np.einsum("ik...,kj...->ij...", bundle.S, C[i])
            R = _right_products(bundle.B0, b1t, bundle.B2, SC, off[i],
                                d1off[i], d2off[i], dtoff[i])
            for k in range(4):
                B[k][i] = _jt_times(off[i], R[k])
            ops.S[i], ops.T[i] = bundle.S, bundle.T
        ops.B0, ops.B1, ops.B2, ops.B3 = B
    return ops


# -- front derivative reconstruction ---------------------------------------

def reconstruct_front_derivatives(HN_plus, HN_minus, uN_plus, phi,
                                  traces: dict):
    """Recover (dphi/dt, d2 phi) from wall traces of the solution.

    d2 phi combines the two magnetic wall constraints weighted by H2±;
    dphi/dt then follows from the kinematic condition on the plus side.
    Fails when both H2± vanish somewhere (the stability precondition).
    """
    H2p, H2m = traces["H2p"], traces["H2m"]
    denom = H2p ** 2 + H2m ** 2
    if np.min(denom) < _SLOPE_TOL:
        raise ValueError("both H2 traces vanish: front slope unrecoverable")
    num = (H2p * HN_plus + H2m * HN_minus
           + (H2p * traces["d1HNp"] - H2m * traces["d1HNm"]) * phi)
    d2phi = num / denom
    dtphi = (uN_plus + phi * traces["d1uNp"] - traces["u2p"] * d2phi)
    return dtphi, d2phi


# -- boundary-data homogenization ------------------------------------------

def heun_march(rhs, y0, dts, nsub: int = 1) -> np.ndarray:
    """Heun's method over the intervals ``dts``, each cut into ``nsub`` steps.

    ``rhs(y, n, w)`` is the right-hand side at the fraction ``w`` in [0, 1]
    of interval ``n``.  Returns the solution at the len(dts) + 1 nodes.
    """
    out = np.empty((len(dts) + 1,) + np.shape(y0))
    out[0] = y0
    for n, dt in enumerate(dts):
        y = out[n]
        h = dt / nsub
        for s in range(nsub):
            k1 = rhs(y, n, s / nsub)
            k2 = rhs(y + h * k1, n, (s + 1) / nsub)
            y = y + 0.5 * h * (k1 + k2)
        out[n + 1] = y
    return out


def solve_g3_transport(basic: BasicState, G_source, tgrid,
                       side: int) -> np.ndarray:
    """March the boundary transport d/dt g3 + u2 d2 g3 + (d2 u2) g3 = G.

    ``G_source`` maps t to the source on the boundary grid; the solution
    vanishes in the past, so the march starts from zero.  Heun steps on the
    supplied time grid.
    """
    g = basic.grid
    i = 0 if side > 0 else 1

    def rhs(y, n, w):
        t = (1 - w) * tgrid[n] + w * tgrid[n + 1]      # exact at the nodes
        u2 = basic.frame(t).U[i, IU2, 0, :]
        du2 = g.d2_boundary(u2)
        return G_source(t) - u2 * g.d2_boundary(y) - du2 * y

    return heun_march(rhs, np.zeros(g.n2), np.diff(tgrid))


def solve_r_transport(basic: BasicState, F_source, tgrid, side: int) -> np.ndarray:
    """March the interior transport for the divergence variable R.

    d/dt R + (1/d1Phi) [ (w . grad) R + R div v ] = F, vanishing in the
    past; returns R snapshots (nt, n1, n2)."""
    g = basic.grid
    i = 0 if side > 0 else 1

    def rhs(y, n, w):
        t = (1 - w) * tgrid[n] + w * tgrid[n + 1]
        fr = basic.frame(t)
        _, _, v, wv, _ = transformed_vectors(fr.states[i], fr.lifted, side)
        divv = g.d1(v[0]) + g.d2(v[1])
        return F_source(t) - (wv[0] * g.d1(y) + v[1] * g.d2(y)
                              + y * divv) / fr.lifted.d1_phi_map[i]

    return heun_march(rhs, np.zeros((g.n1, g.n2)), np.diff(tgrid))


def homogenize_boundary(gdata: np.ndarray, f: np.ndarray, basic: BasicState,
                        tgrid: np.ndarray):
    """Absorb inhomogeneous boundary data into the interior forcing.

    ``gdata`` is (nt, 3, n2) = (g1+, g1-, g2) and ``f`` (nt, 2, 6, n1, n2),
    both vanishing in the past, on the uniform time grid ``tgrid``.  Builds
    the magnetic boundary datum g3± by transport, lifts the prescribed
    traces into the interior (u_N = -g1±, [q] = g2, H_N = -g3±, the free
    components set to zero), and returns (U-tilde snapshots, modified
    forcing F = f - L'_e U-tilde, g3).  L'_e is ``SheetOperators``'s, at the
    basic state's frames on ``tgrid``; its 4th-order time stencil needs
    nt >= 5.
    """
    g = basic.grid
    nt = len(tgrid)

    g3 = np.zeros((nt, 2, g.n2))
    for i, side in enumerate(SIDES):
        def G_source(t, i=i):
            k = int(np.clip(np.searchsorted(tgrid, t), 0, nt - 1))
            fr = basic.frame(t)
            H2 = fr.U[i, IH2, 0, :]
            fn = (f[k, i, IH1, 0, :]
                  - f[k, i, IH2, 0, :] * fr.lifted.d2_psi[i][0, :])
            return g.d2_boundary(H2 * gdata[k, i]) - fn
        g3[:, i] = solve_g3_transport(basic, G_source, tgrid, side)

    Uhat = np.empty((nt,) + f.shape[1:])
    phihat = np.empty((nt, g.n2))
    for n in range(nt):
        fr = basic.frame(tgrid[n])
        Uhat[n], phihat[n] = fr.U, fr.phi
    Ut = np.zeros_like(Uhat)
    Ut[:, :, IU1] = lift([-gdata[:, :2]], g)    # u2-tilde = 0, so u1 = u_n
    Ut[:, :, IH1] = lift([-g3], g)              # H2-tilde = 0, so H1 = H_n
    # p = q - H-hat . H-tilde, with the jump [q] = g2 put on the plus side
    Ut[:, :, IP] = -Uhat[:, :, IH1] * Ut[:, :, IH1]
    Ut[:, 0, IP] += lift([gdata[:, 2]], g)
    ops = SheetOperators(g, basic.eos, basic.chi, tgrid)
    F = f - ops.linearized_L(Uhat, phihat,
                             ops.increment(Ut, np.zeros_like(phihat)))[1]
    return Ut, F, g3
