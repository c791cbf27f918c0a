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

The straightened coefficients (A0, A1~, A2) and their apply come from
``cvsheet.front``; ``heun_march`` is the one time marcher of the
boundary, divergence and magnetic transport solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .front import (FrontField, LiftedFront, apply_L, induction_advection,
                    lift_front, straighten, straightened_coefficients,
                    transformed_vectors)
from .grid import Grid, diff_time
from .mhd import (IH1, IH2, IP, IS, IU1, IU2, NCOMP, PhysState,
                  _require_admissible)
from .profiles import CutoffChi, make_cutoff
from .stability import LambdaPair, build_lambda, check_stability

#: characteristic components of V
IQ, IUN, IU2V, IHN, IH2V, ISV = range(6)

SIDES = (+1, -1)


def _mat_apply(M, v):
    return np.einsum("ij...,j...->i...", M, v)


def _mat_mul(A, B):
    return np.einsum("ik...,kj...->ij...", A, B)


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
    chi: CutoffChi = field(default_factory=make_cutoff)

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
        front = FrontField(phi=phi, grid=basic.grid, dphi_t=phit)
        self.lifted: LiftedFront = lift_front(front, basic.chi)
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

    def lambda_boundary(self, k: float = 1e-3) -> LambdaPair:
        plus = PhysState.from_vector(self.U[0, :, 0, :], side=+1)
        minus = PhysState.from_vector(self.U[1, :, 0, :], side=-1)
        return build_lambda(plus, minus, self.eos, k=k)


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


def validate_basic_state(basic: BasicState, tolerances: dict | None = None,
                         times=None) -> ValidationReport:
    """Residuals of every constraint the linearization assumes.

    Checks the hyperbolicity and stability margins, the kinematic wall
    condition, the magnetic transport identity, div h = 0, H_N = 0 at the
    wall, and the front smallness; the report carries worst-case values
    over the sampled times.
    """
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
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
                        H2_plus=1.0, H2_minus=1.0, S_plus=0.0, S_minus=0.0,
                        chi: CutoffChi | None = None) -> BasicState:
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
    return BasicState(grid=grid, eos=eos, U=U, phi=np.zeros(grid.n2),
                      chi=chi or make_cutoff())


def sheared_sheet_state(grid: Grid, eos, rng=None, *, amplitude=0.15,
                        p_plus=1.5, u2_jump=0.3, H2_plus=1.5, H2_minus=1.2,
                        chi: CutoffChi | None = None) -> BasicState:
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
    return BasicState(grid=grid, eos=eos, U=U, phi=np.zeros(grid.n2),
                      chi=chi or make_cutoff())


# -- good unknown -----------------------------------------------------------

def good_unknown(deltaU: np.ndarray, psi: np.ndarray, frame: BasicFrame,
                 jac_tol: float = 1e-3) -> np.ndarray:
    """Udot = deltaU - (d1 U-hat / d1 Phi-hat) Psi, per side."""
    d1U = frame.grid.d1(frame.U)
    jac = frame.lifted.d1_phi_map
    if np.min(np.abs(jac)) < jac_tol:
        raise ValueError("degenerate straightening Jacobian")
    return deltaU - d1U / jac[:, None] * psi[:, None]


def good_unknown_inverse(Udot: np.ndarray, psi: np.ndarray,
                         frame: BasicFrame) -> np.ndarray:
    d1U = frame.grid.d1(frame.U)
    jac = frame.lifted.d1_phi_map
    return Udot + d1U / jac[:, None] * psi[:, None]


# -- zero-order coefficient -------------------------------------------------

def c_matrix(U: np.ndarray, Ut: np.ndarray, lifted: LiftedFront,
             eos) -> np.ndarray:
    """Zero-order matrix of the linearization, per side: (2, 6, 6, n1, n2).

    C_{kl} = sum_m [dA0/dy_l]_{km} dtU_m + [dA1~/dy_l]_{km} d1U_m
             + [dA2/dy_l]_{km} d2U_m at the state ``U`` with rate ``Ut``.
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
    rho, rho_p = _require_admissible(PhysState.from_vector(U.swapaxes(0, 1)),
                                     eos)
    p, S = U[:, IP], U[:, IS]
    rho_S = eos.density_dS(p, S)
    g = rho_p / rho
    g_p = (eos.density_dpp(p, S) * rho - rho_p ** 2) / rho ** 2
    g_S = (eos.density_dpS(p, S) * rho - rho_p * rho_S) / rho ** 2
    r1 = grid.d1(U) / lifted.d1_phi_map[:, None]
    r0 = Ut - lifted.dt_psi[:, None] * r1
    r2 = grid.d2(U) - lifted.d2_psi[:, None] * r1
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


#: the off-diagonal entries (row, column) of J = I + N; all others vanish
_J_OFF = ((IP, IHN), (IP, IH2V), (IU1, IU2V), (IH1, IH2V))


def j_matrix(frame: BasicFrame) -> np.ndarray:
    """Characteristic change of unknown Udot = J V, per side.

    J is the identity plus the four entries at ``_J_OFF``: -H1, -H_tau,
    d2Psi and d2Psi.
    """
    g = frame.grid
    J = np.zeros((2, NCOMP, NCOMP, g.n1, g.n2))
    for i in range(2):
        d2psi = np.broadcast_to(frame.lifted.d2_psi[i], (g.n1, g.n2))
        H1 = frame.U[i, IH1]
        Htau = H1 * d2psi + frame.U[i, IH2]
        for k in range(NCOMP):
            J[i, k, k] = 1.0
        for (r, c), v in zip(_J_OFF, (-H1, -Htau, d2psi, d2psi)):
            J[i, r, c] = v
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


def _times_j(m, off):
    """m J for J = I + N with N's entries ``off`` at ``_J_OFF``: columns."""
    out = m.copy()
    for c, col in _off_columns(np.swapaxes(m, 0, 1), off).items():
        out[:, c] = col + m[:, c]
    return out


def _jt_times(off, m):
    """J^T m for J = I + N with N's entries ``off`` at ``_J_OFF``: rows,
    updated in place in ``m``, which is returned."""
    for c, row in _off_columns(m, off).items():
        m[c] += row
    return m


class BoundaryStructureError(RuntimeError):
    """The boundary matrix failed to reduce to diag(E12, -E12)."""


@dataclass
class EffectiveOperators:
    """Calligraphic coefficient families of the characteristic system.

    ``A`` matrices drive the evolution; the ``B`` family (present when a
    multiplier field was supplied) is the symmetrized version entering the
    energy ledger.  Shapes are (2, 6, 6, n1, n2).
    """

    frame: BasicFrame
    J: np.ndarray
    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    A1_boundary_residual: float
    B0: np.ndarray | None = None
    B1: np.ndarray | None = None
    B2: np.ndarray | None = None
    B3: np.ndarray | None = None
    S: np.ndarray | None = None


def _conjugate(g: Grid, m0, m1, m2, zc, J, dJdt, out, i: int) -> None:
    """Side ``i`` of one characteristic family, written into ``out[0..3]``.

    J^T m0 J, J^T m1 J, J^T m2 J and the zero-order
    J^T (zc J + m1 d1J + m2 d2J + m0 dJ/dt) for side i's straightened
    triple (m0, m1, m2) and state-derivative term ``zc``.  J's diagonal
    is 1 and stays 1, so only its four entries at ``_J_OFF`` are read and
    differentiated, and they enter as column and row updates.
    """
    Joff = np.stack([J[i, r, c] for r, c in _J_OFF])
    d1off, d2off = g.d1(Joff), g.d2(Joff)
    dtoff = (None if dJdt is None
             else np.stack([dJdt[i, r, c] for r, c in _J_OFF]))
    for k, m in enumerate((m0, m1, m2)):
        out[k][i] = _jt_times(Joff, _times_j(m, Joff))
    inner = _times_j(zc, Joff)
    for m, off in ((m1, d1off), (m2, d2off), (m0, dtoff)):
        if off is not None:
            for c, col in _off_columns(np.swapaxes(m, 0, 1), off).items():
                inner[:, c] += col
    out[3][i] = _jt_times(Joff, inner)


def assemble_effective(frame: BasicFrame, lam_field: np.ndarray | None = None,
                       *, boundary_tol: float | None = None,
                       dJdt: np.ndarray | None = None) -> EffectiveOperators:
    """Assemble the characteristic-system coefficients at one time frame.

    With ``lam_field`` (2, n1, n2) the symmetrized family is assembled as
    well.  ``boundary_tol`` turns on the wall-structure check: the boundary
    matrix must match diag(E12, -E12) entrywise, which only happens when
    the basic state honors the kinematic and magnetic wall constraints.
    """
    g = frame.grid
    eos = frame.eos
    J = j_matrix(frame)
    C = c_matrix(frame.U, frame.Ut, frame.lifted, eos)
    A = [np.empty((2, NCOMP, NCOMP, g.n1, g.n2)) for _ in range(4)]
    for i, (a0, a1t, a2) in enumerate(
            straightened_coefficients(frame.U, frame.lifted, eos)):
        _conjugate(g, a0, a1t, a2, C[i], J, dJdt, A, i)

    target = np.zeros((2, NCOMP, NCOMP))
    target[0, IQ, IUN] = target[0, IUN, IQ] = 1.0
    target[1, IQ, IUN] = target[1, IUN, IQ] = -1.0
    res = float(np.max(np.abs(A[1][..., 0, :] - target[..., None])))
    if boundary_tol is not None and res > boundary_tol:
        raise BoundaryStructureError(
            f"boundary matrix off diag(E12,-E12) by {res:.3e}: the basic "
            "state violates a wall constraint (kinematic jump or H_N = 0)")

    ops = EffectiveOperators(frame, J, *A, A1_boundary_residual=res)
    if lam_field is not None:
        from .stability import assemble_symmetrizer
        B = [np.empty_like(J) for _ in range(4)]
        ops.S = np.empty_like(J)
        for i in range(2):
            bundle = assemble_symmetrizer(frame.states[i], lam_field[i], eos)
            b1t = straighten(bundle.B0, bundle.B1, bundle.B2, frame.lifted, i)
            _conjugate(g, bundle.B0, b1t, bundle.B2,
                       _mat_mul(bundle.S, C[i]), J, dJdt, B, i)
            ops.S[i] = bundle.S
        ops.B0, ops.B1, ops.B2, ops.B3 = B
    return ops


# -- front derivative reconstruction ---------------------------------------

def reconstruct_front_derivatives(HN_plus, HN_minus, uN_plus, phi,
                                  traces: dict, tol: float = 1e-12):
    """Recover (dphi/dt, d2 phi) from wall traces of the solution.

    d2 phi combines the two magnetic wall constraints weighted by H2±;
    dphi/dt then follows from the kinematic condition on the plus side.
    Fails when both H2± vanish somewhere (the stability precondition).
    """
    H2p, H2m = traces["H2p"], traces["H2m"]
    denom = H2p ** 2 + H2m ** 2
    if np.min(denom) < tol:
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


def solve_g3_transport(basic: BasicState, G_source, tgrid, side: int,
                       g0=None) -> np.ndarray:
    """March the boundary transport d/dt g3 + u2 d2 g3 + (d2 u2) g3 = G.

    ``G_source`` maps t to the source on the boundary grid; the solution
    vanishes in the past (g0 defaults to zero).  Heun steps on the supplied
    time grid.
    """
    g = basic.grid
    i = 0 if side > 0 else 1

    def rhs(y, n, w):
        t = (1 - w) * tgrid[n] + w * tgrid[n + 1]      # exact at the nodes
        u2 = basic.frame(t).U[i, IU2, 0, :]
        du2 = g.d2_boundary(u2)
        return G_source(t) - u2 * g.d2_boundary(y) - du2 * y

    y0 = np.zeros(g.n2) if g0 is None else g0
    return heun_march(rhs, y0, np.diff(tgrid))


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
    both vanishing in the past.  Builds the magnetic boundary datum g3± by
    transport, lifts the prescribed traces into the interior (u_N = -g1±,
    [q] = g2, H_N = -g3±, the free components set to zero), and returns
    (U-tilde snapshots, modified forcing F = f - L'_e U-tilde, g3).
    """
    from .norms import lift
    g = basic.grid
    nt = len(tgrid)

    g3 = np.zeros((nt, 2, g.n2))
    for i, side in enumerate(SIDES):
        def G_source(t, i=i):
            k = int(np.clip(np.searchsorted(tgrid, t), 0, nt - 1))
            fr = basic.frame(t)
            H2 = fr.U[i, IH2, 0, :]
            fn = (f[k, i, IH1, 0, :]
                  - f[k, i, IH2, 0, :] * basic.frame(t).lifted.d2_psi[i][0, :])
            return g.d2_boundary(H2 * gdata[k, i]) - fn
        g3[:, i] = solve_g3_transport(basic, G_source, tgrid, side)

    Ut = np.zeros((nt,) + f.shape[1:])
    for n in range(nt):
        fr = basic.frame(tgrid[n])
        for i in range(2):
            un = lift([-gdata[n, i]], g).values
            hn = lift([-g3[n, i]], g).values
            qv = lift([gdata[n, 2] if i == 0 else np.zeros(g.n2)], g).values
            d2psi = fr.lifted.d2_psi[i]
            Ut[n, i, IU1] = un           # u2-tilde = 0, so u1 = u_n
            Ut[n, i, IH1] = hn           # H2-tilde = 0, so H1 = H_n
            Ut[n, i, IP] = qv - fr.U[i, IH1] * hn # p = q - H-hat . H-tilde
    F = f - apply_effective_operator(basic, Ut, tgrid)
    return Ut, F, g3


def apply_effective_operator(basic: BasicState, Udot: np.ndarray,
                             tgrid: np.ndarray) -> np.ndarray:
    """L'_e applied to snapshot fields: A0 dt + A1~ d1 + A2 d2 + C."""
    g = basic.grid
    nt = len(tgrid)
    dt = float(tgrid[1] - tgrid[0]) if nt > 1 else 1.0
    dtU = diff_time(Udot, dt, axis=0) if nt > 1 else np.zeros_like(Udot)
    out = np.empty_like(Udot)
    for n in range(nt):
        fr = basic.frame(tgrid[n])
        C = c_matrix(fr.U, fr.Ut, fr.lifted, basic.eos)
        for i, co in enumerate(
                straightened_coefficients(fr.U, fr.lifted, basic.eos)):
            out[n, i] = (apply_L(co, dtU[n, i], g.d1(Udot[n, i]),
                                 g.d2(Udot[n, i]))
                         + _mat_apply(C[i], Udot[n, i]))
    return out
