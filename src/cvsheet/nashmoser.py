"""Nash-Moser iteration for the reformulated sheet problem.

Starting from zero, each step linearizes about a smooth modified state
(the smoothed iterate with its kinematic wall relation and magnetic
transport restored), solves the effective linear problem for the
good-unknown increment and front increment, undoes the Alinhac
substitution, and accumulates the linearization errors: literal operator
differences at the iterate V_i and the modified state V_{i+1/2},

    e'_i = calL(V_{i+1}) - calL(V_i) - L'(V_i)[dV_i, dpsi_i],
    e_i  = calL(V_{i+1}) - calL(V_i) - L'(V_{i+1/2})[dV_i, dpsi_i] + D dPsi_i,
    e~_i = B(V_{i+1}) - B(V_i) - B'_e(V_{i+1/2})[Udot_i, dpsi_i].

The paper's base changes e''_i + e'''_i (V_i -> S_theta V_i -> V_{i+1/2})
are folded into L'(V_i) - L'(V_{i+1/2}), not formed apart: reporting them
separately would need the linearization at S_theta V_i again.  calL(V_i)
and B(V_i) are carried in ``IterationState`` from the residual of step
i-1, so each operator value is computed once per iterate.  The source
updates keep the telescoping identities

    sum_{k<=i} f_k + S_{theta_i} E_i = S_{theta_i} F^a,
    sum_{k<=i} g_k + S_{theta_i} E~_i = 0

exact up to roundoff, so the interior residual after step i reduces to the
smoothing tail (I - S_{theta_i})(F^a - E_i) plus the fresh step errors.
The schedule theta_i = sqrt(theta_0^2 + i) keeps its decrements pinched:
1/(3 theta_i) <= theta_{i+1} - theta_i <= 1/(2 theta_i) for every i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compat import ApproxSolution, forcing_fa
from .evolve import NumericsError, cfl_timestep, evolve
from .front import (FrontField, apply_L, induction_advection, lift_front,
                    straightened_coefficients)
from .grid import Grid, diff_time
from .linearized import (SIDES, BasicState, bracket, c_matrix, heun_march,
                         j_matrix, validate_basic_state)
from .mhd import IH1, IH2, IP, IS, IU1, IU2
from .norms import lift
from .smoothing import Smoother

_STABILITY_K = 1e-4          # least stability margin of a modified state
_MODIFIED_STATE_TOL = 1e-6   # largest kinematic wall residual it may have
_TRANSPORT_SUBSTEPS = 2      # Heun substeps per snapshot of the H transport
_SNAPSHOT_TOL = 1e-9         # largest snapshot time error, in units of dt


@dataclass(frozen=True)
class ThetaSchedule:
    """theta_i = sqrt(theta_0^2 + i) with decrements pinched by 1/theta."""

    theta0: float = 2.0

    def __post_init__(self):
        if self.theta0 < 1.0:
            raise ValueError("theta0 must be >= 1")

    def theta(self, i):
        return np.sqrt(self.theta0 ** 2 + np.asarray(i, dtype=float))

    def bounds_hold(self, i_max: int) -> bool:
        i = np.arange(i_max + 1, dtype=float)
        th = self.theta(i)
        de = np.sqrt(th ** 2 + 1.0) - th
        return bool(np.all(de >= 1.0 / (3.0 * th))
                    and np.all(de <= 1.0 / (2.0 * th)))


# -- operators on snapshot series -------------------------------------------


class SheetOperators:
    """Straightened-domain operators evaluated on snapshot series.

    Fields: U is (nt, 2, 6, n1, n2), phi is (nt, n2); time derivatives come
    from the stored history, so every operator application here uses the
    same discrete stencils and the error decompositions below are literal
    operator differences, exact up to floating point.
    """

    def __init__(self, grid: Grid, eos, chi, tgrid: np.ndarray):
        self.grid = grid
        self.eos = eos
        self.chi = chi
        self.tgrid = np.asarray(tgrid, dtype=float)
        self.dt = float(tgrid[1] - tgrid[0])

    def _lift(self, phi, phit):
        return lift_front(FrontField(phi=phi, grid=self.grid, dphi_t=phit),
                          self.chi)

    def _walk(self, U, phi):
        """Per snapshot of (U, phi): dtU, d1U, d2U, the front lift and the
        per-side straightened coefficients (A0, A1~, A2)."""
        g = self.grid
        dtU = diff_time(U, self.dt, axis=0, order=4)
        dtphi = diff_time(phi, self.dt, axis=0, order=4)
        for n in range(U.shape[0]):
            lifted = self._lift(phi[n], dtphi[n])
            yield (dtU[n], g.d1(U[n]), g.d2(U[n]), lifted,
                   straightened_coefficients(U[n], lifted, self.eos))

    def nonlinear_L(self, U: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """L(U, Psi) = A0(U) dt U + A1~(U, Psi) d1 U + A2(U) d2 U."""
        out = np.empty_like(U)
        for n, (dtU, d1U, d2U, _, coeffs) in enumerate(self._walk(U, phi)):
            for i, co in enumerate(coeffs):
                out[n, i] = apply_L(co, dtU[i], d1U[i], d2U[i])
        return out

    def increment(self, dU: np.ndarray, dphi: np.ndarray) -> tuple:
        """(dU, dt dU, d1 dU, d2 dU, lift of dphi) over the whole series:
        what every base point of ``linearized_L`` reads of the increment."""
        g, dt = self.grid, self.dt
        return (dU, diff_time(dU, dt, axis=0, order=4), g.d1(dU), g.d2(dU),
                self._lift(dphi, diff_time(dphi, dt, axis=0, order=4)))

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
            C = c_matrix(Uhat[n], dtU, lifted, self.eos)
            r1 = d1U / lifted.d1_phi_map[:, None]
            for i, co in enumerate(coeffs):
                value[n, i] = apply_L(co, dtU[i], d1U[i], d2U[i])
                lin[n, i] = (
                    apply_L(co, dt_dU[n, i] - dl.dt_psi[i, n] * r1[i],
                            d1_dU[n, i] - dl.d1_psi[i, n] * r1[i],
                            d2_dU[n, i] - dl.d2_psi[i, n] * r1[i])
                    + np.einsum("ij...,j...->i...", C[i], dU[n, i]))
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


# -- iteration ----------------------------------------------------------------


@dataclass
class IterationState:
    i: int
    V: np.ndarray            # (nt, 2, 6, n1, n2), U-space iterate
    psi: np.ndarray          # (nt, n2)
    E: np.ndarray            # accumulated interior error
    Etilde: np.ndarray       # accumulated boundary error (nt, 3, n2)
    f_sum: np.ndarray
    g_sum: np.ndarray
    calL: np.ndarray         # calL(V, psi), carried from the residual
    B: np.ndarray            # B(U^a + V, phi^a + psi), likewise
    history: list = field(default_factory=list)


@dataclass
class NashMoserConfig:
    theta0: float = 2.0
    iterations: int = 6


class ModifiedStateError(RuntimeError):
    pass


class NashMoserDriver:
    """Orchestrates the iteration around one approximate solution."""

    def __init__(self, approx: ApproxSolution, tgrid,
                 config: NashMoserConfig | None = None,
                 fa_scale: float = 1.0):
        self.approx = approx
        self.config = config or NashMoserConfig()
        data = approx.jet.data
        self.grid: Grid = data.grid
        self.eos = data.eos
        self.chi = data.chi
        self.tgrid = np.asarray(tgrid, dtype=float)
        self.nt = len(self.tgrid)
        self.dt = float(self.tgrid[1] - self.tgrid[0])
        self.ops = SheetOperators(self.grid, self.eos, self.chi, self.tgrid)
        self.Ua = np.stack([approx.u(t) for t in self.tgrid])
        self.phia = np.stack([approx.phi(t) for t in self.tgrid])
        Ffun = forcing_fa(approx)
        self.Fa = fa_scale * np.stack([Ffun(t) for t in self.tgrid])
        self.schedule = ThetaSchedule(theta0=self.config.theta0)
        T = float(self.tgrid[-1])
        self.smoother = Smoother(self.grid, self.nt, T)
        self.smoother_tan = Smoother(self.grid, self.nt, T, axes=("t", "x2"))
        self._chi_profile = np.stack([self.chi.value(self.grid.x1),
                                      self.chi.value(-self.grid.x1)])
        self._La_cache = None

    # -- small utilities ------------------------------------------------------

    def fresh_state(self) -> IterationState:
        z = np.zeros((self.nt, 2, 6, self.grid.n1, self.grid.n2))
        zb = np.zeros((self.nt, 3, self.grid.n2))
        return IterationState(i=0, V=z, psi=np.zeros((self.nt, self.grid.n2)),
                              E=z.copy(), Etilde=zb.copy(), f_sum=z.copy(),
                              g_sum=zb.copy(), calL=z.copy(),
                              B=self.ops.boundary_B(self.Ua, self.phia))

    def lift_psi(self, psi: np.ndarray) -> np.ndarray:
        """Psi± = chi(±x1) psi: (nt, 2, n1, n2)."""
        return psi[:, None, None, :] * self._chi_profile[None, :, :, None]

    def smooth_field(self, u: np.ndarray, theta: float) -> np.ndarray:
        """Full S_theta applied component-wise over leading axes."""
        nt = u.shape[0]
        flat = np.moveaxis(u.reshape(nt, -1, self.grid.n1, self.grid.n2),
                           1, 0)
        sm = np.stack([self.smoother(c, theta) for c in flat])
        return np.moveaxis(sm, 0, 1).reshape(u.shape)

    def smooth_boundary(self, gb: np.ndarray, theta: float) -> np.ndarray:
        """Tangential S_theta on boundary fields (nt, n2) or (nt, c, n2)."""
        if gb.ndim == 2:
            return self.smoother_tan(gb[:, None, :], theta)[:, 0, :]
        out = np.empty_like(gb)
        for c in range(gb.shape[1]):
            out[:, c] = self.smoother_tan(gb[:, c][:, None, :], theta)[:, 0, :]
        return out

    def _l2_spacetime(self, u) -> float:
        g = self.grid
        return float(np.sqrt(np.sum(u ** 2) * g.h1 * g.h2 * self.dt))

    def _l2_boundary(self, b) -> float:
        return float(np.sqrt(np.sum(b ** 2) * self.grid.h2 * self.dt))

    @property
    def La(self) -> np.ndarray:
        """The nonlinear operator at the approximate solution (cached)."""
        if self._La_cache is None:
            self._La_cache = self.ops.nonlinear_L(self.Ua, self.phia)
        return self._La_cache

    def calL(self, V: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Reformulated operator: L(U^a + V) - L(U^a)."""
        return self.ops.nonlinear_L(self.Ua + V, self.phia + psi) - self.La

    # -- modified state ---------------------------------------------------------

    def modified_state(self, state: IterationState, theta: float):
        """Smooth, wall-consistent, transport-consistent intermediate state.

        psi, p, u2, S come from smoothing; u1 gains a lifted wall correction
        making the summed state satisfy the kinematic relation exactly on
        the wall; H solves the induction transport of the summed state (no
        wall condition needed: the normal coefficient vanishes there by the
        kinematic relation just enforced).  Returns the validated summed
        state (U^a + V_{i+1/2}, phi^a + psi_{i+1/2}).
        """
        g = self.grid
        nt = self.nt
        phi_half = self.phia + self.smooth_boundary(state.psi, theta)
        SV = self.smooth_field(state.V, theta)
        Vh = np.zeros_like(state.V)
        for comp in (IP, IU2, IS):
            Vh[:, :, comp] = SV[:, :, comp]

        dtfull = diff_time(phi_half, self.dt, axis=0)
        d2full = np.stack([g.d2_boundary(p) for p in phi_half])
        for i in range(2):
            u1s = SV[:, i, IU1]
            u2tot = self.Ua[:, i, IU2, 0, :] + Vh[:, i, IU2, 0, :]
            G = (dtfull - (self.Ua[:, i, IU1, 0, :] + u1s[:, 0, :])
                 + u2tot * d2full)
            corr = np.stack([lift([G[n]], g).values for n in range(nt)])
            Vh[:, i, IU1] = u1s + corr

        Hfull = self._transport_H(Vh, phi_half)
        Vh[:, :, IH1] = Hfull[:, :, 0] - self.Ua[:, :, IH1]
        Vh[:, :, IH2] = Hfull[:, :, 1] - self.Ua[:, :, IH2]

        basic = BasicState(grid=g, eos=self.eos, U=self.Ua + Vh, phi=phi_half,
                           tgrid=self.tgrid, chi=self.chi)
        self._check_modified(basic)
        return basic

    def _transport_H(self, Vh, phi_f):
        """March the induction transport for H' = H^a + H_{i+1/2}."""
        g = self.grid
        dtphi_f = diff_time(phi_f, self.dt, axis=0)
        u_f = self.Ua[:, :, (IU1, IU2)] + Vh[:, :, (IU1, IU2)]
        H0 = np.stack([self.Ua[0, :, IH1], self.Ua[0, :, IH2]], axis=1)

        def rhs(Hn, n, w):
            # the summed state, linear in time between snapshots n and n+1
            phi = (1 - w) * phi_f[n] + w * phi_f[n + 1]
            dtphi = (1 - w) * dtphi_f[n] + w * dtphi_f[n + 1]
            u = (1 - w) * u_f[n] + w * u_f[n + 1]
            lifted = lift_front(FrontField(phi=phi, grid=g, dphi_t=dtphi),
                                self.chi)
            return np.stack([-induction_advection(u[i], Hn[i], lifted, side)
                             for i, side in enumerate(SIDES)])

        H = heun_march(rhs, H0, [self.dt] * (self.nt - 1), _TRANSPORT_SUBSTEPS)
        if not np.all(np.isfinite(H)):
            raise NumericsError("magnetic transport solve diverged")
        return H

    def _check_modified(self, basic: BasicState):
        tol = _MODIFIED_STATE_TOL
        stride = max(self.nt // 6, 1)
        rep = validate_basic_state(basic, times=self.tgrid[1:-1:stride])
        if rep.hyperbolicity_margin <= 0:
            raise ModifiedStateError("hyperbolicity lost in modified state")
        if rep.stability_margin < _STABILITY_K:
            raise ModifiedStateError("stability margin lost in modified state")
        if rep.jump_residual > tol:
            raise ModifiedStateError(
                f"kinematic wall residual {rep.jump_residual:.2e} > {tol:.0e}")
        self.last_modified_report = rep

    # -- one step ----------------------------------------------------------------

    def step(self, state: IterationState) -> IterationState:
        g = self.grid
        nt = self.nt
        i = state.i
        theta = float(self.schedule.theta(i))

        basic = self.modified_state(state, theta)

        # sources from the telescoping identities
        f_i = self.smooth_field(self.Fa - state.E, theta) - state.f_sum
        g_i = -self.smooth_boundary(state.Etilde, theta) - state.g_sum

        substeps = max(int(np.ceil(self.dt / cfl_timestep(basic))), 1)
        # no sponge: the iteration's truth is the discrete operator itself,
        # and the absorbing layer is not part of it
        traj = evolve(basic, t_final=float(self.tgrid[-1]),
                      forcing=_SnapshotInterpolant(self.tgrid, f_i),
                      bdata=_SnapshotInterpolant(self.tgrid, g_i),
                      ledger=False, snapshot_times=self.tgrid,
                      dt_override=self.dt / substeps, sponge_strength=0.0)
        dVdot_char = traj.snapshots
        if (dVdot_char.shape[0] != nt or np.max(np.abs(
                traj.snapshot_times - self.tgrid)) > _SNAPSHOT_TOL * self.dt):
            raise NumericsError("snapshot times of the solve are not tgrid")
        dpsi = traj.phi[np.searchsorted(traj.times, traj.snapshot_times)]

        # undo the characteristic change and Alinhac substitution
        dUdot = np.empty_like(dVdot_char)
        jac = np.empty((nt, 2, 1, g.n1, g.n2))       # d1Phi± per snapshot
        for n, t in enumerate(self.tgrid):
            fr = basic.frame(t)
            dUdot[n] = np.einsum("sij...,sj...->si...", j_matrix(fr),
                                 dVdot_char[n])
            jac[n, :, 0] = fr.lifted.d1_phi_map
        dPsi = self.lift_psi(dpsi)[:, :, None]
        dV = dUdot + g.d1(basic.U) / jac * dPsi

        V_next = state.V + dV
        psi_next = state.psi + dpsi
        calL_next = self.calL(V_next, psi_next)
        B_next = self.ops.boundary_B(self.Ua + V_next, self.phia + psi_next)

        e, e1, etilde = self._error_terms(state, basic, dV, dpsi, dUdot,
                                          dPsi / jac, calL_next, B_next)
        f_sum = state.f_sum + f_i
        g_sum = state.g_sum + g_i

        # bookkeeping identities, recomputed from scratch
        book_i = np.max(np.abs(f_sum + self.smooth_field(state.E, theta)
                               - self.smooth_field(self.Fa, theta)))
        book_b = np.max(np.abs(g_sum
                               + self.smooth_boundary(state.Etilde, theta)))

        new = IterationState(i=i + 1, V=V_next, psi=psi_next, E=state.E + e,
                             Etilde=state.Etilde + etilde, f_sum=f_sum,
                             g_sum=g_sum, calL=calL_next, B=B_next,
                             history=state.history)
        new.history.append({
            "i": i,
            "theta": theta,
            "residual_interior": self._l2_spacetime(calL_next - self.Fa),
            "residual_boundary": self._l2_boundary(B_next),
            "delta_v_norm": self._l2_spacetime(dV),
            "delta_psi_norm": float(np.sqrt(np.sum(dpsi ** 2) * g.h2
                                            * self.dt)),
            "bookkeeping_residual": float(max(book_i, book_b)),
            "eprime_norm": self._l2_spacetime(e1),
        })
        return new

    def _error_terms(self, state, basic, dV, dpsi, dUdot, shift,
                     calL_next, B_next):
        """Literal operator-difference errors of one step: (e, e', e~).

        ``shift`` d1 L(V_{i+1/2}) is the D-term, with shift = dPsi / d1Phi
        at the modified state: the front term the linear solve drops.
        """
        ops = self.ops
        inc = ops.increment(dV, dpsi)
        _, lin0 = ops.linearized_L(self.Ua + state.V, self.phia + state.psi,
                                   inc)
        L_half, lin_half = ops.linearized_L(basic.U, basic.phi, inc)
        dcalL = calL_next - state.calL
        e1 = dcalL - lin0
        e = dcalL - lin_half + shift * self.grid.d1(L_half)
        etilde = (B_next - state.B) - ops.boundary_B_e_prime(
            basic.U, basic.phi, dUdot, dpsi)
        return e, e1, etilde

    # -- full run -----------------------------------------------------------------

    def run(self, iterations: int | None = None) -> dict:
        """Iterate until the residual stalls or the budget runs out."""
        n_iter = iterations or self.config.iterations
        state = self.fresh_state()
        r0 = self._l2_spacetime(self.Fa)
        increases = 0
        prev = r0
        stopped_early = False
        for _ in range(n_iter):
            state = self.step(state)
            r = state.history[-1]["residual_interior"]
            if r > prev:
                increases += 1
                if increases >= 3:
                    stopped_early = True
                    break
            else:
                increases = 0
            prev = r
        return {
            "initial_residual": r0,
            "history": state.history,
            "final_residual": state.history[-1]["residual_interior"],
            "residuals": [h["residual_interior"] for h in state.history],
            "stopped_early": stopped_early,
        }


class _SnapshotInterpolant:
    """Linear-in-time interpolation of snapshot data for the solver."""

    def __init__(self, tgrid, values):
        self.tgrid = np.asarray(tgrid, dtype=float)
        self.values = values

    def __call__(self, t: float):
        k, w = bracket(self.tgrid, t)
        return (1 - w) * self.values[k] + w * self.values[k + 1]
