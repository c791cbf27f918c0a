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
from .front import induction_advection, lift_front
from .grid import Grid, diff_time
# c_matrix is bound here for perfbench, whose tracer test checks that the
# re-imported binding shares one wrapper
from .linearized import (SIDES, BasicState, SheetOperators, bracket,
                         c_matrix, good_unknown_inverse, heun_march,
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
        self._La_cache = None

    # -- small utilities ------------------------------------------------------

    def fresh_state(self) -> IterationState:
        z = np.zeros((self.nt, 2, 6, self.grid.n1, self.grid.n2))
        zb = np.zeros((self.nt, 3, self.grid.n2))
        return IterationState(i=0, V=z, psi=np.zeros((self.nt, self.grid.n2)),
                              E=z.copy(), Etilde=zb.copy(), f_sum=z.copy(),
                              g_sum=zb.copy(), calL=z.copy(),
                              B=self.ops.boundary_B(self.Ua, self.phia))

    def smooth_field(self, u: np.ndarray, theta: float) -> np.ndarray:
        """Full S_theta of every component of a (nt, ..., n1, n2) series."""
        return np.moveaxis(self.smoother(np.moveaxis(u, 0, -3), theta), -3, 0)

    def smooth_boundary(self, gb: np.ndarray, theta: float) -> np.ndarray:
        """Tangential S_theta on boundary fields (nt, n2) or (nt, c, n2)."""
        u = np.moveaxis(gb, 0, -2)[..., None, :]      # (..., nt, 1, n2)
        return np.moveaxis(self.smoother_tan(u, theta)[..., 0, :], -2, 0)

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
        phi_half = self.phia + self.smooth_boundary(state.psi, theta)
        SV = self.smooth_field(state.V, theta)
        Vh = np.zeros_like(state.V)
        for comp in (IP, IU2, IS):
            Vh[:, :, comp] = SV[:, :, comp]

        # the wall residual G of each side, (nt, 2, n2), lifted in one call
        dtfull = diff_time(phi_half, self.dt, axis=0)[:, None]
        d2full = g.d2_boundary(phi_half)[:, None]
        u2tot = self.Ua[:, :, IU2, 0, :] + Vh[:, :, IU2, 0, :]
        G = (dtfull - (self.Ua[:, :, IU1, 0, :] + SV[:, :, IU1, 0, :])
             + u2tot * d2full)
        Vh[:, :, IU1] = SV[:, :, IU1] + lift([G], g)

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
            lifted = lift_front(phi, g, self.chi, dtphi)
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
                      ledger=False, monitors=False,
                      snapshot_times=self.tgrid,
                      dt_override=self.dt / substeps, sponge_strength=0.0)
        dVdot_char = traj.snapshots
        if (dVdot_char.shape[0] != nt or np.max(np.abs(
                traj.snapshot_times - self.tgrid)) > _SNAPSHOT_TOL * self.dt):
            raise NumericsError("snapshot times of the solve are not tgrid")
        dpsi = traj.phi[np.searchsorted(traj.times, traj.snapshot_times)]

        # undo the characteristic change and the Alinhac substitution
        dPsi = lift_front(dpsi, g, self.chi).psi     # (2, nt, n1, n2)
        dUdot = np.empty_like(dVdot_char)
        dV = np.empty_like(dVdot_char)
        shift = np.empty((nt, 2, 1, g.n1, g.n2))    # dPsi / d1Phi
        for n, t in enumerate(self.tgrid):
            fr = basic.frame(t)
            dUdot[n] = np.einsum("sij...,sj...->si...", j_matrix(fr),
                                 dVdot_char[n])
            dV[n] = good_unknown_inverse(dUdot[n], dPsi[:, n], fr)
            shift[n, :, 0] = dPsi[:, n] / fr.lifted.d1_phi_map

        V_next = state.V + dV
        psi_next = state.psi + dpsi
        calL_next = self.calL(V_next, psi_next)
        B_next = self.ops.boundary_B(self.Ua + V_next, self.phia + psi_next)

        e, e1, etilde = self._error_terms(state, basic, dV, dpsi, dUdot,
                                          shift, calL_next, B_next)
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
