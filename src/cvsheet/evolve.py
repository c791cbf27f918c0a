"""Time integration of the effective linearized problem with energy ledger.

The characteristic system

    A0c dV/dt + A1c d1 V + A2c d2 V + A3c V = J^T F

marches with a 3-stage strong-stability-preserving Runge-Kutta scheme.  The
wall at x1 = 0 is characteristic of constant rank 4: per side exactly one
combination (q ± u_n) enters the domain.  Boundary data are imposed by
injection: outgoing combinations are read off the updated interior, the
incoming ones and the front time derivative are solved from the three
linearized wall conditions, and the remaining components evolve freely
(their normal coefficient vanishes on the wall).

The ledger accumulates the quadratic energies I, I0, I1n, Isigma, I2, the
front norms, and the residual of the symmetrized-system energy identity

    d/dt \\int (B0c V . V) = boundary flux + source + zero-order terms,

whose discrete violation must vanish under refinement.  A basic state that
breaks the stability condition has no multiplier; its ledger is built
with lambda = 0 and ``Trajectory.lambda_fallback`` says why.

Each step fetches the coefficient bundle once per stage time (t, t + dt/2,
t + dt); the end-of-step monitors and the ledger read the march's own
end-stage bundle, which the cache hands back without interpolating again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid
from .linearized import (IHN, IH2V, IQ, IUN, BasicState,
                         assemble_effective, bracket, j_matrix)
from .profiles import SigmaWeight, quintic_step
from .stability import LambdaPair, StabilityError, extend_lambda


class NumericsError(RuntimeError):
    """CFL violation or non-finite values during a run."""


_MAX_STEPS = 200_000    # evolve refuses a march longer than this
_STEP_ROUNDOFF = 1e-9   # t_final / dt up to this above n takes n steps
_CFL_GUARD = 1.25       # step_linearized accepts dt up to this x the CFL step
_SPONGE_WIDTH = 0.2     # absorbing collar: the outer fifth of [0, L1]


@dataclass
class LedgerRow:
    t: float
    I: float
    I0: float
    I1n: float
    Isigma: float
    I2: float
    phiL2: float
    identity_residual: float

    @property
    def I1star(self) -> float:
        return self.I + self.I0 + self.Isigma + self.I2


@dataclass
class EnergyLedger:
    rows: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("t,I,I0,I1n,Isigma,I2,phiL2,identity_residual\n")
            for r in self.rows:
                fh.write(f"{r.t!r},{r.I!r},{r.I0!r},{r.I1n!r},{r.Isigma!r},"
                         f"{r.I2!r},{r.phiL2!r},{r.identity_residual!r}\n")

    def final(self) -> LedgerRow:
        return self.rows[-1]


@dataclass
class Trajectory:
    times: np.ndarray
    phi: np.ndarray                      # (nt_sampled, n2)
    ledger: EnergyLedger
    boundary_energy: np.ndarray
    div_residual: np.ndarray             # per-step max-norm of div hdot
    hn_residual: np.ndarray              # wall magnetic constraint residual
    snapshots: np.ndarray | None = None  # (nsnap, 2, 6, n1, n2)
    snapshot_times: np.ndarray | None = None
    apriori: dict = field(default_factory=dict)
    # why the ledger multiplier fell back to lambda = 0, if it did
    lambda_fallback: str | None = None

    @property
    def cstar(self) -> float:
        """Fitted a priori constant (|Udot|_{1,*,T} + |phi|_{H1}) / |F|_{1,*,T}."""
        a = self.apriori
        num = np.sqrt(a["u_sq"]) + np.sqrt(a["phi_sq"])
        den = np.sqrt(a["f_sq"])
        return float(num / den) if den > 0 else float("inf")


def _speed_bound(basic: BasicState) -> float:
    eos = basic.eos
    fr = basic.frame(0.0)
    smax = 0.0
    for st in fr.states:
        rho = eos.density(st.p, st.S)
        c2 = 1.0 / eos.density_dp(st.p, st.S)
        ca2 = (np.asarray(st.H1) ** 2 + np.asarray(st.H2) ** 2) / rho
        cf = np.sqrt(c2 + ca2)
        smax = max(smax, float(np.max(np.abs(st.u1) + cf)),
                   float(np.max(np.abs(st.u2) + cf)))
    return smax


def cfl_timestep(basic: BasicState, cfl: float = 0.4) -> float:
    """Stable explicit step for the fast magnetosonic bound of the state."""
    g = basic.grid
    return cfl / (_speed_bound(basic) * (2.0 / g.h1 + 1.0 / g.h2))


class _CoeffCache:
    """Assembled solver coefficients: one bundle for steady states, linear
    interpolation between snapshot-time bundles otherwise.

    A coefficient that is exactly uniform in space (the planar sheet's)
    is stored as (2, 6, 6, 1, 1) and ``_mat_apply2`` applies it through
    its nonzero entries; the trailing (1, 1) keeps it broadcasting against
    full (2, 6, 6, n1, n2) fields, so a uniform bundle interpolates with a
    non-uniform one.  ``ops`` keeps the full arrays.
    """

    _KEYS = ("M1", "M2", "M3", "A0invJt", "J", "d1phi")

    def __init__(self, basic: BasicState, lam_field):
        self.basic = basic
        self.lam_field = lam_field
        self._steady = None
        self._snap: dict = {}
        self._last = (None, None)   # (t, bundle) of the latest lookup

    def at(self, t: float):
        if self.basic.steady:
            if self._steady is None:
                self._steady = self._build(0.0)
            return self._steady
        if self._last[0] != t:
            self._last = (t, self._interpolate(t))
        return self._last[1]

    def _interpolate(self, t: float):
        k, w = bracket(self.basic.tgrid, t)
        b0 = self._bundle(k)
        if w == 0.0:
            return b0
        b1 = self._bundle(k + 1)
        out = {key: (1 - w) * b0[key] + w * b1[key] for key in self._KEYS}
        out["traces"] = {key: (1 - w) * b0["traces"][key]
                         + w * b1["traces"][key] for key in b0["traces"]}
        return out

    def _bundle(self, k: int):
        if k not in self._snap:
            self._snap[k] = self._build(float(self.basic.tgrid[k]))
        return self._snap[k]

    def _build(self, t: float):
        fr = self.basic.frame(t)
        dJdt = None
        if not self.basic.steady:
            tg = self.basic.tgrid
            dd = 0.25 * float(tg[1] - tg[0])
            # frame() clamps to the snapshot span: one-sided at the ends
            lo, hi = max(t - dd, float(tg[0])), min(t + dd, float(tg[-1]))
            dJdt = (j_matrix(self.basic.frame(hi))
                    - j_matrix(self.basic.frame(lo))) / (hi - lo)
        ops = assemble_effective(fr, self.lam_field, dJdt=dJdt)
        A0, A1, A2, A3, J = (_compact(a) for a in (ops.A0, ops.A1, ops.A2,
                                                   ops.A3, ops.J))
        inv = np.linalg.inv(np.moveaxis(A0, (1, 2), (-2, -1)))
        A0inv = np.moveaxis(inv, (-2, -1), (1, 2))
        mm = "sik...,skj...->sij..."
        return {
            "frame": fr,
            "ops": ops,
            "J": J,
            "d1phi": fr.lifted.d1_phi_map,
            "M1": np.einsum(mm, A0inv, A1),
            "M2": np.einsum(mm, A0inv, A2),
            "M3": np.einsum(mm, A0inv, A3),
            "A0invJt": np.einsum(mm, A0inv, np.swapaxes(J, 1, 2)),
            "traces": fr.boundary_traces(),
        }


def _compact(a):
    """``a[..., :1, :1]`` if the field ``a`` is exactly uniform in space."""
    head = a[..., :1, :1]
    return head if np.all(a == head) else a


def evolve(basic: BasicState, t_final: float, *, forcing=None, bdata=None,
           cfl: float = 0.4, sponge_strength: float = 2.0,
           ledger: bool = True, snapshot_times=None,
           dt_override: float | None = None) -> Trajectory:
    """March the linearized problem from rest with causal data.

    ``forcing(t) -> (2, 6, n1, n2)`` in the good-unknown components and
    ``bdata(t) -> (3, n2)`` for (g1+, g1-, g2) both default to zero.  Zero
    data reproduce the zero solution exactly.
    """
    grid = basic.grid
    lam_field = None
    lambda_fallback = None
    if ledger:
        try:
            lam_pair = basic.frame(0.0).lambda_boundary()
        except StabilityError as exc:
            lambda_fallback = str(exc)
            lam_pair = LambdaPair(lam_plus=np.zeros(grid.n2),
                                  lam_minus=np.zeros(grid.n2))
        lam_field = extend_lambda(lam_pair, grid.x1,
                                  eps=max(4 * grid.h1, 0.05 * grid.L1))
        lam_field = np.broadcast_to(lam_field, (2, grid.n1, grid.n2)).copy()

    stepper = LinearizedStepper(basic, forcing=forcing, bdata=bdata,
                                lam_field=lam_field, cfl=cfl,
                                sponge_strength=sponge_strength)
    cache = stepper.cache
    dt = dt_override or stepper.dt_cfl
    nsteps = int(np.ceil(t_final / dt - _STEP_ROUNDOFF))
    if nsteps > _MAX_STEPS:
        raise NumericsError(f"CFL step count {nsteps} exceeds {_MAX_STEPS}")
    dt = t_final / nsteps
    n1_phys = stepper.n1_phys
    F_at = stepper.F_at

    sigma = SigmaWeight().value(grid.x1)[:, None]

    V = np.zeros((2, 6, grid.n1, grid.n2))
    phi = np.zeros(grid.n2)

    ledger_obj = EnergyLedger()
    times = [0.0]
    phis = [phi.copy()]
    be = [0.0]
    divres = [0.0]
    hnres = [0.0]
    apriori = {"u_sq": 0.0, "phi_sq": 0.0, "f_sq": 0.0}
    led = _LedgerAccumulator(grid, cache, dt, stepper.sponge) if ledger else None
    if led is not None:
        led.start(V, F_at(0.0))
        ledger_obj.rows.append(led.row(0.0, V, phi, None))

    snap_req = list(snapshot_times) if snapshot_times is not None else []
    snaps, snap_ts = [], []
    if snap_req and abs(snap_req[0]) < 1e-12:
        snaps.append(V.copy())
        snap_ts.append(0.0)
        snap_req.pop(0)

    t = 0.0
    V_prev = V
    Ud_prev = np.zeros_like(V)          # J V of the state at rest
    for n in range(nsteps):
        V, phi = stepper.step(V, phi, t, dt)
        t = (n + 1) * dt

        if not (np.all(np.isfinite(V)) and np.all(np.isfinite(phi))):
            raise NumericsError(f"non-finite values at t={t:.6g}")

        co_now = cache.at(t)
        f = F_at(t)
        div = _div_hdot(grid, co_now["d1phi"], V)
        times.append(t)
        phis.append(phi.copy())
        be.append(_boundary_energy(grid, V))
        dres, hres = _constraint_residuals(grid, co_now, div, V, phi, n1_phys)
        divres.append(dres)
        hnres.append(hres)
        Ud_prev = _accumulate_apriori(apriori, grid, sigma, co_now, V,
                                      Ud_prev, phi, f,
                                      F_at(max(t - dt, 0.0)), dt)
        if led is not None:
            led.advance_flux(V, f, div)
            ledger_obj.rows.append(led.row(t, V, phi, (V_prev, dt)))
        V_prev = V                      # step() returns a fresh array

        while snap_req and t >= snap_req[0] - 0.5 * dt:
            snaps.append(V.copy())
            snap_ts.append(t)
            snap_req.pop(0)

    return Trajectory(
        times=np.asarray(times), phi=np.asarray(phis), ledger=ledger_obj,
        boundary_energy=np.asarray(be), div_residual=np.asarray(divres),
        hn_residual=np.asarray(hnres),
        snapshots=np.asarray(snaps) if snaps else None,
        snapshot_times=np.asarray(snap_ts) if snap_ts else None,
        apriori=apriori, lambda_fallback=lambda_fallback)


def _mat_apply2(M, v):
    """Per-side 6x6 apply M v.

    A uniform M, stored (2, 6, 6, 1, 1), is applied through its nonzero
    entries, accumulated in column order onto zeros as the einsum
    accumulates them, so both paths give the same bits.
    """
    if M.shape[-2:] != (1, 1):
        return np.einsum("sij...,sj...->si...", M, v)
    m = M[..., 0, 0]
    out = np.zeros(v.shape)
    for s, i, j in zip(*np.nonzero(m)):
        out[s, i] += m[s, i, j] * v[s, j]
    return out


class LinearizedStepper:
    """One SSP-RK3 step of the characteristic system with wall injection.

    Incoming characteristics (q + u_n on the plus side, q - u_n on the
    minus side) and the front are driven by the three wall conditions; the
    outgoing combinations come from the interior update; the remaining
    components are free (their wall-normal coefficient vanishes).
    """

    def __init__(self, basic: BasicState, *, forcing=None, bdata=None,
                 lam_field=None, cfl: float = 0.4,
                 sponge_strength: float = 2.0):
        self.grid = basic.grid
        self.cache = _CoeffCache(basic, lam_field)
        grid = basic.grid
        self.dt_cfl = cfl_timestep(basic, cfl)
        x1 = grid.x1[:, None]
        sp_start = grid.L1 * (1.0 - _SPONGE_WIDTH)
        self.sponge = sponge_strength * quintic_step(
            (x1 - sp_start) / (grid.L1 - sp_start))
        # constraint monitors stop short of the sponge by the stencil width
        self.n1_phys = max(int(np.searchsorted(grid.x1, sp_start)) - 3, 4)
        self._forcing = forcing
        self._bdata = bdata
        self._zero_f = np.zeros((2, 6, grid.n1, grid.n2))
        self._zero_g = np.zeros((3, grid.n2))

    def F_at(self, t):
        return self._forcing(t) if self._forcing is not None else self._zero_f

    def g_at(self, t):
        return self._bdata(t) if self._bdata is not None else self._zero_g

    def rhs(self, V, phi, t, co, g):
        """Stage derivative at t, given the bundle and boundary data at t."""
        grid = self.grid
        dV = (_mat_apply2(co["A0invJt"], self.F_at(t))
              - _mat_apply2(co["M1"], grid.d1(V))
              - _mat_apply2(co["M2"], grid.d2(V))
              - _mat_apply2(co["M3"], V))
        dV -= self.sponge * V
        tr = co["traces"]
        dphi = (V[0, IUN, 0, :] + phi * tr["d1uNp"]
                - tr["u2p"] * grid.d2_boundary(phi) + g[0])
        return dV, dphi

    def apply_bc(self, V, phi, co, g):
        """Inject the wall conditions at the stage of ``co`` and ``g``."""
        grid = self.grid
        tr = co["traces"]
        d2phi = grid.d2_boundary(phi)
        bp = V[0, IQ, 0, :] - V[0, IUN, 0, :]
        bm = V[1, IQ, 0, :] + V[1, IUN, 0, :]
        d = (g[0] - g[1] - (tr["u2p"] - tr["u2m"]) * d2phi
             + phi * (tr["d1uNp"] + tr["d1uNm"]))
        e = g[2] - phi * tr["d1q_jump"]
        un_p = 0.5 * (e - bp + bm - d)
        un_m = un_p + d
        V[0, IUN, 0, :] = un_p
        V[1, IUN, 0, :] = un_m
        V[0, IQ, 0, :] = bp + un_p
        V[1, IQ, 0, :] = bm - un_m

    def step(self, V, phi, t, dt):
        """Advance (V, phi) from t to t + dt (three Shu-Osher stages)."""
        # one lookup per stage time; t + dt last, so the cache still holds
        # it when the caller's end-of-step monitors ask for the same time
        s0, sh, s1 = t, t + 0.5 * dt, t + dt
        co0, g0 = self.cache.at(s0), self.g_at(s0)
        coh, gh = self.cache.at(sh), self.g_at(sh)
        co1, g1 = self.cache.at(s1), self.g_at(s1)

        k1V, k1p = self.rhs(V, phi, s0, co0, g0)
        V1 = V + dt * k1V
        p1 = phi + dt * k1p
        self.apply_bc(V1, p1, co1, g1)

        k2V, k2p = self.rhs(V1, p1, s1, co1, g1)
        V2 = 0.75 * V + 0.25 * (V1 + dt * k2V)
        p2 = 0.75 * phi + 0.25 * (p1 + dt * k2p)
        self.apply_bc(V2, p2, coh, gh)

        k3V, k3p = self.rhs(V2, p2, sh, coh, gh)
        Vn = V / 3.0 + 2.0 / 3.0 * (V2 + dt * k3V)
        pn = phi / 3.0 + 2.0 / 3.0 * (p2 + dt * k3p)
        self.apply_bc(Vn, pn, co1, g1)
        return Vn, pn


def step_linearized(basic: BasicState, V, phi, t, dt, *, forcing=None,
                    bdata=None):
    """Single explicit step of the effective problem; checks the CFL bound."""
    stepper = LinearizedStepper(basic, forcing=forcing, bdata=bdata)
    if dt > _CFL_GUARD * stepper.dt_cfl:
        raise NumericsError(
            f"dt={dt:.3e} violates the CFL bound {stepper.dt_cfl:.3e}")
    Vn, pn = stepper.step(np.array(V, copy=True), np.array(phi, copy=True),
                          t, dt)
    if not (np.all(np.isfinite(Vn)) and np.all(np.isfinite(pn))):
        raise NumericsError("non-finite values after step")
    return Vn, pn


def _boundary_energy(grid: Grid, V) -> float:
    return float(np.sum(V[:, :, 0, :] ** 2) * grid.h2)


def _div_hdot(grid: Grid, d1phi, V):
    """Discrete div hdot = d1 V_HN + d2(V_H2 d1Phi) per side, (2, n1, n2)."""
    return grid.d1(V[:, IHN]) + grid.d2(V[:, IH2V] * d1phi)


def _constraint_residuals(grid: Grid, co, div, V, phi, n1_phys: int):
    """Max-norm residuals of div hdot and the wall magnetic constraint
    V_HN = H2 d2 phi -+ phi d1 H_N, with the basic wall traces of ``co``.

    Measured on the physical region only: the sponge damping is not
    divergence-compatible, so the absorbing collar is excluded.
    """
    tr = co["traces"]
    div_max = float(np.max(np.abs(div[:, :n1_phys])))
    hn_max = 0.0
    d2phi = grid.d2_boundary(phi)
    for i, (sgn, tag) in enumerate(((1.0, "p"), (-1.0, "m"))):
        res = (tr[f"H2{tag}"] * d2phi - V[i, IHN, 0, :]
               - sgn * phi * tr[f"d1HN{tag}"])
        hn_max = max(hn_max, float(np.max(np.abs(res))))
    return div_max, hn_max


def energy_integrals(grid: Grid, sigma, V):
    """(I, I1n, Isigma, I2) of a characteristic state V (2, 6, n1, n2).

    ``sigma`` is the conormal weight on the x1 nodes, shaped (n1, 1).
    """
    d1V = grid.d1(V)
    I = float(grid.integrate((V ** 2).sum(axis=(0, 1))))
    Isig = float(grid.integrate(((sigma * d1V) ** 2).sum(axis=(0, 1))))
    I2 = float(grid.integrate((grid.d2(V) ** 2).sum(axis=(0, 1))))
    d1Vn = d1V[:, (IQ, IUN, IHN), :, :]
    I1n = float(grid.integrate((d1Vn ** 2).sum(axis=(0, 1))))
    return I, I1n, Isig, I2


def _accumulate_apriori(acc, grid: Grid, sigma, co, V, Ud_prev, phi, f,
                        fprev, dt):
    """Trapezoid-free accumulation (left Riemann) of the H1* integrands.

    ``Ud_prev`` is the previous step's Udot = J V; returns this step's.
    """
    Ud = _mat_apply2(co["J"], V)
    dtU = (Ud - Ud_prev) / dt
    terms = (Ud ** 2 + dtU ** 2 + (sigma * grid.d1(Ud)) ** 2
             + grid.d2(Ud) ** 2)
    acc["u_sq"] += float(grid.integrate(terms.sum(axis=(0, 1)))) * dt
    d2p = grid.d2_boundary(phi)
    # dphi/dt from the kinematic wall condition of the plus side
    tr = co["traces"]
    dtp = V[0, IUN, 0, :] + phi * tr["d1uNp"] - tr["u2p"] * d2p
    acc["phi_sq"] += float(np.sum(phi ** 2 + dtp ** 2 + d2p ** 2)) * grid.h2 * dt
    dtf = (f - fprev) / dt
    fterms = (f ** 2 + dtf ** 2 + (sigma * grid.d1(f)) ** 2 + grid.d2(f) ** 2)
    acc["f_sq"] += float(grid.integrate(fterms.sum(axis=(0, 1)))) * dt
    return Ud


class _LedgerAccumulator:
    """Per-step quadratic energies and the energy-identity bookkeeping.

    The marched V solves the characteristic A-system (with the sponge),
    so the symmetrized identity carries three right-hand contributions:
    the wall/far boundary fluxes of B1c, the source 2 (J^T (S F + T div
    hdot / d1Phi)) . V, and the zero-order quadratic form including the
    sponge damping through B0c.  Steady basic states only.
    """

    def __init__(self, grid: Grid, cache: _CoeffCache, dt: float, sponge):
        if not cache.basic.steady:
            raise ValueError("the energy ledger supports steady basic states")
        self.grid = grid
        self.dt = dt
        self.sigma = SigmaWeight().value(grid.x1)[:, None]
        self._flux_int = 0.0
        self._prev_integrand = None
        co = cache.at(0.0)
        ops = co["ops"]
        if ops.B0 is None:
            raise ValueError("ledger requires the symmetrized family")
        self.ops = ops
        self._S, self._B0 = _compact(ops.S), _compact(ops.B0)
        self._Jt = np.swapaxes(co["J"], 1, 2)
        self._d1phi = co["d1phi"]
        g = grid
        self._zo_matrix = (g.d1(ops.B1) + g.d2(ops.B2)
                           - (ops.B3 + np.swapaxes(ops.B3, 1, 2))
                           - 2.0 * sponge * ops.B0)
        # T-vector of the secondary symmetrizer per side, in U-space
        from .stability import symmetrizer_matrices
        fr = co["frame"]
        self._T = np.stack([
            symmetrizer_matrices(fr.states[i],
                                 cache.lam_field[i], fr.basic.eos)[1]
            for i in range(2)])

    def start(self, V, f0):
        self._Q0 = self._q(V)
        self._prev_integrand = self._integrand(
            V, f0, _div_hdot(self.grid, self._d1phi, V))

    def _q(self, V):
        vals = np.einsum("si...,si...->s...", V, _mat_apply2(self._B0, V))
        return float(self.grid.integrate(vals.sum(axis=0)))

    def _integrand(self, V, F, div):
        ops = self.ops
        g = self.grid
        b_wall = np.einsum("sij...,si...,sj...->s...",
                           ops.B1[..., 0, :], V[..., 0, :], V[..., 0, :])
        b_far = np.einsum("sij...,si...,sj...->s...",
                          ops.B1[..., -1, :], V[..., -1, :], V[..., -1, :])
        flux = float((b_wall.sum(axis=0) * g.h2).sum()
                     - (b_far.sum(axis=0) * g.h2).sum())
        SF = _mat_apply2(self._S, F)
        # the discrete div hdot source restores the exact A/B equivalence
        SF += self._T * (div / self._d1phi)[:, None]
        Fc = _mat_apply2(self._Jt, SF)
        src = 2.0 * float(g.integrate(
            np.einsum("si...,si...->s...", Fc, V).sum(axis=0)))
        zo = float(g.integrate(np.einsum(
            "sij...,si...,sj...->s...", self._zo_matrix, V, V).sum(axis=0)))
        return flux + src + zo

    def advance_flux(self, V, F, div):
        """Trapezoid accumulation of the identity's right-hand side."""
        val = self._integrand(V, F, div)
        self._flux_int += 0.5 * self.dt * (self._prev_integrand + val)
        self._prev_integrand = val

    def row(self, t, V, phi, prev) -> LedgerRow:
        g = self.grid
        I, I1n, Isig, I2 = energy_integrals(g, self.sigma, V)
        if prev is None:
            I0 = 0.0
        else:
            V_prev, dt = prev
            I0 = float(g.integrate((((V - V_prev) / dt) ** 2).sum(axis=(0, 1))))
        phiL2 = float(np.sqrt(np.sum(phi ** 2) * g.h2))
        Q = self._q(V)
        res = Q - self._Q0 - self._flux_int
        return LedgerRow(t=t, I=I, I0=I0, I1n=I1n, Isigma=Isig, I2=I2,
                         phiL2=phiL2, identity_residual=res)
