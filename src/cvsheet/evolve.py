"""Time integration of the effective linearized problem with energy ledger.

The characteristic system

    A0c dV/dt + A1c d1 V + A2c d2 V + A3c V = J^T F

marches, solved as dV/dt = A0c^{-1} J^T F - M1 d1 V - M2 d2 V - M3 V, with
a 3-stage strong-stability-preserving Runge-Kutta scheme.  The wall at
x1 = 0 is characteristic of constant rank 4: per side exactly one
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

``evolve`` is one march plus a list of observers.  The march
(``LinearizedStepper.step``) fetches the coefficient bundle and evaluates
the forcing once per stage time (t, t + dt/2, t + dt); step n ends at the
float (n + 1) dt, which the end stage, the observers and step n + 1 all use.
After each step every observer reads what the march already holds: the
end-of-step V, phi and t, the end-stage bundle and forcing, which the cache
and the stepper's forcing memo hand back without computing them again, and
one pair d1 V, d2 V, which step n + 1's first stage reuses.  The observers
are the snapshot recorder, the constraint monitors (div hdot, the wall
magnetic constraint, the boundary energy), the a priori monitor behind
``Trajectory.cstar`` and the ledger.  ``evolve(..., monitors=False)`` runs
the recorder alone, as the Nash-Moser solve does: it differentiates no
end-of-step V of its own and interpolates only the bundle entries the march
applies.  ``Trajectory.timings`` gives the wall seconds of the march and of
each observer; they are the one part of a trajectory that is not
reproducible.

A steady basic state that is constant along the front (the planar sheet)
has its coefficients, and with them the ledger's symmetrized family,
assembled on one x2 column and broadcast along x2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import Grid
from .linearized import (IHN, IH2V, IQ, IUN, BasicState,
                         assemble_effective, bracket)
from .profiles import SigmaWeight, quintic_step
from .scenarios import ManufacturedForcing
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
    """What the observers of one ``evolve`` march recorded.

    ``times`` and ``phi`` hold every step (t = 0 included), ``snapshots``
    the fields at ``snapshot_times``.  The constraint monitors give
    ``boundary_energy``, ``div_residual`` and ``hn_residual`` per step, the
    a priori monitor ``apriori`` (and so ``cstar``), the ledger ``ledger``.
    A field whose observer did not run (``monitors=False``, or
    ``ledger=False`` for the ledger) is None.  ``timings`` holds the wall
    seconds of the march and of each observer that ran; it is the one
    field that differs between runs of the same inputs.
    """

    times: np.ndarray
    phi: np.ndarray                      # (nt_sampled, n2)
    ledger: EnergyLedger | None = None
    boundary_energy: np.ndarray | None = None
    div_residual: np.ndarray | None = None   # per-step max-norm of div hdot
    hn_residual: np.ndarray | None = None    # wall magnetic constraint
    snapshots: np.ndarray | None = None  # (nsnap, 2, 6, n1, n2)
    snapshot_times: np.ndarray | None = None
    apriori: dict | None = None
    # why the ledger multiplier fell back to lambda = 0, if it did
    lambda_fallback: str | None = None
    timings: dict = field(default_factory=dict)

    @property
    def cstar(self) -> float | None:
        """Fitted a priori constant (|Udot|_{1,*,T} + |phi|_{H1}) / |F|_{1,*,T},
        or None without the a priori monitor."""
        a = self.apriori
        if a is None:
            return None
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

    A bundle holds one frame's ``assemble_effective`` operators ``ops``,
    their ``M1``, ``M2``, ``M3``, ``A0invJt`` and ``J`` compacted, ``d1phi``
    and the wall traces.

    A steady state whose ``U``, ``phi`` and multiplier ``lam_field`` are
    exactly x2-invariant (the planar sheet's) is assembled on one x2
    column, a ``BasicState`` on ``Grid(n1, 1, L1, L2)``: every field of
    the bundle, ``ops``, ``d1phi`` and the wall traces included, is then
    (..., n1, 1) or (1,) and broadcasts against (2, 6, n1, n2) fields.  A
    one-column field has d2 exactly 0, as the full x2-invariant field has,
    so the column holds the bits of the full assembly.

    A coefficient that is exactly uniform in space is stored as
    (2, 6, 6, 1, 1) and ``_mat_apply2`` applies it through its nonzero
    entries; the trailing (1, 1) keeps it broadcasting against full
    (2, 6, 6, n1, n2) fields, so a uniform bundle interpolates with a
    non-uniform one.
    """

    _MARCH_KEYS = ("M1", "M2", "M3", "A0invJt")     # what the march applies
    _KEYS = _MARCH_KEYS + ("J", "d1phi")            # and what monitors read

    def __init__(self, basic: BasicState, lam_field, keys=_KEYS):
        self.basic = basic
        self.lam_field = lam_field
        self.keys = keys                # interpolated between snapshots
        self._source = basic            # the state the bundles are built from
        if basic.steady and all(a is None or np.all(a == a[..., :1])
                                for a in (basic.U, basic.phi, lam_field)):
            g = basic.grid
            self._source = BasicState(
                grid=Grid(g.n1, 1, g.L1, g.L2), eos=basic.eos,
                U=basic.U[..., :1], phi=basic.phi[..., :1], chi=basic.chi)
            if lam_field is not None:
                self.lam_field = lam_field[..., :1]
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
        out = {key: (1 - w) * b0[key] + w * b1[key] for key in self.keys}
        out["traces"] = {key: (1 - w) * b0["traces"][key]
                         + w * b1["traces"][key] for key in b0["traces"]}
        return out

    def _bundle(self, k: int):
        if k not in self._snap:
            self._snap[k] = self._build(float(self.basic.tgrid[k]))
        return self._snap[k]

    def _build(self, t: float):
        fr = self._source.frame(t)
        ops = assemble_effective(fr, self.lam_field)
        bundle = {key: _compact(getattr(ops, key))
                  for key in ("J",) + self._MARCH_KEYS}
        bundle.update(ops=ops, d1phi=fr.lifted.d1_phi_map,
                      traces=fr.boundary_traces())
        return bundle


def _compact(a):
    """``a[..., :1, :1]`` if the field ``a`` is exactly uniform in space."""
    head = a[..., :1, :1]
    return head if np.all(a == head) else a


def _ledger_multiplier(basic: BasicState):
    """(lam_field (2, n1, n2), fallback reason or None) of the ledger: the
    wall multiplier extended into the interior, or 0 with the reason when
    the state breaks the stability condition."""
    grid = basic.grid
    fallback = None
    try:
        lam_pair = basic.frame(0.0).lambda_boundary()
    except StabilityError as exc:
        fallback = str(exc)
        lam_pair = LambdaPair(lam_plus=np.zeros(grid.n2),
                              lam_minus=np.zeros(grid.n2))
    lam_field = extend_lambda(lam_pair, grid.x1,
                              eps=max(4 * grid.h1, 0.05 * grid.L1))
    return (np.broadcast_to(lam_field, (2, grid.n1, grid.n2)).copy(),
            fallback)


def evolve(basic: BasicState, t_final: float, *, forcing=None, bdata=None,
           cfl: float = 0.4, sponge_strength: float = 2.0,
           ledger: bool = True, snapshot_times=None,
           dt_override: float | None = None,
           monitors: bool = True) -> Trajectory:
    """March the linearized problem from rest with causal data.

    ``forcing(t) -> (2, 6, n1, n2)`` in the good-unknown components and
    ``bdata(t) -> (3, n2)`` for (g1+, g1-, g2) both default to zero.  Zero
    data reproduce the zero solution exactly.  ``monitors=False`` runs the
    snapshot recorder alone (``times``, ``phi``, ``snapshots``); the ledger
    is a monitor, so ``ledger=True`` needs ``monitors=True``.
    """
    if ledger and not monitors:
        raise ValueError("ledger=True needs monitors=True: the ledger is "
                         "a monitor")
    grid = basic.grid
    lam_field, lambda_fallback = (_ledger_multiplier(basic) if ledger
                                  else (None, None))

    stepper = LinearizedStepper(
        basic, forcing=forcing, bdata=bdata, lam_field=lam_field, cfl=cfl,
        sponge_strength=sponge_strength,
        keys=_CoeffCache._KEYS if monitors else _CoeffCache._MARCH_KEYS)
    dt = dt_override or stepper.dt_cfl
    nsteps = int(np.ceil(t_final / dt - _STEP_ROUNDOFF))
    if nsteps > _MAX_STEPS:
        raise NumericsError(f"CFL step count {nsteps} exceeds {_MAX_STEPS}")
    dt = t_final / nsteps

    observers = {"snapshots": _SnapshotRecorder(snapshot_times, dt)}
    if monitors:
        observers["constraints"] = _ConstraintMonitor(grid, stepper.n1_phys)
        observers["apriori"] = _AprioriMonitor(grid, forcing, dt)
        if ledger:
            observers["ledger"] = _LedgerAccumulator(grid, stepper.cache, dt,
                                                     stepper.sponge)
    timings = dict.fromkeys(("march", *observers), 0.0)

    def observe(method: str, end: _StepEnd) -> None:
        for name, obs in observers.items():
            t0 = time.perf_counter()
            getattr(obs, method)(end)
            timings[name] += time.perf_counter() - t0

    t0 = time.perf_counter()
    t = 0.0
    V = np.zeros((2, 6, grid.n1, grid.n2))
    phi = np.zeros(grid.n2)
    end = _StepEnd(stepper, t, V, phi,
                   stepper.derivatives(V) if monitors else None)
    timings["march"] += time.perf_counter() - t0
    observe("start", end)
    for n in range(nsteps):
        # the stepper's carry is now the only holder of the pair, and
        # the first stage drops it
        end = None
        t0 = time.perf_counter()
        t_next = (n + 1) * dt
        V, phi = stepper.step(V, phi, t, dt, t_next)
        t = t_next
        if not (np.all(np.isfinite(V)) and np.all(np.isfinite(phi))):
            raise NumericsError(f"non-finite values at t={t:.6g}")
        end = _StepEnd(stepper, t, V, phi,
                       stepper.derivatives(V) if monitors else None)
        timings["march"] += time.perf_counter() - t0
        observe("observe", end)

    rec = observers["snapshots"]
    out = dict(times=np.asarray(rec.times), phi=np.asarray(rec.phis),
               snapshots=np.asarray(rec.snaps) if rec.snaps else None,
               snapshot_times=(np.asarray(rec.snap_ts) if rec.snap_ts
                               else None))
    if monitors:
        con = observers["constraints"]
        out.update(boundary_energy=np.asarray(con.be),
                   div_residual=np.asarray(con.div),
                   hn_residual=np.asarray(con.hn),
                   apriori=observers["apriori"].sums)
    if ledger:
        out["ledger"] = observers["ledger"].ledger
    return Trajectory(**out, lambda_fallback=lambda_fallback,
                      timings=timings)


class _StepEnd:
    """The march's state after a step, as its observers read it: t, V, phi
    and the pair (d1 V, d2 V) (None when no observer reads it), and, on
    first read, the end-stage bundle ``co``, the forcing ``f`` and
    div hdot.  Observers must not write to these arrays."""

    def __init__(self, stepper, t, V, phi, pair):
        self.stepper, self.t, self.V, self.phi = stepper, t, V, phi
        self.d1V, self.d2V = pair if pair is not None else (None, None)

    @cached_property
    def co(self):
        return self.stepper.cache.at(self.t)

    @cached_property
    def f(self):
        return self.stepper.F_at(self.t)

    @cached_property
    def div(self):
        return _div_hdot(self.stepper.grid, self.co["d1phi"], self.V,
                         self.d1V)


class _SnapshotRecorder:
    """``times``, ``phi`` at every step and V at the requested times."""

    def __init__(self, snapshot_times, dt: float):
        self._req = list(snapshot_times) if snapshot_times is not None else []
        self.dt = dt
        self.times, self.phis, self.snaps, self.snap_ts = [], [], [], []

    def start(self, end: _StepEnd) -> None:
        self.times.append(end.t)
        self.phis.append(end.phi.copy())
        if self._req and abs(self._req[0]) < 1e-12:
            self._take(end)

    def observe(self, end: _StepEnd) -> None:
        self.times.append(end.t)
        self.phis.append(end.phi.copy())
        while self._req and end.t >= self._req[0] - 0.5 * self.dt:
            self._take(end)

    def _take(self, end: _StepEnd) -> None:
        self.snaps.append(end.V.copy())
        self.snap_ts.append(end.t)
        self._req.pop(0)


class _ConstraintMonitor:
    """Boundary energy and the div hdot and wall magnetic constraint
    residuals per step; 0 at rest."""

    def __init__(self, grid: Grid, n1_phys: int):
        self.grid = grid
        self.n1_phys = n1_phys
        self.be, self.div, self.hn = [], [], []

    def start(self, end: _StepEnd) -> None:
        for series in (self.be, self.div, self.hn):
            series.append(0.0)

    def observe(self, end: _StepEnd) -> None:
        self.be.append(_boundary_energy(self.grid, end.V))
        dres, hres = _constraint_residuals(self.grid, end.co, end.div, end.V,
                                           end.phi, self.n1_phys)
        self.div.append(dres)
        self.hn.append(hres)


def _mat_apply2(M, v):
    """Per-side 6x6 apply M v.

    An M that varies in x1 at most, stored (2, 6, 6, n1, 1), or uniform,
    stored (2, 6, 6, 1, 1), is applied through its nonzero entries,
    accumulated in column order onto zeros as the einsum accumulates them;
    for a uniform M both paths give the same bits.
    """
    if M.shape[-1] != 1:
        return np.einsum("sij...,sj...->si...", M, v)
    m = M[..., 0]
    out = np.zeros(v.shape)
    for s, i, j in zip(*np.nonzero(np.any(m != 0.0, axis=-1))):
        out[s, i] += m[s, i, j, :, None] * v[s, j]
    return out


def _inner(X, Y, w) -> float:
    """Sum over sides, components and x2 of X Y, then along x1 against the
    weights ``w`` (n1,): one quadrature of a sum of products, with no
    full-size temporary."""
    n1, n2 = X.shape[-2:]
    rows = np.einsum("kij,kij->i", X.reshape(-1, n1, n2),
                     Y.reshape(-1, n1, n2))
    return float(rows @ w)


class LinearizedStepper:
    """One SSP-RK3 step of the characteristic system with wall injection.

    Incoming characteristics (q + u_n on the plus side, q - u_n on the
    minus side) and the front are driven by the three wall conditions; the
    outgoing combinations come from the interior update; the remaining
    components are free (their wall-normal coefficient vanishes).
    """

    def __init__(self, basic: BasicState, *, forcing=None, bdata=None,
                 lam_field=None, cfl: float = 0.4,
                 sponge_strength: float = 2.0, keys=_CoeffCache._KEYS):
        self.grid = basic.grid
        self.cache = _CoeffCache(basic, lam_field, keys)
        grid = basic.grid
        self.dt_cfl = cfl_timestep(basic, cfl)
        x1 = grid.x1[:, None]
        sp_start = grid.L1 * (1.0 - _SPONGE_WIDTH)
        self.sponge = sponge_strength * quintic_step(
            (x1 - sp_start) / (grid.L1 - sp_start))
        # constraint monitors stop short of the sponge by the stencil width
        self.n1_phys = max(int(np.searchsorted(grid.x1, sp_start)) - 3, 4)
        self._forcing = forcing
        self._f_memo: dict = {}     # t -> forcing(t), the last three times
        self._bdata = bdata
        self._zero_f = np.zeros((2, 6, grid.n1, grid.n2))
        self._zero_g = np.zeros((3, grid.n2))
        self._carry = None          # (V, (d1 V, d2 V)) from derivatives()

    def F_at(self, t):
        """forcing(t), evaluated once per stage time: a step asks for t,
        t + dt and t + dt/2, the caller's monitors for t + dt again, and
        the next step for that same time as its t."""
        if self._forcing is None:
            return self._zero_f
        if t not in self._f_memo:
            if len(self._f_memo) == 3:
                del self._f_memo[next(iter(self._f_memo))]
            self._f_memo[t] = self._forcing(t)
        return self._f_memo[t]

    def g_at(self, t):
        return self._bdata(t) if self._bdata is not None else self._zero_g

    def derivatives(self, V):
        """(d1 V, d2 V); the first stage of a step from this very V reuses
        the pair and then lets it go."""
        pair = (self.grid.d1(V), self.grid.d2(V))
        self._carry = (V, pair)
        return pair

    def rhs(self, V, phi, t, co, g, pair=None):
        """Stage derivative at t, given the bundle and boundary data at t
        and, if the caller holds it, the pair (d1 V, d2 V)."""
        grid = self.grid
        d1V, d2V = pair if pair is not None else (None, None)
        dV = (_mat_apply2(co["A0invJt"], self.F_at(t))
              - _mat_apply2(co["M1"], grid.d1(V) if d1V is None else d1V)
              - _mat_apply2(co["M2"], grid.d2(V) if d2V is None else d2V)
              - _mat_apply2(co["M3"], V))
        dV -= self.sponge * V
        return dV, self.phi_rate(V, phi, grid.d2_boundary(phi),
                                 co["traces"], g)

    @staticmethod
    def phi_rate(V, phi, d2phi, tr, g):
        """dphi/dt of the plus-side kinematic wall condition, from the
        basic wall traces ``tr`` and the boundary data ``g`` of one time."""
        return V[0, IUN, 0, :] + phi * tr["d1uNp"] - tr["u2p"] * d2phi + g[0]

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

    def step(self, V, phi, t, dt, t_end=None):
        """Advance (V, phi) from t to t_end (three Shu-Osher stages).

        ``t_end`` defaults to t + dt.  A caller that names its step times
        (n + 1) dt passes that float, which can differ from n dt + dt in
        the last bit, so that its monitors and the next step ask the
        forcing memo and the cache for the very time the end stage used.
        The first stage reuses the pair of the last ``derivatives(V)``
        call if it was made for this V.
        """
        # one lookup per stage time; the end last, so the cache still holds
        # it when the caller's end-of-step monitors ask for the same time
        s0, sh = t, t + 0.5 * dt
        s1 = t + dt if t_end is None else t_end
        co0, g0 = self.cache.at(s0), self.g_at(s0)
        coh, gh = self.cache.at(sh), self.g_at(sh)
        co1, g1 = self.cache.at(s1), self.g_at(s1)

        carry, self._carry = self._carry, None
        pair = carry[1] if carry is not None and carry[0] is V else None
        del carry
        k1V, k1p = self.rhs(V, phi, s0, co0, g0, pair)
        del pair
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


def step_linearized(basic: BasicState, V, phi, t, dt):
    """Single explicit step of the unforced effective problem with
    homogeneous wall data; checks the CFL bound."""
    stepper = LinearizedStepper(basic)
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


def _div_hdot(grid: Grid, d1phi, V, d1V):
    """Discrete div hdot = d1 V_HN + d2(V_H2 d1Phi) per side, (2, n1, n2),
    with d1 V_HN read from d1 V (the stencil acts on each component alone,
    so this is the bits of d1 of V_HN)."""
    return d1V[:, IHN] + grid.d2(V[:, IH2V] * d1phi)


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


def _weights(grid: Grid):
    """Quadrature weights along x1 for the plain and the sigma^2-weighted
    integrals: (w1 h2, w1 h2 sigma^2)."""
    w = grid.w1 * grid.h2
    return w, w * SigmaWeight().value(grid.x1) ** 2


def energy_integrals(grid: Grid, sigma, V, d1V=None, d2V=None):
    """(I, I1n, Isigma, I2) of a characteristic state V (2, 6, n1, n2).

    ``sigma`` is the conormal weight on the x1 nodes, shaped (n1, 1).
    ``d1V`` and ``d2V`` are taken here unless the caller holds them.
    """
    d1V = grid.d1(V) if d1V is None else d1V
    d2V = grid.d2(V) if d2V is None else d2V
    w = grid.w1 * grid.h2
    I = _inner(V, V, w)
    Isig = _inner(d1V, d1V, w * sigma[:, 0] ** 2)
    I2 = _inner(d2V, d2V, w)
    I1n = sum(_inner(d1V[:, k], d1V[:, k], w) for k in (IQ, IUN, IHN))
    return I, I1n, Isig, I2


class _AprioriMonitor:
    """Left-Riemann sums of the H1_* integrands behind ``Trajectory.cstar``:
    |Udot|^2 with Udot = J V, |phi|^2_{H1} with dphi/dt the march's own
    front rate (``LinearizedStepper.phi_rate``, boundary datum included),
    and |F|^2, each with its time difference and the sigma d1 and d2 terms.

    Where J is uniform, d1(J V) and d2(J V) are J d1 V and J d2 V.  A
    ``ManufacturedForcing`` is a(t) F0, so its |F|^2 terms are a(t)^2 and
    ((a(t) - a(t - dt)) / dt)^2 times integrals of F0 taken once; any other
    forcing is differentiated every step.
    """

    def __init__(self, grid: Grid, forcing, dt: float):
        self.grid = grid
        self.dt = dt
        self.sums = {"u_sq": 0.0, "phi_sq": 0.0, "f_sq": 0.0}
        self._w, self._wsig = _weights(grid)
        self._forcing = forcing
        self._profile = None
        if isinstance(forcing, ManufacturedForcing):
            self._profile = forcing.profile
            self._F0_sq, self._F0_d_sq = self._f_terms(forcing.F0)
        self._Ud_prev = 0.0             # J V of the state at rest
        self._f_prev = None             # a(t) or F(t) at the last step end

    def _f_terms(self, f):
        """(|f|^2, |sigma d1 f|^2 + |d2 f|^2) integrated over the domain."""
        g = self.grid
        d = g.d1(f)
        deriv = _inner(d, d, self._wsig)
        d = g.d2(f)
        return _inner(f, f, self._w), deriv + _inner(d, d, self._w)

    def start(self, end: _StepEnd) -> None:
        if self._profile is not None:
            self._f_prev = self._profile(end.t)
        elif self._forcing is not None:
            self._f_prev = end.f

    def observe(self, end: _StepEnd) -> None:
        g, dt, w = self.grid, self.dt, self._w
        J = end.co["J"]
        Ud = _mat_apply2(J, end.V)
        d = (Ud - self._Ud_prev) / dt
        u = _inner(Ud, Ud, w) + _inner(d, d, w)
        uniform = J.shape[-2:] == (1, 1)
        d = _mat_apply2(J, end.d1V) if uniform else g.d1(Ud)
        u += _inner(d, d, self._wsig)
        d = _mat_apply2(J, end.d2V) if uniform else g.d2(Ud)
        u += _inner(d, d, w)
        self.sums["u_sq"] += u * dt
        self._Ud_prev = Ud

        phi = end.phi
        d2p = g.d2_boundary(phi)
        dtp = end.stepper.phi_rate(end.V, phi, d2p, end.co["traces"],
                                   end.stepper.g_at(end.t))
        self.sums["phi_sq"] += (float(np.sum(phi ** 2 + dtp ** 2 + d2p ** 2))
                                * g.h2 * dt)

        if self._profile is not None:
            a = self._profile(end.t)
            da = (a - self._f_prev) / dt
            fsq = (a * a * (self._F0_sq + self._F0_d_sq)
                   + da * da * self._F0_sq)
            self._f_prev = a
        elif self._forcing is not None:
            f = end.f
            d = (f - self._f_prev) / dt
            f_sq, f_d_sq = self._f_terms(f)
            fsq = f_sq + _inner(d, d, w) + f_d_sq
            self._f_prev = f
        else:
            fsq = 0.0
        self.sums["f_sq"] += fsq * dt


class _LedgerAccumulator:
    """Per-step quadratic energies and the energy-identity bookkeeping.

    The marched V solves the characteristic A-system (with the sponge),
    so the symmetrized identity carries three right-hand contributions:
    the wall/far boundary fluxes of B1c, the source 2 (J^T (S F + T div
    hdot / d1Phi)) . V, and the zero-order quadratic form including the
    sponge damping through B0c.  Steady basic states only.

    ``B0``, ``S``, ``T`` and the zero-order matrix keep the shape of the
    cache's bundle: (..., n1, 1) for a state assembled on one x2 column,
    where they vary in x1 only (through the multiplier and the sponge),
    and (2, 6, 6, 1, 1) for ``B0`` and ``S`` where they are uniform;
    ``_mat_apply2`` applies both shapes through their nonzero entries.
    """

    def __init__(self, grid: Grid, cache: _CoeffCache, dt: float, sponge):
        if not cache.basic.steady:
            raise ValueError("the energy ledger supports steady basic states")
        self.grid = grid
        self.dt = dt
        self.sigma = SigmaWeight().value(grid.x1)[:, None]
        self._w = _weights(grid)[0]
        self.ledger = EnergyLedger()
        self._flux_int = 0.0
        self._prev_integrand = None
        self._V_prev = None
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
        self._T = ops.T     # the secondary symmetrizer's T, in U-space

    def start(self, end: _StepEnd) -> None:
        self._Q0 = self._q(end.V)
        self._prev_integrand = self._integrand(end.V, end.f, end.div)
        self.ledger.rows.append(self.row(end))
        self._V_prev = end.V

    def observe(self, end: _StepEnd) -> None:
        self.advance_flux(end.V, end.f, end.div)
        self.ledger.rows.append(self.row(end))
        self._V_prev = end.V

    def _q(self, V):
        return _inner(V, _mat_apply2(self._B0, V), self._w)

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
        src = 2.0 * _inner(_mat_apply2(self._Jt, SF), V, self._w)
        del SF
        zo = _inner(V, _mat_apply2(self._zo_matrix, V), self._w)
        return flux + src + zo

    def advance_flux(self, V, F, div):
        """Trapezoid accumulation of the identity's right-hand side."""
        val = self._integrand(V, F, div)
        self._flux_int += 0.5 * self.dt * (self._prev_integrand + val)
        self._prev_integrand = val

    def row(self, end: _StepEnd) -> LedgerRow:
        """The ledger row of ``end``, with I0 from the previous row's V."""
        g = self.grid
        V = end.V
        I, I1n, Isig, I2 = energy_integrals(g, self.sigma, V, end.d1V,
                                            end.d2V)
        if self._V_prev is None:
            I0 = 0.0
        else:
            d = V - self._V_prev
            d /= self.dt
            I0 = _inner(d, d, self._w)
        phiL2 = float(np.sqrt(np.sum(end.phi ** 2) * g.h2))
        res = self._q(V) - self._Q0 - self._flux_int
        return LedgerRow(t=end.t, I=I, I0=I0, I1n=I1n, Isigma=Isig, I2=I2,
                         phiL2=phiL2, identity_residual=res)
