"""Time integration of the effective linearized problem with energy ledger.

The characteristic system

    A0c dV/dt + A1c d1 V + A2c d2 V + A3c V = J^T F

marches, solved as dV/dt = A0c^{-1} J^T F - M1 d1 V - M2 d2 V - M3 V, with
a 3-stage strong-stability-preserving Runge-Kutta scheme.  The wall at
x1 = 0 is characteristic of constant rank 4: per side exactly one
combination (q ± u_n) enters the domain.  Boundary data are imposed by
injection: outgoing combinations are read off the updated interior, the
incoming ones and the front rate solve the kin+, kin- and [q] rows of
``stability.linearized_wall_rows`` (rows kin+, kin-, H_N+, H_N-, [q]) with
right-hand sides bdata(t) = (g1+, g1-, g2), and the remaining components
evolve freely (their normal coefficient vanishes on the wall).

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
and the stepper's forcing memo hand back without computing them again, and,
on a steady state, what the stepper's step end work (``derivatives``) left
in its buffers: one pair d1 V, d2 V, which step n + 1's first stage reuses,
the time difference Vt and the Grams below.

The stepper forms its stages in place, in buffers it holds (the stage
derivative and the pair d1 V, d2 V) and in the field it is handed for
V_{n+1}, which holds V1, then V2, then V_{n+1}.  ``evolve`` rotates two V
buffers: step n + 1 writes V_{n+2} over V_n once step n's observers are
done with it, and the time difference Vt of every step end goes into one
buffer the stepper holds, so a warm step takes no fresh field.  So what a
step end hands out is valid during its ``observe`` alone: the next step
writes over its V_prev, its pair and its Vt, and the step after over its
V.  Observers must not write to the end-of-step arrays, and they copy what
they keep (the recorder copies V).

The snapshot recorder observes every march; on a steady basic state (the
energy estimate's) the constraint monitors (div hdot, the wall magnetic
constraint, the boundary energy), the a priori monitor behind
``Trajectory.cstar`` and the ledger observe it too.  A time-dependent
march (the Nash-Moser solve's) differentiates no end-of-step V of its own
and interpolates only the bundle entries it applies.
``Trajectory.timings`` gives the wall seconds of the march, of the step end
work on a steady state (``step_end``) and of each observer; they are the
one part of a trajectory that is not reproducible.

Coefficients are built at snapshots, each family by its own pass: the
cache builds the solved family and interpolates a time-dependent state's
bundles between snapshots, and the ledger builds the symmetrized family
of its own multiplier and J alone.  The march reads the snapshot brackets
in time order, so the cache holds the two bundles of the current bracket
and drops the ones behind it; a lookup behind the window rebuilds its
bundles from their frames, bit for bit.  The snapshots must cover
[0, t_final].

A steady basic state that is constant along the front (the planar sheet)
has both families assembled on one x2 column and broadcast along x2, and
a cache matrix that is uniform along the column too is stored (1, 1).
Every matrix the ledger and the a priori monitor apply then varies in x1
at most, so each of their quadratic forms contracts the matrix against a
per-x1 Gram G_ij(x1) = sum over x2 of X_i Y_j (``_form``): one batched
matrix product per field pair, and the step end work takes the Grams of
V, d1 V, d2 V and the time difference once for both observers.  A state
whose matrices vary along x2 (the sheared sheet) applies them to the full
fields.

The two sides of the sheet meet only in the wall rows, so on a one-column
bundle the march runs each side's full-field work as one task on a pool
of two workers (``_on_sides``), which the first such task starts and
every later march reuses: per stage, the side's pair d1 V, d2 V (unless
held; of d1 V only the components ``M1`` reads), its rows of the stage
derivative and its Shu-Osher update, and at each step end the side's
step end work: its pair, its Vt and its Grams of V, d1 V, d2 V and Vt.
The calling thread does the rest between the tasks: the bundle lookups
(``_CoeffCache.at``), the forcing memo (``F_at``, a dict that is not
thread-safe), ``g_at``, the front rate, the phi updates and the wall
injection ``apply_bc``, and the observers, which contract the held Grams
and form what else they read (div hdot, the cross Grams with F).  Each
task runs in a copy of the caller's context, so the caller's
``np.errstate`` holds in it.  Every value is formed by the same ufuncs on
the same operands as on one thread, so it keeps its bits, and each buffer
the step hands out is written by the same stage as on one thread, so it
stays valid for exactly as long.  Any other bundle (the sheared sheet's, a
time-dependent state's) marches on the calling thread alone: on the small
grids of the Nash-Moser solve, per-side tasks cost more than they save.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import astuple, dataclass, field
from functools import cached_property, partial

import numpy as np

from .grid import Grid
from .linearized import (IHN, IH2V, IQ, IUN, BasicState,
                         assemble_effective, assemble_symmetrized,
                         boundary_traces, bracket, j_matrix)
from .mhd import PhysState, _require_admissible
from .profiles import SigmaWeight, quintic_step
from .scenarios import ManufacturedForcing
from .stability import (LambdaPair, StabilityError, extend_lambda,
                        linearized_wall_rows)


class NumericsError(RuntimeError):
    """CFL violation or non-finite values during a run."""


_MAX_STEPS = 200_000    # evolve refuses a march longer than this
# forced sheared sheet, t = 2: ledger I within 1 % of its cfl 0.4 value up to
# 2.40, 2.28, 2.22, 2.17 on 32^2..256^2, not past; the onset falls with h
_CFL_MAX = 2.0
_STEP_ROUNDOFF = 1e-9   # t_final / dt up to this above n takes n steps
_SPONGE_WIDTH = 0.2     # absorbing collar: the outer fifth of [0, L1]
_SIDES = 2              # the plus and the minus side, one pool worker each
_side_pool = None       # the per-side pool, started by its first task
_side_pool_lock = threading.Lock()


def _on_sides(task) -> None:
    """task(0) and task(1), one task per side on the side pool, each in its
    own copy of the caller's context, so that the caller's numpy error
    state (``np.errstate``, a context variable) holds in both; returns
    once both have ended, raising the first side's error if any."""
    global _side_pool
    with _side_pool_lock:
        if _side_pool is None:
            _side_pool = ThreadPoolExecutor(_SIDES,
                                            thread_name_prefix="cvsheet-side")
        pool = _side_pool
    futures = [pool.submit(contextvars.copy_context().run, task, s)
               for s in range(_SIDES)]
    wait(futures)               # both sides end before either error is raised
    for f in futures:
        f.result()


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


@dataclass
class EnergyLedger:
    rows: list = field(default_factory=list)

    def final(self) -> LedgerRow:
        return self.rows[-1]


@dataclass
class Trajectory:
    """What the observers of one ``evolve`` march recorded.

    ``times`` and ``phi`` hold every step (t = 0 included), ``snapshots``
    the fields at ``snapshot_times``.  The constraint monitors give
    ``boundary_energy``, ``div_residual`` and ``hn_residual`` per step, the
    a priori monitor ``apriori`` (and so ``cstar``), the ledger ``ledger``.
    These run on a steady basic state only; on a time-dependent one their
    fields are None.  ``timings`` holds the wall seconds of the march, of
    the step end work (``step_end``, on a steady state) and of each
    observer that ran; it is the one field that differs between runs of
    the same inputs.
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
    """Largest |u_k| + c_f over both sides of every snapshot of ``basic``."""
    st = PhysState.from_vector(np.moveaxis(basic.U, 2, 0))
    rho, rho_p = _require_admissible(st, basic.eos)
    ca2 = (st.H1 ** 2 + st.H2 ** 2) / rho
    cf = np.sqrt(1.0 / rho_p + ca2)     # c^2 = 1 / rho_p
    return max(float(np.max(np.abs(st.u1) + cf)),
               float(np.max(np.abs(st.u2) + cf)))


def cfl_timestep(basic: BasicState, cfl: float = 0.4) -> float:
    """Stable explicit step for the fast magnetosonic bound of the state,
    taken over all of its snapshots."""
    g = basic.grid
    return cfl / (_speed_bound(basic) * (2.0 / g.h1 + 1.0 / g.h2))


class _CoeffCache:
    """The march's solved coefficients, built by snapshot: one bundle for
    steady states, linear interpolation between snapshot bundles otherwise.

    The march reads its snapshot brackets [k, k + 1] in time order, so a
    time-dependent cache holds the two bundles of the current bracket
    only and builds each snapshot's bundle once.  A lookup behind the
    window rebuilds the bundles it needs from their frames, bit for bit.

    A bundle, or a blend of two, holds ``M1``, ``M2``, ``M3`` and
    ``A0invJt`` from ``assemble_effective`` and the wall traces.  The
    steady bundle adds ``J`` and ``d1phi``, which only the monitors read;
    the symmetrized family is the ledger's to build (``_LedgerAccumulator``).

    A steady state whose ``U`` and ``phi`` are exactly x2-invariant (the
    planar sheet's) is assembled on one x2 column, the ``source`` state on
    ``Grid(n1, 1, L1, L2)``: every field of the bundle, ``d1phi`` and the
    wall traces included, is then (..., n1, 1) or (1,) and broadcasts
    against (2, 6, n1, n2) fields.  A one-column field has d2 exactly 0, as
    the full x2-invariant field has, so the column holds the bits of the
    full assembly.  Of its bundle, ``J`` and each march matrix that is
    exactly uniform along the column as well (every one of the uniform
    planar sheet's) is stored (2, 6, 6, 1, 1): ``_row_apply`` then forms
    a scalar's product per entry, not a column's broadcast.  The bundle
    also holds, under ``cols``, each march matrix's ``_row_columns``, found
    once with it, and under ``d1_cols`` the slice of components from the
    first to the last column that ``M1`` reads on either side (q and u_n
    on the planar sheet): the only part of d1 V a stage applies.
    """

    _MARCH_KEYS = ("M1", "M2", "M3", "A0invJt")     # what the march applies

    def __init__(self, basic: BasicState):
        self.basic = basic
        self.source = basic             # the state the bundles are built from
        if basic.steady and all(np.all(a == a[..., :1])
                                for a in (basic.U, basic.phi)):
            g = basic.grid
            self.source = BasicState(
                grid=Grid(g.n1, 1, g.L1, g.L2), eos=basic.eos,
                U=basic.U[..., :1], phi=basic.phi[..., :1])
        self._steady = None
        self._snap: dict = {}
        self._last = (None, None)   # (t, bundle) of the latest lookup

    @property
    def one_column(self) -> bool:
        """Whether the bundle is assembled on one x2 column."""
        return self.source is not self.basic

    def at(self, t: float):
        if self.basic.steady:
            if self._steady is None:
                self._steady = b = self._build(0)
                fr = self.source.frame(0)
                b.update(J=j_matrix(fr), d1phi=fr.lifted.d1_phi_map)
                if self.one_column:
                    for key in ("J",) + self._MARCH_KEYS:
                        if np.all(b[key] == b[key][..., :1, :]):
                            b[key] = b[key][..., :1, :]
                    b["cols"] = cols = {key: _row_columns(b[key])
                                        for key in self._MARCH_KEYS}
                    m1 = [j for side in cols["M1"] for row in side
                          for j in row]
                    b["d1_cols"] = slice(min(m1), max(m1) + 1)
            return self._steady
        if self._last[0] != t:
            self._last = (t, self._interpolate(t))
        return self._last[1]

    def _interpolate(self, t: float):
        k, w = bracket(self.basic.tgrid, t)
        # the march reads its brackets in time order: keep bracket k's pair
        self._snap = {j: b for j, b in self._snap.items() if j in (k, k + 1)}
        b0 = self._bundle(k)
        if w == 0.0:
            return b0
        b1 = self._bundle(k + 1)
        out = {key: (1 - w) * b0[key] + w * b1[key]
               for key in self._MARCH_KEYS}
        out["traces"] = {key: (1 - w) * b0["traces"][key]
                         + w * b1["traces"][key] for key in b0["traces"]}
        return out

    def _bundle(self, k: int):
        if k not in self._snap:
            self._snap[k] = self._build(k)
        return self._snap[k]

    def _build(self, k: int):
        fr = self.source.frame(k)
        ops = assemble_effective(fr)
        bundle = {key: getattr(ops, key) for key in self._MARCH_KEYS}
        bundle["traces"] = boundary_traces(fr.grid, fr.U, fr.phi)
        return bundle


def _ledger_multiplier(basic: BasicState):
    """(lam_field (2, n1, n2), fallback reason or None) of the ledger: the
    wall multiplier of the t = 0 wall rows extended into the interior, or 0
    with the reason when the state breaks the stability condition."""
    grid = basic.grid
    fallback = None
    try:
        lam_pair = basic.lambda_boundary()
    except StabilityError as exc:
        fallback = str(exc)
        lam_pair = LambdaPair(lam_plus=np.zeros(grid.n2),
                              lam_minus=np.zeros(grid.n2))
    return (extend_lambda(lam_pair, grid.x1,
                          eps=max(4 * grid.h1, 0.05 * grid.L1)), fallback)


def evolve(basic: BasicState, t_final: float, *, forcing=None, bdata=None,
           cfl: float = 0.4, sponge_strength: float = 2.0,
           snapshot_times=None,
           dt_override: float | None = None) -> Trajectory:
    """March the linearized problem from rest with causal data.

    ``forcing(t) -> (2, 6, n1, n2)`` in the good-unknown components and
    ``bdata(t) -> (3, n2)`` for (g1+, g1-, g2) both default to zero.  Zero
    data reproduce the zero solution exactly.  A steady ``basic`` is
    observed by every monitor and the ledger; a time-dependent one by the
    snapshot recorder alone (``times``, ``phi``, ``snapshots``), and its
    snapshots must cover [0, t_final].
    ``t_final``, ``cfl`` and a given ``dt_override`` must be positive and
    finite, and ``cfl`` at most ``_CFL_MAX``; the march takes at least one
    step.  ``snapshot_times`` must be finite, non-decreasing and inside
    [0, t_final]; each takes V at the step nearest to it (the earlier of two
    equally near).  A march whose V, phi or ledger row is not finite ends
    in ``NumericsError``.
    """
    for name, value in (("t_final", t_final), ("cfl", cfl),
                        ("dt_override", dt_override)):
        if value is not None and not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got "
                             f"{value!r}")
    if not cfl <= _CFL_MAX:
        raise ValueError(f"cfl must be <= {_CFL_MAX}, got {cfl!r}")
    req = [] if snapshot_times is None else [float(t) for t in snapshot_times]
    slack = _STEP_ROUNDOFF * t_final
    for prev, t in zip([-slack] + req, req):
        if not prev <= t <= t_final + slack:
            raise ValueError(f"snapshot time {t!r} is not finite, in order "
                             f"and inside [0, {t_final!r}]")
    if not basic.steady:
        tg = basic.tgrid
        slack = _STEP_ROUNDOFF * (tg[-1] - tg[0])
        if tg[0] > slack or t_final > tg[-1] + slack:
            raise ValueError(f"the snapshots cover [{tg[0]:.6g}, "
                             f"{tg[-1]:.6g}], not the march's [0, "
                             f"{t_final:.6g}]")
    grid = basic.grid
    stepper = LinearizedStepper(basic, forcing=forcing, bdata=bdata,
                                sponge_strength=sponge_strength)
    dt = cfl_timestep(basic, cfl) if dt_override is None else dt_override
    nsteps = max(1, int(np.ceil(t_final / dt - _STEP_ROUNDOFF)))
    if nsteps > _MAX_STEPS:
        raise NumericsError(f"CFL step count {nsteps} exceeds {_MAX_STEPS}")
    dt = t_final / nsteps

    observers = {"snapshots": _SnapshotRecorder(req, dt)}
    if basic.steady:
        observers.update(
            constraints=_ConstraintMonitor(grid, stepper.n1_phys),
            apriori=_AprioriMonitor(grid, stepper.cache, forcing, dt),
            ledger=_LedgerAccumulator(grid, stepper.cache.source, dt,
                                      stepper.sponge))
    timings = dict.fromkeys(("march", *(("step_end",) if basic.steady
                                        else ()), *observers), 0.0)

    def step_end(V, phi, V_prev=None) -> _StepEnd:
        """The step end the observers read, after the stepper's step end
        work on V (``derivatives``) on a steady state."""
        if basic.steady:
            t0 = time.perf_counter()
            stepper.derivatives(V, V_prev, dt)
            timings["step_end"] += time.perf_counter() - t0
        return _StepEnd(stepper, t, V, phi, basic.steady, V_prev)

    def observe(method: str, end: _StepEnd) -> None:
        for name, obs in observers.items():
            t0 = time.perf_counter()
            getattr(obs, method)(end)
            timings[name] += time.perf_counter() - t0

    t = 0.0
    V = np.zeros((2, 6, grid.n1, grid.n2))
    phi = np.zeros(grid.n2)
    observe("start", step_end(V, phi))
    spare = None        # the buffer step n + 1 writes V_{n+2} into
    for n in range(nsteps):
        t0 = time.perf_counter()
        t_next = (n + 1) * dt
        V_prev = V
        V, phi = stepper.step(V, phi, t, dt, t_next, out=spare)
        t = t_next
        if not (np.all(np.isfinite(V)) and np.all(np.isfinite(phi))):
            raise NumericsError(f"non-finite values at t={t:.6g}")
        timings["march"] += time.perf_counter() - t0
        observe("observe", step_end(V, phi, V_prev))
        # the observers are done with V_n: the next step writes over it
        spare = V_prev
    # the march's fields and the stepper's buffers go before the snapshots
    # are stacked
    stepper = V = V_prev = spare = None

    rec = observers["snapshots"]
    out = dict(times=np.asarray(rec.times), phi=np.asarray(rec.phis),
               snapshots=np.asarray(rec.snaps) if rec.snaps else None,
               snapshot_times=(np.asarray(rec.snap_ts) if rec.snap_ts
                               else None))
    if basic.steady:
        con = observers["constraints"]
        out.update(boundary_energy=np.asarray(con.be),
                   div_residual=np.asarray(con.div),
                   hn_residual=np.asarray(con.hn),
                   apriori=observers["apriori"].sums,
                   ledger=observers["ledger"].ledger,
                   lambda_fallback=observers["ledger"].lambda_fallback)
    return Trajectory(**out, timings=timings)


class _StepEnd:
    """The march's state after a step, as its observers read it: t, V, phi
    and, on a steady state, what the stepper's step end work
    (``derivatives``) left in its buffers: the pair (d1 V, d2 V), the time
    difference ``Vt`` = (V - V_prev) / dt of the step and the per-x1 Grams
    of these fields (``gram``).  On first read it also gives the end-stage
    bundle ``co``, the forcing ``f``, div hdot, d2 phi and the front rate
    ``phit`` of ``phi_rate``.  The state at rest that starts the march has
    no ``V_prev`` and no ``Vt``.  Observers must not write to these
    arrays, nor keep V, ``V_prev``, ``Vt``, the pair or a Gram past
    ``observe``: each sits in a buffer that a later step overwrites (see
    the module docstring)."""

    def __init__(self, stepper, t, V, phi, steady, V_prev=None):
        self.stepper, self.t, self.V, self.phi = stepper, t, V, phi
        self.V_prev = V_prev
        self.d1V, self.d2V = ((stepper._d1, stepper._d2) if steady
                              else (None, None))
        self.Vt = stepper._vt if steady and V_prev is not None else None

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

    @cached_property
    def d2phi(self):
        return self.stepper.grid.d2_boundary(self.phi)

    @cached_property
    def phit(self):
        return self.stepper.phi_rate(self.V, self.phi, self.d2phi,
                                     self.co["traces"],
                                     self.stepper.g_at(self.t))

    def gram(self, name: str):
        """``_gram`` of the field ``name`` ("V", "d1V", "d2V" or "Vt") with
        itself, as the step end work took it for every observer."""
        return self.stepper.grams[name]


class _SnapshotRecorder:
    """``times``, ``phi`` at every step and V at the step nearest to each
    of the sorted requested times ``req``."""

    def __init__(self, req: list, dt: float):
        self._req = list(req)
        self.dt = dt
        self.times, self.phis, self.snaps, self.snap_ts = [], [], [], []

    def observe(self, end: _StepEnd) -> None:
        self.times.append(end.t)
        self.phis.append(end.phi.copy())
        while self._req and end.t >= self._req[0] - 0.5 * self.dt:
            self.snaps.append(end.V.copy())
            self.snap_ts.append(end.t)
            self._req.pop(0)

    start = observe


class _ConstraintMonitor:
    """Boundary energy and the div hdot and wall magnetic constraint
    residuals per step: exactly 0 at rest, where V and phi vanish."""

    def __init__(self, grid: Grid, n1_phys: int):
        self.grid = grid
        self.n1_phys = n1_phys
        self.be, self.div, self.hn = [], [], []

    def observe(self, end: _StepEnd) -> None:
        self.be.append(float(np.sum(end.V[:, :, 0, :] ** 2) * self.grid.h2))
        dres, hres = _constraint_residuals(end, self.n1_phys)
        self.div.append(dres)
        self.hn.append(hres)

    start = observe


def _mat_apply2(M, v, out=None):
    """Per-side 6x6 apply M v, written into ``out`` if given (a float
    array of v's shape that is not v) and returned.

    An M that varies in x1 at most, stored (2, 6, 6, n1, 1) as the cache
    and the ledger assemble it on one column, or uniform, stored
    (2, 6, 6, 1, 1) as the cache keeps a uniform column, is applied
    through its nonzero entries, accumulated in column order onto zeros as
    the einsum accumulates them; for a uniform M both paths give the same
    bits.
    """
    if M.shape[-1] != 1:
        return np.einsum("sij...,sj...->si...", M, v, out=out)
    out = np.empty(v.shape) if out is None else out
    prod = np.empty(v.shape[2:])
    cols = _row_columns(M)
    for s, i in np.ndindex(*M.shape[:2]):
        if _row_apply(M, v, s, i, out[s, i], prod, cols[s][i]) is None:
            out[s, i].fill(0.0)
    return out


def _row_columns(M):
    """The columns of each row's nonzero entries in a one-column or
    uniform M, as ``cols[s][i]``, a tuple of column indices."""
    nonzero = np.any(M[..., 0] != 0.0, axis=-1)
    return [[tuple(np.flatnonzero(row).tolist()) for row in side]
            for side in nonzero]


def _row_apply(M, v, s, i, out, prod, cols):
    """Row (s, i) of ``_mat_apply2(M, v)`` for a one-column or uniform M,
    written into ``out`` and returned, with the same bits: the products of
    the row's nonzero entries, formed in ``prod`` and accumulated in
    column order onto 0.0.  None, with ``out`` untouched, for a row
    without entries (the row of zeros).  ``cols`` is the row's entry of
    ``_row_columns(M)``."""
    m = M[s, i, ..., 0]
    if len(cols) == 0:
        return None
    np.add(0.0, np.multiply(m[cols[0], :, None], v[s, cols[0]], out=prod),
           out=out)
    for j in cols[1:]:
        out += np.multiply(m[j, :, None], v[s, j], out=prod)
    return out


def _inner(X, Y, w) -> float:
    """Sum over sides, components and x2 of X Y, then along x1 against the
    weights ``w`` (n1,): one quadrature of a sum of products, with no
    full-size temporary."""
    n1, n2 = X.shape[-2:]
    rows = np.einsum("kij,kij->i", X.reshape(-1, n1, n2),
                     Y.reshape(-1, n1, n2))
    return float(rows @ w)


def _gram(X, Y, out=None):
    """Per-side, per-x1 Gram G[s, x1, i, j] = sum over x2 of X_si Y_sj, of
    (2, m, n1, n2) fields: one batched matrix product on transposed
    views, (2, n1, m, m'), written into ``out`` if given.  One side's
    (m, n1, n2) fields give its (n1, m, m') Gram, with the same bits."""
    return np.matmul(np.swapaxes(X, -3, -2), np.moveaxis(Y, -3, -1),
                     out=out)


def _form(M, X, Y, w, G=None) -> float:
    """The quadrature of X . (M Y) along x1 against ``w``, for a per-side
    matrix field M (2, m, m', n1, n2).

    An M that varies in x1 at most, stored (..., n1, 1) or (..., 1, 1),
    contracts against the Gram of X and Y (``G`` if the caller holds it):
    sum_x1 w sum_sij M_sij G_sij.  A full-field M is applied to Y.
    """
    if M.shape[-1] != 1:
        return _inner(X, _mat_apply2(M, Y), w)
    G = _gram(X, Y) if G is None else G
    return float(np.einsum("sijx,sxij->x", M[..., 0], G) @ w)


def _trace(G, w, comps=slice(None)) -> float:
    """The quadrature of sum_s sum_{k in comps} G[s, :, k, k] against
    ``w``: a sum of squares read off the Gram of a field with itself."""
    diag = np.diagonal(G, axis1=2, axis2=3)[..., comps]
    return float(diag.sum(axis=(0, 2)) @ w)


class LinearizedStepper:
    """One SSP-RK3 step of the characteristic system with wall injection:
    ``apply_bc`` and ``phi_rate`` are the solved form of the kin+, kin- and
    [q] rows of ``linearized_wall_rows``.

    With a one-column bundle, ``rhs``, ``step`` and ``derivatives`` run
    each side's stencils, rows, updates and Grams as one task on the side
    pool, and the lookups, the front rate, the phi updates and
    ``apply_bc`` on the calling thread (see the module docstring).  The
    two tasks write disjoint halves of each buffer and each has its own
    row scratch.  What the stepper hands out (the pair of ``derivatives``,
    ``step``'s ``out``, Vt, ``grams``) stays valid for exactly as long as
    on one thread: until the stepper next writes that buffer."""

    def __init__(self, basic: BasicState, *, forcing=None, bdata=None,
                 sponge_strength: float = 2.0):
        self.grid = basic.grid
        self.cache = _CoeffCache(basic)
        grid = basic.grid
        x1 = grid.x1[:, None]
        sp_start = grid.L1 * (1.0 - _SPONGE_WIDTH)
        self.sponge = sponge_strength * quintic_step(
            (x1 - sp_start) / (grid.L1 - sp_start))
        # rhs forms the sponge product on the rows from the first nonzero
        # one (the outer fifth of x1) alone: dV is accumulated onto +0.0 by
        # additions and subtractions, so it is never -0.0 there, and
        # x - 0.0 V is x, bit for bit
        nonzero = np.flatnonzero(self.sponge[:, 0])
        self._sponge_rows = slice(nonzero[0] if nonzero.size else grid.n1,
                                  None)
        # constraint monitors stop short of the sponge by the stencil width
        self.n1_phys = max(int(np.searchsorted(grid.x1, sp_start)) - 3, 4)
        self._forcing = forcing
        self._f_memo: dict = {}     # t -> forcing(t), the last two times
        self._bdata = bdata
        full = (2, 6, grid.n1, grid.n2)
        self._zero_f = np.zeros(full)
        self._zero_g = np.zeros((3, grid.n2))
        # held by the step: the stage derivative, the pair d1 V, d2 V of a
        # stage or a step end, rhs's full-size product scratch, the step
        # end's time difference Vt and Grams and, for a one-column bundle,
        # each side's two product rows (a buffer left untouched never
        # makes its pages resident)
        self._k, self._d1, self._d2, self._tmp, self._vt = (
            np.empty(full) for _ in range(5))
        self.grams = {name: np.empty((2, grid.n1, 6, 6))
                      for name in ("V", "d1V", "d2V", "Vt")}
        self._rows = np.empty((_SIDES, 2, grid.n1, grid.n2))
        self._pair_of = None        # the V whose pair _d1, _d2 hold

    def F_at(self, t):
        """forcing(t), evaluated once per stage time.  A step asks for t,
        t + dt and t + dt/2, the caller's monitors for t + dt again, and
        the next step for that same time as its t, so a memo of the last
        two times evaluated serves every repeat."""
        if self._forcing is None:
            return self._zero_f
        if t not in self._f_memo:
            if len(self._f_memo) == 2:
                del self._f_memo[next(iter(self._f_memo))]
            self._f_memo[t] = self._forcing(t)
        return self._f_memo[t]

    def g_at(self, t):
        return self._bdata(t) if self._bdata is not None else self._zero_g

    def derivatives(self, V, V_prev=None, dt=None):
        """The step end work on V, returning (d1 V, d2 V).

        The pair goes into the stepper's pair buffers: the first stage of
        a step from this very V reuses it, and the next stage overwrites
        it.  Given the step's ``V_prev`` and ``dt``, Vt = (V - V_prev) / dt
        goes into the stepper's Vt buffer.  The per-x1 Grams (``_gram``) of
        V, d1 V, d2 V and, with Vt, of Vt go into ``grams``, where they stay
        until the next call.  With a one-column bundle each side's share
        is one task on the side pool."""
        self._pair_of = V
        task = partial(self._end_side, V, V_prev, dt)
        if self.cache.one_column:
            _on_sides(task)
        else:
            task()
        return self._d1, self._d2

    def _end_side(self, V, V_prev, dt, s=...):
        """``derivatives``' work on side s, or on the whole field: per-side
        stencils, differences and Grams hold the bits of the whole
        field's."""
        self._pair(V, s)
        fields = [("V", V[s]), ("d1V", self._d1[s]), ("d2V", self._d2[s])]
        if V_prev is not None:
            Vt = np.subtract(V[s], V_prev[s], out=self._vt[s])
            Vt /= dt
            fields.append(("Vt", Vt))
        for name, X in fields:
            _gram(X, X, out=self.grams[name][s])

    def _pair(self, V, s=..., d1_cols=slice(None)):
        """d1 of components ``d1_cols`` and d2 of V[s] (side s, or the
        whole field) into the pair buffers: the stencils act along the
        last two axes alone, so a side's pair holds the bits of the whole
        field's, and a component's those of all six."""
        c = (..., d1_cols, slice(None), slice(None))
        self.grid.d1(V[s][c], out=self._d1[s][c])
        self.grid.d2(V[s], out=self._d2[s])

    def rhs(self, V, phi, t, co, g, pair=None, out=None, then=None):
        """Stage derivative at t, given the bundle and boundary data at t
        and, if the caller holds it, the pair (d1 V, d2 V).

        dV/dt is written into ``out`` (a new array if None), accumulated
        left to right as A0invJt F - M1 d1 V - M2 d2 V - M3 V - sponge V,
        the sponge product on the sponge's nonzero rows alone; a pair the
        caller does not hold is taken into the stepper's pair buffers (on
        a one-column bundle, d1 only of the components ``M1`` reads).
        dphi/dt (``phi_rate``) is formed first, so ``then(s)``,
        which runs on side s of dV once it is formed, may write over V.

        With a one-column bundle (every matrix (..., n1, 1) or (..., 1, 1),
        the planar sheet's, which holds its ``cols``) each side, pair,
        rows and ``then(s)``, is one task on the side pool
        (``_side_rows``); the forcing lookup stays on the calling thread.
        Otherwise each product is one einsum into a full-size scratch and
        ``then(...)`` takes the whole field, on the calling thread:
        per-row einsums and per-side tasks cost more call overhead than
        they save on the small grids of the Nash-Moser solve.
        """
        dphi = self.phi_rate(V, phi, self.grid.d2_boundary(phi),
                             co["traces"], g)
        if pair is None:
            self._pair_of = None
        dV = np.empty(V.shape) if out is None else out
        F = self.F_at(t)
        if "cols" in co:
            def side(s):
                self._side_rows(V, F, co, pair, dV, s)
                if then is not None:
                    then(s)
            _on_sides(side)
            return dV, dphi
        if pair is None:
            self._pair(V)
            pair = (self._d1, self._d2)
        _mat_apply2(co["A0invJt"], F, dV)
        for key, X in (("M1", pair[0]), ("M2", pair[1]), ("M3", V)):
            dV -= _mat_apply2(co[key], X, self._tmp)
        r = (..., self._sponge_rows, slice(None))
        dV[r] -= np.multiply(self.sponge[r], V[r], out=self._tmp[r])
        if then is not None:
            then(...)
        return dV, dphi

    def _side_rows(self, V, F, co, pair, dV, s):
        """Side s of the one-column dV: the side's pair first if the
        caller does not hold it, with d1 of the components ``M1`` reads
        alone (``d1_cols``), then one (side, component) row at a time,
        each product row (``_row_apply``) in the side's own row scratch,
        so a row's operands stay in cache, and a product row without
        entries not formed (x - 0.0 is x)."""
        if pair is None:
            self._pair(V, s, co["d1_cols"])
            pair = (self._d1, self._d2)
        cols, (part, prod) = co["cols"], self._rows[s]
        terms = (("M1", pair[0]), ("M2", pair[1]), ("M3", V))
        r, sponge = self._sponge_rows, self.sponge[self._sponge_rows]
        for i in range(V.shape[1]):
            row = dV[s, i]
            if _row_apply(co["A0invJt"], F, s, i, row, prod,
                          cols["A0invJt"][s][i]) is None:
                row.fill(0.0)
            for key, X in terms:
                if _row_apply(co[key], X, s, i, part, prod,
                              cols[key][s][i]) is not None:
                    row -= part
            row[r] -= np.multiply(sponge, V[s, i, r], out=part[r])

    @staticmethod
    def phi_rate(V, phi, d2phi, tr, g):
        """dphi/dt solving the kin+ row, from the basic wall traces ``tr``
        and the boundary data ``g`` of one time."""
        return V[0, IUN, 0, :] + phi * tr["d1uNp"] - tr["u2p"] * d2phi + g[0]

    def apply_bc(self, V, phi, co, g):
        """Inject q± and u_n± solving the kin+, kin- and [q] rows with the
        front rate of ``phi_rate``, at the stage of ``co`` and ``g``."""
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

    def step(self, V, phi, t, dt, t_end=None, out=None):
        """Advance (V, phi) from t to t_end (three Shu-Osher stages).

        ``t_end`` defaults to t + dt.  A caller that names its step times
        (n + 1) dt passes that float, which can differ from n dt + dt in
        the last bit, so that its monitors and the next step ask the
        forcing memo and the cache for the very time the end stage used.
        The first stage reuses the pair of the last ``derivatives(V)``
        call if it was made for this V.

        The stages are formed in place: each stage derivative k in the
        stepper's stage buffer, and V1, V2 and V_{n+1} in turn in ``out``
        (a float array of V's shape that is not V; a new array if None),
        each written once its predecessor is folded into k
        (``_shu_osher``).  V_{n+1} is returned in ``out``, which the
        stepper does not keep; the pair of ``derivatives`` and Vt stay in
        its buffers until it writes them again.

        With a one-column bundle a stage's derivative and update of each
        side are one task on the side pool.  The calling thread does the
        rest, between the tasks: the bundle and forcing lookups, the front
        rate, the phi updates and the wall injection ``apply_bc``, the
        only steps that couple the sides.
        """
        # one lookup per stage time; the end last, so the cache still holds
        # it when the caller's end-of-step monitors ask for the same time
        s0, sh = t, t + 0.5 * dt
        s1 = t + dt if t_end is None else t_end
        co0, g0 = self.cache.at(s0), self.g_at(s0)
        coh, gh = self.cache.at(sh), self.g_at(sh)
        co1, g1 = self.cache.at(s1), self.g_at(s1)
        stages = ((s0, co0, g0), (s1, co1, g1), (sh, coh, gh))
        walls = ((co1, g1), (coh, gh), (co1, g1))   # each stage's injection

        pair = (self._d1, self._d2) if self._pair_of is V else None
        self._pair_of = None
        k = self._k
        Vn = np.empty(V.shape) if out is None else out
        pn = np.empty(phi.shape)
        for n, ((ts, co, g), wall) in enumerate(zip(stages, walls)):
            X, p = (V, phi) if n == 0 else (Vn, pn)
            _, kp = self.rhs(X, p, ts, co, g, pair if n == 0 else None, k,
                             partial(_shu_osher, n, dt, V, k, Vn))
            _shu_osher(n, dt, phi, kp, pn)
            self.apply_bc(Vn, pn, *wall)
        return Vn, pn


def _shu_osher(n, dt, V, k, out, s=...):
    """Update n (0, 1, 2) of the SSP-RK3 step on side s of the fields, or
    on the whole of V or phi: k, the rate at the stage's input (V, then
    the stage output held in ``out``), becomes dt k and is folded into the
    next stage output, written into ``out``.  The in-place ufunc chains
    keep the operands and the order of V1 = V + dt k,
    V2 = 0.75 V + 0.25 (V1 + dt k) and V_{n+1} = V / 3 + 2/3 (V2 + dt k),
    so every value has its bits."""
    V, k, out = V[s], k[s], out[s]
    k *= dt
    if n == 0:
        np.add(V, k, out=out)
        return
    k += out
    if n == 1:
        k *= 0.25
        np.multiply(V, 0.75, out=out)
    else:
        k *= 2.0 / 3.0
        np.divide(V, 3.0, out=out)
    out += k


def _div_hdot(grid: Grid, d1phi, V, d1V):
    """Discrete div hdot = d1 V_HN + d2(V_H2 d1Phi) per side, (2, n1, n2),
    with d1 V_HN read from d1 V (the stencil acts on each component alone,
    so this is the bits of d1 of V_HN)."""
    return d1V[:, IHN] + grid.d2(V[:, IH2V] * d1phi)


def _constraint_residuals(end: _StepEnd, n1_phys: int):
    """Max-norm residuals of div hdot on the physical region (the sponge
    damping is not divergence-compatible) and of the H_N rows of
    ``linearized_wall_rows`` at the step end."""
    V = end.V
    _, _, hn_p, hn_m, _ = linearized_wall_rows(
        *({"q": V[i, IQ, 0], "uN": V[i, IUN, 0], "HN": V[i, IHN, 0]}
          for i in (0, 1)), end.phi, end.phit, end.d2phi, end.co["traces"])
    return (float(np.max(np.abs(end.div[:, :n1_phys]))),
            max(float(np.max(np.abs(r))) for r in (hn_p, hn_m)))


def _weights(grid: Grid):
    """Quadrature weights along x1 for the plain and the sigma^2-weighted
    integrals: (w1 h2, w1 h2 sigma^2)."""
    w = grid.w1 * grid.h2
    return w, w * SigmaWeight().value(grid.x1) ** 2


def energy_integrals(grid: Grid, V):
    """(I, I1n, Isigma, I2) of a characteristic state V (2, 6, n1, n2)."""
    d1V, d2V = grid.d1(V), grid.d2(V)
    return _gram_energies(*_weights(grid), _gram(V, V),
                          _gram(d1V, d1V), _gram(d2V, d2V))


def _gram_energies(w, wsig, GV, G1, G2):
    """(I, I1n, Isigma, I2) as traces of the Grams of V, d1 V and d2 V, so
    that the ledger, which holds these Grams, and ``energy_integrals`` give
    the same bits."""
    return (_trace(GV, w), _trace(G1, w, [IQ, IUN, IHN]), _trace(G1, wsig),
            _trace(G2, w))


class _AprioriMonitor:
    """Left-Riemann sums of the H1_* integrands behind ``Trajectory.cstar``:
    |Udot|^2 with Udot = J V, |phi|^2_{H1} with dphi/dt the march's own
    front rate (``LinearizedStepper.phi_rate``, boundary datum included),
    and |F|^2, each with its time difference and the sigma d1 and d2 terms.

    Where J is uniform and steady (the planar sheet), d1(J V), d2(J V) and
    the time difference of J V are J d1 V, J d2 V and J Vt, so each |.|^2
    term is the form of J^T J against the step end's Gram of V, d1 V, d2 V
    or Vt (``_form``).  Any other J (the sheared sheet) takes the
    full-field path: J V is applied, differenced in time against the
    previous step's and differentiated.  A
    ``ManufacturedForcing`` is a(t) F0, so its |F|^2 terms are a(t)^2 and
    ((a(t) - a(t - dt)) / dt)^2 times integrals of F0 taken once; any other
    forcing is differentiated every step.
    """

    def __init__(self, grid: Grid, cache: _CoeffCache, forcing, dt: float):
        self.grid = grid
        self.dt = dt
        self.sums = {"u_sq": 0.0, "phi_sq": 0.0, "f_sq": 0.0}
        self._w, self._wsig = _weights(grid)
        self._JtJ = None                # J^T J where the Gram path applies
        J = cache.at(0.0)["J"]
        if J.shape[-2:] == (1, 1):
            self._JtJ = np.einsum("sji...,sjk...->sik...", J, J)
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
        M = self._JtJ
        if M is not None:
            u = (_form(M, end.V, end.V, w, end.gram("V"))
                 + _form(M, end.Vt, end.Vt, w, end.gram("Vt"))
                 + _form(M, end.d1V, end.d1V, self._wsig, end.gram("d1V"))
                 + _form(M, end.d2V, end.d2V, w, end.gram("d2V")))
        else:
            Ud = _mat_apply2(end.co["J"], end.V)
            d = (Ud - self._Ud_prev) / dt
            u = _inner(Ud, Ud, w) + _inner(d, d, w)
            d = g.d1(Ud)
            u += _inner(d, d, self._wsig)
            d = g.d2(Ud)
            u += _inner(d, d, w)
            self._Ud_prev = Ud
        self.sums["u_sq"] += u * dt

        self.sums["phi_sq"] += (float(np.sum(end.phi ** 2 + end.phit ** 2
                                             + end.d2phi ** 2)) * g.h2 * dt)

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
    sponge damping through B0c.  ``evolve`` runs it on steady basic states
    and aborts the march with ``NumericsError`` on a row that is not finite.
    It takes the multiplier of ``source`` (the state the coefficient cache
    assembles from), with ``lambda_fallback`` the reason it fell back to 0
    if it did, and assembles that multiplier's symmetrized family with
    ``assemble_symmetrized`` at the snapshot, and J with ``j_matrix``; it
    forms no solved family.

    Every term is a form ``_form(M, X, Y)``.  ``B0``, J^T S, J^T T and the
    zero-order matrix are (..., n1, 1) for a state assembled on one x2
    column, where they vary in x1 only (through the multiplier and the
    sponge).  Those contract against per-x1 Grams: the step end's Gram of
    V serves B0 and the zero-order form, the cross Grams of V with F and
    with div hdot / d1Phi the source, and the energies I, I0, I1n, Isigma
    and I2 are traces of the step end's Grams of V, Vt, d1 V and d2 V.  On
    a full-field state (the sheared sheet) the matrices are applied to the
    full fields.
    """

    def __init__(self, grid: Grid, source: BasicState, dt: float, sponge):
        self.grid = grid
        self.dt = dt
        self._w, self._wsig = _weights(grid)
        self.ledger = EnergyLedger()
        self._flux_int = 0.0
        self._prev_integrand = None
        lam_field, self.lambda_fallback = _ledger_multiplier(source)
        fr = source.frame(0)
        self.ops = ops = assemble_symmetrized(fr, lam_field)
        self._Jt = np.swapaxes(j_matrix(fr), 1, 2)
        self._d1phi = fr.lifted.d1_phi_map
        g = grid
        self._zo_matrix = (g.d1(ops.B1) + g.d2(ops.B2)
                           - (ops.B3 + np.swapaxes(ops.B3, 1, 2))
                           - 2.0 * sponge * ops.B0)
        # the source's matrices: J^T S, and J^T T as a one-column matrix
        # (T the secondary symmetrizer's, in U-space)
        self._JtS = np.einsum("sij...,sjk...->sik...", self._Jt, ops.S)
        self._JtT = _mat_apply2(self._Jt, ops.T)[:, :, None]

    def start(self, end: _StepEnd) -> None:
        GV = end.gram("V")
        self._Q0 = self._q(end.V, GV)
        self._prev_integrand = self._integrand(end.V, end.f, end.div, GV)
        self._append(end)

    def observe(self, end: _StepEnd) -> None:
        self.advance_flux(end.V, end.f, end.div, end.gram("V"))
        self._append(end)

    def _append(self, end: _StepEnd) -> None:
        """Append the row of ``end``; ``NumericsError`` if it is not
        finite (a march whose energies overflow)."""
        row = self.row(end)
        if not np.all(np.isfinite(astuple(row))):
            raise NumericsError(f"non-finite energy ledger at t={end.t:.6g}")
        self.ledger.rows.append(row)

    def _q(self, V, GV=None):
        return _form(self.ops.B0, V, V, self._w, GV)

    def _integrand(self, V, F, div, GV=None):
        ops = self.ops
        g = self.grid
        b_wall = np.einsum("sij...,si...,sj...->s...",
                           ops.B1[..., 0, :], V[..., 0, :], V[..., 0, :])
        b_far = np.einsum("sij...,si...,sj...->s...",
                          ops.B1[..., -1, :], V[..., -1, :], V[..., -1, :])
        flux = float((b_wall.sum(axis=0) * g.h2).sum()
                     - (b_far.sum(axis=0) * g.h2).sum())
        # the discrete div hdot source restores the exact A/B equivalence
        q = (div / self._d1phi)[:, None]
        src = 2.0 * (_form(self._JtS, V, F, self._w)
                     + _form(self._JtT, V, q, self._w))
        zo = _form(self._zo_matrix, V, V, self._w, GV)
        return flux + src + zo

    def advance_flux(self, V, F, div, GV=None):
        """Trapezoid accumulation of the identity's right-hand side."""
        val = self._integrand(V, F, div, GV)
        self._flux_int += 0.5 * self.dt * (self._prev_integrand + val)
        self._prev_integrand = val

    def row(self, end: _StepEnd) -> LedgerRow:
        """The ledger row of ``end``, with I0 from the time difference of
        its step (0 at rest)."""
        g = self.grid
        I, I1n, Isig, I2 = _gram_energies(self._w, self._wsig, end.gram("V"),
                                          end.gram("d1V"), end.gram("d2V"))
        I0 = 0.0 if end.V_prev is None else _trace(end.gram("Vt"), self._w)
        phiL2 = float(np.sqrt(np.sum(end.phi ** 2) * g.h2))
        res = self._q(end.V, end.gram("V")) - self._Q0 - self._flux_int
        return LedgerRow(t=end.t, I=I, I0=I0, I1n=I1n, Isigma=Isig, I2=I2,
                         phiL2=phiL2, identity_residual=res)
