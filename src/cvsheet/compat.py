"""Compatibility machinery: time jets, approximate solutions, and forcing.

Initial data for the sheet problem determine the front's slope and speed
through the wall constraints: with (H2+)^2 + (H2-)^2 > 0,

    d2 phi = (H1+ H2+ + H1- H2-) / ((H2+)^2 + (H2-)^2),
    dt phi = u1+ - u2+ d2 phi,

and the interior equations written as dt U = -A0^{-1} (A1~ d1 U + A2 d2 U)
generate the time jets U_j = dt^j U|_{t=0}, phi_j recursively.  The jets
are extracted by finite differencing the assembled right-hand side in time
(applied to the running Taylor polynomial) instead of expanding the
recursion symbolically; the stencil order controls the accuracy.

An approximate solution is the jets' Taylor polynomial in time under a
plateau cutoff; applying the nonlinear operator to it yields the absorbed
forcing, which vanishes identically for t < 0 and decays like t^J at 0+
when the data are compatible to order J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .front import apply_L, lift_front, straightened_coefficients
from .grid import Grid
from .mhd import IH1, IH2, IP, IS, IU1, IU2, NCOMP
from .profiles import CutoffChi, quintic_step, time_bump, time_bump_d

_SLOPE_TOL = 1e-12    # least (H2+)^2 + (H2-)^2 the front slope is read from
_FD_STEP = 0.02       # node spacing of the jets' time-difference stencils
_FD_ORDER = 4         # least accuracy order of those stencils
_COMPAT_TOL = 1e-10   # largest wall jump coefficient of a compatible order
_N_CHECK = 9          # sample times of the smallness norm on [0, T]


class SmallnessError(RuntimeError):
    """The approximate solution misses its smallness budget at this horizon."""


@dataclass
class InitialData:
    """One-sided data U0± on the spatial grid plus the initial front."""

    grid: Grid
    eos: object
    U0: np.ndarray               # (2, 6, n1, n2)
    phi0: np.ndarray             # (n2,)
    chi: CutoffChi = field(default_factory=CutoffChi)

    def __post_init__(self):
        self.U0 = np.asarray(self.U0, dtype=float)
        self.phi0 = np.asarray(self.phi0, dtype=float)


def front_slope(U_boundary: np.ndarray) -> np.ndarray:
    """Front slope mu from the one-sided wall traces (2, 6, n2)."""
    H2p, H2m = U_boundary[0, IH2], U_boundary[1, IH2]
    denom = H2p ** 2 + H2m ** 2
    if np.min(denom) < _SLOPE_TOL:
        raise ValueError("both H2 wall traces vanish: slope undefined")
    return (U_boundary[0, IH1] * H2p + U_boundary[1, IH1] * H2m) / denom


def front_speed(U_boundary: np.ndarray) -> np.ndarray:
    """Front speed eta = u1+ - u2+ mu from the wall traces."""
    mu = front_slope(U_boundary)
    return U_boundary[0, IU1] - U_boundary[0, IU2] * mu


def _fd_weights(nodes: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for the order-th derivative at 0."""
    n = len(nodes)
    A = np.vander(nodes, n, increasing=True).T
    b = np.zeros(n)
    b[order] = math.factorial(order)
    return np.linalg.solve(A, b)


@dataclass
class TimeJet:
    """Taylor coefficients U_j, phi_j of the solution at t = 0."""

    data: InitialData
    Uj: list                    # order+1 arrays (2, 6, n1, n2)
    phij: list                  # order+1 arrays (n2,)
    order: int

    def save(self, directory) -> None:
        """Binary grid files per coefficient plus a manifest JSON."""
        import json
        from pathlib import Path

        from .grid import GridFunction
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        g = self.data.grid
        for j, (U, p) in enumerate(zip(self.Uj, self.phij)):
            for s, tag in ((0, "plus"), (1, "minus")):
                for c in range(6):
                    GridFunction(U[s, c], g).save(out / f"jet{j}_{tag}_c{c}.cvsg")
            GridFunction(np.broadcast_to(p, (g.n1, g.n2)).copy(), g).save(
                out / f"jet{j}_phi.cvsg")
        manifest = {
            "order": self.order,
            "grid": {"n1": g.n1, "n2": g.n2, "L1": g.L1, "L2": g.L2},
            "eos": {"gamma": getattr(self.data.eos, "gamma", None)},
            "chi": {"plateau": self.data.chi.plateau,
                    "width": self.data.chi.width},
        }
        (out / "jet_manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=1) + "\n")

    def u_poly(self, t: float, shift: int = 0) -> np.ndarray:
        """Interior polynomial (or its shift-th time derivative)."""
        return _taylor(self.Uj, t, shift)

    def phi_poly(self, t: float, shift: int = 0) -> np.ndarray:
        """Front polynomial (or its shift-th time derivative)."""
        return _taylor(self.phij, t, shift)


def _taylor(coeffs, t: float, shift: int) -> np.ndarray:
    """shift-th time derivative of sum_j coeffs[j] t^j / j!."""
    out = np.zeros_like(coeffs[0])
    for j, cj in enumerate(coeffs[shift:], start=shift):
        out += cj * t ** (j - shift) / math.factorial(j - shift)
    return out


def _rhs_eval(data: InitialData, Upoly, phipoly, dphipoly):
    """-A0^{-1}(A1~ d1 U + A2 d2 U) on the grid for polynomial samples."""
    g = data.grid
    lifted = lift_front(phipoly, g, data.chi, dphipoly)
    coeffs = straightened_coefficients(Upoly, lifted, data.eos)
    rhs = apply_L(coeffs, None, g.d1(Upoly), g.d2(Upoly),
                  np.empty_like(Upoly))
    a0 = np.stack([np.einsum("kk...->k...", a) for a, _, _ in coeffs])
    return rhs / -a0                    # A0 is diagonal


def time_jet(data: InitialData, order: int) -> TimeJet:
    """Jets by nested time differencing of the assembled right-hand side.

    Each level extends the front polynomial first (its recursion needs one
    fewer derivative), then differences the interior right-hand side
    evaluated on the running Taylor polynomial.  Derivative blow-up of the
    sampled data surfaces as non-finite values here.
    """
    jet = TimeJet(data=data, Uj=[data.U0.copy()], phij=[data.phi0.copy()],
                  order=order)
    for j in range(order):
        npts = j + _FD_ORDER + (j + _FD_ORDER) % 2 + 1
        M = npts // 2
        nodes = _FD_STEP * np.arange(-M, M + 1)
        w = _fd_weights(nodes, j)

        eta_acc = np.zeros_like(data.phi0)
        for tm, wm in zip(nodes, w):
            if wm == 0.0:
                continue
            U = jet.u_poly(tm)
            eta_acc += wm * front_speed(U[:, :, 0, :])
        jet.phij.append(eta_acc)

        rhs_acc = np.zeros_like(data.U0)
        for tm, wm in zip(nodes, w):
            if wm == 0.0:
                continue
            U = jet.u_poly(tm)
            rhs_acc += wm * _rhs_eval(data, U, jet.phi_poly(tm),
                                      jet.phi_poly(tm, shift=1))
        if not np.all(np.isfinite(rhs_acc)):
            raise ValueError(f"time jet of order {j + 1} is not finite; "
                             "the sampled data lack smoothness")
        jet.Uj.append(rhs_acc)
    return jet


@dataclass
class CompatibilityReport:
    orders: list
    velocity_residuals: list
    pressure_residuals: list
    tolerance: float

    def compatible_up_to(self) -> int:
        k = -1
        for j in self.orders:
            if (self.velocity_residuals[j] <= self.tolerance
                    and self.pressure_residuals[j] <= self.tolerance):
                k = j
            else:
                break
        return k


def check_compatibility(jet: TimeJet, order: int) -> CompatibilityReport:
    """Taylor coefficients of the wall jump conditions, order by order.

    Differentiates [u1] - [u2] d2 phi and [p + |H|^2/2] in time through the
    jets' Cauchy products; order j compatible means both coefficients
    vanish at the wall.
    """
    g = jet.data.grid
    # boundary trace jets
    tr = [U[:, :, 0, :] for U in jet.Uj]
    d2phi = [g.d2_boundary(p) for p in jet.phij]
    vres, pres = [], []
    for j in range(order + 1):
        if j >= len(jet.Uj):
            raise ValueError("jet too short for requested order")
        # [u1]_j - sum_l C(j,l) [u2]_{j-l} (d2 phi)_l
        a = tr[j][0, IU1] - tr[j][1, IU1]
        for l in range(j + 1):
            cjl = math.comb(j, l)
            a -= cjl * (tr[j - l][0, IU2] - tr[j - l][1, IU2]) * d2phi[l]
        vres.append(float(np.max(np.abs(a))))
        # [p]_j + (1/2) sum_l C(j,l) [ (H, H) ]_{l, j-l}
        b = tr[j][0, IP] - tr[j][1, IP]
        for l in range(j + 1):
            cjl = math.comb(j, l)
            for comp in (IH1, IH2):
                b += 0.5 * cjl * (tr[l][0, comp] * tr[j - l][0, comp]
                                  - tr[l][1, comp] * tr[j - l][1, comp])
        pres.append(float(np.max(np.abs(b))))
    return CompatibilityReport(orders=list(range(order + 1)),
                               velocity_residuals=vres,
                               pressure_residuals=pres,
                               tolerance=_COMPAT_TOL)


@dataclass
class ApproxSolution:
    """Taylor-in-time extension of the jets under a plateau time cutoff."""

    jet: TimeJet
    T: float
    delta: float
    smallness: float

    def u(self, t: float) -> np.ndarray:
        bump = float(time_bump(t, self.T))
        Ubar = self.jet.Uj[0]
        return Ubar + bump * (self.jet.u_poly(t) - Ubar)

    def u_t(self, t: float) -> np.ndarray:
        bump = float(time_bump(t, self.T))
        dbump = float(time_bump_d(t, self.T))
        Ubar = self.jet.Uj[0]
        return (dbump * (self.jet.u_poly(t) - Ubar)
                + bump * self.jet.u_poly(t, shift=1))

    def phi(self, t: float) -> np.ndarray:
        bump = float(time_bump(t, self.T))
        p0 = self.jet.phij[0]
        return p0 + bump * (self.jet.phi_poly(t) - p0)

    def phi_t(self, t: float) -> np.ndarray:
        bump = float(time_bump(t, self.T))
        dbump = float(time_bump_d(t, self.T))
        p0 = self.jet.phij[0]
        return (dbump * (self.jet.phi_poly(t) - p0)
                + bump * self.jet.phi_poly(t, shift=1))


def build_approximate(jet: TimeJet, T: float, delta: float) -> ApproxSolution:
    """Cutoff Taylor extension; enforces the smallness budget.

    The measured size is the space-time L^2 norm of the deviation from the
    reference constants over [0, T] (plus the front's), which shrinks like
    sqrt(T): the error message asks for a smaller horizon when the budget
    delta is missed.
    """
    g = jet.data.grid
    # reference constants: the far-field values of the data (wall row of
    # each side extended, matching the trivial-sheet background)
    approx = ApproxSolution(jet=jet, T=T, delta=delta, smallness=np.nan)
    ts = np.linspace(0.0, T, _N_CHECK)
    acc = 0.0
    Ubar = _reference_constants(jet)
    for t in ts:
        du = approx.u(t) - Ubar
        acc += (float(g.integrate((du ** 2).sum(axis=(0, 1))))
                + float(np.sum(approx.phi(t) ** 2) * g.h2))
    smallness = float(np.sqrt(acc * (T / (_N_CHECK - 1))))
    approx.smallness = smallness
    if smallness >= delta:
        raise SmallnessError(
            f"approximate solution size {smallness:.3e} exceeds the budget "
            f"delta={delta:.1e}; shrink the horizon T={T}")
    return approx


def _reference_constants(jet: TimeJet) -> np.ndarray:
    """Per-side constant reference: the far-field (last-row) mean state."""
    far = jet.Uj[0][:, :, -1, :].mean(axis=-1)     # (2, 6)
    return far[:, :, None, None]


def forcing_fa(approx: ApproxSolution):
    """Absorbed forcing: minus the nonlinear operator on the approximate
    solution for t > 0, zero for t <= 0 (bit-exact)."""
    data = approx.jet.data
    g = data.grid

    def F(t: float) -> np.ndarray:
        if t <= 0.0:
            return np.zeros_like(data.U0)
        U = approx.u(t)
        Ut = approx.u_t(t)
        phi = approx.phi(t)
        phit = approx.phi_t(t)
        lifted = lift_front(phi, g, data.chi, phit)
        out = apply_L(straightened_coefficients(U, lifted, data.eos), Ut,
                      g.d1(U), g.d2(U), np.empty_like(U))
        return np.negative(out, out=out)

    return F


def manufactured_initial_data(grid: Grid, eos, *, amplitude: float = 0.05,
                              k2: int = 1, p_plus: float = 1.5,
                              u2_jump: float = 0.3, H2_plus: float = 1.5,
                              H2_minus: float = 1.2,
                              seed: int = 0) -> InitialData:
    """Perturbed contact data, compatible to all orders by construction.

    The perturbation vanishes identically near the wall (so every wall jet
    sees the exact contact constants) and derives its magnetic part from a
    stream function (so div h = 0 exactly on the grid).  amplitude = 0
    returns the stationary contact itself.
    """
    rng = np.random.default_rng(seed)
    p_minus = p_plus + 0.5 * (H2_plus ** 2 - H2_minus ** 2)
    U = np.zeros((2, NCOMP, grid.n1, grid.n2))
    for i, (p, u2, H2) in enumerate(((p_plus, 0.5 * u2_jump, H2_plus),
                                     (p_minus, -0.5 * u2_jump, H2_minus))):
        U[i, IP] = p
        U[i, IU2] = u2
        U[i, IH2] = H2
    if amplitude > 0.0:
        x1, x2 = grid.mesh()
        # plateau mask identically zero below x1 = L1/4: each jet level and
        # the stream-function curl creep inward by a stencil width, so the
        # collar keeps every wall trace exactly at the contact constants
        mask = quintic_step((x1 - 0.25 * grid.L1) / (0.12 * grid.L1))
        mask *= 1.0 - quintic_step((x1 - 0.55 * grid.L1) / (0.25 * grid.L1))
        k = 2 * np.pi * k2 / grid.L2
        for i in range(2):
            ph = rng.uniform(0, 2 * np.pi, size=5)
            stream = amplitude * mask * np.sin(k * x2 + ph[0]) / max(k, 1.0)
            U[i, IH1] += grid.d2(stream)
            U[i, IH2] += -grid.d1(stream)
            U[i, IP] += amplitude * p_plus * mask * np.cos(k * x2 + ph[1])
            U[i, IU1] += amplitude * mask * np.sin(k * x2 + ph[2])
            U[i, IU2] += amplitude * mask * np.cos(k * x2 + ph[3])
            U[i, IS] += amplitude * mask * np.sin(k * x2 + ph[4])
    return InitialData(grid=grid, eos=eos, U0=U, phi0=np.zeros(grid.n2))
