"""Anisotropic weighted norms, traces, lifting, and inequality harnesses.

The conormal derivative family is

    D*^alpha = dt^a0 (sigma d1)^a1 d2^a2 d1^a3,

weighted by <alpha> = a0 + a1 + a2 + 2 a3: the plain normal derivative
counts twice, the sigma-weighted one once.  H^m_* sums the L^2 norms of all
D*^alpha u with <alpha> <= m (a0 = 0 for the space-only norm); the triple
norm freezes time and distributes time derivatives over decreasing spatial
orders.  Both walk the derivative chains depth first, computing each chain
prefix once; ``conormal_derivative`` computes one index alone and is the
walk's test reference.  ``NormReport.truncate`` reads the lower orders out
of one report, bit-identical to fresh norms.  Norm constants of the
calculus inequalities are never explicit in the analysis, so the harnesses
here fit them empirically and check stability under refinement instead of
asserting magic numbers.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, GridFunction, diff_time, trapezoid
from .profiles import SigmaWeight, quintic_step


@dataclass(frozen=True)
class MultiIndex:
    a0: int = 0
    a1: int = 0
    a2: int = 0
    a3: int = 0

    @property
    def weight(self) -> int:
        """<alpha> = |alpha| + a3."""
        return self.a0 + self.a1 + self.a2 + 2 * self.a3

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(self.a0 + other.a0, self.a1 + other.a1,
                          self.a2 + other.a2, self.a3 + other.a3)

    def as_tuple(self):
        return (self.a0, self.a1, self.a2, self.a3)


def enumerate_indices(m: int, space_only: bool = False):
    """All multi-indices with <alpha> <= m (a0 = 0 when space_only)."""
    out = []
    a0_max = 0 if space_only else m
    for a0 in range(a0_max + 1):
        for a1 in range(m + 1):
            for a2 in range(m + 1):
                for a3 in range(m // 2 + 1):
                    mi = MultiIndex(a0, a1, a2, a3)
                    if mi.weight <= m:
                        out.append(mi)
    return out


def conormal_derivative(u: GridFunction, alpha: MultiIndex) -> GridFunction:
    """Apply D*^alpha in display order; sigma is evaluated pointwise before
    each weighted d1.

    Requires at least 5 grid points per differentiated axis (the stencil
    footprint), and a time axis whenever a0 > 0.
    """
    grid = u.grid
    _check_stencils(u, alpha)
    vals = u.values
    sig = SigmaWeight().value(grid.x1)[:, None]
    for _ in range(alpha.a3):
        vals = grid.d1(vals)
    for _ in range(alpha.a2):
        vals = grid.d2(vals)
    for _ in range(alpha.a1):
        vals = sig * grid.d1(vals)
    for _ in range(alpha.a0):
        vals = diff_time(vals, u.dt, axis=0)
    return GridFunction(values=vals, grid=grid, dt=u.dt)


def _check_stencils(u: GridFunction, alpha: MultiIndex) -> None:
    """Raise unless u has the stencil footprint every factor of alpha needs."""
    if alpha.a0 > 0 and not u.is_spacetime:
        raise ValueError("time derivative requested on a spatial field")
    if (alpha.a1 or alpha.a3) and u.grid.n1 < 5:
        raise ValueError("grid too coarse for the x1 stencil")
    if alpha.a2 and u.grid.n2 < 5:
        raise ValueError("grid too coarse for the x2 stencil")
    if alpha.a0 > 0 and u.values.shape[0] < 3:
        raise ValueError("time axis too short for the time stencil")


@dataclass
class NormReport:
    """Total norm with the per-multi-index breakdown (squares sum to total^2)."""

    order: int
    domain: str
    contributions: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return float(np.sqrt(sum(v ** 2 for v in self.contributions.values())))

    def truncate(self, k: int) -> "NormReport":
        """The order-k report: the contributions with <alpha> <= k, in the
        same order, so the total is that of a fresh order-k norm bit for bit.
        """
        if k > self.order:
            raise ValueError(f"cannot read order {k} out of order {self.order}")
        return NormReport(order=k, domain=self.domain, contributions={
            key: v for key, v in self.contributions.items()
            if MultiIndex(*key).weight <= k})

    def to_json(self) -> str:
        payload = {
            "order": self.order,
            "domain": self.domain,
            "total": self.total,
            "contributions": {str(k): v for k, v in self.contributions.items()},
        }
        return json.dumps(payload, sort_keys=True)


def _l2(u: GridFunction, vals: np.ndarray) -> float:
    """Discrete L^2 norm: trapezoid in x1 and t, uniform in periodic x2."""
    grid = u.grid
    sq = vals ** 2
    space = np.einsum("...ij,i->...", sq, grid.w1) * grid.h2
    if vals.ndim == 3:
        return float(np.sqrt(np.sum(space * trapezoid(vals.shape[0], u.dt))))
    return float(np.sqrt(space))


def _powers(vals: np.ndarray, n: int, op):
    """vals, op(vals), ..., op^n(vals), each derived from the one before."""
    for k in range(n + 1):
        if k > 0:
            vals = op(vals)
            if not np.all(np.isfinite(vals)):
                raise ValueError("derived field values must be finite")
        yield vals


def _derivative_walk(u: GridFunction, m: int, space_only: bool):
    """Yield (alpha tuple, D*^alpha u values) for every <alpha> <= m.

    Depth first in application order (d1^a3, d2^a2, (sigma d1)^a1, dt^a0):
    each chain prefix is computed once, and only the current chain (at most
    four derived arrays) is held.  ``enumerate_indices`` order is the sorted
    order of the alpha tuples, not the walk's.
    """
    grid = u.grid
    if m >= 1:  # every unit step is then an index of its own
        _check_stencils(u, MultiIndex(int(not space_only), 1, 1, 0))
    sig = SigmaWeight().value(grid.x1)[:, None]

    def sigma_d1(vals):
        return sig * grid.d1(vals)

    def dt(vals):
        return diff_time(vals, u.dt, axis=0)

    for a3, v3 in enumerate(_powers(u.values, m // 2, grid.d1)):
        for a2, v2 in enumerate(_powers(v3, m - 2 * a3, grid.d2)):
            r1 = m - 2 * a3 - a2
            for a1, v1 in enumerate(_powers(v2, r1, sigma_d1)):
                r0 = 0 if space_only else r1 - a1
                for a0, v0 in enumerate(_powers(v1, r0, dt)):
                    yield (a0, a1, a2, a3), v0


def hm_star_norm(u: GridFunction, m: int, domain: str = "omega") -> NormReport:
    """H^m_* norm on Omega (space-only, a0 = 0) or Omega_T (space-time).

    ``domain`` is "omega", "omega_t", or "gamma_t"; the boundary norm is the
    plain H^m norm in (t, x2) of the trace values.  Contributions are stored
    in ``enumerate_indices`` order, so ``truncate(k)`` of this report equals
    the order-k norm bit for bit.
    """
    if domain == "gamma_t":
        return _boundary_norm(u, m)
    space_only = domain == "omega"
    if space_only and u.is_spacetime:
        raise ValueError("space-only norm on a space-time field; take a slice")
    if not space_only and not u.is_spacetime:
        raise ValueError("space-time norm requires a time axis")
    walk = _derivative_walk(u, m, space_only)
    return NormReport(order=m, domain=domain, contributions=dict(
        sorted((alpha, _l2(u, vals)) for alpha, vals in walk)))


def triple_norm(u_slices: GridFunction, m: int) -> NormReport:
    """|||u(t)|||_{m,*}: time derivatives traded against spatial order.

    ``u_slices`` must be a space-time field; time derivatives are taken from
    the stored history and each dt^j slice is measured in H^{m-j}_*(Omega)
    at the last snapshot, so the index set is that of the H^m_* norm on
    Omega_T, keyed (j, a1, a2, a3).
    """
    if not u_slices.is_spacetime:
        raise ValueError("triple norm needs stored time history")
    walk = _derivative_walk(u_slices, m, False)
    return NormReport(order=m, domain="triple", contributions=dict(
        sorted((alpha, _l2(u_slices, vals[-1])) for alpha, vals in walk)))


def w_star_norm(u: GridFunction, k: int = 1) -> float:
    """W^{k,infty}_* norm, k in {1, 2}.

    k = 1 sums sup norms over <alpha> <= 1; k = 2 sums the plain W^{1,infty}
    norms of those first-order conormal derivatives.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    total = 0.0
    for alpha in enumerate_indices(1):
        d = conormal_derivative(u, alpha)
        if k == 1:
            total += float(np.max(np.abs(d.values)))
        else:
            total += _w1inf(d)
    return total


def _w1inf(u: GridFunction) -> float:
    grid = u.grid
    parts = [np.max(np.abs(u.values)),
             np.max(np.abs(grid.d1(u.values))),
             np.max(np.abs(grid.d2(u.values)))]
    if u.is_spacetime:
        parts.append(np.max(np.abs(diff_time(u.values, u.dt, axis=0))))
    return float(sum(parts))


def _boundary_norm(g: GridFunction, m: int) -> NormReport:
    """H^m over (t, x2) of the boundary trace field (values (nt, 1?, n2))."""
    vals = g.values
    if vals.ndim == 3:
        vals = vals[:, 0, :]
    rep = NormReport(order=m, domain="gamma_t")
    grid = g.grid
    wt = trapezoid(vals.shape[0], g.dt)
    for j, l in itertools.product(range(m + 1), range(m + 1)):
        if j + l > m:
            continue
        d = vals
        for _ in range(l):
            d = grid.d2_boundary(d)
        for _ in range(j):
            d = diff_time(d, g.dt, axis=0)
        rep.contributions[(j, l)] = float(
            np.sqrt(np.sum(np.sum(d ** 2, axis=-1) * grid.h2 * wt)))
    return rep


# -- trace and lifting ----------------------------------------------------

def trace(u: GridFunction) -> np.ndarray:
    """Restriction to the boundary x1 = 0."""
    return u.values[..., 0, :]


def lift(v_list, grid: Grid) -> np.ndarray:
    """Right inverse of the trace with prescribed normal derivatives.

    ``v_list`` holds boundary fields v_j (j = 0 .. J-1), each (..., n2):
    one field, or a stack over snapshots, sides or components.  The lift,
    (..., n1, n2), is sum_j v_j x1^j / j! times a plateau cutoff that is
    identically 1 on [0, L1/8], so d1^j lift = v_j at x1 = 0 exactly for
    polynomials within the stencil order.
    """
    a, b = grid.L1 / 8.0, grid.L1 / 2.0
    cut = 1.0 - quintic_step((grid.x1 - a) / (b - a))
    x1 = grid.x1
    vals = 0.0
    fact = 1.0
    for j, vj in enumerate(v_list):
        if j > 0:
            fact *= j
        shaped = np.asarray(vj, dtype=float)[..., None, :]
        vals = vals + shaped * (x1 ** j / fact)[:, None]
    return vals * cut[:, None]


# -- empirical inequality harnesses ---------------------------------------

HARNESS_KINDS = ("moser3", "moser4", "moser6", "sobolev1", "sobolev2", "trace_in")


@dataclass
class HarnessReport:
    kind: str
    ratios: np.ndarray
    grid_shape: tuple

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))

    def to_csv_row(self) -> str:
        return (f"{self.kind},{self.grid_shape[0]},{self.grid_shape[1]},"
                f"{self.grid_shape[2]},{self.max_ratio!r}")


def harness_to_csv(reports, path) -> None:
    """Write fitted-constant reports: kind, nt, n1, n2, max_ratio."""
    with open(path, "w", newline="\n") as fh:
        fh.write("kind,nt,n1,n2,max_ratio\n")
        for rep in reports:
            fh.write(rep.to_csv_row() + "\n")


#: a random harness field sums this many modes, of frequencies 0 .. _KMAX
_NMODES = 4
_KMAX = 3


def sample_field_params(rng):
    """Draw the analytic parameters of one random band-limited field.

    Kept separate from evaluation so refinement studies can re-sample the
    *same* function on finer grids.
    """
    return [
        dict(kt=int(rng.integers(0, _KMAX + 1)),
             k2=int(rng.integers(0, _KMAX + 1)),
             amp=float(rng.normal()),
             ph_t=float(rng.uniform(0, 2 * np.pi)),
             ph_2=float(rng.uniform(0, 2 * np.pi)),
             center=float(rng.uniform(0.0, 0.5)),
             width=float(0.5 + rng.uniform()))
        for _ in range(_NMODES)
    ]


def evaluate_field_params(params, grid: Grid, nt: int,
                          T: float) -> GridFunction:
    """Evaluate sampled parameters on a grid: cosine modes in (t, x2) with
    Gaussian x1 envelopes, killed at the far truncation."""
    x1, x2 = grid.mesh()
    tt = np.linspace(0.0, T, nt)[:, None, None]
    vals = np.zeros((nt, grid.n1, grid.n2))
    for m in params:
        envelope = np.exp(-((x1 - m["center"] * grid.L1) ** 2) / m["width"] ** 2)
        vals += (m["amp"]
                 * np.cos(2 * np.pi * m["kt"] * tt / max(T, 1e-12) + m["ph_t"])
                 * np.cos(2 * np.pi * m["k2"] * x2 / grid.L2 + m["ph_2"])
                 * envelope)
    vals *= (1.0 - quintic_step((x1 - 0.6 * grid.L1) / (0.35 * grid.L1)))
    return GridFunction(values=vals, grid=grid, dt=T / (nt - 1))


def random_smooth_field(grid: Grid, nt: int, T: float, rng) -> GridFunction:
    """Random band-limited space-time field for the harnesses."""
    return evaluate_field_params(sample_field_params(rng), grid, nt, T)


def inequality_harness(kind: str, samples: int, grid: Grid, *, nt: int = 9,
                       m: int = 3, rng=None) -> HarnessReport:
    """LHS/RHS ratios of one calculus inequality on random smooth fields
    over the time span [0, 1].

    The max ratio is the fitted empirical constant; unboundedness under
    refinement is the failure signal, not any fixed threshold.
    """
    if kind not in HARNESS_KINDS:
        raise ValueError(f"unknown harness kind {kind!r}")
    rng = rng or np.random.default_rng(0)
    ratios = []
    for _ in range(samples):
        u = random_smooth_field(grid, nt, 1.0, rng)
        v = random_smooth_field(grid, nt, 1.0, rng)
        r = _harness_ratio(kind, u, v, m, rng)
        ratios.append(r)
    return HarnessReport(kind=kind, ratios=np.asarray(ratios),
                         grid_shape=(nt, grid.n1, grid.n2))


def _harness_ratio(kind, u, v, m, rng):
    if np.max(np.abs(u.values)) == 0.0:
        return 0.0
    if kind == "trace_in":
        lhs = _trace_sq(u)
        rhs = _l2(u, u.values) ** 2 + _l2(u, u.grid.d1(u.values)) ** 2
        return lhs / max(rhs, 1e-300)
    if kind in ("moser3", "moser4"):
        num_u = hm_star_norm(u, m, "omega_t").total
        num_v = hm_star_norm(v, m, "omega_t").total
        rhs = (num_u * w_star_norm(v, 1) + num_v * w_star_norm(u, 1))
        if kind == "moser4":
            prod = GridFunction(u.values * v.values, u.grid, dt=u.dt)
            lhs = hm_star_norm(prod, m, "omega_t").total
        else:
            indices = enumerate_indices(m)
            alpha = indices[rng.integers(0, len(indices))]
            rest = m - alpha.weight
            betas = [b for b in enumerate_indices(rest)]
            beta = betas[rng.integers(0, len(betas))]
            da = conormal_derivative(u, alpha)
            db = conormal_derivative(v, beta)
            lhs = _l2(u, da.values * db.values)
        return lhs / max(rhs, 1e-300)
    if kind == "moser6":
        fu = GridFunction(np.sin(u.values), u.grid, dt=u.dt)
        lhs = hm_star_norm(fu, m, "omega_t").total
        rhs = hm_star_norm(u, m, "omega_t").total
        return lhs / max(rhs, 1e-300)
    if kind == "sobolev1":
        h4 = hm_star_norm(u, 4, "omega_t")
        r1 = np.max(np.abs(u.values)) / max(h4.truncate(3).total, 1e-300)
        r2 = w_star_norm(u, 1) / max(h4.total, 1e-300)
        return max(r1, r2)
    if kind == "sobolev2":
        h6 = hm_star_norm(u, 6, "omega_t")
        r1 = _w1inf(u) / max(h6.truncate(5).total, 1e-300)
        r2 = w_star_norm(u, 2) / max(h6.total, 1e-300)
        return max(r1, r2)
    raise AssertionError(kind)


def _trace_sq(u: GridFunction) -> float:
    vals = u.values[..., 0, :] ** 2
    return float(np.sum(np.sum(vals, axis=-1) * u.grid.h2
                        * trapezoid(vals.shape[0], u.dt)))
