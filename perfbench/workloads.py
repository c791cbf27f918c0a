"""The three benchmark workloads: inputs, timed call, physics gates.

Each workload builds its inputs from a seed (``setup``), makes one timed
call into cvsheet (``run``), and checks the physics outputs against the
acceptance criteria's own invariants (``checks``), never against values
recorded from one version of the code.  cvsheet functions are looked up
through their modules at call time, so the tracer's wrappers are seen.

Import this module only after ``src/`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import cvsheet.compat as compat
import cvsheet.evolve as evolve_mod
import cvsheet.linearized as linearized
import cvsheet.nashmoser as nashmoser
import cvsheet.norms as norms
import cvsheet.scenarios as scenarios
import cvsheet.smoothing as smoothing
from cvsheet.grid import Grid
from cvsheet.linearized import IHN, IQ, IUN
from cvsheet.mhd import IdealGasEos
from cvsheet.profiles import SigmaWeight

_F8 = 8                        # bytes per float64
_BUNDLE_KEYS = 5               # M1, M2, M3, A0invJt, J in evolve._CoeffCache


def _grid(n: int) -> Grid:
    return Grid(n1=n, n2=n, L1=2 * np.pi, L2=2 * np.pi)


def digest(*arrays) -> str:
    """SHA-256 of the exact bytes of the given float arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _table(table: dict) -> list:
    """A harness table of {(k, j, theta): ratio} as sorted rows."""
    return [[*k, v] for k, v in sorted(table.items())]


def _bundle_bytes(grid: Grid) -> int:
    """Bytes of one assembled coefficient bundle of the evolve solver."""
    return _BUNDLE_KEYS * 2 * 6 * 6 * grid.n1 * grid.n2 * _F8


class EvolveTrivial:
    """``evolve`` on the trivial sheet in the acceptance-6 configuration."""

    name = "evolve-trivial-256"

    def __init__(self, n: int = 256, t_final: float = 0.016):
        self.n = n
        self.t_final = t_final

    def setup(self, seed: int):
        # deterministic: the trivial sheet and the forcing draw no randoms
        grid = _grid(self.n)
        basic = linearized.trivial_sheet_state(
            grid, IdealGasEos(), u2_jump=0.5, H2_plus=1.4, H2_minus=1.2)
        forcing = scenarios.ManufacturedForcing(grid, amplitude=1.0, k2=2)
        return {"grid": grid, "basic": basic, "forcing": forcing}

    def run(self, ctx):
        # the final snapshot lets the checks recompute the last ledger row
        return evolve_mod.evolve(ctx["basic"], t_final=self.t_final,
                                 forcing=ctx["forcing"],
                                 snapshot_times=[self.t_final])

    def physics(self, traj) -> dict:
        row = traj.ledger.final()
        return {"steps": len(traj.times) - 1, "cstar": traj.cstar,
                "identity_residual": row.identity_residual, "I": row.I,
                "I2": row.I2, "phiL2": row.phiL2,
                "div_max": float(traj.div_residual.max()),
                "hn_max": float(traj.hn_residual.max())}

    def digest(self, traj) -> str:
        rows = [[r.t, r.I, r.I0, r.I1n, r.Isigma, r.I2, r.phiL2,
                 r.identity_residual] for r in traj.ledger.rows]
        return digest(traj.times, traj.phi, traj.boundary_energy,
                      traj.div_residual, traj.hn_residual, traj.snapshots,
                      rows, [traj.apriori[k] for k in sorted(traj.apriori)])

    def checks(self, ctx, traj):
        out = [("fields_finite",
                bool(np.all(np.isfinite(traj.snapshots))
                     and np.all(np.isfinite(traj.phi))))]
        # acceptance 6: constraint residuals within 10x of start-up level
        for label, series in (("div_within_10x_startup", traj.div_residual),
                              ("hn_within_10x_startup", traj.hn_residual)):
            q = max(len(series) // 4, 2)
            level0 = max(series[1:q].max(), 1e-12)
            out.append((label, bool(series.max() <= 10.0 * level0)))
        out.append(("cstar_finite_positive",
                    bool(math.isfinite(traj.cstar) and traj.cstar > 0)))
        out.append(("ledger_row_reproduced", _ledger_row_matches(
            ctx["grid"], traj)))
        return out

    def working_set(self, ctx) -> dict:
        # a steady state keeps one bundle and reads all of it every stage
        return {"coeff_bytes": _bundle_bytes(ctx["grid"]),
                "note": "one steady bundle, read in full by every RK stage"}


def _ledger_row_matches(grid: Grid, traj, rtol: float = 1e-9) -> bool:
    """Recompute the final ledger energies from the final state."""
    row = traj.ledger.final()
    if not math.isclose(traj.snapshot_times[-1], row.t, rel_tol=1e-12):
        return False
    V = traj.snapshots[-1]
    phi = traj.phi[-1]
    sigma = SigmaWeight().value(grid.x1)[:, None]
    want = {
        "I": grid.integrate((V ** 2).sum(axis=(0, 1))),
        "Isigma": grid.integrate(((sigma * grid.d1(V)) ** 2).sum(axis=(0, 1))),
        "I2": grid.integrate((grid.d2(V) ** 2).sum(axis=(0, 1))),
        "I1n": grid.integrate(
            (grid.d1(V[:, (IQ, IUN, IHN)]) ** 2).sum(axis=(0, 1))),
        "phiL2": np.sqrt(np.sum(phi ** 2) * grid.h2),
    }
    return all(math.isclose(getattr(row, k), float(v), rel_tol=rtol,
                            abs_tol=1e-300) for k, v in want.items())


class NashMoser:
    """``NashMoserDriver.run`` on the acceptance-9 ratio-check data."""

    name = "nash-moser-32"

    def __init__(self, n: int = 32, nt: int = 33, iterations: int = 2):
        self.n = n
        self.nt = nt
        self.iterations = iterations

    def setup(self, seed: int):
        grid = _grid(self.n)
        data = compat.manufactured_initial_data(
            grid, IdealGasEos(), amplitude=8e-6, seed=seed, k2=1,
            p_plus=0.8, u2_jump=0.1, H2_plus=0.7, H2_minus=0.6)
        jet = compat.time_jet(data, order=2)
        approx = compat.build_approximate(jet, T=2.0, delta=1e-3)
        driver = nashmoser.NashMoserDriver(
            approx, np.linspace(0.0, 2.0, self.nt),
            nashmoser.NashMoserConfig(theta0=2.0, iterations=self.iterations))
        return {"grid": grid, "driver": driver}

    def run(self, ctx):
        return ctx["driver"].run(iterations=self.iterations)

    def physics(self, rep) -> dict:
        hist = rep["history"]
        return {"initial_residual": rep["initial_residual"],
                "residuals": rep["residuals"],
                "bookkeeping_max": max(h["bookkeeping_residual"]
                                       for h in hist),
                "eprime_norms": [h["eprime_norm"] for h in hist],
                "boundary_residuals": [h["residual_boundary"] for h in hist]}

    def digest(self, rep) -> str:
        keys = sorted(rep["history"][0])
        return digest([rep["initial_residual"]],
                      [[h[k] for k in keys] for h in rep["history"]])

    def checks(self, ctx, rep):
        res = [rep["initial_residual"]] + rep["residuals"]
        books = [h["bookkeeping_residual"] for h in rep["history"]]
        return [
            ("all_iterates_ran", len(rep["history"]) == self.iterations
             and not rep["stopped_early"]),
            ("bookkeeping_le_1e-12", max(books) <= 1e-12),
            ("interior_residual_strictly_decreasing",
             all(b < a for a, b in zip(res, res[1:]))),
        ]

    def working_set(self, ctx) -> dict:
        # every lookup interpolates two snapshot bundles into a third
        per = _bundle_bytes(ctx["grid"])
        return {"coeff_bytes": 3 * per, "cached_bytes": self.nt * per,
                "note": "two snapshot bundles interpolated per lookup"}


class NormsSmoothing:
    """The acceptance-10 smoothing sweep plus the ``sobolev2`` harness."""

    name = "norms-smoothing"

    def __init__(self, sizes=((32, 13), (64, 25)), samples: int = 3,
                 thetas=(2.0, 4.0, 8.0, 16.0), sobolev=(64, 17, 3)):
        self.sizes = tuple(sizes)
        self.samples = samples
        self.thetas = tuple(thetas)
        self.sobolev = sobolev

    def setup(self, seed: int):
        smoothers = [smoothing.Smoother(_grid(n), nt=nt, T=1.0)
                     for n, nt in self.sizes]
        return {"smoothers": smoothers, "seed": seed,
                "sobolev_grid": _grid(self.sobolev[0])}

    def run(self, ctx):
        seed = ctx["seed"]
        reports = [smoothing.smoothing_harness(
            sm, samples=self.samples, thetas=self.thetas,
            rng=np.random.default_rng(seed)) for sm in ctx["smoothers"]]
        n, nt, samples = self.sobolev
        sob = norms.inequality_harness("sobolev2", samples,
                                       ctx["sobolev_grid"], nt=nt,
                                       rng=np.random.default_rng(seed))
        return {"reports": reports, "sobolev2": sob}

    def physics(self, out) -> dict:
        return {"max_constant": [r.max_constant() for r in out["reports"]],
                "sobolev2_ratios": out["sobolev2"].ratios.tolist()}

    def digest(self, out) -> str:
        # as1 is left out: it depends on the heap (see heap_digest)
        tables = [_table(t) for r in out["reports"] for t in (r.as2, r.as3)]
        return digest(*tables, out["sobolev2"].ratios)

    def heap_digest(self, out) -> str:
        """Digest of the as1 tables, which depend on the heap's history.

        ``smoothing_harness`` memoizes the norm of each smoothed field by
        ``id()``, and a freed field's id is reused (ROADMAP item 5b), so
        as1 can divide by a stale norm.  Which norms go stale depends on
        every allocation the process made before, and two repetitions of
        one seed have been seen to differ.  as2, as3 and the sobolev2
        ratios read only the norms of live fields and do not move.
        """
        return digest(*[_table(r.as1) for r in out["reports"]])

    def checks(self, ctx, out):
        worst = max(r.max_constant() for r in out["reports"])
        ratios = out["sobolev2"].ratios
        result = [("max_constant_le_12", worst <= 12.0),
                  ("sobolev2_ratios_finite_positive",
                   bool(np.all(np.isfinite(ratios)) and np.all(ratios > 0)))]
        # acceptance 10: exact fixed point and exact wall trace
        fixed, trace = True, True
        for sm in ctx["smoothers"]:
            rng = np.random.default_rng(ctx["seed"])
            for theta in (2.0, 8.0):
                u = sm.band_limited_sample(theta, rng)
                fixed &= bool(np.max(np.abs(sm(u, theta) - u)) <= 1e-12)
            g = sm.grid
            u = rng.normal(size=(sm.nt, g.n1, g.n2))
            v = rng.normal(size=(sm.nt, g.n1, g.n2))
            v[:, 0, :] = u[:, 0, :]
            trace &= bool(np.array_equal(sm(u, 4.0)[:, 0, :],
                                         sm(v, 4.0)[:, 0, :]))
        result += [("fixed_point_le_1e-12", fixed),
                   ("wall_trace_exact", trace)]
        return result

    def working_set(self, ctx) -> dict:
        n, nt = self.sizes[-1]
        return {"coeff_bytes": 0, "field_bytes": nt * n * n * _F8,
                "note": "no coefficient bundles; one space-time field"}


WORKLOADS = {w.name: w for w in (EvolveTrivial, NashMoser, NormsSmoothing)}
