"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run pytest -s to see them all);
a failed assertion marks the criterion red.  The heavy runs (refinement
study, toy iteration) sit at the end of the module.
"""

import time

import numpy as np
import pytest

from cvsheet.grid import Grid
from cvsheet.mhd import IdealGasEos, PhysState, alfven_speed, sound_speed
from cvsheet.stability import (LambdaPair, boundary_quadratic_form,
                               build_lambda, check_b0_positive,
                               check_stability, wang_yu_compare)

EOS = IdealGasEos()


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


# -- 1: lambda construction ---------------------------------------------------

def test_acceptance_01_lambda_suite():
    rng = np.random.default_rng(42)
    target = 10_000
    fields = {k: [] for k in ("pp", "pm", "u2p", "u2m", "H2p", "H2m",
                              "Sp", "Sm")}
    count = 0
    while count < target:
        n = 40_000
        draw = {
            "pp": rng.uniform(0.4, 3.0, n), "pm": rng.uniform(0.4, 3.0, n),
            "u2p": rng.normal(0, 0.4, n), "u2m": rng.normal(0, 0.4, n),
            "H2p": rng.normal(0, 1.2, n), "H2m": rng.normal(0, 1.2, n),
            "Sp": rng.uniform(-0.5, 0.5, n), "Sm": rng.uniform(-0.5, 0.5, n),
        }
        plus = PhysState(draw["pp"], 0.0, draw["u2p"], 0.0, draw["H2p"],
                         draw["Sp"])
        minus = PhysState(draw["pm"], 0.0, draw["u2m"], 0.0, draw["H2m"],
                          draw["Sm"])
        rep = check_stability(plus, minus, EOS, k=1e-3)
        keep = rep.margin >= 1e-3
        for k in fields:
            fields[k].append(draw[k][keep])
        count += int(keep.sum())
    sample = {k: np.concatenate(v)[:target] for k, v in fields.items()}
    plus = PhysState(sample["pp"], 0.0, sample["u2p"], 0.0, sample["H2p"],
                     sample["Sp"])
    minus = PhysState(sample["pm"], 0.0, sample["u2m"], 0.0, sample["H2m"],
                      sample["Sm"])

    t0 = time.monotonic()
    rep = check_stability(plus, minus, EOS, k=1e-3)
    lam = build_lambda(plus, minus, EOS, k=1e-3)
    elapsed = time.monotonic() - t0

    assert np.all(np.abs(lam.lam_plus) < rep.a_plus)
    assert np.all(np.abs(lam.lam_minus) < rep.a_minus)
    identity = np.abs(lam.lam_plus * sample["H2p"]
                      - lam.lam_minus * sample["H2m"]
                      - (sample["u2p"] - sample["u2m"]))
    assert np.max(identity) <= 1e-12
    assert elapsed < 2.0
    _report(1, f"{target} states, |identity| max {np.max(identity):.2e}, "
               f"{elapsed:.3f} s")


# -- 2: B0 positivity equivalence ---------------------------------------------

def test_acceptance_02_b0_positivity_equivalence():
    rng = np.random.default_rng(7)
    agree = 0
    for _ in range(1000):
        st = PhysState(p=rng.uniform(0.3, 4.0), u1=rng.normal(),
                       u2=rng.normal(), H1=rng.normal(0, 1.5),
                       H2=rng.normal(0, 1.5), S=rng.uniform(-0.5, 0.5))
        rho = EOS.density(st.p, st.S)
        bound = np.sqrt(1.0 / (rho * (1.0 + (alfven_speed(st, EOS)
                                             / sound_speed(st, EOS)) ** 2)))
        lam = rng.uniform(-1.5, 1.5) * bound
        cert = check_b0_positive(st, lam, EOS)
        analytic = cert.positive
        eig_sign = cert.min_eig > 0
        assert analytic == eig_sign
        agree += 1
    # at the algebraic equality boundary the smallest eigenvalue vanishes
    worst = 0.0
    for _ in range(50):
        st = PhysState(p=rng.uniform(0.3, 4.0), u1=0.0, u2=0.0,
                       H1=rng.normal(0, 1.5), H2=rng.normal(0, 1.5),
                       S=rng.uniform(-0.5, 0.5))
        rho = EOS.density(st.p, st.S)
        lam_star = np.sqrt(1.0 / (rho * (1.0 + (alfven_speed(st, EOS)
                                                / sound_speed(st, EOS)) ** 2)))
        cert = check_b0_positive(st, lam_star, EOS)
        worst = max(worst, abs(cert.min_eig))
    assert worst <= 1e-10
    _report(2, f"{agree} sign agreements, boundary |min-eig| max {worst:.2e}")


# -- 3: boundary matrix structure ----------------------------------------------

def test_acceptance_03_boundary_matrix_rank4():
    from cvsheet.linearized import (IQ, IUN, assemble_symmetrized,
                                    trivial_sheet_state, validate_basic_state)
    from support import sheared_sheet_state
    grid = Grid(n1=40, n2=40, L1=2 * np.pi, L2=2 * np.pi)
    rng = np.random.default_rng(11)
    states = [trivial_sheet_state(grid, EOS, u2_jump=0.3, H2_plus=1.4,
                                  H2_minus=1.1),
              trivial_sheet_state(grid, EOS, u2_jump=0.0, H2_plus=0.8,
                                  H2_minus=1.3)]
    while len(states) < 22:
        states.append(sheared_sheet_state(grid, EOS, rng=rng))
    # at lambda = 0 the symmetrized family is the unsymmetrized one
    lam0 = np.zeros((2, grid.n1, grid.n2))
    E12 = np.zeros((6, 6, 1))
    E12[IQ, IUN] = E12[IUN, IQ] = 1.0
    worst_entry = 0.0
    for b in states:
        rep = validate_basic_state(b)
        assert rep.ok, rep
        bm = assemble_symmetrized(b.frame(0), lam0).B1[..., 0, :]
        worst_entry = max(worst_entry,
                          float(np.max(np.abs(bm - np.stack([E12, -E12])))))
        M = np.zeros((grid.n2, 12, 12))
        M[:, :6, :6] = np.moveaxis(bm[0], (0, 1), (1, 2))
        M[:, 6:, 6:] = np.moveaxis(bm[1], (0, 1), (1, 2))
        eigs = np.sort(np.linalg.eigvalsh(M), axis=1)
        assert np.all(eigs[:, :2] < -1e-8)          # two negative
        assert np.all(eigs[:, -2:] > 1e-8)          # two positive
        assert np.max(np.abs(eigs[:, 2:-2])) <= 1e-8  # rank 4
    assert worst_entry <= 1e-8
    _report(3, f"{len(states)} basic states, entrywise residual max "
               f"{worst_entry:.2e}, signature (2,+)(2,-) rank 4")


# -- 4: dissipativity of the chosen multiplier ----------------------------------

def test_acceptance_04_boundary_form_dissipativity():
    rng = np.random.default_rng(5)
    n2 = 256
    worst_coeff = 0.0
    worst_split = 0.0
    for trial in range(10):
        pp = rng.uniform(0.5, 2.5)
        pm = rng.uniform(0.5, 2.5)
        base_p = rng.uniform(1.0, 2.0, 2)
        plus = PhysState(p=pp, u1=0.0,
                         u2=0.2 * np.sin(np.linspace(0, 2 * np.pi, n2)),
                         H1=0.0,
                         H2=base_p[0] + 0.3 * rng.normal(size=n2) * 0.1,
                         S=0.0)
        minus = PhysState(p=pm, u1=0.0,
                          u2=-0.2 * np.cos(np.linspace(0, 2 * np.pi, n2)),
                          H1=0.0,
                          H2=-(base_p[1] + 0.3 * rng.normal(size=n2) * 0.1),
                          S=0.1)
        rep = check_stability(plus, minus, EOS, k=1e-3)
        assert rep.satisfied
        lam = build_lambda(plus, minus, EOS, k=1e-3)
        bt = {"u2p": np.asarray(plus.u2), "u2m": np.asarray(minus.u2),
              "H2p": np.asarray(plus.H2), "H2m": np.asarray(minus.H2),
              "d1uNp": rng.normal(size=n2), "d1uNm": rng.normal(size=n2),
              "d1HNp": rng.normal(size=n2), "d1HNm": rng.normal(size=n2),
              "d1q_jump": rng.normal(size=n2)}
        phi = 0.1 * np.sin(np.linspace(0, 2 * np.pi, n2) * 2)
        dphi_t = 0.05 * rng.normal(size=n2)
        dphi_2 = 0.1 * np.cos(np.linspace(0, 2 * np.pi, n2))
        qp = rng.normal(size=n2)
        vplus = {"q": qp,
                 "uN": dphi_t + bt["u2p"] * dphi_2 - phi * bt["d1uNp"],
                 "HN": bt["H2p"] * dphi_2 - phi * bt["d1HNp"]}
        vminus = {"q": qp + phi * bt["d1q_jump"],
                  "uN": dphi_t + bt["u2m"] * dphi_2 + phi * bt["d1uNm"],
                  "HN": bt["H2m"] * dphi_2 + phi * bt["d1HNm"]}
        pair = LambdaPair(lam_plus=lam.lam_plus, lam_minus=lam.lam_minus)
        dec = boundary_quadratic_form(vplus, vminus, pair, phi, dphi_t,
                                      dphi_2, bt)
        assert dec.constraint_warning is None
        worst_coeff = max(worst_coeff, float(np.max(np.abs(dec.leading_coeff))))
        worst_split = max(worst_split, float(np.max(np.abs(
            dec.total - dec.leading - dec.lot))))
    assert worst_coeff <= 1e-12
    assert worst_split <= 1e-12
    _report(4, f"leading coefficient max {worst_coeff:.2e}, decomposition "
               f"residual max {worst_split:.2e} over 10x{n2} points")


# -- 5: subsonic-region strictness ----------------------------------------------

def test_acceptance_05_subsonic_strictness():
    n = 200
    c = np.linspace(0.3, 3.0, n)
    frac = (np.arange(n) + 1.0) / (n + 1.0)    # open interval (0, 1)
    C, Fr = np.meshgrid(c, frac, indexing="ij")
    cA = Fr * C
    ours, sub, _ = wang_yu_compare(C, cA)
    margin = sub - ours
    assert np.all(margin > 0.0)
    _report(5, f"200x200 grid, min margin {np.min(margin):.3e} > 0")


# -- 8: compatibility / approximate solution -------------------------------------

def test_acceptance_08_compatibility_and_forcing_scaling():
    from cvsheet.compat import (build_approximate, check_compatibility,
                                forcing_fa, manufactured_initial_data,
                                time_jet)
    grid = Grid(n1=64, n2=64, L1=2 * np.pi, L2=2 * np.pi)
    data = manufactured_initial_data(grid, EOS, amplitude=0.05, seed=3)
    jet = time_jet(data, order=2)
    rep = check_compatibility(jet, order=2)
    assert rep.compatible_up_to() >= 2
    approx = build_approximate(jet, T=1.0, delta=10.0)
    F = forcing_fa(approx)
    ts = np.geomspace(1e-3, 1e-1, 13)          # two decades
    norms = np.array([np.sqrt(grid.integrate((F(t) ** 2).sum(axis=(0, 1))))
                      for t in ts])
    slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
    assert 1.7 <= slope <= 2.3

    stat = manufactured_initial_data(grid, EOS, amplitude=0.0)
    jet0 = time_jet(stat, order=2)
    F0 = forcing_fa(build_approximate(jet0, T=1.0, delta=1.0))
    worst = max(float(np.max(np.abs(F0(t)))) for t in (0.2, 0.5, 0.9))
    assert worst <= 1e-10
    assert np.all(F0(-0.5) == 0.0)
    _report(8, f"fa slope {slope:.3f} in [1.7, 2.3]; stationary "
               f"|F^a| max {worst:.1e}")


# -- 10: smoothing operator suite -------------------------------------------------

def test_acceptance_10_smoothing_suite():
    from cvsheet.smoothing import Smoother, smoothing_harness
    worst_const = 0.0
    for n, nt in ((32, 13), (64, 25)):
        grid = Grid(n1=n, n2=n, L1=2 * np.pi, L2=2 * np.pi)
        sm = Smoother(grid, nt=nt, T=1.0)
        rep = smoothing_harness(sm, samples=3, thetas=(2.0, 4.0, 8.0, 16.0),
                                rng=np.random.default_rng(7))
        worst_const = max(worst_const, rep.max_constant())
        rng = np.random.default_rng(0)
        for theta in (2.0, 8.0):
            u = sm.band_limited_sample(theta, rng)
            assert np.max(np.abs(sm(u, theta) - u)) <= 1e-12
        u = rng.normal(size=(nt, n, n))
        v = rng.normal(size=(nt, n, n))
        v[:, 0, :] = u[:, 0, :]
        assert np.array_equal(sm(u, 4.0)[:, 0, :], sm(v, 4.0)[:, 0, :])
    # frozen envelope: observed max ratio ~3 across the sweep; 12 bounds it
    assert worst_const <= 12.0
    _report(10, f"(as1)-(as3) max ratio {worst_const:.2f} <= 12 across "
                "theta sweep and two refinements; fixed point and trace exact")


# -- 7: instability contrast -------------------------------------------------------

def test_acceptance_07_instability_contrast():
    from cvsheet.evolve import evolve
    from cvsheet.linearized import trivial_sheet_state
    from cvsheet.scenarios import ManufacturedBoundaryData
    grid = Grid(n1=64, n2=64, L1=2 * np.pi, L2=2 * np.pi)
    g = ManufacturedBoundaryData(grid, amplitude=0.01, k2=4, ramp=0.2)
    stable = trivial_sheet_state(grid, EOS, p_plus=4.0, u2_jump=2.0,
                                 H2_plus=2.2, H2_minus=2.0)
    unstable = trivial_sheet_state(grid, EOS, p_plus=4.0, u2_jump=2.0,
                                   H2_plus=0.0, H2_minus=0.0)
    assert check_stability(
        unstable.frame(0).states[0], unstable.frame(0).states[1], EOS,
        k=1e-3).margin_min < 0

    def growth(basic):
        traj = evolve(basic, t_final=1.0, bdata=g)
        be = traj.boundary_energy
        half = len(be) // 2
        quarter = len(be) // 4
        return be[half:].max() / be[quarter:half].max()

    gs = growth(stable)
    gu = growth(unstable)
    assert gs <= 2.0
    assert gu >= 10.0
    _report(7, f"boundary-energy growth: stable {gs:.2f}x (<= 2), "
               f"unstable {gu:.1f}x (>= 10) over the same horizon")


# -- 6: linearized energy behavior (refinement study) -------------------------------

@pytest.mark.slow
def test_acceptance_06_linearized_energy_refinement():
    from cvsheet.evolve import evolve
    from cvsheet.linearized import trivial_sheet_state
    from cvsheet.scenarios import ManufacturedForcing
    residuals, cstars, runtimes = [], [], []
    div_ok, hn_ok = True, True
    for n in (64, 128, 256):
        grid = Grid(n1=n, n2=n, L1=2 * np.pi, L2=2 * np.pi)
        basic = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4,
                                    H2_minus=1.2)
        forcing = ManufacturedForcing(grid, amplitude=1.0, k2=2)
        t0 = time.monotonic()
        traj = evolve(basic, t_final=0.5, forcing=forcing)
        runtimes.append(time.monotonic() - t0)
        row = traj.ledger.final()
        residuals.append(abs(row.identity_residual))
        cstars.append(traj.cstar)
        for series in (traj.div_residual, traj.hn_residual):
            q = max(len(series) // 4, 2)
            level0 = max(series[1:q].max(), 1e-12)
            if series.max() > 10.0 * level0:
                if series is traj.div_residual:
                    div_ok = False
                else:
                    hn_ok = False
    order = np.log2(residuals[0] / residuals[2]) / 2.0
    assert order >= 1.5, residuals
    assert max(cstars) / min(cstars) <= 2.0, cstars
    assert div_ok and hn_ok
    assert max(runtimes) <= 300.0, runtimes
    _report(6, f"identity-residual order {order:.2f} >= 1.5; "
               f"C* drift {max(cstars)/min(cstars):.3f}x <= 2; constraints "
               f"within 10x of startup; worst runtime {max(runtimes):.0f}s")


# -- 9: Nash-Moser mechanics ----------------------------------------------------------

@pytest.mark.slow
def test_acceptance_09_nash_moser_mechanics():
    from cvsheet.compat import (build_approximate, manufactured_initial_data,
                                time_jet)
    from cvsheet.nashmoser import (NashMoserConfig, NashMoserDriver,
                                   ThetaSchedule)
    sch = ThetaSchedule(2.0)
    assert sch.bounds_hold(10 ** 6)

    def driver(n, nt):
        grid = Grid(n1=n, n2=n, L1=2 * np.pi, L2=2 * np.pi)
        data = manufactured_initial_data(grid, EOS, amplitude=8e-6, seed=3,
                                         k2=1, p_plus=0.8, u2_jump=0.1,
                                         H2_plus=0.7, H2_minus=0.6)
        jet = time_jet(data, order=2)
        approx = build_approximate(jet, T=2.0, delta=1e-3)
        return NashMoserDriver(approx, np.linspace(0.0, 2.0, nt),
                               NashMoserConfig(theta0=2.0, iterations=5))

    drv = driver(64, 65)
    report = drv.run(iterations=5)
    res = [report["initial_residual"]] + report["residuals"]
    books = [h["bookkeeping_residual"] for h in report["history"]]
    assert max(books) <= 1e-12
    for a, b in zip(res, res[1:]):
        assert b < a, res

    e1 = []
    for scale in (1.0, 0.5):
        d = driver(32, 33)
        d.Fa *= scale
        st = d.step(d.fresh_state())
        e1.append(st.history[-1]["eprime_norm"])
    ratio = e1[0] / e1[1]
    assert 3.0 <= ratio <= 5.0
    _report(9, f"theta bounds exact to 1e6; bookkeeping max {max(books):.1e}; "
               f"residuals strictly decreasing {[f'{r:.4e}' for r in res]}; "
               f"quadratic ratio {ratio:.2f} in [3, 5]")
