import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvsheet.evolve as ev
from cvsheet.evolve import (NumericsError, cfl_timestep, evolve,
                            step_linearized)
from cvsheet.front import (CutoffChi, lift_front, straighten,
                           straightened_coefficients)
from cvsheet.grid import Grid, diff_time
from cvsheet.linearized import (_J_OFF, IH2V, IHN, BasicFrame, BasicState,
                                BoundaryStructureError, SheetOperators,
                                assemble_effective, c_matrix, good_unknown,
                                good_unknown_inverse, homogenize_boundary,
                                _j_off, j_matrix,
                                reconstruct_front_derivatives,
                                sheared_sheet_state, solve_g3_transport,
                                trivial_sheet_state, validate_basic_state)
from cvsheet.mhd import (IH1, IH2, IP, IS, IU1, IU2, AdmissibilityError,
                         IdealGasEos, PhysState, assemble_coefficients,
                         coefficient_jacobians)
from cvsheet.scenarios import ManufacturedBoundaryData, ManufacturedForcing
from cvsheet.stability import assemble_symmetrizer

EOS = IdealGasEos()


@pytest.fixture
def grid():
    return Grid(n1=40, n2=40, L1=2 * np.pi, L2=2 * np.pi)


def test_trivial_state_validates(grid):
    b = trivial_sheet_state(grid, EOS, u2_jump=0.4, H2_plus=1.5, H2_minus=1.1)
    rep = validate_basic_state(b)
    assert rep.ok
    assert rep.jump_residual == 0.0
    assert rep.div_residual < 1e-14


def test_sheared_state_validates(grid):
    b = sheared_sheet_state(grid, EOS, rng=np.random.default_rng(2))
    rep = validate_basic_state(b)
    assert rep.ok
    assert rep.transport_residual < 1e-12


def test_validation_catches_divergence_violation(grid):
    b = trivial_sheet_state(grid, EOS, H2_plus=1.5, H2_minus=1.1)
    x1, x2 = grid.mesh()
    bump = 0.05 * np.exp(-((x1 - 2.0) ** 2)) * np.sin(x2)
    b.U[0, 0, IH1] += bump  # H1 perturbation breaks div h = 0
    rep = validate_basic_state(b)
    injected = np.max(np.abs(grid.d1(bump)))
    assert not rep.ok
    assert rep.div_residual == pytest.approx(injected, rel=1e-12)


def test_stream_function_divergence_refines():
    # analytic H = (d2 psi, -d1 psi) sampled: discrete div decays with h
    res = []
    for n in (24, 48, 96):
        g = Grid(n1=n, n2=n, L1=2 * np.pi, L2=2 * np.pi)
        x1, x2 = g.mesh()
        H1 = np.exp(-((x1 - 3.0) ** 2)) * np.cos(x2)          # d2 psi
        H2 = 2.0 * (x1 - 3.0) * np.exp(-((x1 - 3.0) ** 2)) * np.sin(x2)
        div = g.d1(H1) + g.d2(H2)
        res.append(np.max(np.abs(div)))
    slope = np.log2(res[0] / res[-1]) / 2
    assert slope >= 2.0


def test_good_unknown_roundtrip(grid):
    rng = np.random.default_rng(0)
    b = sheared_sheet_state(grid, EOS, rng=rng)
    fr = b.frame(0.0)
    dU = rng.normal(size=(2, 6, grid.n1, grid.n2))
    psi = rng.normal(size=(2, grid.n1, grid.n2))
    Udot = good_unknown(dU, psi, fr)
    back = good_unknown_inverse(Udot, psi, fr)
    assert np.max(np.abs(back - dU)) <= 1e-14
    # Psi = 0 and constant states are fixed points
    b0 = trivial_sheet_state(grid, EOS)
    fr0 = b0.frame(0.0)
    assert np.array_equal(good_unknown(dU, np.zeros_like(psi), fr), dU)
    assert np.allclose(good_unknown(dU, psi, fr0), dU, atol=1e-12)


def test_c_matrix_matches_directional_fd(grid):
    b = sheared_sheet_state(grid, EOS, rng=np.random.default_rng(5))
    fr = b.frame(0.0)
    C = c_matrix(fr.U, fr.Ut, grid.d1(fr.U), grid.d2(fr.U), fr.lifted, EOS)
    rng = np.random.default_rng(7)
    Y = rng.normal(size=(2, 6, grid.n1, grid.n2))
    eps = 1e-6
    d1U = grid.d1(fr.U)
    d2U = grid.d2(fr.U)

    def flux(U):
        out = np.empty_like(U)
        for i in range(2):
            st = PhysState.from_vector(U[i])
            a0, a1, a2 = assemble_coefficients(st, EOS)
            a1t = (a1 - a0 * fr.lifted.dt_psi[i]
                   - a2 * fr.lifted.d2_psi[i]) / fr.lifted.d1_phi_map[i]
            out[i] = (np.einsum("ij...,j...->i...", a0, fr.Ut[i])
                      + np.einsum("ij...,j...->i...", a1t, d1U[i])
                      + np.einsum("ij...,j...->i...", a2, d2U[i]))
        return out

    fd = (flux(fr.U + eps * Y) - flux(fr.U - eps * Y)) / (2 * eps)
    CY = np.einsum("skl...,sl...->sk...", C, Y)
    assert np.max(np.abs(CY - fd)) < 1e-6


def _moving_curved_front(grid, amp=0.2, rate=0.3, shift=0.0):
    """Lift of phi = amp sin(x2 + shift) moving at dphi/dt = rate cos(x2)."""
    return lift_front(amp * np.sin(grid.x2 + shift), grid, CutoffChi(),
                      rate * np.cos(grid.x2))


def _smooth_state(grid, rng, base):
    """Admissible (2, 6, n1, n2) state: ``base`` plus smooth bumps."""
    x1, x2 = grid.mesh()
    U = np.empty((2, 6, grid.n1, grid.n2))
    for i in range(2):
        for k in range(6):
            a, b, c = rng.uniform(-0.2, 0.2, 3)
            U[i, k] = (base[k] + a * np.cos(0.5 * x1) * np.sin(x2)
                       + b * np.sin(x1) + c * np.cos(2 * x2))
    return U


def test_c_matrix_matches_directional_fd_on_moving_curved_front(grid):
    rng = np.random.default_rng(11)
    U = _smooth_state(grid, rng, (1.5, 0.3, 0.2, 0.4, 1.2, 0.2))
    Ut = 0.1 * rng.normal(size=U.shape)
    lifted = _moving_curved_front(grid)
    assert np.max(np.abs(lifted.dt_psi)) > 0 and np.max(np.abs(lifted.d2_psi)) > 0
    C = c_matrix(U, Ut, grid.d1(U), grid.d2(U), lifted, EOS)
    Y = rng.normal(size=U.shape)
    eps = 1e-6
    d1U = grid.d1(U)
    d2U = grid.d2(U)

    def flux(U):
        out = np.empty_like(U)
        for i in range(2):
            st = PhysState.from_vector(U[i])
            a0, a1, a2 = assemble_coefficients(st, EOS)
            a1t = (a1 - a0 * lifted.dt_psi[i]
                   - a2 * lifted.d2_psi[i]) / lifted.d1_phi_map[i]
            out[i] = (np.einsum("ij...,j...->i...", a0, Ut[i])
                      + np.einsum("ij...,j...->i...", a1t, d1U[i])
                      + np.einsum("ij...,j...->i...", a2, d2U[i]))
        return out

    fd = (flux(U + eps * Y) - flux(U - eps * Y)) / (2 * eps)
    CY = np.einsum("skl...,sl...->sk...", C, Y)
    assert np.max(np.abs(CY - fd)) < 1e-6


def _dense_c_matrix(U, Ut, lifted):
    """C by contracting the dense (6, 6, 6) state-derivative tensors."""
    g = lifted.grid
    d1U, d2U = g.d1(U), g.d2(U)
    out = np.empty((2, 6, 6, g.n1, g.n2))
    for i in range(2):
        dA0, dA1, dA2 = coefficient_jacobians(PhysState.from_vector(U[i]),
                                              EOS)
        dA1t = straighten(dA0, dA1, dA2, lifted, i)
        out[i] = (np.einsum("lkm...,m...->kl...", dA0, Ut[i])
                  + np.einsum("lkm...,m...->kl...", dA1t, d1U[i])
                  + np.einsum("lkm...,m...->kl...", dA2, d2U[i]))
    return out


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.floats(1.0, 3.0),
       u1=st.floats(0.1, 1.0), H1=st.floats(0.1, 1.0),
       S=st.floats(0.1, 1.0), amp=st.floats(0.05, 0.3),
       rate=st.floats(0.1, 1.0))
def test_closed_form_c_matrix_equals_dense_contraction(seed, p, u1, H1, S,
                                                        amp, rate):
    grid = Grid(n1=12, n2=12, L1=2 * np.pi, L2=2 * np.pi)
    rng = np.random.default_rng(seed)
    U = _smooth_state(grid, rng, (p, u1, 0.3, H1, 0.8, S))
    Ut = rng.normal(size=U.shape)
    lifted = _moving_curved_front(grid, amp, rate, shift=rng.uniform(0, 1))
    C = c_matrix(U, Ut, grid.d1(U), grid.d2(U), lifted, EOS)
    ref = _dense_c_matrix(U, Ut, lifted)
    for i in range(2):
        assert np.max(np.abs(C[i] - ref[i])) <= 1e-14 * np.max(np.abs(ref[i]))


def test_c_matrix_rejects_nonpositive_pressure(grid):
    U = _smooth_state(grid, np.random.default_rng(0), (1.0, 0, 0, 0, 1, 0))
    U[1, IP, 3, 5] = 0.0
    with pytest.raises(AdmissibilityError, match="pressure"):
        c_matrix(U, np.zeros_like(U), grid.d1(U), grid.d2(U),
                 _moving_curved_front(grid), EOS)


def test_c_matrix_evaluates_the_density_once(grid, monkeypatch):
    # rho_p, rho_S, rho_pp and rho_pS all follow from the one density value
    U = _smooth_state(grid, np.random.default_rng(0), (1.0, 0, 0, 0, 1, 0))
    p, S = U[:, IP], U[:, IS]
    jet = EOS.density_jet(p, S)
    for got, method in zip(jet, (EOS.density, EOS.density_dp, EOS.density_dS,
                                 EOS.density_dpp, EOS.density_dpS)):
        assert np.array_equal(got, method(p, S))
    calls = []

    def counted(self, p, S):
        calls.append(1)
        return density(self, p, S)

    density = IdealGasEos.density
    monkeypatch.setattr(IdealGasEos, "density", counted)
    c_matrix(U, np.zeros_like(U), grid.d1(U), grid.d2(U),
             _moving_curved_front(grid), EOS)
    assert len(calls) == 1
    U[0, IS, 2, 3] = 40.0               # rho = exp(-24): below the margin
    with pytest.raises(AdmissibilityError, match="density below margin"):
        c_matrix(U, np.zeros_like(U), grid.d1(U), grid.d2(U),
                 _moving_curved_front(grid), EOS)


def test_boundary_structure_rank4(grid):
    rng = np.random.default_rng(3)
    for trial in range(5):
        b = sheared_sheet_state(grid, EOS, rng=rng)
        ops = assemble_effective(b.frame(0.0), boundary_tol=1e-8)
        assert ops.A1_boundary_residual <= 1e-12
        bm = ops.A1[..., 0, :]
        M = np.zeros((grid.n2, 12, 12))
        M[:, :6, :6] = np.moveaxis(bm[0], (0, 1), (1, 2))
        M[:, 6:, 6:] = np.moveaxis(bm[1], (0, 1), (1, 2))
        eigs = np.sort(np.linalg.eigvalsh(M), axis=1)
        assert np.allclose(eigs[:, :2], -1.0, atol=1e-10)
        assert np.allclose(eigs[:, -2:], 1.0, atol=1e-10)
        assert np.max(np.abs(eigs[:, 2:-2])) < 1e-10


def test_boundary_structure_error_on_bad_state(grid):
    b = trivial_sheet_state(grid, EOS, H2_plus=1.5, H2_minus=1.1)
    b.U[0, 0, IU1] += 0.3  # nonzero wall-normal velocity: breaks the jump
    with pytest.raises(BoundaryStructureError):
        assemble_effective(b.frame(0.0), boundary_tol=1e-8)


def test_lambda_zero_makes_b_family_equal_a_family(grid):
    b = sheared_sheet_state(grid, EOS, rng=np.random.default_rng(11))
    lam0 = np.zeros((2, grid.n1, grid.n2))
    ops = assemble_effective(b.frame(0.0), lam_field=lam0)
    for A, B in ((ops.A0, ops.B0), (ops.A1, ops.B1), (ops.A2, ops.B2),
                 (ops.A3, ops.B3)):
        assert np.allclose(A, B, atol=1e-12)


def test_zero_data_zero_solution(grid):
    b = trivial_sheet_state(grid, EOS, u2_jump=0.3, H2_plus=1.3, H2_minus=1.0)
    traj = evolve(b, t_final=0.25)
    assert np.all(traj.phi == 0.0)
    assert np.all(traj.boundary_energy == 0.0)
    assert traj.ledger.final().I == 0.0


def test_unstable_sheet_records_multiplier_fallback(grid):
    stable = trivial_sheet_state(grid, EOS, u2_jump=0.3, H2_plus=1.3,
                                 H2_minus=1.0)
    assert evolve(stable, t_final=0.05).lambda_fallback is None
    unstable = trivial_sheet_state(grid, EOS, u2_jump=3.0, H2_plus=0.2,
                                   H2_minus=0.2)
    traj = evolve(unstable, t_final=0.05)
    assert "stability condition violated" in traj.lambda_fallback


def test_multiplier_build_failure_propagates(grid, monkeypatch):
    import cvsheet.linearized as lin

    def broken(*args, **kwargs):
        raise RuntimeError("multiplier assembly failed")

    monkeypatch.setattr(lin, "build_lambda", broken)
    b = trivial_sheet_state(grid, EOS, u2_jump=0.3, H2_plus=1.3,
                            H2_minus=1.0)
    with pytest.raises(RuntimeError, match="multiplier assembly failed"):
        evolve(b, t_final=0.05)


def _ramped_trivial_stack(rate):
    """Five snapshots on [0, 1] of the 16^2 trivial sheet, H2 = 1 + rate t."""
    grid = Grid(n1=16, n2=16, L1=2 * np.pi, L2=2 * np.pi)
    tgrid = np.linspace(0.0, 1.0, 5)
    U = np.repeat(trivial_sheet_state(grid, EOS).U, len(tgrid), axis=0)
    U[:, :, IH2] = 1.0 + rate * tgrid[:, None, None, None]
    return BasicState(grid=grid, eos=EOS, U=U,
                      phi=np.zeros((len(tgrid), grid.n2)), tgrid=tgrid)


def test_coefficient_rate_exact_at_end_snapshots():
    # J[P, H2V] = -H2 on a flat front, so H2 = 1 + t gives dJ/dt = -1 at
    # every snapshot, the first and the last included
    basic = _ramped_trivial_stack(1.0)
    for t in basic.tgrid:
        _, rates = _j_off(basic.frame(t), rates=True)
        assert np.allclose(rates[:, _J_OFF.index((IP, IH2V))], -1.0,
                           rtol=0.0, atol=1e-12)


def test_march_interpolates_each_stage_time_once(monkeypatch):
    # each RK step needs the bundle at t, t + dt/2 and t + dt; t was the
    # previous step's t + dt, and the end-of-step monitors read t + dt too
    import cvsheet.evolve as ev
    basic = _ramped_trivial_stack(0.1)
    calls = {"bracket": 0, "frame": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ev, "bracket", counted("bracket", ev.bracket))
    monkeypatch.setattr(BasicState, "frame",
                        counted("frame", BasicState.frame))
    traj = evolve(basic, t_final=1.0, dt_override=1.0 / 32, ledger=False)
    nsteps = len(traj.times) - 1
    assert nsteps == 32
    assert calls["bracket"] <= 2 * nsteps + 1
    # the CFL bound, then one frame per snapshot bundle
    assert calls["frame"] == 1 + len(basic.tgrid)


def test_forcing_evaluated_once_per_stage_time():
    # a step needs the forcing at t, t + dt/2 and t + dt; t is the previous
    # step's t + dt, and the monitors read t + dt again (dt = 1/32 makes
    # t + dt equal (n + 1) dt exactly, the time the monitors ask for)
    grid = Grid(n1=16, n2=16, L1=2 * np.pi, L2=2 * np.pi)
    basic = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4,
                                H2_minus=1.2)
    forcing = ManufacturedForcing(grid, amplitude=1.0, k2=2)
    times = []

    def counted(t):
        times.append(t)
        return forcing(t)

    traj = evolve(basic, t_final=1.0, dt_override=1.0 / 32, forcing=counted)
    nsteps = len(traj.times) - 1
    assert nsteps == 32
    assert len(times) <= 2 * nsteps + 1
    assert len(set(times)) == len(times)


def test_end_of_step_time_shared_with_the_monitors():
    # at this CFL step n dt + dt and (n + 1) dt differ in the last bit on
    # some steps; the end stage and the monitors must still ask for one time
    grid = Grid(n1=32, n2=32, L1=2 * np.pi, L2=2 * np.pi)
    basic = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4,
                                H2_minus=1.2)
    forcing = ManufacturedForcing(grid, amplitude=1.0, k2=2)
    times = []

    def counted(t):
        times.append(t)
        return forcing(t)

    traj = evolve(basic, t_final=0.5, forcing=counted, ledger=False)
    nsteps = len(traj.times) - 1
    assert nsteps == 41
    dt = 0.5 / nsteps
    assert any(n * dt + dt != (n + 1) * dt for n in range(nsteps))
    assert len(times) == 2 * nsteps + 1
    assert len(set(times)) == len(times)


def test_whole_number_of_steps_takes_exactly_that_many():
    # 0.6 / (0.1 / 5) evaluates to 30.000000000000004: still 30 steps, and
    # every snapshot on its requested time
    grid = Grid(n1=16, n2=16, L1=2 * np.pi, L2=2 * np.pi)
    tgrid = np.linspace(0.0, 0.6, 7)
    dt = (tgrid[1] - tgrid[0]) / 5
    assert tgrid[-1] / dt > 30
    traj = evolve(trivial_sheet_state(grid, EOS), t_final=tgrid[-1],
                  dt_override=dt, ledger=False, snapshot_times=tgrid)
    assert len(traj.times) == 31
    assert np.max(np.abs(traj.snapshot_times - tgrid)) <= 1e-12


def test_hn_monitor_reads_the_basic_wall_traces():
    # linearized wall constraint: V_HN = H2 d2 phi -+ phi d1 H_N, with H2
    # and d1 H_N = d1(H1 - H2 d2 phi) traces of the basic state
    grid = Grid(n1=32, n2=32, L1=2 * np.pi, L2=2 * np.pi)
    b = sheared_sheet_state(grid, EOS)
    g = ManufacturedBoundaryData(grid, amplitude=0.05, k2=2, ramp=0.05)
    t_final = 0.1
    nsteps = int(np.ceil(t_final / cfl_timestep(b)))
    traj = evolve(b, t_final=t_final, bdata=g, ledger=False,
                  snapshot_times=np.linspace(0.0, t_final, nsteps + 1))
    assert len(traj.snapshots) == len(traj.times) == nsteps + 1
    tr = b.frame(0.0).boundary_traces()
    for k, (V, phi) in enumerate(zip(traj.snapshots, traj.phi)):
        d2phi = grid.d2_boundary(phi)
        want = max(np.max(np.abs(tr[f"H2{tag}"] * d2phi - V[i, IHN, 0]
                                  - sgn * phi * tr[f"d1HN{tag}"]))
                   for i, sgn, tag in ((0, 1.0, "p"), (1, -1.0, "m")))
        assert traj.hn_residual[k] == pytest.approx(want, rel=1e-12, abs=0)
    assert traj.hn_residual.max() > 0


def test_forced_run_is_finite_and_identity_small(grid):
    b = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4, H2_minus=1.2)
    F = ManufacturedForcing(grid, amplitude=1.0, k2=2)
    traj = evolve(b, t_final=0.4, forcing=F)
    r = traj.ledger.final()
    assert r.I > 0
    assert abs(r.identity_residual) / r.I < 1e-3
    assert traj.div_residual.max() < 1e-10
    assert traj.hn_residual.max() < 1e-12
    assert r.I1star == pytest.approx(r.I + r.I0 + r.Isigma + r.I2)


def test_identity_residual_refines():
    res = []
    for n in (32, 64):
        g = Grid(n1=n, n2=n, L1=2 * np.pi, L2=2 * np.pi)
        b = trivial_sheet_state(g, EOS, u2_jump=0.5, H2_plus=1.4,
                                H2_minus=1.2)
        F = ManufacturedForcing(g, amplitude=1.0, k2=2)
        traj = evolve(b, t_final=0.4, forcing=F)
        res.append(abs(traj.ledger.final().identity_residual))
    assert np.log2(res[0] / res[1]) >= 1.5


def test_step_linearized_cfl_guard(grid):
    b = trivial_sheet_state(grid, EOS, H2_plus=1.2, H2_minus=1.0)
    V = np.zeros((2, 6, grid.n1, grid.n2))
    phi = np.zeros(grid.n2)
    with pytest.raises(NumericsError):
        step_linearized(b, V, phi, 0.0, 1.0)
    # the march refuses a step count past its guard before stepping
    with pytest.raises(NumericsError, match="step count"):
        evolve(b, t_final=1.0, dt_override=1e-6, ledger=False)


def test_g3_transport_vs_characteristics():
    # constant u2 advection: g3(t, x2) = int_0^t G(s, x2 - c (t - s)) ds
    errs = []
    for nt in (81, 161):
        g = Grid(n1=8, n2=96, L1=1.0, L2=2 * np.pi)
        c = 0.7
        U = np.zeros((2, 6, g.n1, g.n2))
        U[:, IP] = 1.0
        U[:, IU2] = c
        U[:, IH2] = 1.0
        b = BasicState(grid=g, eos=EOS, U=U, phi=np.zeros(g.n2))
        tg = np.linspace(0.0, 1.0, nt)

        def G(t):
            return np.sin(g.x2) * t * np.exp(-t)

        sol = solve_g3_transport(b, G, tg, side=+1)
        # oracle by high-resolution quadrature along characteristics
        s = np.linspace(0.0, 1.0, 4001)
        x2 = g.x2[None, :]
        integrand = np.sin(x2 - c * (1.0 - s[:, None])) * (s * np.exp(-s))[:, None]
        oracle = np.trapezoid(integrand, s, axis=0)
        errs.append(np.max(np.abs(sol[-1] - oracle)))
    assert errs[0] < 5e-3
    assert np.log2(errs[0] / errs[1]) >= 1.7


def test_r_transport_quadrature_and_causality():
    from cvsheet.linearized import solve_r_transport
    g = Grid(n1=16, n2=16, L1=2.0, L2=2 * np.pi)
    U = np.zeros((2, 6, g.n1, g.n2))
    U[:, IP] = 1.0
    U[:, 5] = 0.0
    b = BasicState(grid=g, eos=EOS, U=U, phi=np.zeros(g.n2))
    tg = np.linspace(0.0, 1.0, 81)
    # quiescent background: dR/dt = F, so R(T) is the time integral of F
    x1, x2 = g.mesh()
    shape = np.exp(-((x1 - 1.0) ** 2)) * np.cos(x2)

    def F(t):
        return shape * np.sin(2 * t)

    R = solve_r_transport(b, F, tg, side=+1)
    exact = shape * 0.5 * (1.0 - np.cos(2.0))
    assert np.max(np.abs(R[-1] - exact)) < 1e-4
    # zero source: causal zero solution
    R0 = solve_r_transport(b, lambda t: np.zeros((g.n1, g.n2)), tg, side=-1)
    assert np.all(R0 == 0.0)


def test_homogenize_boundary(grid):
    b = trivial_sheet_state(grid, EOS, u2_jump=0.4, H2_plus=1.4, H2_minus=1.2)
    nt = 17
    tg = np.linspace(0.0, 0.5, nt)
    f = np.zeros((nt, 2, 6, grid.n1, grid.n2))
    gfun = ManufacturedBoundaryData(grid, amplitude=0.5, k2=2)
    gdata = np.stack([gfun(t) for t in tg])

    Ut, F, g3 = homogenize_boundary(gdata, f, b, tg)
    # zero data reproduce zero lift and untouched forcing
    Ut0, F0, g30 = homogenize_boundary(np.zeros_like(gdata), f, b, tg)
    assert np.all(Ut0 == 0.0) and np.all(F0 == f) and np.all(g30 == 0.0)
    # trace prescriptions hold exactly at the wall
    d2phi = np.zeros(grid.n2)
    for n in range(nt):
        uN = Ut[n, :, IU1, 0, :] - Ut[n, :, IU2, 0, :] * d2phi
        assert np.allclose(uN[0], -gdata[n, 0], atol=1e-12)
        assert np.allclose(uN[1], -gdata[n, 1], atol=1e-12)
        q = Ut[n, :, IP, 0, :] + (b.U[0, :, IH1, 0, :] * Ut[n, :, IH1, 0, :]
                                  + b.U[0, :, IH2, 0, :] * Ut[n, :, IH2, 0, :])
        assert np.allclose(q[0] - q[1], gdata[n, 2], atol=1e-12)
        HN = Ut[n, :, IH1, 0, :]
        assert np.allclose(HN[0], -g3[n, 0], atol=1e-12)
        assert np.allclose(HN[1], -g3[n, 1], atol=1e-12)


def test_homogenize_boundary_on_interpolated_frames(grid):
    # a time-dependent basic state whose snapshots are not the data's time
    # grid: the pressure lift reads H-hat from the interpolated frames
    b0 = trivial_sheet_state(grid, EOS, u2_jump=0.4, H2_plus=1.4,
                             H2_minus=1.2)
    x1, x2 = grid.mesh()
    tb = np.linspace(0.0, 0.6, 7)
    U = np.repeat(b0.U, len(tb), axis=0)
    U[:, :, IH1] += (0.1 * np.cos(x2) * np.exp(-x1)
                     * (1.0 + 2.0 * tb)[:, None, None, None])
    phi = 0.02 * tb[:, None] * np.sin(grid.x2)[None, :]
    b = BasicState(grid=grid, eos=EOS, U=U, phi=phi, tgrid=tb)
    nt = 17
    tg = np.linspace(0.0, 0.5, nt)
    f = np.zeros((nt, 2, 6, grid.n1, grid.n2))
    gfun = ManufacturedBoundaryData(grid, amplitude=0.5, k2=2)
    gdata = np.stack([gfun(t) for t in tg])

    Ut, F, g3 = homogenize_boundary(gdata, f, b, tg)
    assert np.all(np.isfinite(F)) and np.any(F != 0.0)
    for n in range(nt):
        Hhat = b.frame(tg[n]).U[:, (IH1, IH2), 0, :]
        assert np.allclose(Ut[n, :, IU1, 0, :], -gdata[n, :2], atol=1e-12)
        assert np.all(Ut[n, :, IU2] == 0.0) and np.all(Ut[n, :, IH2] == 0.0)
        q = Ut[n, :, IP, 0, :] + (Hhat[:, 0] * Ut[n, :, IH1, 0, :]
                                  + Hhat[:, 1] * Ut[n, :, IH2, 0, :])
        assert np.allclose(q[0] - q[1], gdata[n, 2], atol=1e-12)
        assert np.allclose(Ut[n, :, IH1, 0, :], -g3[n], atol=1e-12)
    # zero data: zero lift, and L' of the zero increment leaves f as it is
    Ut0, F0, g30 = homogenize_boundary(np.zeros_like(gdata), f, b, tg)
    assert np.all(Ut0 == 0.0) and np.all(F0 == f) and np.all(g30 == 0.0)


def test_homogenize_norm_bound_refinement_stable():
    consts = []
    for n in (24, 48):
        g = Grid(n1=n, n2=n, L1=2 * np.pi, L2=2 * np.pi)
        b = trivial_sheet_state(g, EOS, u2_jump=0.4, H2_plus=1.4,
                                H2_minus=1.2)
        nt = 17
        tg = np.linspace(0.0, 0.5, nt)
        gfun = ManufacturedBoundaryData(g, amplitude=0.5, k2=2)
        gdata = np.stack([gfun(t) for t in tg])
        f = np.zeros((nt, 2, 6, g.n1, g.n2))
        _, F, _ = homogenize_boundary(gdata, f, b, tg)
        fnorm = np.sqrt(np.sum(F ** 2) * g.h1 * g.h2 * (tg[1] - tg[0]))
        gnorm = np.sqrt(np.sum(gdata ** 2) * g.h2 * (tg[1] - tg[0]))
        consts.append(fnorm / gnorm)
    assert max(consts) / min(consts) <= 2.0


def test_reconstruct_front_derivatives_simple():
    n2 = 32
    traces = {"H2p": np.ones(n2), "H2m": np.zeros(n2),
              "d1HNp": np.zeros(n2), "d1HNm": np.zeros(n2),
              "u2p": np.zeros(n2), "d1uNp": np.zeros(n2)}
    HNp = np.linspace(-1, 1, n2)
    dtphi, d2phi = reconstruct_front_derivatives(
        HNp, np.zeros(n2), np.zeros(n2), np.zeros(n2), traces)
    assert np.allclose(d2phi, HNp)
    with pytest.raises(ValueError):
        traces_bad = dict(traces, H2p=np.zeros(n2))
        reconstruct_front_derivatives(HNp, np.zeros(n2), np.zeros(n2),
                                      np.zeros(n2), traces_bad)


def test_reconstruction_consistent_on_trajectory(grid):
    b = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4,
                            H2_minus=1.2)
    F = ManufacturedForcing(grid, amplitude=1.0, k2=2)
    traj = evolve(b, t_final=0.4, forcing=F, ledger=False)
    tr = b.frame(0.0).boundary_traces()
    phi_hist = traj.phi
    dt = traj.times[1] - traj.times[0]
    dphi_fd = diff_time(phi_hist, dt, axis=0)
    d2phi_fd = np.stack([grid.d2_boundary(p) for p in phi_hist])
    # reconstruct at a midpoint time from the trajectory's wall traces
    n = len(traj.times) // 2
    t = traj.times[n]
    traj2 = evolve(b, t_final=t, forcing=F, ledger=False,
                   dt_override=dt, snapshot_times=[t])
    V = traj2.snapshots[-1]
    from cvsheet.linearized import IHN, IUN
    dtphi, d2phi = reconstruct_front_derivatives(
        V[0, IHN, 0, :], V[1, IHN, 0, :], V[0, IUN, 0, :],
        phi_hist[n], tr)
    assert np.max(np.abs(d2phi - d2phi_fd[n])) < 5e-3
    assert np.max(np.abs(dtphi - dphi_fd[n])) < 5e-3


def test_linearized_L_constant_state_zero(grid):
    b = trivial_sheet_state(grid, EOS, u2_jump=0.3, H2_plus=1.3,
                            H2_minus=1.1)
    nt = 5
    tg = np.linspace(0, 0.2, nt)
    ops = SheetOperators(grid, EOS, b.chi, tg)
    Uhat = np.repeat(b.U, nt, axis=0)
    phihat = np.zeros((nt, grid.n2))
    # the exact stencils annihilate constants, so L(Uhat) and C vanish, and
    # L' annihilates the zero increment and any constant one
    for dU in (np.zeros_like(Uhat), np.ones_like(Uhat)):
        value, lin = ops.linearized_L(Uhat, phihat,
                                      ops.increment(dU, phihat))
        assert np.all(value == 0.0)
        assert np.all(lin == 0.0)


def _dense_families(fr, lam, dJdt):
    """(A, B) families by dense 6x6 contractions with J, d1J, d2J, dJ/dt."""
    g = fr.grid

    def mm(a, b):
        return np.einsum("ik...,kj...->ij...", a, b)

    J = j_matrix(fr)
    d1J, d2J = g.d1(J), g.d2(J)
    C = c_matrix(fr.U, fr.Ut, g.d1(fr.U), g.d2(fr.U), fr.lifted, EOS)
    A = [np.empty_like(J) for _ in range(4)]
    B = [np.empty_like(J) for _ in range(4)]
    for i, (a0, a1t, a2) in enumerate(
            straightened_coefficients(fr.U, fr.lifted, EOS)):
        sym = assemble_symmetrizer(fr.states[i], lam[i], EOS)
        b1t = straighten(sym.B0, sym.B1, sym.B2, fr.lifted, i)
        Jt = np.swapaxes(J[i], 0, 1)
        for fam, (m0, m1, m2, zc) in ((A, (a0, a1t, a2, C[i])),
                                      (B, (sym.B0, b1t, sym.B2,
                                           mm(sym.S, C[i])))):
            for k, m in enumerate((m0, m1, m2)):
                fam[k][i] = mm(Jt, mm(m, J[i]))
            inner = (mm(zc, J[i]) + mm(m1, d1J[i]) + mm(m2, d2J[i])
                     + mm(m0, dJdt[i]))
            fam[3][i] = mm(Jt, inner)
    return A, B


def _dense_rate(fr):
    """dJ/dt of ``_j_off`` as a dense (2, 6, 6, n1, n2) matrix field."""
    _, rates = _j_off(fr, rates=True)
    dJdt = np.zeros((2, 6, 6) + rates.shape[-2:])
    for e, (r, c) in enumerate(_J_OFF):
        dJdt[:, r, c] = rates[:, e]
    return dJdt


def _moving_frame(seed, amp, rate, steady):
    """A frame of a sheared sheet with a curved front: of the steady state,
    or at a time between snapshots of a state whose fields and front move."""
    grid = Grid(n1=12, n2=12, L1=2 * np.pi, L2=2 * np.pi)
    rng = np.random.default_rng(seed)
    b = sheared_sheet_state(grid, EOS, rng=rng)
    if steady:
        b.phi = amp * np.sin(grid.x2)[None]
        return b.frame(0.0), rng
    tgrid = np.linspace(0.0, 1.0, 5)
    t = tgrid[:, None, None, None, None]
    U = b.U * (1.0 + 0.05 * np.sin(rate * t + grid.x1[:, None]))
    phi = amp * np.sin(grid.x2[None] + rate * tgrid[:, None])
    moving = BasicState(grid=grid, eos=EOS, U=U, phi=phi, tgrid=tgrid)
    return moving.frame(rng.uniform(0.0, 1.0)), rng


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), amp=st.floats(0.05, 0.3),
       rate=st.floats(0.1, 1.0))
def test_sparse_conjugation_equals_dense_contraction(seed, amp, rate):
    # J = I + four entries: the row and column updates of
    # assemble_effective sum the same nonzero products in the same order
    # as the dense einsums, so every coefficient agrees bit for bit
    grid = Grid(n1=12, n2=12, L1=2 * np.pi, L2=2 * np.pi)
    rng = np.random.default_rng(seed)
    b = sheared_sheet_state(grid, EOS, rng=rng)
    fr = BasicFrame(b, b.U[0], 0.1 * rng.normal(size=b.U[0].shape),
                    amp * np.sin(grid.x2), rate * np.cos(grid.x2))
    dJdt = _dense_rate(fr)
    assert np.max(np.abs(fr.lifted.d2_psi)) > 0
    assert np.max(np.abs(fr.lifted.dt_psi)) > 0
    assert np.max(np.abs(dJdt)) > 0
    lam = rng.uniform(0.0, 0.1, size=(2, grid.n1, grid.n2))
    ops = assemble_effective(fr, lam)
    A, B = _dense_families(fr, lam, dJdt)
    got = (ops.A0, ops.A1, ops.A2, ops.A3, ops.B0, ops.B1, ops.B2, ops.B3)
    for x, want in zip(got, A + B):
        assert np.array_equal(x, want)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), amp=st.floats(0.05, 0.3),
       rate=st.floats(0.1, 1.0), steady=st.booleans())
def test_solved_family_equals_dense_inverse(seed, amp, rate, steady):
    # the closed form J^{-1} A0^{-1} R_k against inv(J^T A0 J) J^T R_k
    fr, rng = _moving_frame(seed, amp, rate, steady)
    assert np.max(np.abs(fr.lifted.d2_psi)) > 0
    assert steady or np.max(np.abs(fr.lifted.dt_psi)) > 0
    ops = assemble_effective(fr)
    A, _ = _dense_families(fr, np.zeros((2,) + fr.U.shape[-2:]),
                           _dense_rate(fr))

    def mv(a):
        return np.moveaxis(a, (1, 2), (-2, -1))

    inv = np.linalg.inv(mv(A[0]))
    for name, X in (("M1", A[1]), ("M2", A[2]), ("M3", A[3]),
                    ("A0invJt", np.swapaxes(j_matrix(fr), 1, 2))):
        want = np.moveaxis(inv @ mv(X), (-2, -1), (1, 2))
        err = np.max(np.abs(getattr(ops, name) - want))
        assert err <= 1e-13 * np.max(np.abs(want)), name


_APPLIED = ("M1", "M2", "M3", "A0invJt", "J")


def _trivial_stepper(grid):
    b = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4,
                            H2_minus=1.2)
    return ev.LinearizedStepper(
        b, forcing=ManufacturedForcing(grid, amplitude=1.0, k2=2))


def test_uniform_coefficients_are_stored_compact(grid):
    co = _trivial_stepper(grid).cache.at(0.0)
    for key in _APPLIED:
        assert co[key].shape == (2, 6, 6, 1, 1), key
    # exact stencils: the zero-order coefficient of the planar sheet is 0
    assert not np.any(co["M3"])
    assert co["ops"].A0.shape == (2, 6, 6, grid.n1, 1)
    sheared = sheared_sheet_state(grid, EOS, rng=np.random.default_rng(4))
    co = ev._CoeffCache(sheared, None).at(0.0)
    for key in _APPLIED:
        assert co[key].shape == (2, 6, 6, grid.n1, grid.n2), key


def test_compact_rhs_equals_full_rhs(grid):
    stepper = _trivial_stepper(grid)
    co = stepper.cache.at(0.0)
    full = dict(co)
    for key in _APPLIED:
        full[key] = np.ascontiguousarray(
            np.broadcast_to(co[key], (2, 6, 6, grid.n1, grid.n2)))
    rng = np.random.default_rng(8)
    V = rng.normal(size=(2, 6, grid.n1, grid.n2))
    phi = rng.normal(size=grid.n2)
    g = rng.normal(size=(3, grid.n2))
    for got, want in zip(stepper.rhs(V, phi, 0.3, co, g),
                         stepper.rhs(V, phi, 0.3, full, g)):
        assert np.array_equal(got, want)


def test_interpolation_mixes_compact_and_full_bundles(grid):
    # the planar sheet at t = 0 grows an x1 bump linearly in time: the
    # bundle at t = 0 keeps M1 and M2 compact, the one at t = 1/2 holds
    # full fields, and their interpolation broadcasts
    flat = trivial_sheet_state(grid, EOS, H2_plus=1.3, H2_minus=1.1)
    tgrid = np.array([0.0, 0.5, 1.0])
    U = np.repeat(flat.U, len(tgrid), axis=0)
    ramp = 0.05 * tgrid[:, None, None, None]
    U[:, :, IH2] += ramp * np.cos(grid.x1)[:, None]
    U[:, :, IP] += ramp * np.sin(grid.x1)[:, None]
    basic = BasicState(grid=grid, eos=EOS, U=U,
                       phi=np.zeros((len(tgrid), grid.n2)), tgrid=tgrid)
    cache = ev._CoeffCache(basic, None)
    b0, b1 = cache._bundle(0), cache._bundle(1)
    full = (2, 6, 6, grid.n1, grid.n2)
    assert b0["M1"].shape == b0["M2"].shape == (2, 6, 6, 1, 1)
    assert b1["M1"].shape == b1["M2"].shape == full
    w = 0.375
    mid = cache.at(w * tgrid[1])
    for key in ev._CoeffCache._KEYS:
        want = ((1 - w) * np.broadcast_to(b0[key], b1[key].shape)
                + w * b1[key])
        assert mid[key].shape == b1[key].shape, key
        assert np.array_equal(mid[key], want), key


def test_time_dependent_bundles_are_c_contiguous(grid):
    # the solve's coefficients are read by every stage apply: snapshot
    # bundles and their interpolations are all C-ordered
    sheared = sheared_sheet_state(grid, EOS, rng=np.random.default_rng(4))
    tgrid = np.array([0.0, 0.5, 1.0])
    U = np.repeat(sheared.U, len(tgrid), axis=0)
    U[:, :, IH2] += 0.05 * tgrid[:, None, None, None] * np.cos(grid.x1)[:, None]
    basic = BasicState(grid=grid, eos=EOS, U=U,
                       phi=np.zeros((len(tgrid), grid.n2)), tgrid=tgrid)
    cache = ev._CoeffCache(basic, None)
    for co in (cache._bundle(0), cache._bundle(1), cache.at(0.3)):
        for key in _APPLIED:
            assert co[key].shape == (2, 6, 6, grid.n1, grid.n2), key
            assert co[key].flags.c_contiguous, key


def _column_and_full(basic, lam_field):
    """The cache's bundle of ``basic`` (on one x2 column where it can be)
    and the same bundle built on the full grid."""
    column = ev._CoeffCache(basic, lam_field)
    full = ev._CoeffCache(basic, lam_field)
    full._source, full.lam_field = basic, lam_field
    return column, full


def _bits_equal_broadcast(got, want):
    return np.array_equal(np.broadcast_to(got, np.shape(want)), want)


@pytest.mark.parametrize("n", [32, 40])
def test_column_bundle_equals_full_grid_assembly(n):
    grid = Grid(n1=n, n2=n, L1=2 * np.pi, L2=2 * np.pi)
    basic = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4,
                                H2_minus=1.2)
    lam_field, fallback = ev._ledger_multiplier(basic)
    assert fallback is None and np.ptp(lam_field) > 0
    column, full = _column_and_full(basic, lam_field)
    assert column._source.grid == Grid(n, 1, grid.L1, grid.L2)
    co, ref = column.at(0.0), full.at(0.0)
    assert co["ops"].A0.shape == (2, 6, 6, n, 1)
    assert ref["ops"].A0.shape == (2, 6, 6, n, n)
    for name in ("J", "A0", "A1", "A2", "A3", "B0", "B1", "B2", "B3", "S"):
        assert _bits_equal_broadcast(getattr(co["ops"], name),
                                     getattr(ref["ops"], name)), name
    for key in ev._CoeffCache._KEYS:
        assert _bits_equal_broadcast(co[key], ref[key]), key
    for key, want in ref["traces"].items():
        assert _bits_equal_broadcast(co["traces"][key], want), key
    sponge = ev.LinearizedStepper(basic).sponge
    led = ev._LedgerAccumulator(grid, column, 0.01, sponge)
    led_ref = ev._LedgerAccumulator(grid, full, 0.01, sponge)
    assert led._zo_matrix.shape == (2, 6, 6, n, 1)
    for name in ("_zo_matrix", "_S", "_B0", "_T"):
        assert _bits_equal_broadcast(getattr(led, name),
                                     getattr(led_ref, name)), name


def test_x1_only_steady_state_is_assembled_on_one_column(grid):
    basic = trivial_sheet_state(grid, EOS, H2_plus=1.3, H2_minus=1.1)
    bump = 0.05 * np.cos(grid.x1)[:, None]
    basic.U[:, :, IH2] += bump
    basic.U[:, :, IP] += bump
    column, full = _column_and_full(basic, None)
    co, ref = column.at(0.0), full.at(0.0)
    assert co["M1"].shape == co["M2"].shape == (2, 6, 6, grid.n1, 1)
    assert ref["M1"].shape == (2, 6, 6, grid.n1, grid.n2)
    stepper = ev.LinearizedStepper(
        basic, forcing=ManufacturedForcing(grid, amplitude=1.0, k2=2))
    rng = np.random.default_rng(9)
    V = rng.normal(size=(2, 6, grid.n1, grid.n2))
    phi = rng.normal(size=grid.n2)
    g = rng.normal(size=(3, grid.n2))
    for got, want in zip(stepper.rhs(V, phi, 0.3, co, g),
                         stepper.rhs(V, phi, 0.3, ref, g)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_x2_varying_or_time_dependent_states_keep_the_full_grid(grid):
    sheared = sheared_sheet_state(grid, EOS, rng=np.random.default_rng(4))
    assert ev._CoeffCache(sheared, None)._source is sheared
    flat = trivial_sheet_state(grid, EOS)
    lam = np.zeros((2, grid.n1, grid.n2))
    lam[:, :, 0] = 1e-3                 # a multiplier that varies in x2
    assert ev._CoeffCache(flat, lam)._source is flat
    ramped = _ramped_trivial_stack(0.1)
    assert ev._CoeffCache(ramped, None)._source is ramped
