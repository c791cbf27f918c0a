import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvsheet.evolve as ev
from cvsheet.evolve import NumericsError, cfl_timestep, evolve
from cvsheet.front import lift_front, straighten, straightened_coefficients
from cvsheet.grid import Grid, diff_time
from cvsheet.linearized import (_J_OFF, IH2V, IHN, IQ, IUN, BasicFrame,
                                BasicState, SheetOperators,
                                assemble_effective, assemble_symmetrized,
                                boundary_traces, bracket, c_matrix,
                                good_unknown_inverse, _j_off, j_matrix,
                                time_step, trivial_sheet_state,
                                validate_basic_state)
from cvsheet.mhd import (IH1, IH2, IP, IS, IU1, IU2, AdmissibilityError,
                         IdealGasEos, PhysState, assemble_coefficients)
from cvsheet.scenarios import ManufacturedBoundaryData, ManufacturedForcing
from cvsheet.stability import assemble_symmetrizer, linearized_wall_rows
from support import coefficient_jacobians, linearized_L, sheared_sheet_state

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


def _good_unknown(deltaU, psi, frame):
    """Udot = deltaU - (d1 U-hat / d1 Phi-hat) Psi, per side: the Alinhac
    good unknown, the oracle ``good_unknown_inverse`` must undo."""
    d1U = frame.grid.d1(frame.U)
    jac = frame.lifted.d1_phi_map
    return deltaU - d1U / jac[:, None] * psi[:, None]


def test_good_unknown_roundtrip(grid):
    rng = np.random.default_rng(0)
    b = sheared_sheet_state(grid, EOS, rng=rng)
    fr = b.frame(0)
    dU = rng.normal(size=(2, 6, grid.n1, grid.n2))
    psi = rng.normal(size=(2, grid.n1, grid.n2))
    Udot = _good_unknown(dU, psi, fr)
    back = good_unknown_inverse(Udot, psi, fr)
    assert np.max(np.abs(back - dU)) <= 1e-14
    # Psi = 0 and constant states are fixed points
    b0 = trivial_sheet_state(grid, EOS)
    fr0 = b0.frame(0)
    assert np.array_equal(_good_unknown(dU, np.zeros_like(psi), fr), dU)
    assert np.allclose(_good_unknown(dU, psi, fr0), dU, atol=1e-12)


def test_c_matrix_matches_directional_fd(grid):
    b = sheared_sheet_state(grid, EOS, rng=np.random.default_rng(5))
    fr = b.frame(0)
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
    return lift_front(amp * np.sin(grid.x2 + shift), grid,
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
    rho, rho_p, gam = EOS.density(p, S), EOS.density_dp(p, S), EOS.gamma
    for got, want in zip(jet, (rho, rho_p, -rho / gam,
                               rho * (1.0 - gam) / (gam * p) ** 2,
                               -rho_p / gam)):
        assert np.array_equal(got, want)
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


def _wall_boundary_matrix(b):
    """The wall row of the boundary matrix A1c of ``b`` at snapshot 0: B1 at
    lambda = 0, and its largest entry off diag(E12, -E12)."""
    g = b.grid
    ops = assemble_symmetrized(b.frame(0), np.zeros((2, g.n1, g.n2)))
    bm = ops.B1[..., 0, :]
    E12 = np.zeros((6, 6, 1))
    E12[IQ, IUN] = E12[IUN, IQ] = 1.0
    return bm, float(np.max(np.abs(bm - np.stack([E12, -E12]))))


def test_boundary_structure_rank4(grid):
    rng = np.random.default_rng(3)
    for trial in range(5):
        b = sheared_sheet_state(grid, EOS, rng=rng)
        bm, residual = _wall_boundary_matrix(b)
        assert residual <= 1e-12
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
    assert _wall_boundary_matrix(b)[1] > 1e-8


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


def _ramped_trivial_stack(rate, tgrid=None):
    """Snapshots at ``tgrid`` (five on [0, 1] by default) of the 16^2
    trivial sheet, H2 = 1 + rate t."""
    grid = Grid(n1=16, n2=16, L1=2 * np.pi, L2=2 * np.pi)
    if tgrid is None:
        tgrid = np.linspace(0.0, 1.0, 5)
    U = np.repeat(trivial_sheet_state(grid, EOS).U, len(tgrid), axis=0)
    U[:, :, IH2] = 1.0 + rate * tgrid[:, None, None, None]
    return BasicState(grid=grid, eos=EOS, U=U,
                      phi=np.zeros((len(tgrid), grid.n2)), tgrid=tgrid)


def test_coefficient_rate_exact_at_end_snapshots():
    # J[P, H2V] = -H2 on a flat front, so H2 = 1 + t gives dJ/dt = -1 at
    # every snapshot, the first and the last included
    basic = _ramped_trivial_stack(1.0)
    for k in range(len(basic.tgrid)):
        _, rates = _j_off(basic.frame(k), rates=True)
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
    traj = evolve(basic, t_final=1.0, dt_override=1.0 / 32)
    nsteps = len(traj.times) - 1
    assert nsteps == 32
    assert calls["bracket"] <= 2 * nsteps + 1
    # one frame per snapshot bundle; the CFL bound reads the snapshots
    assert calls["frame"] == len(basic.tgrid)


def test_cfl_step_bounds_every_snapshot():
    # H2 = 1 + 3 t speeds the fast wave up over the march: the step must
    # fit the fastest snapshot, not the one at t = 0
    basic = _ramped_trivial_stack(3.0)
    fastest = min(cfl_timestep(BasicState(grid=basic.grid, eos=EOS, U=U,
                                          phi=phi))
                  for U, phi in zip(basic.U, basic.phi))
    assert fastest < 0.5 * cfl_timestep(BasicState(
        grid=basic.grid, eos=EOS, U=basic.U[0], phi=basic.phi[0]))
    assert cfl_timestep(basic) == fastest


def test_forward_march_builds_each_snapshot_bundle_once(monkeypatch):
    # the cache keeps only the current bracket's two bundles, and a
    # forward march never comes back for a dropped one
    basic = _ramped_trivial_stack(0.1)
    build = ev._CoeffCache._build
    built = []

    def recording(self, k):
        built.append(k)
        assert len(self._snap) <= 1     # the new bundle makes two at most
        return build(self, k)

    monkeypatch.setattr(ev._CoeffCache, "_build", recording)
    evolve(basic, t_final=1.0, dt_override=1.0 / 32)
    assert built == list(range(len(basic.tgrid)))


def test_time_dependent_march_runs_the_recorder_alone():
    # the monitors and the ledger observe steady states only: a
    # time-dependent march (the Nash-Moser solve's) records its fields
    traj = evolve(_ramped_trivial_stack(0.1), t_final=1.0,
                  dt_override=1.0 / 8, snapshot_times=[0.5, 1.0])
    for name in ("ledger", "boundary_energy", "div_residual", "hn_residual",
                 "apriori", "cstar"):
        assert getattr(traj, name) is None, name
    assert set(traj.timings) == {"march", "snapshots"}
    assert len(traj.times) == 9 and traj.snapshots.shape == (2, 2, 6, 16, 16)


def test_evolve_takes_no_monitors_switch():
    # the basic state alone decides which observers run
    b = _ramped_trivial_stack(0.1)
    with pytest.raises(TypeError, match="monitors"):
        evolve(b, t_final=1.0, dt_override=1.0 / 8, monitors=False)


def test_lookup_behind_the_window_equals_a_fresh_cache():
    basic = _ramped_trivial_stack(0.1)
    cache = ev._CoeffCache(basic)
    for t in (0.1, 0.55, 0.9):
        cache.at(t)
    assert set(cache._snap) == {3, 4}
    late, fresh = cache.at(0.1), ev._CoeffCache(basic).at(0.1)
    assert set(cache._snap) == {0, 1}
    assert set(late) == set(fresh) == {*ev._CoeffCache._MARCH_KEYS, "traces"}
    for key in ev._CoeffCache._MARCH_KEYS:
        assert np.array_equal(late[key], fresh[key]), key
    for key, trace in fresh["traces"].items():
        assert np.array_equal(late["traces"][key], trace), key


def test_non_uniform_or_mismatched_tgrid_refused():
    # with the step read off tgrid[1] - tgrid[0], this ramp (H2 = 1 + t)
    # had the rates 0.5, 2.5 and 4.0 at t = 0, 0.3 and 0.8 in place of 1
    uneven = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
    with pytest.raises(ValueError, match="not uniform"):
        _ramped_trivial_stack(1.0, uneven)
    with pytest.raises(ValueError, match="increasing"):
        _ramped_trivial_stack(1.0, np.linspace(1.0, 0.0, 5))
    b = _ramped_trivial_stack(1.0)
    with pytest.raises(ValueError, match="4 times for 5 snapshots"):
        BasicState(grid=b.grid, eos=EOS, U=b.U, phi=b.phi,
                   tgrid=b.tgrid[:4])
    with pytest.raises(ValueError, match="not uniform"):
        SheetOperators(b.grid, EOS, uneven)
    # linspace's roundoff is uniform, and the step is tgrid[1] - tgrid[0]
    tg = np.linspace(0.0, 2.0, 33)
    assert time_step(tg) == tg[1] - tg[0]
    assert SheetOperators(b.grid, EOS, tg).dt == tg[1] - tg[0]


def test_basic_state_refuses_misshaped_inputs():
    # each once built: phi cut to U's 3 snapshots, a 12-point front on a
    # 16^2 grid, a 16^2 U framed on a 20^2 grid, and one front for 3 U
    # snapshots, which failed only at frame(0.9) with an IndexError
    b = _ramped_trivial_stack(1.0, np.linspace(0.0, 1.0, 3))
    g, n = b.grid, b.grid.n2
    for kw in (dict(grid=g, U=b.U, phi=np.zeros((5, n)), tgrid=b.tgrid),
               dict(grid=g, U=b.U[0], phi=np.zeros(12)),
               dict(grid=Grid(20, 20, 1.0, 1.0), U=b.U[0], phi=np.zeros(n)),
               dict(grid=g, U=b.U, phi=b.phi[:1], tgrid=b.tgrid)):
        with pytest.raises(ValueError, match=r"are not \(nt, 2, 6"):
            BasicState(eos=EOS, **kw)


def test_evolve_refuses_to_run_past_the_snapshots():
    # the march needs the coefficients over all of [0, t_final]
    basic = _ramped_trivial_stack(0.1)
    with pytest.raises(ValueError, match="snapshots cover"):
        evolve(basic, t_final=3.0)
    late = _ramped_trivial_stack(0.1, np.linspace(0.5, 1.0, 5))
    with pytest.raises(ValueError, match="snapshots cover"):
        evolve(late, t_final=1.0)


def test_frame_refuses_an_index_off_the_snapshots():
    # numpy would wrap -1 to the last snapshot; the interpolating bracket
    # refuses a t off the snapshots and clamps roundoff past either end
    tgrid = np.linspace(0.0, 2.0, 5)
    basic = _ramped_trivial_stack(0.1, tgrid)
    for k in (5, -1, 7):
        with pytest.raises(ValueError, match="outside"):
            basic.frame(k)
    for k in (0, 4):
        fr = basic.frame(k)
        assert np.array_equal(fr.U, basic.U[k])
        assert np.array_equal(fr.Ut, basic._rates()[0][k])
    for t in (2.5, -0.1, np.nan):
        with pytest.raises(ValueError, match="outside the snapshots"):
            bracket(tgrid, t)
    assert bracket(tgrid, 2.0 * (1 + 1e-12)) == (3, 1.0)
    assert bracket(tgrid, -1e-12) == (0, 0.0)


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

    traj = evolve(basic, t_final=0.5, forcing=counted)
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
                  dt_override=dt, snapshot_times=tgrid)
    assert len(traj.times) == 31
    assert np.max(np.abs(traj.snapshot_times - tgrid)) <= 1e-12


def _v_traces(V):
    """The perturbation's wall traces (q, u_N, H_N) of V, per side."""
    return ({"q": V[i, IQ, 0], "uN": V[i, IUN, 0], "HN": V[i, IHN, 0]}
            for i in (0, 1))


def test_hn_monitor_reads_the_basic_wall_traces():
    # the monitor's residual is the larger H_N row of linearized_wall_rows,
    # H2 d2 phi - V_HN -+ phi d1 H_N, with the basic wall traces of the state
    grid = Grid(n1=32, n2=32, L1=2 * np.pi, L2=2 * np.pi)
    b = sheared_sheet_state(grid, EOS)
    g = ManufacturedBoundaryData(grid, amplitude=0.05, k2=2, ramp=0.05)
    t_final = 0.1
    nsteps = int(np.ceil(t_final / cfl_timestep(b)))
    traj = evolve(b, t_final=t_final, bdata=g,
                  snapshot_times=np.linspace(0.0, t_final, nsteps + 1))
    assert len(traj.snapshots) == len(traj.times) == nsteps + 1
    tr = boundary_traces(grid, b.U[0], b.phi[0])
    for k, (V, phi) in enumerate(zip(traj.snapshots, traj.phi)):
        rows = linearized_wall_rows(*_v_traces(V), phi, np.zeros_like(phi),
                                    grid.d2_boundary(phi), tr)
        want = max(float(np.max(np.abs(r))) for r in rows[2:4])
        assert traj.hn_residual[k] == want
    assert traj.hn_residual.max() > 0


def test_boundary_traces_of_a_series_are_its_frames_traces():
    # the stencils act elementwise: one call on a snapshot series gives
    # each snapshot's traces bit for bit, as boundary_B_e_prime relies on
    grid = Grid(n1=12, n2=12, L1=2 * np.pi, L2=2 * np.pi)
    rng = np.random.default_rng(0)
    U = rng.normal(size=(3, 2, 6, grid.n1, grid.n2))
    phi = rng.normal(size=(3, grid.n2))
    series = boundary_traces(grid, U, phi)
    for n in range(3):
        frame = boundary_traces(grid, U[n], phi[n])
        assert series.keys() == frame.keys()
        for key, want in frame.items():
            assert np.array_equal(series[key][n], want), key


def _full_field_traces(grid, U, phi):
    """``boundary_traces`` differentiating the full q, uN and HN fields."""
    d2phi = grid.d2_boundary(phi)[..., None, None, :]
    q = U[..., IP, :, :] + 0.5 * (U[..., IH1, :, :] ** 2
                                  + U[..., IH2, :, :] ** 2)
    d1q = grid.d1(q)
    uN = U[..., IU1, :, :] - U[..., IU2, :, :] * d2phi
    HN = U[..., IH1, :, :] - U[..., IH2, :, :] * d2phi
    out = {"d2phi": d2phi[..., 0, 0, :]}
    for name, f in (("u2", U[..., IU2, :, :]), ("H2", U[..., IH2, :, :]),
                    ("uN", uN), ("HN", HN), ("d1uN", grid.d1(uN)),
                    ("d1HN", grid.d1(HN))):
        out[name + "p"], out[name + "m"] = f[..., 0, 0, :], f[..., 1, 0, :]
    out["d1q_jump"] = d1q[..., 0, 0, :] + d1q[..., 1, 0, :]
    return out


@settings(max_examples=25, deadline=None)
@given(lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
       n1=st.integers(4, 24), n2=st.integers(1, 24),
       seed=st.integers(0, 2 ** 32 - 1))
def test_boundary_traces_equal_the_full_field_traces(lead, n1, n2, seed):
    # the wall row of d1 reads rows 0-3 alone: the traces taken from those
    # rows are the full-field traces, bit for bit
    grid = Grid(n1=n1, n2=n2, L1=2 * np.pi, L2=2 * np.pi)
    rng = np.random.default_rng(seed)
    U = rng.normal(size=lead + (2, 6, n1, n2))
    phi = rng.normal(size=lead + (n2,))
    got = boundary_traces(grid, U, phi)
    want = _full_field_traces(grid, U, phi)
    assert got.keys() == want.keys()
    for key, w in want.items():
        assert got[key].shape == w.shape, key
        assert np.array_equal(got[key], w), key


@pytest.mark.parametrize("state", ["planar", "sheared", "curved"])
def test_apply_bc_and_phi_rate_solve_the_wall_rows(state):
    # the solved form: after apply_bc, with phi_rate's front rate, the kin+,
    # kin- and [q] rows of linearized_wall_rows are the data (g1+, g1-, g2);
    # the sheets' traces are the march's, and a curved front under the
    # sheared sheet gives them nonzero d1uN and d1HN as well
    grid = Grid(n1=16, n2=16, L1=2 * np.pi, L2=2 * np.pi)
    b = (trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4,
                             H2_minus=1.2) if state == "planar"
         else sheared_sheet_state(grid, EOS))
    stp = ev.LinearizedStepper(b)
    tr = (boundary_traces(grid, b.U[0], 0.1 * np.sin(grid.x2))
          if state == "curved" else stp.cache.at(0.0)["traces"])
    if state == "curved":
        assert min(np.max(np.abs(tr[k])) for k in ("d1uNp", "d1HNm")) > 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def check(seed):
        rng = np.random.default_rng(seed)
        V = rng.normal(size=(2, 6, grid.n1, grid.n2))
        phi = 0.1 * rng.normal(size=grid.n2)
        g = rng.normal(size=(3, grid.n2))
        stp.apply_bc(V, phi, {"traces": tr}, g)
        d2phi = grid.d2_boundary(phi)
        rate = stp.phi_rate(V, phi, d2phi, tr, g)
        kin_p, kin_m, _, _, jump_q = linearized_wall_rows(
            *_v_traces(V), phi, rate, d2phi, tr)
        for row, want in zip((kin_p, kin_m, jump_q), g):
            assert np.max(np.abs(row - want)) <= 1e-13

    check()


def test_forced_run_is_finite_and_identity_small(grid):
    b = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4, H2_minus=1.2)
    F = ManufacturedForcing(grid, amplitude=1.0, k2=2)
    traj = evolve(b, t_final=0.4, forcing=F)
    r = traj.ledger.final()
    assert r.I > 0
    assert abs(r.identity_residual) / r.I < 1e-3
    assert traj.div_residual.max() < 1e-10
    assert traj.hn_residual.max() < 1e-12


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


def test_march_refuses_step_count_past_max_steps(grid):
    b = trivial_sheet_state(grid, EOS, H2_plus=1.2, H2_minus=1.0)
    # the march refuses a step count past its guard before stepping
    with pytest.raises(NumericsError, match="step count"):
        evolve(b, t_final=1.0, dt_override=1e-6)


@pytest.mark.parametrize("kwargs", [
    {"t_final": 0.0}, {"t_final": -0.1}, {"t_final": 0.05, "cfl": -0.4},
    {"t_final": 0.05, "dt_override": -0.01},
    {"t_final": 0.05, "dt_override": 0.0}, {"t_final": np.inf},
    {"t_final": 0.05, "dt_override": np.inf}],
    ids=["t_final=0", "t_final<0", "cfl<0", "dt_override<0",
         "dt_override=0", "t_final=inf", "dt_override=inf"])
def test_evolve_refuses_non_positive_time_inputs(grid, kwargs):
    b = trivial_sheet_state(grid, EOS, H2_plus=1.2, H2_minus=1.0)
    bad = next(k for k, v in kwargs.items() if not 0.0 < v < np.inf)
    with pytest.raises(ValueError, match=f"{bad} must be positive"):
        evolve(b, **kwargs)


def test_evolve_refuses_a_cfl_past_its_measured_bound():
    # the forced sheared sheet keeps its ledger at _CFL_MAX; past it the
    # march is refused (at cfl = 2.5 its I grew from 22 to 1.2e3 at 32^2)
    grid = Grid(n1=32, n2=32, L1=2 * np.pi, L2=2 * np.pi)
    b = sheared_sheet_state(grid, EOS)
    f = ManufacturedForcing(grid, amplitude=1.0, k2=2)
    I0, I1 = (evolve(b, t_final=2.0, forcing=f, cfl=cfl).ledger.rows[-1].I
              for cfl in (0.4, ev._CFL_MAX))
    assert I1 == pytest.approx(I0, rel=0.01)
    with pytest.raises(ValueError, match="cfl must be <="):
        evolve(b, t_final=2.0, forcing=f,
               cfl=np.nextafter(ev._CFL_MAX, np.inf))


def test_evolve_takes_at_least_one_step(grid):
    # a horizon far below the CFL step rounds to one step of t_final
    b = trivial_sheet_state(grid, EOS, H2_plus=1.2, H2_minus=1.0)
    traj = evolve(b, t_final=1e-13)
    assert list(traj.times) == [0.0, 1e-13]


def test_evolve_takes_the_cfl_bound_only_without_dt_override(grid,
                                                             monkeypatch):
    # the Nash-Moser step passes dt_override, having bounded dt itself
    b = trivial_sheet_state(grid, EOS, H2_plus=1.2, H2_minus=1.0)
    calls = []

    def counted(basic, cfl=0.4):
        calls.append(cfl)
        return cfl_timestep(basic, cfl)

    monkeypatch.setattr(ev, "cfl_timestep", counted)
    evolve(b, t_final=0.05, dt_override=0.01)
    assert calls == []
    evolve(b, t_final=0.05, cfl=0.3)
    assert calls == [0.3]


def test_reconstruction_consistent_on_trajectory(grid):
    b = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4,
                            H2_minus=1.2)
    F = ManufacturedForcing(grid, amplitude=1.0, k2=2)
    traj = evolve(b, t_final=0.4, forcing=F)
    tr = boundary_traces(grid, b.U[0], b.phi[0])
    phi_hist = traj.phi
    dt = traj.times[1] - traj.times[0]
    dphi_fd = diff_time(phi_hist, dt)
    # the kinematic front rate at a midpoint time from the trajectory's wall
    # traces; the H_N wall constraint behind d2 phi is checked, on the same
    # state and forcing, by test_forced_run_is_finite_and_identity_small
    n = len(traj.times) // 2
    t = traj.times[n]
    traj2 = evolve(b, t_final=t, forcing=F,
                   dt_override=dt, snapshot_times=[t])
    V = traj2.snapshots[-1]
    dtphi = ev.LinearizedStepper.phi_rate(
        V, phi_hist[n], grid.d2_boundary(phi_hist[n]), tr,
        np.zeros((3, grid.n2)))
    assert np.max(np.abs(dtphi - dphi_fd[n])) < 5e-3


def test_linearized_L_constant_state_zero(grid):
    b = trivial_sheet_state(grid, EOS, u2_jump=0.3, H2_plus=1.3,
                            H2_minus=1.1)
    nt = 5
    tg = np.linspace(0, 0.2, nt)
    ops = SheetOperators(grid, EOS, tg)
    Uhat = np.repeat(b.U, nt, axis=0)
    phihat = np.zeros((nt, grid.n2))
    # the exact stencils annihilate constants, so L(Uhat) and C vanish, and
    # L' annihilates the zero increment and any constant one
    for dU in (np.zeros_like(Uhat), np.ones_like(Uhat)):
        value, lin = linearized_L(ops, Uhat, phihat, dU, phihat)
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
    or at a random snapshot of a state whose fields and front move."""
    grid = Grid(n1=12, n2=12, L1=2 * np.pi, L2=2 * np.pi)
    rng = np.random.default_rng(seed)
    b = sheared_sheet_state(grid, EOS, rng=rng)
    if steady:
        b.phi = amp * np.sin(grid.x2)[None]
        return b.frame(0), rng
    tgrid = np.linspace(0.0, 1.0, 5)
    t = tgrid[:, None, None, None, None]
    U = b.U * (1.0 + 0.05 * np.sin(rate * t + grid.x1[:, None]))
    phi = amp * np.sin(grid.x2[None] + rate * tgrid[:, None])
    moving = BasicState(grid=grid, eos=EOS, U=U, phi=phi, tgrid=tgrid)
    return moving.frame(int(rng.integers(len(tgrid)))), rng


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), amp=st.floats(0.05, 0.3),
       rate=st.floats(0.1, 1.0))
def test_sparse_conjugation_equals_dense_contraction(seed, amp, rate):
    # J = I + four entries: the row and column updates of
    # assemble_symmetrized sum the same nonzero products in the same order
    # as the dense einsums, so every coefficient agrees bit for bit; at
    # lambda = 0 (S = I, T = 0) the symmetrized family is the
    # unsymmetrized one
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
    A, B = _dense_families(fr, lam, dJdt)
    for lam_field, family in ((lam, B), (np.zeros_like(lam), A)):
        ops = assemble_symmetrized(fr, lam_field)
        for x, want in zip((ops.B0, ops.B1, ops.B2, ops.B3), family):
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
    # the planar sheet's column is uniform along x1 as well
    co = _trivial_stepper(grid).cache.at(0.0)
    for key in _APPLIED:
        assert co[key].shape == (2, 6, 6, 1, 1), key
    # exact stencils: the zero-order coefficient of the planar sheet is 0
    assert not np.any(co["M3"])
    sheared = sheared_sheet_state(grid, EOS, rng=np.random.default_rng(4))
    co = ev._CoeffCache(sheared).at(0.0)
    for key in _APPLIED:
        assert co[key].shape == (2, 6, 6, grid.n1, grid.n2), key


def _steps_on_column_equal_steps_on_full_grid(basic, grid, seed):
    """Five steps of the march on ``basic``'s one-column bundle (per side,
    on the side pool) and on the full grid's bundle (one einsum per
    product, serial), from one random state, give the same V and phi;
    the second and fourth start from the pair of ``derivatives``, as in
    ``evolve``."""
    forcing = ManufacturedForcing(grid, amplitude=1.0, k2=2)
    bdata = ManufacturedBoundaryData(grid, amplitude=0.05, k2=2, ramp=0.05)
    column = ev.LinearizedStepper(basic, forcing=forcing, bdata=bdata)
    full = ev.LinearizedStepper(basic, forcing=forcing, bdata=bdata)
    full.cache.source = basic
    assert "cols" in column.cache.at(0.3) and "cols" not in full.cache.at(0.3)
    rng = np.random.default_rng(seed)
    V0 = 1e-3 * rng.normal(size=(2, 6, grid.n1, grid.n2))
    phi0 = 1e-3 * rng.normal(size=grid.n2)
    dt = 0.01
    ends = []
    for stepper in (column, full):
        V, phi = V0.copy(), phi0.copy()
        for n in range(5):
            if n % 2:
                stepper.derivatives(V)
            V, phi = stepper.step(V, phi, 0.3 + n * dt, dt,
                                  0.3 + (n + 1) * dt)
        ends.append((V, phi))
    (V, phi), (V_full, phi_full) = ends
    assert np.max(np.abs(V - V0)) > 0
    assert np.array_equal(V, V_full)
    assert np.array_equal(phi, phi_full)


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
    _steps_on_column_equal_steps_on_full_grid(stepper.cache.basic, grid, 8)


def test_time_dependent_bundles_are_c_contiguous(grid):
    # the solve's coefficients are read by every stage apply: snapshot
    # bundles and their interpolations are all C-ordered
    sheared = sheared_sheet_state(grid, EOS, rng=np.random.default_rng(4))
    tgrid = np.array([0.0, 0.5, 1.0])
    U = np.repeat(sheared.U, len(tgrid), axis=0)
    U[:, :, IH2] += 0.05 * tgrid[:, None, None, None] * np.cos(grid.x1)[:, None]
    basic = BasicState(grid=grid, eos=EOS, U=U,
                       phi=np.zeros((len(tgrid), grid.n2)), tgrid=tgrid)
    cache = ev._CoeffCache(basic)
    b0, b1 = cache._bundle(0), cache._bundle(1)
    mid = cache.at(0.3)
    for co in (b0, b1, mid):
        for key in ev._CoeffCache._MARCH_KEYS:
            assert co[key].shape == (2, 6, 6, grid.n1, grid.n2), key
            assert co[key].flags.c_contiguous, key
    # and t = 0.3 blends the bracket's two bundles, bit for bit
    k, w = bracket(tgrid, 0.3)
    assert k == 0 and 0.0 < w < 1.0
    assert set(mid) == {*ev._CoeffCache._MARCH_KEYS, "traces"}
    for key in ev._CoeffCache._MARCH_KEYS:
        assert np.array_equal(mid[key], (1 - w) * b0[key] + w * b1[key]), key
    assert mid["traces"].keys() == b0["traces"].keys()
    for key, x0 in b0["traces"].items():
        assert np.array_equal(mid["traces"][key],
                              (1 - w) * x0 + w * b1["traces"][key]), key


def _column_and_full(basic):
    """The cache of ``basic`` (on one x2 column where it can be) and one
    that builds the same bundles on the full grid."""
    column = ev._CoeffCache(basic)
    full = ev._CoeffCache(basic)
    full.source = basic
    return column, full


def _bits_equal_broadcast(got, want):
    return np.array_equal(np.broadcast_to(got, np.shape(want)), want)


@pytest.mark.parametrize("n", [32, 40])
def test_column_bundle_equals_full_grid_assembly(n):
    grid = Grid(n1=n, n2=n, L1=2 * np.pi, L2=2 * np.pi)
    basic = trivial_sheet_state(grid, EOS, u2_jump=0.5, H2_plus=1.4,
                                H2_minus=1.2)
    column, full = _column_and_full(basic)
    assert column.source.grid == Grid(n, 1, grid.L1, grid.L2)
    co, ref = column.at(0.0), full.at(0.0)
    assert co["J"].shape == (2, 6, 6, 1, 1)     # uniform along x1 too
    assert co["d1phi"].shape[-2:] == (n, 1)
    assert ref["J"].shape == (2, 6, 6, n, n)
    for key in ref.keys() - {"traces"}:
        assert _bits_equal_broadcast(co[key], ref[key]), key
    for key, want in ref["traces"].items():
        assert _bits_equal_broadcast(co["traces"][key], want), key
    # the ledger builds its multiplier and symmetrized family on the
    # column with the bits of the full grid's
    sponge = ev.LinearizedStepper(basic).sponge
    led = ev._LedgerAccumulator(grid, column.source, 0.01, sponge)
    led_ref = ev._LedgerAccumulator(grid, basic, 0.01, sponge)
    assert led.lambda_fallback is led_ref.lambda_fallback is None
    assert np.ptp(led.ops.S) > 0        # the multiplier varies in x1
    assert led._zo_matrix.shape == (2, 6, 6, n, 1)
    for name in ("B0", "B1", "B2", "B3", "S", "T"):
        assert _bits_equal_broadcast(getattr(led.ops, name),
                                     getattr(led_ref.ops, name)), name
    for name in ("_Jt", "_zo_matrix", "_JtS", "_JtT"):
        assert _bits_equal_broadcast(getattr(led, name),
                                     getattr(led_ref, name)), name


def test_x1_only_steady_state_is_assembled_on_one_column(grid):
    basic = trivial_sheet_state(grid, EOS, H2_plus=1.3, H2_minus=1.1)
    bump = 0.05 * np.cos(grid.x1)[:, None]
    basic.U[:, :, IH2] += bump
    basic.U[:, :, IP] += bump
    column, full = _column_and_full(basic)
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
    _steps_on_column_equal_steps_on_full_grid(basic, grid, 9)


def test_x2_varying_or_time_dependent_states_keep_the_full_grid(grid):
    sheared = sheared_sheet_state(grid, EOS, rng=np.random.default_rng(4))
    assert ev._CoeffCache(sheared).source is sheared
    ramped = _ramped_trivial_stack(0.1)
    assert ev._CoeffCache(ramped).source is ramped
