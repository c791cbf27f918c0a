import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvsheet.grid import Grid, GridFunction
from cvsheet.norms import (evaluate_field_params, hm_star_norm,
                           sample_field_params)
from cvsheet.profiles import lowpass_symbol
from cvsheet.smoothing import Smoother, smoothing_harness


@pytest.fixture
def smoother():
    grid = Grid(n1=40, n2=40, L1=2 * np.pi, L2=2 * np.pi)
    return Smoother(grid, nt=17, T=1.0)


def test_band_limited_fixed_point(smoother):
    rng = np.random.default_rng(0)
    for theta in (2.0, 4.0):
        u = smoother.band_limited_sample(theta, rng)
        assert np.max(np.abs(smoother(u, theta) - u)) < 1e-12


def test_idempotent_on_smoothed_band(smoother):
    rng = np.random.default_rng(1)
    u = rng.normal(size=(17, 40, 40))
    su = smoother(u, 3.0)
    # applying twice only touches the transition band; on the pure band
    # (a band-limited field) it is exactly idempotent
    ub = smoother.band_limited_sample(3.0, rng)
    assert np.max(np.abs(smoother(smoother(ub, 3.0), 3.0)
                         - smoother(ub, 3.0))) < 1e-12
    # and the double application never exceeds the single one energetically
    assert np.sum(smoother(su, 3.0) ** 2) <= np.sum(su ** 2) + 1e-12


def test_wall_trace_equality_exact(smoother):
    rng = np.random.default_rng(2)
    u = rng.normal(size=(17, 40, 40))
    v = rng.normal(size=(17, 40, 40))
    v[:, 0, :] = u[:, 0, :]
    for theta in (2.0, 8.0):
        su = smoother(u, theta)
        sv = smoother(v, theta)
        assert np.array_equal(su[:, 0, :], sv[:, 0, :])


def test_high_theta_is_identity_like(smoother):
    rng = np.random.default_rng(3)
    u = rng.normal(size=(17, 40, 40))
    # far beyond every discrete frequency the symbol is identically 1
    theta = 1e6
    assert np.max(np.abs(smoother(u, theta) - u)) < 1e-10


def test_smoothing_contracts_l2(smoother):
    rng = np.random.default_rng(4)
    u = rng.normal(size=(17, 40, 40))
    for theta in (2.0, 4.0, 8.0):
        assert np.sum(smoother(u, theta) ** 2) <= np.sum(u ** 2) + 1e-12


@pytest.mark.parametrize("lead", [(), (3,), (2, 6)])
def test_wall_trace_of_smoothed_field_is_smoothed_trace(smoother, lead):
    # a wall trace is smoothed as a one-row field: the x1 part keeps row 0
    # and the (t, x2) parts act on each row alone
    grid = smoother.grid
    u = np.random.default_rng(6).normal(size=(17,) + lead
                                        + (grid.n1, grid.n2))
    for theta in (2.0, 4.0, 8.0):
        assert np.array_equal(smoother(u, theta)[..., :1, :],
                              smoother(u[..., :1, :], theta))


def test_harness_constants_bounded_across_sweep_and_refinement():
    maxima = []
    for n, nt in ((32, 13), (64, 25)):
        grid = Grid(n1=n, n2=n, L1=2 * np.pi, L2=2 * np.pi)
        sm = Smoother(grid, nt=nt, T=1.0)
        rep = smoothing_harness(sm, samples=3, rng=np.random.default_rng(7))
        maxima.append(rep.max_constant())
    # frozen envelope: observed constants sit near 3; 12 leaves headroom
    # without admitting unbounded growth
    assert max(maxima) <= 12.0
    assert max(maxima) / min(maxima) <= 3.0


def test_symbol_kills_high_band(smoother):
    grid = smoother.grid
    # a pure x2 mode far above 2 theta is annihilated
    x2 = grid.x2
    mode = np.cos(16 * x2)[None, None, :] * np.ones((17, grid.n1, 1))
    su = smoother(mode, 2.0)
    assert np.max(np.abs(su)) < 1e-12


def test_harness_as1_equals_fresh_norms():
    # every as1 ratio from norms computed afresh for its own field
    grid = Grid(n1=32, n2=32, L1=2 * np.pi, L2=2 * np.pi)
    nt, thetas, orders = 13, (2.0, 4.0, 8.0, 16.0), (1, 2, 3)
    sm = Smoother(grid, nt=nt, T=1.0)
    rep = smoothing_harness(sm, samples=3, thetas=thetas,
                            rng=np.random.default_rng(7))
    rng = np.random.default_rng(7)
    fields = [evaluate_field_params(sample_field_params(rng), grid, nt, 1.0)
              for _ in range(3)]

    def norm(vals, k):
        return hm_star_norm(GridFunction(vals, grid, dt=fields[0].dt),
                            k).total

    expected = {}
    for theta in thetas:
        for u in fields:
            su = sm(u.values, theta)
            for k in orders:
                for j in orders:
                    r = norm(su, k) / (theta ** max(k - j, 0)
                                       * norm(u.values, j))
                    key = (k, j, theta)
                    expected[key] = max(expected.get(key, 0.0), r)
    assert rep.as1 == expected


@pytest.mark.parametrize("shape", [(17,), (17, 2, 6)])
def test_conormal_transform_matches_einsum_oracle(shape):
    # the x1 part through two BLAS products equals the einsum form, applied
    # to the rows each smoothed as a one-row field, to roundoff; it keeps
    # the wall row bit for bit and repeats bit for bit
    grid = Grid(n1=40, n2=24, L1=2 * np.pi, L2=2 * np.pi)
    sm = Smoother(grid, nt=17, T=1.0)
    u = np.random.default_rng(5).normal(size=shape + (40, 24))
    V, w = sm.conormal_modes, sm.conormal_weights
    for theta in (2.0, 8.0):
        rows = np.concatenate([sm(u[..., r:r + 1, :], theta)
                               for r in range(grid.n1)], axis=-2)
        coef = np.einsum("km,k,...kj->...mj", V, w, rows[..., 1:, :])
        coef *= lowpass_symbol(sm.conormal_freq / theta)[:, None]
        want = np.concatenate(
            [rows[..., :1, :], np.einsum("km,...mj->...kj", V, coef)],
            axis=-2)
        got = sm(u, theta)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(got[..., 0, :], rows[..., 0, :])
        assert np.array_equal(got, sm(u, theta))


@pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
def test_smoother_refuses_a_horizon_that_is_not_finite_and_positive(T):
    # T = 0 and T = -1 kept only the mean time mode, T = NaN smoothed to a
    # NaN field and T = inf built: each is refused now
    with pytest.raises(ValueError, match="horizon"):
        Smoother(Grid(n1=16, n2=16, L1=2 * np.pi, L2=2 * np.pi), nt=5, T=T)


def test_scipy_loads_with_the_first_smoother_alone():
    # the CLI and the Nash-Moser module import no scipy module; building a
    # Smoother loads scipy.fft
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        "import cvsheet.cli, cvsheet.nashmoser\n"
        "def scipy_mods():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert scipy_mods() == [], scipy_mods()\n"
        "from cvsheet.grid import Grid\n"
        "from cvsheet.smoothing import Smoother\n"
        "Smoother(Grid(n1=8, n2=8, L1=1.0, L2=1.0), nt=5, T=1.0)\n"
        "assert 'scipy.fft' in sys.modules, scipy_mods()\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
