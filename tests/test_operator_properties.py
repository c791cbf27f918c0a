"""Property checks of the straightened operator L and its linearizations.

Small grids (16 x 16, 7 snapshots) keep every example cheap; the random
fields are rough, which the identities below do not care about: they hold
for the discrete operators exactly, up to roundoff.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsheet.grid import Grid, diff_time, time_row
from cvsheet.linearized import BasicState, SheetOperators
from cvsheet.mhd import IH2, IP, IU2, IdealGasEos
from support import linearized_L

EOS = IdealGasEos()
GRID = Grid(n1=16, n2=16, L1=2 * np.pi, L2=2 * np.pi)
NT = 7
TGRID = np.linspace(0.0, 0.6, NT)
OPS = SheetOperators(GRID, EOS, TGRID)

seeds = st.integers(0, 2 ** 32 - 1)
PROPS = settings(max_examples=25, deadline=None)


def _background(rng):
    """Admissible snapshots U (nt, 2, 6, n1, n2) and a small front phi."""
    U = 0.05 * rng.normal(size=(NT, 2, 6, GRID.n1, GRID.n2))
    U[:, :, IP] += 1.0
    U[:, 0, IU2] += 0.2
    U[:, 1, IU2] -= 0.2
    U[:, :, IH2] += 1.0
    phi = 0.05 * rng.normal(size=(NT, GRID.n2))
    return U, phi


def _direction(rng):
    return (rng.normal(size=(NT, 2, 6, GRID.n1, GRID.n2)),
            rng.normal(size=(NT, GRID.n2)))


@PROPS
@given(seed=seeds, a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
def test_linearized_L_is_linear(seed, a, b):
    rng = np.random.default_rng(seed)
    U, phi = _background(rng)
    (V1, psi1), (V2, psi2) = _direction(rng), _direction(rng)
    L1 = linearized_L(OPS, U, phi, V1, psi1)[1]
    L2 = linearized_L(OPS, U, phi, V2, psi2)[1]
    mixed = linearized_L(OPS, U, phi, a * V1 + b * V2,
                         a * psi1 + b * psi2)[1]
    scale = np.max(np.abs(a * L1) + np.abs(b * L2)) + 1e-300
    assert np.max(np.abs(mixed - (a * L1 + b * L2))) <= 1e-12 * scale


@PROPS
@given(seed=seeds, eps=st.floats(1e-3, 1e-2))
def test_taylor_remainder_is_second_order(seed, eps):
    rng = np.random.default_rng(seed)
    U, phi = _background(rng)
    V, psi = _direction(rng)
    L0 = OPS.nonlinear_L(U, phi)
    lin = linearized_L(OPS, U, phi, V, psi)[1]

    def remainder(e):
        diff = OPS.nonlinear_L(U + e * V, phi + e * psi) - L0 - e * lin
        return np.max(np.abs(diff))

    assert remainder(eps) >= 3.0 * remainder(eps / 2)


@PROPS
@given(seed=seeds, steady=st.booleans())
def test_linearized_L_zero_increment_exactly_zero(seed, steady):
    U, phi = _background(np.random.default_rng(seed))
    if steady:
        basic = BasicState(grid=GRID, eos=EOS, U=U[0], phi=phi[0])
    else:
        basic = BasicState(grid=GRID, eos=EOS, U=U, phi=phi, tgrid=TGRID)
    frames = [basic.frame(0 if steady else n) for n in range(len(TGRID))]
    Uhat = np.stack([fr.U for fr in frames])
    phihat = np.stack([fr.phi for fr in frames])
    zero = linearized_L(OPS, Uhat, phihat, np.zeros_like(U),
                        np.zeros_like(phi))[1]
    assert np.all(zero == 0.0)


@PROPS
@given(nt=st.integers(5, 12), trailing=st.lists(st.integers(1, 4), max_size=3),
       dt=st.floats(1e-3, 1.0), seed=seeds)
def test_windowed_time_row_equals_full_series_row(nt, trailing, dt, seed):
    # the five snapshots around n give row n of the order-4 stencil bit for
    # bit, the closure rows at both ends included
    ops = SheetOperators(GRID, EOS, dt * np.arange(nt))
    X = np.random.default_rng(seed).normal(size=(nt, *trailing))
    full = diff_time(X, ops.dt, axis=0, order=4)
    for n in range(nt):
        assert np.array_equal(time_row(X, ops.dt, n), full[n]), n
