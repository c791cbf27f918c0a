"""Manufactured forcings and run scenarios shared by tests and the CLI.

Forcing fields vanish in the past (smooth ramp from t = 0), keep their
magnetic rows discretely divergence-free by deriving them from a stream
function (the x1/x2 stencils act on different axes, so the discrete curl
has exactly zero divergence), and stay clear of the far truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .mhd import IH1, IH2, IP, IS, IU1, IU2
from .profiles import quintic_step

_OMEGA = 1.3    # angular frequency of the forcing's time profile


def _check_ramp(ramp: float) -> None:
    """``ValueError`` unless the rise time is finite and positive: a ramp
    of 0 divides by zero, and one below 0 or infinite never switches on."""
    if not 0.0 < ramp < np.inf:
        raise ValueError(f"ramp must be finite and > 0, got {ramp!r}")


@dataclass
class ManufacturedForcing:
    """Causal interior forcing with divergence-free magnetic rows.

    ``k2`` selects the x2 wavenumber (index of the periodic mode), ``ramp``
    the rise time (finite and > 0, else ``ValueError``).  The wall-normal
    envelope is a Gaussian centred at L1/4 of width 0.15 L1.  Calling with
    t returns (2, 6, n1, n2) in the good-unknown components: ``profile(t)``
    times the fixed field ``F0``.
    """

    grid: Grid
    amplitude: float = 1.0
    k2: int = 1
    ramp: float = 0.2

    def __post_init__(self):
        _check_ramp(self.ramp)
        g = self.grid
        x1, x2 = g.mesh()
        c, w = 0.25 * g.L1, 0.15 * g.L1
        # wall mask zeroes the stream function identically on x1 = 0 so the
        # magnetic wall source f_n|_0 vanishes exactly
        env = (np.exp(-((x1 - c) / w) ** 2)
               * quintic_step(x1 / (0.15 * g.L1)))
        k = 2 * np.pi * self.k2 / g.L2
        stream = env * np.sin(k * x2) / max(k, 1.0)
        # per side: div (f_n, f5 d1Phi) = 0 requires d1 f4 = -sgn d2 f5
        f4, f5 = g.d2(stream), -g.d1(stream)
        fp = env * np.cos(k * x2)
        fu = (env * np.sin(k * x2), env * np.cos(k * x2 + 0.7))
        fS = 0.5 * env * np.sin(k * x2 + 1.1)
        self.F0 = np.empty((2, 6, g.n1, g.n2))
        for i, sgn in enumerate((1.0, -1.0)):
            self.F0[i, IP] = fp
            self.F0[i, IU1] = fu[0]
            self.F0[i, IU2] = sgn * fu[1]
            self.F0[i, IH1] = f4
            self.F0[i, IH2] = sgn * f5
            self.F0[i, IS] = sgn * fS

    def profile(self, t: float) -> float:
        """a(t), zero for t <= 0: the forcing at t is a(t) ``F0``."""
        if t <= 0.0:
            return 0.0
        r = float(quintic_step(t / self.ramp)) * np.cos(_OMEGA * t)
        return float(self.amplitude * r)

    def __call__(self, t: float) -> np.ndarray:
        if t <= 0.0:
            g = self.grid
            return np.zeros((2, 6, g.n1, g.n2))
        return self.profile(t) * self.F0


@dataclass
class ManufacturedBoundaryData:
    """Causal boundary data (g1+, g1-, g2): the right-hand sides of the
    kin+, kin- and [q] rows of ``stability.linearized_wall_rows``, rising
    over ``ramp`` (finite and > 0, else ``ValueError``)."""

    grid: Grid
    amplitude: float = 1.0
    k2: int = 1
    ramp: float = 0.2

    def __post_init__(self):
        _check_ramp(self.ramp)

    def __call__(self, t: float) -> np.ndarray:
        g = self.grid
        if t <= 0.0:
            return np.zeros((3, g.n2))
        r = float(quintic_step(t / self.ramp))
        k = 2 * np.pi * self.k2 / g.L2
        x2 = g.x2
        return self.amplitude * r * np.stack([
            np.sin(k * x2), 0.5 * np.cos(k * x2), 0.3 * np.sin(k * x2 + 0.4)])
