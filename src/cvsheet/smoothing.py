"""Frequency-cutoff smoothing family for the iteration.

S_theta acts as a tensorized multiplier in an orthogonal basis per axis:

  * t: cosine transform on [0, T] (even reflection keeps the non-periodic
    axis artifact-free), frequencies pi k / T;
  * x2: a real FFT with the periodic wavenumbers;
  * x1: eigenmodes of the discrete conormal operator (sigma d1)^T W
    (sigma d1) restricted to interior rows, so the "frequency" is measured
    against the sigma-stretched coordinate; the wall row is untouched.

The symbol is 1 below theta and 0 above 2 theta, so fields supported on
low modes are exact fixed points, applying S_theta twice differs from once
only in the transition band, and two fields with equal wall traces keep
equal wall traces (the x1 part preserves row 0, the (t, x2) parts act on
the trace alone there).  So a wall trace is smoothed as a one-row field:
S_theta(u)[..., :1, :] is S_theta(u[..., :1, :]) bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFunction
from .norms import evaluate_field_params, hm_star_norm, sample_field_params
from .profiles import SigmaWeight, lowpass_symbol

_DTHETA = 1e-3    # theta step of the centered difference d/dtheta S_theta
_ORDERS = (1, 2, 3)   # the norm orders k and j the smoothing harness pairs


@dataclass
class Smoother:
    """Family S_theta on causal space-time fields (nt, ..., n1, n2).

    Time sits on axis 0, as in ``diff_time``.  A field with one x1 row is
    a wall trace: the x1 part keeps that row, so only the (t, x2) parts act
    on it.  The horizon ``T`` must be finite and > 0.  scipy loads here,
    with the first smoother built, so a process that builds none (``cvsheet
    evolve``) never imports it.
    """

    grid: Grid
    nt: int
    T: float

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"smoothing horizon T must be finite and > 0, "
                             f"got {self.T!r}")
        from scipy import fft
        self._fft = fft
        g = self.grid
        self.freq_t = np.pi * np.arange(self.nt) / self.T
        self.freq_x2 = 2 * np.pi * np.arange(g.n2 // 2 + 1) / g.L2
        Ds = SigmaWeight().value(g.x1)[:, None] * g.d1(np.eye(g.n1))
        W = np.diag(g.w1)
        K = Ds.T @ W @ Ds
        # interior block: modes vanish on the wall row by construction
        Ki = K[1:, 1:]
        Wi = W[1:, 1:]
        from scipy.linalg import eigh
        lam, V = eigh(Ki, Wi)
        lam = np.clip(lam, 0.0, None)
        self.conormal_freq = np.sqrt(lam)
        self.conormal_modes = V            # W-orthonormal columns
        self.conormal_weights = np.diag(Wi)
        self._to_modes = (V * self.conormal_weights[:, None]).T   # V^T W

    def __call__(self, u: np.ndarray, theta: float) -> np.ndarray:
        """Apply S_theta; u is (nt, ..., n1, n2), or (nt, ..., 1, n2) for a
        wall trace.

        The x1 part is the conormal transform of the interior rows: two
        BLAS matrix products per (n1 - 1, n2) slice, coefficients
        V^T W u, the symbol, then V back.
        """
        fft = self._fft
        coef = fft.dct(np.asarray(u, dtype=float), type=2, axis=0,
                       norm="ortho")
        coef *= lowpass_symbol(self.freq_t / theta).reshape(
            (-1,) + (1,) * (coef.ndim - 1))
        out = fft.idct(coef, type=2, axis=0, norm="ortho")
        coef = fft.rfft(out, axis=-1)
        coef *= lowpass_symbol(self.freq_x2 / theta)
        out = fft.irfft(coef, n=self.grid.n2, axis=-1)
        if out.shape[-2] == 1:
            return out
        coef = self._to_modes @ out[..., 1:, :]
        coef *= lowpass_symbol(self.conormal_freq / theta)[:, None]
        return np.concatenate(
            [out[..., :1, :], self.conormal_modes @ coef], axis=-2)

    def d_theta(self, u: np.ndarray, theta: float) -> np.ndarray:
        """Centered difference of theta -> S_theta u, with step _DTHETA."""
        return ((self(u, theta + _DTHETA) - self(u, theta - _DTHETA))
                / (2 * _DTHETA))

    def band_limited_sample(self, theta: float, rng) -> np.ndarray:
        """A random field that is an exact fixed point of S_theta.

        Built from basis modes with per-axis frequency <= theta, plus a
        wall-row extension (constant x1-profile is not band-limited; the
        wall row itself is preserved exactly instead).
        """
        g = self.grid
        nt = self.nt
        out = np.zeros((nt, g.n1, g.n2))
        kt = [k for k in range(nt) if self.freq_t[k] <= theta]
        k2 = [k for k in range(g.n2 // 2 + 1) if self.freq_x2[k] <= theta]
        k1 = [k for k in range(len(self.conormal_freq))
              if self.conormal_freq[k] <= theta]
        tgrid = np.arange(nt)
        for _ in range(6):
            it = kt[rng.integers(0, len(kt))]
            i2 = k2[rng.integers(0, len(k2))]
            amp = rng.normal()
            tmode = np.cos(np.pi * (tgrid + 0.5) * it / nt)
            x2mode = np.cos(2 * np.pi * i2 * np.arange(g.n2) / g.n2
                            + (0.0 if i2 in (0, g.n2 // 2) else rng.uniform(0, 2*np.pi)))
            x1mode = np.zeros(g.n1)
            x1mode[1:] = self.conormal_modes[:, k1[rng.integers(0, len(k1))]]
            out += amp * tmode[:, None, None] * x1mode[None, :, None] \
                * x2mode[None, None, :]
        return out


@dataclass
class SmoothingHarnessReport:
    """Fitted constants of the three smoothing estimates per (k, j, theta)."""

    as1: dict
    as2: dict
    as3: dict

    def max_constant(self) -> float:
        vals = (list(self.as1.values()) + list(self.as2.values())
                + list(self.as3.values()))
        return float(max(vals))


def smoothing_harness(smoother: Smoother, samples: int = 4,
                      thetas=(2.0, 4.0, 8.0, 16.0),
                      rng=None) -> SmoothingHarnessReport:
    """Measure the gain/approximation/derivative ratios over a theta sweep.

    as1: |S u|_k <= C theta^{(k-j)+} |u|_j  (all k, j);
    as2: |S u - u|_k <= C theta^{k-j} |u|_j  (k <= j);
    as3: |d/dtheta S u|_k <= C theta^{k-j-1} |u|_j.
    Reported values are max ratios over the samples.  Each field (every
    sample u, and S u, dS u/dtheta and S u - u per (theta, u)) is measured
    once in H^3_*; the lower orders of ``_ORDERS`` are read out of that
    report.
    """
    rng = rng or np.random.default_rng(0)
    g = smoother.grid
    dt = smoother.T / (smoother.nt - 1)
    as1, as2, as3 = {}, {}, {}

    def norms(u):
        rep = hm_star_norm(GridFunction(u, g, dt=dt), max(_ORDERS))
        return {k: rep.truncate(k).total for k in _ORDERS}

    fields = [evaluate_field_params(sample_field_params(rng), g,
                                    smoother.nt, smoother.T).values
              for _ in range(samples)]
    field_norms = [norms(u) for u in fields]
    for theta in thetas:
        for u, nu in zip(fields, field_norms):
            su = smoother(u, theta)
            nsu = norms(su)
            ndu = norms(smoother.d_theta(u, theta))
            ndiff = norms(su - u)
            for k in _ORDERS:
                for j in _ORDERS:
                    key = (k, j, theta)
                    r1 = nsu[k] / (theta ** max(k - j, 0) * nu[j])
                    as1[key] = max(as1.get(key, 0.0), r1)
                    r3 = ndu[k] / (theta ** (k - j - 1) * nu[j])
                    as3[key] = max(as3.get(key, 0.0), r3)
                    if k <= j:
                        r2 = ndiff[k] / (theta ** (k - j) * nu[j])
                        as2[key] = max(as2.get(key, 0.0), r2)
    return SmoothingHarnessReport(as1=as1, as2=as2, as3=as3)
