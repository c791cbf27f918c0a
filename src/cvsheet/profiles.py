"""Smooth one-dimensional profiles shared across the package.

Everything here is built from a single monotone quintic ramp with flat
endpoints.  The ramp's peak slope is 1.25 (the minimum attainable by a
quintic with zero endpoint derivatives), so a ramp stretched over a width
``w`` has max slope ``1.25 / w``.  That margin is what lets the front
cutoff ``chi`` meet its slope budget of 1/2 on a width-3 ramp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def quintic_step(t):
    """Monotone 0 -> 1 ramp on [0, 1]; quintic, zero slope at both ends.

    p(t) = 5 t^2 - 10 t^3 + 10 t^4 - 4 t^5, clamped outside [0, 1].
    Peak slope 1.25 at the interior critical point.
    """
    t = np.clip(t, 0.0, 1.0)
    return t * t * (5.0 + t * (-10.0 + t * (10.0 - 4.0 * t)))


def quintic_step_d(t):
    """Derivative of :func:`quintic_step` (zero outside [0, 1])."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    tc = np.clip(t, 0.0, 1.0)
    d = tc * (10.0 + tc * (-30.0 + tc * (40.0 - 20.0 * tc)))
    return np.where(inside, d, 0.0)


# The front cutoff chi: 1 on [-1, 1], quintic ramps over a width of 3 and
# 0 outside [-4, 4].  Its max slope 1.25 / 3 stays under the budget 1/2
# that keeps d1Phi >= 1/2 for any front with sup|phi| < 1/2.
_CHI_PLATEAU = 1.0
_CHI_WIDTH = 3.0


def chi(x):
    """The even front cutoff: 1 on the plateau, 0 outside the support."""
    r = (np.abs(np.asarray(x, dtype=float)) - _CHI_PLATEAU) / _CHI_WIDTH
    return 1.0 - quintic_step(r)


def chi_d(x):
    """Derivative of :func:`chi`."""
    x = np.asarray(x, dtype=float)
    r = (np.abs(x) - _CHI_PLATEAU) / _CHI_WIDTH
    return -np.sign(x) * quintic_step_d(r) / _CHI_WIDTH


def eta(x, eps):
    """Monotone decreasing collar profile: eta(0) = 1, eta = 0 for x >= eps."""
    return 1.0 - quintic_step(np.asarray(x, dtype=float) / eps)


@dataclass(frozen=True)
class SigmaWeight:
    """Conormal weight: sigma(x) = x on [0, 1/2], 1 for x >= 1.

    The blend on [1/2, 1] is the quintic Hermite interpolant matching value
    and first derivative at both ends; its slope 0.5 + 6 t^2 - 14 t^3
    + 7.5 t^4 (t the blend coordinate) is nonnegative, so sigma increases
    monotonically.
    """

    def value(self, x):
        x = np.asarray(x, dtype=float)
        t = np.clip(2.0 * (x - 0.5), 0.0, 1.0)
        blend = 0.5 + t * (0.5 + t * t * (2.0 + t * (-3.5 + 1.5 * t)))
        out = np.where(x <= 0.5, x, blend)
        return np.where(x >= 1.0, 1.0, out)


def lowpass_symbol(r):
    """Smoothing symbol: 1 for r <= 1, 0 for r >= 2, quintic in between."""
    return 1.0 - quintic_step(np.asarray(r, dtype=float) - 1.0)


def time_bump(t, T):
    """Even C^1 bump in time: 1 on |t| <= T/2, 0 for |t| >= T."""
    r = (np.abs(np.asarray(t, dtype=float)) - 0.5 * T) / (0.5 * T)
    return 1.0 - quintic_step(r)


def time_bump_d(t, T):
    """Derivative of :func:`time_bump`."""
    t = np.asarray(t, dtype=float)
    r = (np.abs(t) - 0.5 * T) / (0.5 * T)
    return -np.sign(t) * quintic_step_d(r) / (0.5 * T)
