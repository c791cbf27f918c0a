"""Truncated half-plane grid, finite-difference stencils, space-time field
container.

The computational domain is [0, L1] x [-L2/2, L2/2): x1 >= 0 is the
wall-normal direction (node 0 sits on the boundary x1 = 0, the last node on
the far truncation x1 = L1), x2 is periodic.  Fields carry their spatial
axes *last*: a scalar field is (..., n1, n2), a 6-vector field (..., 6, n1,
n2), a matrix field (..., 6, 6, n1, n2).  Leading axes (time snapshots,
sides) broadcast through every operator here.

Derivatives are 4th-order central in the interior; the non-periodic x1
direction closes with 3rd-order one-sided stencils at the two edge rows.
Every stencil is written as weighted differences of neighbouring values,
8 (f[+1] - f[-1]) - (f[+2] - f[-2]) in the interior and e.g.
18 (f1 - f0) - 9 (f2 - f0) + 2 (f3 - f0) at an edge, so the derivative of
a constant vanishes exactly, not just to roundoff.

Each derivative evaluates the interior stencil once over the whole
C-ordered array, flattened, with neighbours at +-stride and +-2 stride
(``_central``).  Where a shift crosses the edge of a block of the
differentiated axis the value is wrong, but those are exactly the points
written afterwards: the two closure rows at each end of a non-periodic
axis, the wrap columns {0, 1, n - 2, n - 1} (mod n) of the periodic one.
The result is C-ordered whatever the layout of the input; ``Grid.d1`` and
``Grid.d2`` write it into ``out`` when given one, a C-ordered float array
of the input's shape, and return it.

``_central`` walks the flat array in blocks of ``_BLOCK`` elements: each
block is formed by the ufuncs of the whole-array expression, in the same
order, with one block-sized temporary reused for the +-2 stride
difference.  A block's operands (the output block, the temporary and the
four shifted input blocks, 1.5 MB) stay in a 2 MB L2 cache, and no
temporary of the array's size is made.  Every value keeps its bits.  Each
thread holds its own block temporary, taken on its first stencil and kept
(``_scratch``), so a warm stencil allocates nothing but its output and two
threads can differentiate at once.
``time_row`` is one row of the order-4 time derivative, from the five
snapshots around it, with the interior row taken by the same kernel.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

_BLOCK = 1 << 15        # elements per block of the interior stencil pass
_scratch = threading.local()    # .block: this thread's _BLOCK temporary


@dataclass(frozen=True)
class Grid:
    n1: int
    n2: int
    L1: float
    L2: float

    @property
    def h1(self) -> float:
        return self.L1 / (self.n1 - 1)

    @property
    def h2(self) -> float:
        return self.L2 / self.n2

    @property
    def x1(self) -> np.ndarray:
        return np.linspace(0.0, self.L1, self.n1)

    @property
    def x2(self) -> np.ndarray:
        return -0.5 * self.L2 + self.h2 * np.arange(self.n2)

    def mesh(self):
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    # -- quadrature -------------------------------------------------------

    @property
    def w1(self) -> np.ndarray:
        """Trapezoid weights along x1 (sums to L1 on constants)."""
        return trapezoid(self.n1, self.h1)

    def integrate(self, f: np.ndarray) -> np.ndarray:
        """Integral over the spatial domain; f is (..., n1, n2)."""
        return np.einsum("...ij,i->...", f, self.w1) * self.h2

    # -- derivatives ------------------------------------------------------

    def d1(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """d/dx1 on axis -2: 4th-order central, 3rd-order one-sided edges."""
        return _diff_nonperiodic(np.asarray(f, dtype=float), self.h1,
                                 axis=-2, out=out)

    def d2(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """d/dx2 on axis -1, periodic 4th-order central."""
        f = np.ascontiguousarray(f, dtype=float)
        n, h = f.shape[-1], self.h2
        res = _out_like(f, out)
        _central(f.reshape(-1), 1, h, res.reshape(-1)[2:res.size - 2])
        for j in {k % n for k in (0, 1, -2, -1)}:   # the wrap columns
            fm2, fm1, fp1, fp2 = (f[..., (j + k) % n] for k in (-2, -1, 1, 2))
            res[..., j] = (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)
        return res

    def d2_boundary(self, g: np.ndarray) -> np.ndarray:
        """d/dx2 for boundary fields (..., n2), same periodic stencil."""
        return self.d2(np.asarray(g, dtype=float)[..., None, :])[..., 0, :]


def trapezoid(n: int, h: float) -> np.ndarray:
    """Trapezoid weights of n nodes spaced h apart."""
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _out_like(f: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``out``, checked to be a C-ordered float array of f's shape, or a
    new one."""
    if out is None:
        return np.empty(f.shape)
    if (out.shape != f.shape or out.dtype != np.float64
            or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-ordered float array of shape "
                         f"{f.shape}")
    return out


def _central(flat: np.ndarray, s: int, h: float, o: np.ndarray) -> None:
    """The interior stencil (8 (f[+1] - f[-1]) - (f[+2] - f[-2])) / 12 h
    with neighbours ``s`` apart along the flat C-ordered ``flat``, written
    into ``o``, the interior points flat[2 s:-2 s] of the output (o[k] is
    the stencil at flat[k + 2 s]), block by block (``_BLOCK`` elements);
    the in-place steps are the ufuncs of the expression, so every value
    has its bits."""
    m = flat.size - 4 * s           # interior points
    if m <= 0:
        return
    tmp = getattr(_scratch, "block", None)
    if tmp is None:
        tmp = _scratch.block = np.empty(_BLOCK)
    for a in range(0, m, _BLOCK):
        b = min(a + _BLOCK, m)
        ob, t = o[a:b], tmp[:b - a]
        np.subtract(flat[3 * s + a:3 * s + b], flat[s + a:s + b], out=ob)
        ob *= 8.0
        np.subtract(flat[4 * s + a:4 * s + b], flat[a:b], out=t)
        ob -= t
        ob /= 12.0 * h


def _edge_row(f0, f1, f2, f3, s: int, h: float):
    """The 3rd-order one-sided closure at the edge row f0, pointing inwards
    (s = +-1) through f1, f2, f3."""
    return s * (18.0 * (f1 - f0) - 9.0 * (f2 - f0)
                + 2.0 * (f3 - f0)) / (6.0 * h)


def _next_row(f0, f1, f2, f3, s: int, h: float):
    """The closure at f1, the row next to the edge row f0."""
    return s * (6.0 * (f2 - f1) - 2.0 * (f0 - f1) - (f3 - f1)) / (6.0 * h)


def _diff_nonperiodic(f: np.ndarray, h: float, axis: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    f = np.ascontiguousarray(f)
    res = _out_like(f, out)
    st = math.prod(f.shape[axis:][1:])
    _central(f.reshape(-1), st, h, res.reshape(-1)[2 * st:res.size - 2 * st])
    f, r = np.moveaxis(f, axis, -1), np.moveaxis(res, axis, -1)
    for e, s in ((0, 1), (-1, -1)):      # edge row e, pointing inwards
        rows = [f[..., e + k * s] for k in range(4)]
        r[..., e] = _edge_row(*rows, s, h)
        r[..., e + s] = _next_row(*rows, s, h)
    return res


def time_row(f: np.ndarray, dt: float, n: int) -> np.ndarray:
    """Row n of ``diff_time(f, dt, order=4)`` on axis 0, from the five
    snapshots around it and the stencil of that row alone: the same ufuncs
    on the same values, so the same bits."""
    if len(f) < 5:
        raise ValueError("order-4 time differencing needs >= 5 snapshots")
    lo = min(max(n - 2, 0), len(f) - 5)
    w = np.ascontiguousarray(f[lo:lo + 5], dtype=float)
    r = n - lo
    if r == 2:                          # the interior row
        res = np.empty(w.shape[1:])
        _central(w.reshape(-1), res.size, dt, res.reshape(-1))
        return res
    e, s = (0, 1) if r < 2 else (4, -1)
    rows = [w[e + k * s] for k in range(4)]
    return (_edge_row if r in (0, 4) else _next_row)(*rows, s, dt)


def diff_time(f: np.ndarray, dt: float, order: int = 2) -> np.ndarray:
    """d/dt on the leading, snapshot axis.

    order 2: central with one-sided 2nd-order ends; order 4: the same
    4th/3rd-order closure as the spatial stencils (needs >= 5 snapshots).
    """
    f = np.asarray(f, dtype=float)
    if order == 4:
        if len(f) < 5:
            raise ValueError("order-4 time differencing needs >= 5 snapshots")
        return _diff_nonperiodic(f, dt, axis=0)
    # the interior written in place: the same ufuncs as
    # (f[2:] - f[:-2]) / (2 dt), with no series-sized temporary
    out = np.empty(f.shape)
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * dt
    out[0] = (4.0 * (f[1] - f[0]) - (f[2] - f[0])) / (2.0 * dt)
    out[-1] = (4.0 * (f[-1] - f[-2]) - (f[-1] - f[-3])) / (2.0 * dt)
    return out


@dataclass
class GridFunction:
    """Real field on the space-time grid: ``values`` is (nt, n1, n2), at
    least two snapshots ``dt`` apart."""

    values: np.ndarray
    grid: Grid
    dt: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridFunction values must be finite")
        if self.values.ndim != 3 or self.values.shape[0] < 2:
            raise ValueError(f"values shape {self.values.shape}: a "
                             "GridFunction is (nt, n1, n2) with nt >= 2")
        if self.values.shape[-2:] != (self.grid.n1, self.grid.n2):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n1}, {self.grid.n2})"
            )
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"GridFunction dt must be finite and > 0, "
                             f"got {self.dt}")
