"""Truncated half-plane grid, finite-difference stencils, and field I/O.

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
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass

import numpy as np

_MAGIC = b"CVSG"


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

    def l2_norm(self, f: np.ndarray) -> np.ndarray:
        return np.sqrt(self.integrate(np.asarray(f) ** 2))

    # -- derivatives ------------------------------------------------------

    def d1(self, f: np.ndarray) -> np.ndarray:
        """d/dx1 on axis -2: 4th-order central, 3rd-order one-sided edges."""
        return _diff_nonperiodic(np.asarray(f, dtype=float), self.h1, axis=-2)

    def d2(self, f: np.ndarray) -> np.ndarray:
        """d/dx2 on axis -1, periodic 4th-order central."""
        f = np.asarray(f, dtype=float)
        h = self.h2
        fw = np.take(f, np.arange(-2, f.shape[-1] + 2), axis=-1, mode="wrap")
        fm2, fm1, fp1, fp2 = (fw[..., 0:-4], fw[..., 1:-3], fw[..., 3:-1],
                              fw[..., 4:])
        return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)

    def d2_boundary(self, g: np.ndarray) -> np.ndarray:
        """d/dx2 for boundary fields (..., n2), same periodic stencil."""
        return self.d2(np.asarray(g, dtype=float)[..., None, :])[..., 0, :]


def trapezoid(n: int, h: float) -> np.ndarray:
    """Trapezoid weights of n nodes spaced h apart."""
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _diff_nonperiodic(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    # written through a moved view of a C-ordered result, so the result is
    # C-ordered whatever the layout of f
    res = np.empty(f.shape)
    f, out = np.moveaxis(f, axis, -1), np.moveaxis(res, axis, -1)
    out[..., 2:-2] = (8.0 * (f[..., 3:-1] - f[..., 1:-3])
                      - (f[..., 4:] - f[..., :-4])) / (12.0 * h)
    for e, s in ((0, 1), (-1, -1)):      # edge row e, pointing inwards
        f0, f1, f2, f3 = (f[..., e + k * s] for k in range(4))
        out[..., e] = s * (18.0 * (f1 - f0) - 9.0 * (f2 - f0)
                           + 2.0 * (f3 - f0)) / (6.0 * h)
        out[..., e + s] = s * (6.0 * (f2 - f1) - 2.0 * (f0 - f1)
                               - (f3 - f1)) / (6.0 * h)
    return res


def diff_time(f: np.ndarray, dt: float, axis: int = 0,
              order: int = 2) -> np.ndarray:
    """d/dt on a snapshot axis.

    order 2: central with one-sided 2nd-order ends; order 4: the same
    4th/3rd-order closure as the spatial stencils (needs >= 5 snapshots).
    """
    f = np.asarray(f, dtype=float)
    if order == 4:
        if f.shape[axis] < 5:
            raise ValueError("order-4 time differencing needs >= 5 snapshots")
        return _diff_nonperiodic(f, dt, axis=axis)
    res = np.empty(f.shape)
    f, out = np.moveaxis(f, axis, -1), np.moveaxis(res, axis, -1)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * dt)
    out[..., 0] = (4.0 * (f[..., 1] - f[..., 0])
                   - (f[..., 2] - f[..., 0])) / (2.0 * dt)
    out[..., -1] = (4.0 * (f[..., -1] - f[..., -2])
                    - (f[..., -1] - f[..., -3])) / (2.0 * dt)
    return res


@dataclass
class GridFunction:
    """Real field on the (optionally space-time) grid.

    ``values`` is (n1, n2) for a spatial field or (nt, n1, n2) with uniform
    time spacing ``dt``.
    """

    values: np.ndarray
    grid: Grid
    dt: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridFunction values must be finite")
        if self.values.ndim not in (2, 3):
            raise ValueError(f"values shape {self.values.shape}: a "
                             "GridFunction is (n1, n2) or (nt, n1, n2)")
        if self.values.shape[-2:] != (self.grid.n1, self.grid.n2):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n1}, {self.grid.n2})"
            )
        if self.values.ndim == 3 and self.dt is None:
            raise ValueError("space-time field requires dt")

    @property
    def is_spacetime(self) -> bool:
        return self.values.ndim == 3

    # -- serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Binary layout: magic, ndim, dims (i64), spacings (f64), row-major f64."""
        buf = io.BytesIO()
        dims = self.values.shape
        spacings = ([self.dt] if self.dt is not None else []) + [
            self.grid.h1,
            self.grid.h2,
            self.grid.L1,
            self.grid.L2,
        ]
        buf.write(_MAGIC)
        buf.write(struct.pack("<q", len(dims)))
        buf.write(struct.pack(f"<{len(dims)}q", *dims))
        buf.write(struct.pack("<q", len(spacings)))
        buf.write(struct.pack(f"<{len(spacings)}d", *spacings))
        buf.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())
        return buf.getvalue()

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "GridFunction":
        buf = io.BytesIO(raw)
        if buf.read(4) != _MAGIC:
            raise ValueError("not a cvsheet grid file")
        (nd,) = struct.unpack("<q", buf.read(8))
        dims = struct.unpack(f"<{nd}q", buf.read(8 * nd))
        (ns,) = struct.unpack("<q", buf.read(8))
        spac = struct.unpack(f"<{ns}d", buf.read(8 * ns))
        data = np.frombuffer(buf.read(), dtype="<f8").reshape(dims)
        if nd == 3:
            dt, h1, h2, L1, L2 = spac
        else:
            (h1, h2, L1, L2), dt = spac, None
        grid = Grid(n1=dims[-2], n2=dims[-1], L1=L1, L2=L2)
        return cls(values=data.copy(), grid=grid, dt=dt)

    @classmethod
    def load(cls, path) -> "GridFunction":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    def to_csv(self, path) -> None:
        """Plain CSV for small spatial grids: x1, x2, value."""
        if self.is_spacetime:
            raise ValueError("CSV export is for spatial fields only")
        x1, x2 = self.grid.mesh()
        with open(path, "w", newline="\n") as fh:
            fh.write("x1,x2,value\n")
            for a, b, v in zip(x1.ravel(), x2.ravel(), self.values.ravel()):
                fh.write(f"{a!r},{b!r},{v!r}\n")
