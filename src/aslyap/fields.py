"""Rectangular grids, scalar fields, finite differences, level-set geometry.

Fields are immutable snapshots: sweep-style consumers read one array and
write a fresh one.  Interpolation is multilinear with precomputed stencils
so repeated queries at fixed points are exact gather + dot operations
(monotone in the field values, deterministic regardless of chunking).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "LevelSet",
    "BoxInterpolator",
    "gradient_field",
    "hessian_field",
    "extract_level_set",
]


@dataclass(frozen=True)
class Grid:
    """Axis-aligned rectangular node grid with an origin exclusion radius."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    counts: tuple[int, ...]
    rho: float | None = None  # origin exclusion; default 2 * max spacing

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        up = tuple(float(v) for v in self.upper)
        cn = tuple(int(v) for v in self.counts)
        if not (len(lo) == len(up) == len(cn)):
            raise ValueError("lower/upper/counts must have equal length")
        if any(c < 3 for c in cn):
            raise ValueError("need at least 3 nodes per axis")
        if any(not np.isfinite(a) or not np.isfinite(b) or b <= a for a, b in zip(lo, up)):
            raise ValueError("bounds must be finite with upper > lower")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "counts", cn)
        if self.rho is None:
            object.__setattr__(self, "rho", 2.0 * max(self.spacing))
        elif self.rho < 0:
            raise ValueError("rho must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((u - l) / (c - 1) for l, u, c in zip(self.lower, self.upper, self.counts))

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.counts))

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(l, u, c) for l, u, c in zip(self.lower, self.upper, self.counts)]

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, dim), C-order (last axis fastest)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def boundary_mask(self) -> np.ndarray:
        """Flat mask of nodes lying on the grid boundary."""
        mask = np.zeros(self.counts, dtype=bool)
        for ax in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[ax] = 0
            mask[tuple(sl)] = True
            sl[ax] = -1
            mask[tuple(sl)] = True
        return mask.ravel()

    def contains(self, points: np.ndarray, slack: float = 1e-12) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        lo = np.asarray(self.lower) - slack
        up = np.asarray(self.upper) + slack
        finite = np.all(np.isfinite(points), axis=-1)
        return finite & np.all((points >= lo) & (points <= up), axis=-1)

    def nearest_index(self, points: np.ndarray) -> np.ndarray:
        """Flat index of the nearest node, clipped to the box."""
        points = np.asarray(points, dtype=float)
        lo = np.asarray(self.lower)
        h = np.asarray(self.spacing)
        idx = np.rint((points - lo) / h).astype(np.int64)
        idx = np.clip(idx, 0, np.asarray(self.counts) - 1)
        return np.ravel_multi_index(tuple(idx[..., i] for i in range(self.dim)), self.counts)


@dataclass
class ScalarField:
    """Node values over a Grid plus iteration metadata."""

    grid: Grid
    values: np.ndarray
    name: str = ""
    iterations: int = 0
    residual: float = float("nan")
    converged: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape == (self.grid.n_nodes,):
            self.values = self.values.reshape(self.grid.counts)
        if self.values.shape != tuple(self.grid.counts):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.counts}"
            )

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()

    def min(self) -> float:
        return float(np.nanmin(self.values))

    def max(self) -> float:
        return float(np.nanmax(self.values))

    def interpolate(self, points: np.ndarray, fill: float = np.nan) -> np.ndarray:
        interp = BoxInterpolator(self.grid)
        return interp.apply(self.flat, interp.prepare(points), fill=fill)

    def to_csv(self) -> str:
        return _csv(_coord_header(self.grid.dim) + ",value", [*self.grid.nodes().T, self.flat])

    @classmethod
    def from_csv(cls, text: str, grid: Grid) -> "ScalarField":
        lines = text.strip().splitlines()
        vals = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
        return cls(grid=grid, values=vals)

    def to_binary(self) -> bytes:
        """Little-endian dump: dim, per-axis (lower, upper, count), row-major values."""
        out = [struct.pack("<I", self.grid.dim)]
        for l, u, c in zip(self.grid.lower, self.grid.upper, self.grid.counts):
            out.append(struct.pack("<ddI", l, u, c))
        out.append(self.flat.astype("<f8").tobytes())
        return b"".join(out)

    @classmethod
    def from_binary(cls, blob: bytes) -> "ScalarField":
        (dim,) = struct.unpack_from("<I", blob, 0)
        off = 4
        lower, upper, counts = [], [], []
        for _ in range(dim):
            l, u, c = struct.unpack_from("<ddI", blob, off)
            off += 20
            lower.append(l)
            upper.append(u)
            counts.append(c)
        grid = Grid(tuple(lower), tuple(upper), tuple(counts))
        vals = np.frombuffer(blob, dtype="<f8", offset=off, count=grid.n_nodes)
        return cls(grid=grid, values=vals.copy())


class BoxInterpolator:
    """Multilinear interpolation with reusable stencils.

    ``prepare`` resolves query points into corner indices and weights once;
    ``apply`` is then a pure gather + weighted sum over any field on the same
    grid.  Out-of-box (or non-finite) points read the fill value.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._corners = np.array(
            [[(c >> ax) & 1 for ax in range(grid.dim)] for c in range(2 ** grid.dim)],
            dtype=np.int64,
        )

    def prepare(self, points: np.ndarray):
        g = self.grid
        points = np.asarray(points, dtype=float)
        flat_pts = points.reshape(-1, g.dim)
        inside = g.contains(flat_pts)
        lo = np.asarray(g.lower)
        h = np.asarray(g.spacing)
        counts = np.asarray(g.counts)
        safe = np.where(np.isfinite(flat_pts), flat_pts, lo)
        rel = (safe - lo) / h
        cell = np.clip(np.floor(rel).astype(np.int64), 0, counts - 2)
        frac = np.clip(rel - cell, 0.0, 1.0)
        n = flat_pts.shape[0]
        ncor = self._corners.shape[0]
        idx = np.empty((n, ncor), dtype=np.int64)
        wts = np.empty((n, ncor))
        strides = np.array([int(np.prod(counts[ax + 1:])) for ax in range(g.dim)], dtype=np.int64)
        for c in range(ncor):
            corner = self._corners[c]
            node = cell + corner
            idx[:, c] = node @ strides
            w = np.ones(n)
            for ax in range(g.dim):
                w = w * (frac[:, ax] if corner[ax] else 1.0 - frac[:, ax])
            wts[:, c] = w
        return idx, wts, inside, points.shape[:-1]

    def apply(self, flat_values: np.ndarray, prepared, fill: float) -> np.ndarray:
        idx, wts, inside, shape = prepared
        vals = np.einsum("nc,nc->n", flat_values[idx], wts)
        vals[~inside] = fill  # in place: no second array of the output's size
        return vals.reshape(shape)


# Two threads began to gain at about 12 000 rows on a 2-core Xeon (2-D
# integral value: equal at 101^2, 0.60 -> 0.54 ms a sweep at 129^2), so each
# thread gets at least 8192 rows.  Only 2 cores were measured; scaling beyond
# them is unmeasured.
_MIN_ROWS_PER_THREAD = 8192


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _RowBlocks:
    """Contiguous row blocks of one solve or check, mapped over the usable CPUs.

    Uses one thread per ``_MIN_ROWS_PER_THREAD`` rows, at most one per CPU
    the process may use, and equal blocks of at most ``block_rows`` rows, as
    many per thread.  With more than one thread, ``with`` starts them and
    shuts them down on exit; otherwise nothing is started and blocks run in
    order on the calling thread.
    """

    def __init__(self, n_rows: int, block_rows: int):
        self.threads = max(1, min(_cpus(), n_rows // _MIN_ROWS_PER_THREAD))
        n_blocks = self.threads * -(-n_rows // (self.threads * block_rows))
        size = -(-n_rows // n_blocks)
        self.slices = [slice(lo, min(lo + size, n_rows)) for lo in range(0, n_rows, size)]
        self._pool = None

    def __enter__(self):
        if self.threads > 1:
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(self.threads)
        return self

    def __exit__(self, *exc):
        # waits for every block, also after a failed one: no thread outlives the call
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def map(self, fn) -> list:
        """``[fn(rows) for rows in self.slices]``, on the pool if there is one;
        the calling thread only waits."""
        if self._pool is None:
            return [fn(rows) for rows in self.slices]
        return list(self._pool.map(fn, self.slices))


def _coord_header(dim: int) -> str:
    return ",".join(f"x{i+1}" for i in range(dim))


def _csv(header: str, columns) -> str:
    """CSV text with ``header`` and one row per entry of the equal-length columns.

    Formats a column at a time: a float array becomes the ``repr`` of each
    entry, an integer or boolean array its decimal integers, and any other
    column is taken as text already.  Byte-identical to formatting each row
    with ``float(v)!r`` and ``int(v)``.
    """
    def text(col):
        if not isinstance(col, np.ndarray):
            return col
        if col.dtype.kind == "f":
            return map(repr, col.tolist())  # tolist() gives Python floats
        return map(str, col.astype(np.int64).tolist())

    return "\n".join([header, *map(",".join, zip(*map(text, columns)))]) + "\n"


def _axis_slices(ndim, axis, sl):
    full = [slice(None)] * ndim
    full[axis] = sl
    return tuple(full)


def _first_derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central differences inside, second-order one-sided at the edges."""
    out = np.empty_like(values)
    nd = values.ndim
    out[_axis_slices(nd, axis, slice(1, -1))] = (
        values[_axis_slices(nd, axis, slice(2, None))]
        - values[_axis_slices(nd, axis, slice(None, -2))]
    ) / (2 * h)
    v0 = values[_axis_slices(nd, axis, slice(0, 1))]
    v1 = values[_axis_slices(nd, axis, slice(1, 2))]
    v2 = values[_axis_slices(nd, axis, slice(2, 3))]
    out[_axis_slices(nd, axis, slice(0, 1))] = (-3 * v0 + 4 * v1 - v2) / (2 * h)
    w0 = values[_axis_slices(nd, axis, slice(-1, None))]
    w1 = values[_axis_slices(nd, axis, slice(-2, -1))]
    w2 = values[_axis_slices(nd, axis, slice(-3, -2))]
    out[_axis_slices(nd, axis, slice(-1, None))] = (3 * w0 - 4 * w1 + w2) / (2 * h)
    return out


def _second_derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    out = np.empty_like(values)
    nd = values.ndim
    out[_axis_slices(nd, axis, slice(1, -1))] = (
        values[_axis_slices(nd, axis, slice(2, None))]
        - 2 * values[_axis_slices(nd, axis, slice(1, -1))]
        + values[_axis_slices(nd, axis, slice(None, -2))]
    ) / h**2
    # edges reuse the adjacent interior stencil (flagged via boundary mask)
    out[_axis_slices(nd, axis, slice(0, 1))] = out[_axis_slices(nd, axis, slice(1, 2))]
    out[_axis_slices(nd, axis, slice(-1, None))] = out[_axis_slices(nd, axis, slice(-2, -1))]
    return out


def gradient_field(field: ScalarField) -> np.ndarray:
    """Gradient at every node, shape (*counts, dim); O(h^2) inside."""
    h = field.grid.spacing
    comps = [_first_derivative(field.values, h[ax], ax) for ax in range(field.grid.dim)]
    return np.stack(comps, axis=-1)


def hessian_field(field: ScalarField) -> np.ndarray:
    """Symmetric Hessian at every node, shape (*counts, dim, dim).

    Mixed partials use the centered cross stencil (differences of the
    first-derivative arrays), then the result is symmetrized.
    """
    g = field.grid
    h = g.spacing
    n = g.dim
    firsts = [_first_derivative(field.values, h[ax], ax) for ax in range(n)]
    hess = np.empty(field.values.shape + (n, n))
    for i in range(n):
        hess[..., i, i] = _second_derivative(field.values, h[i], i)
        for j in range(i + 1, n):
            mixed = 0.5 * (
                _first_derivative(firsts[i], h[j], j) + _first_derivative(firsts[j], h[i], i)
            )
            hess[..., i, j] = mixed
            hess[..., j, i] = mixed
    return hess


@dataclass
class LevelSet:
    """Discrete boundary of a sublevel set {field <= level}.

    ``normals`` point toward decreasing field values (into the set);
    ``curvatures`` carry the matching second-order geometry.  Nodes adjacent
    to the grid edge are flagged: the set may continue outside the box there.
    """

    field: ScalarField
    level: float
    node_indices: np.ndarray       # flat indices of boundary nodes
    coords: np.ndarray             # (n, dim)
    normals: np.ndarray            # (n, dim)
    curvatures: np.ndarray         # (n, dim, dim)
    edge_flags: np.ndarray         # (n,) bool, touching the grid boundary
    touches_boundary: bool = False

    def __len__(self):
        return len(self.node_indices)


def extract_level_set(field: ScalarField, level: float) -> LevelSet:
    """Boundary nodes of {field <= level} with inward normals and curvature.

    Raises ValueError when the level misses the field range entirely.
    """
    vals = field.values
    if not (field.min() < level < field.max()):
        raise ValueError(
            f"level {level} outside field range [{field.min()}, {field.max()}]"
        )
    sub = vals <= level
    if not sub.any():
        raise ValueError(f"sublevel set at {level} is empty")
    boundary = np.zeros_like(sub)
    nd = vals.ndim
    for ax in range(nd):
        lo = _axis_slices(nd, ax, slice(None, -1))
        hi = _axis_slices(nd, ax, slice(1, None))
        crosses_up = sub[lo] & ~sub[hi]
        crosses_dn = ~sub[lo] & sub[hi]
        boundary[lo] |= crosses_up
        boundary[hi] |= crosses_dn
    boundary &= sub

    flat = boundary.ravel()
    idx = np.nonzero(flat)[0]
    grads = gradient_field(field).reshape(-1, nd)[idx]
    hesss = hessian_field(field).reshape(-1, nd, nd)[idx]
    normals = -grads
    curvatures = -hesss

    edge = field.grid.boundary_mask()
    edge_flags = edge[idx]
    # sublevel set reaching the box edge means the boundary is not closed here
    touches = bool((sub.ravel() & edge).any())

    return LevelSet(
        field=field,
        level=level,
        node_indices=idx,
        coords=field.grid.nodes()[idx],
        normals=normals,
        curvatures=curvatures,
        edge_flags=edge_flags,
        touches_boundary=touches,
    )
