"""Discretized function calculus on the positive orthant.

Tensor-product quadrature grids over a truncated box, semigroup application
by kernel quadrature, the heat maximal function, L^p (quasi-)norms, and a
finite-difference version of the first-order operator delta used as a
cross-check oracle.

An axis is its nodes: it spans [first node, last node], and its weights
are the trapezoid weights of the nodes, which sum to the axis's length, so
the grid's weights sum to the box measure.  Grids are log-spaced by
default (dense near the boundary where the critical radius and the kernel
weights vary fastest).  Functions are sampled on the tensor grid and
treated as immutable after construction; a grid-function CSV carries its
grid in its node columns.

Each axis keeps one pair geometry (``Axis.pairs``): the node pairs i <= j
sorted by (x_i - x_j)^2, with x_i x_j, the classes of those products that
agree to within 2^-44 relative (numbered by first use in that order) and
the class of each pair.  On a log axis x_i x_j depends on i + j alone, so
the 131,328 pairs at n = 512 hold 1,023 classes (``_product_classes``),
and the dense kernel matrices here and in ``riesz`` evaluate their Bessel
functions once per class, at its representative (``heat._ladders``).  At
time t the pairs whose Gaussian factor exp(-(x_i - x_j)^2/4t) is not
exactly 0 are a prefix of the sorted order, and the classes they use a
prefix of the classes; the ladders and the sums over them run on those
prefixes, and the matrices hold exact zeros past them.  The semigroup at
many times (``maximal_function``, and ``riesz.fractional_inverse_apply``)
draws its kernels from one ladder stream per axis, which evaluates the
Bessel functions of consecutive times in one call per block
(``heat._ladders``); ``apply_semigroup`` is the stream of one time.  A
stream writes each of its matrices into one buffer it owns, by one gather
(``_weighted_matrices``), and drops it when it ends: no matrix is kept
between calls.  Every n-D operator, here and in ``riesz``, applies one
matrix per axis through ``_contract``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, GridError
from .heat import NuVector, as_nu_vector, _ladders

__all__ = [
    "Axis",
    "Grid",
    "GridFunction",
    "log_axis",
    "uniform_axis",
    "default_grid",
    "T_GRID_DEFAULT",
    "DEFAULT_BOX",
    "apply_semigroup",
    "maximal_function",
    "lp_norm",
    "apply_delta_fd",
    "gridfunction_to_csv",
    "gridfunction_from_csv",
]

DEFAULT_BOX = (1e-2, 20.0)
T_GRID_DEFAULT = tuple(2.0**m for m in range(-10, 7))


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.empty_like(nodes)
    w[0] = 0.5 * (nodes[1] - nodes[0])
    w[-1] = 0.5 * (nodes[-1] - nodes[-2])
    w[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    return w


@dataclass(eq=False)
class Axis:
    """One grid axis: at least 3 finite, positive, strictly increasing nodes.

    The axis spans [lo, hi] = [nodes[0], nodes[-1]], and its quadrature
    weights are the trapezoid weights of its nodes, which sum to hi - lo.
    Nodes and weights are read-only.
    """

    nodes: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.size < 3:
            raise GridError("axis needs at least 3 nodes")
        if not np.all(np.isfinite(self.nodes)):
            raise GridError("axis nodes must be finite")
        if np.any(self.nodes <= 0.0) or np.any(np.diff(self.nodes) <= 0.0):
            raise GridError("axis nodes must be positive and strictly increasing")
        self.weights = _trapezoid_weights(self.nodes)
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def lo(self) -> float:
        return float(self.nodes[0])

    @property
    def hi(self) -> float:
        return float(self.nodes[-1])

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def spacing_max(self) -> float:
        return float(np.max(np.diff(self.nodes)))

    @cached_property
    def pairs(self) -> tuple[np.ndarray, ...]:
        """(xy, d2, distinct, inverse, i, j) on the node pairs i <= j, sorted
        by d2 = (x_i - x_j)**2, ties in the order of ``np.triu_indices``:
        xy = x_i x_j, d2, the representatives of the product classes
        numbered by their first use in this order, the int32 class of each
        pair, so xy is within 2^-44 relative of distinct[inverse]
        (``_product_classes``), and the int32 node indices.  At time t the
        pairs whose Gaussian factor exp(-d2/4t) is not exactly 0 are a
        prefix of this order, the classes they use are a prefix of
        ``distinct``, and a grid ladder works on those prefixes only
        (``heat._ladders``).  Every ladder-built grid matrix (the semigroup
        kernels and the n-D Riesz axes) reads its pairs here; kept as long
        as the axis."""
        i, j = np.triu_indices(self.size)
        x = self.nodes
        d2 = (x[i] - x[j]) ** 2
        order = np.argsort(d2, kind="stable")
        d2 = d2[order]
        i = i[order].astype(np.int32)
        j = j[order].astype(np.int32)
        del order
        xy = x[i] * x[j]
        out = (xy, d2, *_product_classes(xy), i, j)
        for arr in out:
            arr.setflags(write=False)
        return out


# Node products this close share one Bessel evaluation.  On a log axis
# x_i x_j depends on i + j alone in exact arithmetic, and rounding spreads
# the products of one i + j by at most 2.0e-15 relative at n = 512, while
# neighbouring sums lie 1.5% apart.
_CLASS_TOL = 2.0**-44


def _product_classes(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, inverse) of the products ``xy``: their sorted values split
    into classes greedily from the smallest, each class taking the values
    within ``_CLASS_TOL`` relative of its smallest, so no class chains and
    every value is within ``_CLASS_TOL`` of its class's representative, the
    product of the class's first element in ``xy``.  Classes are numbered
    by first use in ``xy``, so any prefix of ``xy`` uses a prefix of them;
    ``inverse`` is the int32 class of each element."""
    vals, first, inverse = np.unique(xy, return_index=True, return_inverse=True)
    start = np.empty(vals.size, dtype=bool)
    start[0] = True
    start[1:] = vals[1:] - vals[:-1] > vals[:-1] * _CLASS_TOL
    heads = np.flatnonzero(start)
    stops = np.append(heads[1:], vals.size)
    # A run of close values wider than one class is split from its smallest.
    wide = vals[stops - 1] - vals[heads] > vals[heads] * _CLASS_TOL
    for a, stop in zip(heads[wide].tolist(), stops[wide].tolist()):
        while True:
            a += int(np.searchsorted(vals[a:stop] - vals[a], vals[a] * _CLASS_TOL, "right"))
            if a >= stop:
                break
            start[a] = True
    heads = np.flatnonzero(start)
    first = np.minimum.reduceat(first, heads)
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=np.int32)
    rank[order] = np.arange(order.size, dtype=np.int32)
    return xy[first[order]], rank[np.cumsum(start) - 1][inverse]


def log_axis(lo: float, hi: float, n: int) -> Axis:
    if not 0.0 < lo < hi:
        raise GridError("need 0 < lo < hi")
    nodes = np.geomspace(lo, hi, int(n))
    nodes[0], nodes[-1] = lo, hi
    return Axis(nodes)


def uniform_axis(lo: float, hi: float, n: int) -> Axis:
    if not 0.0 < lo < hi:
        raise GridError("need 0 < lo < hi")
    nodes = np.linspace(lo, hi, int(n))
    return Axis(nodes)


@dataclass(eq=False)
class Grid:
    """Tensor product of axes over a box strictly inside the open orthant."""

    axes: tuple[Axis, ...]

    def __post_init__(self):
        self.axes = tuple(self.axes)
        if not self.axes:
            raise GridError("grid needs at least one axis")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @property
    def box(self) -> tuple[tuple[float, float], ...]:
        return tuple((ax.lo, ax.hi) for ax in self.axes)

    @cached_property
    def weight_array(self) -> np.ndarray:
        w = self.axes[0].weights
        for ax in self.axes[1:]:
            w = np.multiply.outer(w, ax.weights)
        w.setflags(write=False)
        return w

    @cached_property
    def node_mesh(self) -> tuple[np.ndarray, ...]:
        mesh = np.meshgrid(*(ax.nodes for ax in self.axes), indexing="ij")
        for m in mesh:
            m.setflags(write=False)
        return tuple(mesh)

    def points(self) -> np.ndarray:
        """All nodes as an (npoints, ndim) array in C order."""
        return np.stack([m.ravel() for m in self.node_mesh], axis=-1)


def default_grid(n: int = 1, nodes_per_axis: int = 512, box=DEFAULT_BOX) -> Grid:
    lo, hi = box
    return Grid(tuple(log_axis(lo, hi, nodes_per_axis) for _ in range(n)))


@dataclass(eq=False)
class GridFunction:
    """Sampled function on a grid; values are frozen after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GridError(
                f"value shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        self.values.setflags(write=False)

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        return cls(grid, np.asarray(fn(*grid.node_mesh), dtype=float))


def _one_grid(functions) -> Grid:
    """The grid of a nonempty sequence of grid functions; ``GridError``
    unless every function is sampled on the same axis nodes."""
    grid = functions[0].grid
    for f in functions[1:]:
        if f.grid.shape != grid.shape or not all(
            np.array_equal(a.nodes, b.nodes) for a, b in zip(f.grid.axes, grid.axes)
        ):
            raise GridError("the functions must share one grid")
    return grid


# ---------------------------------------------------------------------------
# Semigroup application and the maximal function


def _weighted_matrices(axis: Axis, sides: int):
    """``write(rows)`` puts rows[0] on the first cut = rows.shape[-1] pairs
    (i, j) of ``Axis.pairs``, rows[-1] on their mirror images (j, i) and +0
    elsewhere, and scales column j by w_j.
    ``rows`` has ``sides`` rows, 1 for a symmetric matrix.

    A write is one gather, through an int32 map of each entry's place in the
    value rows (each padded by a 0), into one n x n matrix that every write
    reuses and returns.  It is bit for bit a scatter into a zeroed matrix
    (the mirror is mapped second, so the diagonal takes rows[-1]), at a third
    of its time at n = 512; into a fresh matrix, page faults cost as much.
    """
    i, j = axis.pairs[4:]
    size, n = i.size, axis.size
    where = np.full((n, n), size, dtype=np.int32)
    where[i, j] = np.arange(size, dtype=np.int32)
    where[j, i] = np.arange(size, dtype=np.int32) + (sides - 1) * (size + 1)
    vals = np.zeros((sides, size + 1))
    out = np.empty((n, n))
    live = 0

    def write(rows):
        nonlocal live
        cut = rows.shape[-1]
        vals[:, :cut] = rows
        vals[:, cut:live] = 0.0  # the last write's longer prefix
        live = cut
        # The default mode would buffer ``out``; every index is in range.
        mat = np.take(vals, where, out=out, mode="clip")
        mat *= axis.weights
        return mat

    return write


def _kernel_matrices(nu_j: float, times, axis: Axis):
    """Yields K[i, i'] = p_t^{nu_j}(x_i, x_{i'}) * w_{i'} for each t in
    ``times``, from one ladder stream (``heat._ladders``).

    p_t^{nu_j} is symmetric bit for bit, so it is evaluated on the pairs
    i <= i' whose Gaussian factor does not underflow and mirrored, with the
    Bessel function once per product class of the axis, at its
    representative, and the prefactor on each pair's own product
    (``Axis.pairs``).  The stream writes every output into one matrix
    (``_weighted_matrices``): a yielded matrix is valid until the next one
    is drawn, and a caller that keeps one copies it.
    """
    xy, d2, distinct, inverse, _, _ = axis.pairs
    ladders = _ladders(nu_j, (0,), times, xy, d2, (distinct, inverse))
    write = _weighted_matrices(axis, 1)
    for _ in times:
        yield write(next(ladders)[0])


def _semigroup_values(nu: NuVector, times, grid: Grid, values: np.ndarray):
    """Yields the semigroup at each t in ``times`` on ``values`` of shape
    grid.shape + batch, the kernels drawn from one stream per axis.

    The contraction over axis j carries the trailing batch axes, so a stack
    of functions costs one matrix product per axis and time, and each
    kernel matrix is written once for the whole stack, into its stream's
    buffer.
    """
    streams = [_kernel_matrices(nu_j, times, axis) for nu_j, axis in zip(nu.nu, grid.axes)]
    for _ in times:
        yield _contract((next(kernels) for kernels in streams), values)


def _contract(mats, values: np.ndarray) -> np.ndarray:
    """``values`` (grid.shape + batch) with matrix j of ``mats`` applied
    along axis j, in axis order; the trailing batch axes are carried."""
    for j, mat in enumerate(mats):
        values = np.moveaxis(np.tensordot(mat, values, axes=(1, j)), 0, j)
    return values


def _maximal_values(nu: NuVector, t_grid, grid: Grid, values: np.ndarray) -> np.ndarray:
    """Running max over ``t_grid`` of |``_semigroup_values``|, on a stack."""
    best = None
    for g in _semigroup_values(nu, t_grid, grid, values):
        g = np.abs(g)
        best = g if best is None else np.maximum(best, g, out=best)
    return best


def _check_semigroup(nu, grid: Grid, t_grid) -> tuple[NuVector, tuple[float, ...]]:
    nu = as_nu_vector(nu)
    if nu.n != grid.ndim:
        raise GridError("order vector dimension does not match grid")
    t_grid = tuple(float(t) for t in t_grid)
    if not t_grid:
        raise DomainError("t_grid must be nonempty")
    if not all(t > 0.0 for t in t_grid):
        raise DomainError("time must be positive")
    return nu, t_grid


def apply_semigroup(nu, t: float, f: GridFunction) -> GridFunction:
    """Quadrature discretization of the heat semigroup at time t.

    g(x_i) = sum_j w_j p_t(x_i, y_j) f(y_j), one kernel contraction per axis;
    linear in f and positivity preserving.
    """
    nu, t_grid = _check_semigroup(nu, f.grid, (t,))
    return GridFunction(f.grid, next(_semigroup_values(nu, t_grid, f.grid, f.values)))


def maximal_function(nu, f: GridFunction, t_grid=T_GRID_DEFAULT) -> GridFunction:
    """Pointwise max over the time grid of |semigroup applied to f|.

    A finite time grid undershoots the supremum over all t > 0; callers that
    need a sensitivity estimate should compare against a denser grid.
    """
    nu, t_grid = _check_semigroup(nu, f.grid, t_grid)
    return GridFunction(f.grid, _maximal_values(nu, t_grid, f.grid, f.values))


def lp_norm(f: GridFunction, p: float) -> float:
    """Quadrature L^p norm; quasi-norm for p < 1; sup norm for p = inf."""
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    if not p > 0.0:
        raise DomainError("p must be positive or inf")
    w = f.grid.weight_array
    return float(np.sum(w * np.abs(f.values) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Finite-difference delta (cross-check oracle only)


def apply_delta_fd(nu, axis_index: int, f: GridFunction) -> GridFunction:
    """Central-difference d/dx_j minus (nu_j+1/2)/x_j, on nonuniform nodes.

    Interior nodes use the 3-point nonuniform stencil; the two boundary
    nodes fall back to one-sided differences.
    """
    nu = as_nu_vector(nu)
    j = int(axis_index)
    if not 0 <= j < f.grid.ndim:
        raise GridError("axis index out of range")
    ax = f.grid.axes[j]
    if ax.size < 3:
        raise GridError("grid too coarse for differencing")
    vals = np.moveaxis(f.values, j, 0)
    x = ax.nodes.reshape((-1,) + (1,) * (vals.ndim - 1))
    d = np.empty_like(vals)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    d[1:-1] = (
        vals[2:] * hm**2 - vals[:-2] * hp**2 + vals[1:-1] * (hp**2 - hm**2)
    ) / (hm * hp * (hm + hp))
    d[0] = (vals[1] - vals[0]) / (x[1] - x[0])
    d[-1] = (vals[-1] - vals[-2]) / (x[-1] - x[-2])
    out = d - (nu.nu[j] + 0.5) / x * vals
    return GridFunction(f.grid, np.moveaxis(out, 0, j))


# ---------------------------------------------------------------------------
# Serialization


def gridfunction_to_csv(f: GridFunction, path=None) -> str:
    """CSV with header x1,...,xn,value; rows enumerate nodes in C order."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"x{i+1}" for i in range(f.grid.ndim)] + ["value"])
    pts = f.grid.points()
    for row, v in zip(pts, f.values.ravel()):
        writer.writerow([repr(float(c)) for c in row] + [repr(float(v))])
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def gridfunction_from_csv(source) -> GridFunction:
    """Rebuild a grid function written by gridfunction_to_csv.

    Axis j holds the distinct values of column j, so the file carries the
    whole grid; its rows must cover that tensor grid in C order.  Refuses
    (``GridError``) a file with no header or no rows, a row whose width is
    not the header's, a non-finite entry, and rows that miss or reorder a
    node.
    """
    if isinstance(source, str) and "\n" in source:
        fh = io.StringIO(source)
    else:
        fh = open(source, newline="")
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = [[float(c) for c in row] for row in reader if row]
    if not header:
        raise GridError("csv has no header")
    if not rows:
        raise GridError("csv has no rows")
    if any(len(row) != len(header) for row in rows):
        raise GridError(f"every csv row must have the header's {len(header)} fields")
    data = np.asarray(rows)
    if not np.all(np.isfinite(data)):
        raise GridError("csv holds a non-finite node or value")
    ndim = len(header) - 1
    # The sorted distinct values; the plain np.unique would import numpy.ma
    # (numpy 2.x checks np.ma.is_masked on that path), 9-15 ms a process.
    grid = Grid(tuple(Axis(np.unique(data[:, j], return_index=True)[0]) for j in range(ndim)))
    if data.shape[0] != int(np.prod(grid.shape)):
        raise GridError("csv does not cover the full tensor grid")
    if not np.array_equal(grid.points(), data[:, :ndim]):
        raise GridError("csv node ordering does not match the grid")
    return GridFunction(grid, data[:, -1].reshape(grid.shape))
