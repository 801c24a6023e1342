"""Cell-centered grids on rectangles with homogeneous Neumann boundaries.

Fields are sampled at cell centers ``x_c = (c + 1/2) h``.  The discrete
Laplacian of the stepper's implicit solve uses the standard 3-point (1D) /
5-point (2D) stencil with ghost-cell reflection, which makes every cosine
mode

    v_c = cos(k pi (c + 1/2) h / L)

an exact eigenvector with eigenvalue ``-(2/h^2)(1 - cos(k pi h / L))`` and
gives exact row-sum (mass) conservation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import DomainError

_CSV_CHUNK_ROWS = 512
_CSV_COPY_BYTES = 1 << 16
# Rows per formatting process.  On a 2-core Xeon, in a process that has
# just run a 64x64, n=32 simulation, a 34-column row took 31-60 us to
# format and a fork, _exit and waitpid round trip 1.9-6.0 ms (medians
# 2.5-2.7 ms).  A part of 1024 rows thus saves at least 5 times what its
# process costs, and 1D tables (a few hundred cells) stay in one process.
_CSV_PART_MIN_ROWS = 1024


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid on ``[0, Lx]`` or ``[0, Lx] x [0, Ly]``."""

    shape: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        if len(self.shape) not in (1, 2) or len(self.shape) != len(self.lengths):
            raise DomainError("grid must be 1D or 2D with matching lengths")
        if any(m < 4 for m in self.shape):
            raise DomainError(f"need at least 4 cells per axis, got {self.shape}")
        if any(L <= 0 for L in self.lengths):
            raise DomainError(f"domain lengths must be positive, got {self.lengths}")

    @property
    def dim(self):
        return len(self.shape)

    @property
    def h(self):
        return tuple(L / m for L, m in zip(self.lengths, self.shape))

    @property
    def cell_volume(self):
        v = 1.0
        for hh in self.h:
            v *= hh
        return v

    @property
    def ncells(self):
        n = 1
        for m in self.shape:
            n *= m
        return n

    def centers(self, axis=0):
        m = self.shape[axis]
        return (np.arange(m) + 0.5) * (self.lengths[axis] / m)

    def meshgrid(self):
        axes = [self.centers(a) for a in range(self.dim)]
        if self.dim == 1:
            return (axes[0],)
        return np.meshgrid(*axes, indexing="ij")


def make_grid_1d(m, length=1.0):
    return GridSpec(shape=(m,), lengths=(float(length),))


def make_grid_2d(mx, my, lx=1.0, ly=1.0):
    return GridSpec(shape=(mx, my), lengths=(float(lx), float(ly)))


def stencil_eigenvalue(grid, k, axis=0):
    """Eigenvalue of the discrete Laplacian for cosine mode ``k`` on one axis."""
    h = grid.h[axis]
    L = grid.lengths[axis]
    return -(2.0 / (h * h)) * (1.0 - np.cos(k * np.pi * h / L))


def integrate(grid, u):
    """Midpoint-rule integral of cell values over the domain (exactly
    ``cell_volume * sum`` with compensated summation)."""
    u = np.asarray(u, dtype=float)
    return grid.cell_volume * fsum(u.ravel().data)


def species_integrals(grid, F):
    """:func:`integrate` of every species row of the stack ``F``, as an array.

    ``fsum`` is exactly rounded, so each entry has the bits of
    ``integrate(grid, F[i])``.  ``fsum`` reads each row's buffer (its
    ``.data`` memoryview) one float at a time, so no float list is built.
    """
    F = np.asarray(F, dtype=float)
    vol = grid.cell_volume
    return np.array([vol * fsum(row.data) for row in F.reshape(F.shape[0], -1)])


def gradient_sq_integral(grid, u, mask=None):
    """Face-difference approximation of ``int |grad u|^2``.

    Gradients live on interior faces; per axis, each face carries weight
    ``L_axis / (m_axis - 1)`` times the transverse spacings, so a uniform
    slope integrates exactly for any resolution.  When ``mask`` is given,
    a face contributes only if both adjacent cells are inside the mask
    (conservative under-approximation on level sets).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != grid.shape:
        raise DomainError(f"values shape {u.shape} does not match grid {grid.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != grid.shape:
            raise DomainError("mask shape does not match grid")
    total_terms = []
    for axis, hh in enumerate(grid.h):
        m = grid.shape[axis]
        sl_lo = [slice(None)] * u.ndim
        sl_hi = [slice(None)] * u.ndim
        sl_lo[axis] = slice(0, m - 1)
        sl_hi[axis] = slice(1, m)
        diff = (u[tuple(sl_hi)] - u[tuple(sl_lo)]) / hh
        w = grid.lengths[axis] / (m - 1)
        for other, oh in enumerate(grid.h):
            if other != axis:
                w *= oh
        sq = diff * diff
        if mask is not None:
            both = mask[tuple(sl_hi)] & mask[tuple(sl_lo)]
            sq = np.where(both, sq, 0.0)
        total_terms.append(w * fsum(sq.ravel().data))
    return fsum(total_terms)


# -- CSV snapshots ---------------------------------------------------------


def _csv_lines(rows):
    """The CSV lines of the rows of ``rows``, converted ``_CSV_CHUNK_ROWS``
    rows at a time: the float objects of a whole table would outweigh the
    table itself several times."""
    for start in range(0, len(rows), _CSV_CHUNK_ROWS):
        for row in rows[start:start + _CSV_CHUNK_ROWS].tolist():
            yield ",".join(map(repr, row)) + "\n"


def _csv_parts(nrows):
    """How many processes format a table of ``nrows`` data rows: one per
    usable CPU, each with at least ``_CSV_PART_MIN_ROWS`` rows; one where
    the platform has no ``os.fork`` or ``os.sched_getaffinity``."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), nrows // _CSV_PART_MIN_ROWS))


def _fork_formatter(rows):
    """Fork a child that formats ``rows`` and writes the text to a pipe;
    returns ``(pid, read end)``.

    ``repr`` holds the interpreter lock, so only a process can format in
    parallel.  The child runs only ``tolist`` and ``repr`` on rows it
    inherits, no BLAS call, so a lock held by another thread of the parent
    (a BLAS pool) at the fork is never waited on.  It formats its whole
    part before it writes, so it never waits on a full pipe while the
    parent formats its own part, and it leaves only through ``os._exit``:
    it runs none of the parent's ``finally`` blocks and flushes none of
    its buffers.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            text = "".join(_csv_lines(rows))
            with open(w, "w") as out:
                out.write(text)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def write_species_csv(path, grid, values, metadata=None):
    """Write species fields as CSV with ``#``-prefixed metadata headers.

    Columns are the cell-center coordinates followed by one column per
    species.  Floats are written with ``repr`` round-trip precision.

    A table of at least ``2 * _CSV_PART_MIN_ROWS`` rows is formatted by up
    to one process per usable CPU: the rows are split into contiguous
    parts, this process streams the first, and a forked child formats each
    other part into a pipe that is copied into the file in order.  The
    bytes are the same for any number of parts.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    columns = [ax.ravel() for ax in grid.meshgrid()] + list(values.reshape(n, -1))
    table = np.stack(columns, axis=1)
    parts = _csv_parts(len(table))
    bounds = [len(table) * k // parts for k in range(parts + 1)]
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork_formatter(table[lo:hi]))
        with open(path, "w") as fh:
            fh.write(f"# grid_shape={','.join(str(m) for m in grid.shape)}\n")
            fh.write(f"# grid_lengths={','.join(repr(L) for L in grid.lengths)}\n")
            fh.write(f"# species={n}\n")
            for key, val in (metadata or {}).items():
                fh.write(f"# {key}={val}\n")
            coords = ["x", "y"][: grid.dim]
            fh.write(",".join(coords + [f"f_{i}" for i in range(1, n + 1)]) + "\n")
            fh.writelines(_csv_lines(table[:bounds[1]]))
            fh.flush()
            for _, r in children:
                while chunk := os.read(r, _CSV_COPY_BYTES):
                    fh.buffer.write(chunk)
    finally:
        for _, r in children:
            os.close(r)
        failed = sum(os.waitpid(pid, 0)[1] != 0 for pid, _ in children)
    if failed:
        raise OSError(f"{path}: {failed} of {parts - 1} formatting processes failed")


def read_species_csv(path):
    """Inverse of :func:`write_species_csv`; returns ``(grid, values, metadata)``."""
    metadata = {}
    shape = lengths = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                key = key.strip()
                if key == "grid_shape":
                    shape = tuple(int(s) for s in val.split(","))
                elif key == "grid_lengths":
                    lengths = tuple(float(s) for s in val.split(","))
                else:
                    metadata[key] = val
                continue
            if line[0].isalpha() or line.startswith('"'):
                continue  # column header
            rows.append([float(tok) for tok in line.split(",")])
    if shape is None or lengths is None:
        raise DomainError(f"{path}: missing grid metadata headers")
    if not rows:
        raise DomainError(f"{path}: no data rows")
    grid = GridSpec(shape=shape, lengths=lengths)
    data = np.asarray(rows)
    n = data.shape[1] - grid.dim
    values = data[:, grid.dim :].T.reshape((n,) + grid.shape).copy()
    return grid, values, metadata
