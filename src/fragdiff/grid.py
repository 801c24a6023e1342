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
import tempfile
from dataclasses import dataclass
from itertools import chain, islice
from math import copysign, fsum

import numpy as np

from .errors import DomainError

_SUM_BLOCK = 8192
"""Cells per block of :func:`_fsum_rows` and of the streamed integrands;
the split's two scratch arrays then take 128 kB."""
_FSUM_KEEPS_NEGATIVE_ZERO = copysign(1.0, fsum((-0.0,))) < 0.0
"""Whether this Python's ``fsum`` of ``-0.0`` alone is ``-0.0`` (on CPython
3.6 to 3.13 it is ``+0.0``, as for every other row of zeros)."""
_SUM_SIGMA_MAX = 2.0 ** 1000  # _exact_sums splits a row only where 2 N mu is at most this
_CSV_CHUNK_ROWS = 64
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


def _exact_sums(blocks, nrows, N, mu):
    """The exactly rounded sums, with ``math.fsum``'s bits, of ``nrows``
    rows of at most ``N`` floats each, fed block by block.

    Each call of ``blocks()`` yields every row's values again, in order, as
    pairs ``(i, x)``: row ``j`` of the 2D block ``x`` continues row
    ``i + j``.  ``mu[i]``, known before the first block, bounds ``|x|`` on
    row ``i``.

    Each row is split error-free at ``sigma``, the power of two above
    ``2 N mu`` (Rump, Ogita & Oishi 2008, "Accurate floating-point
    summation, Part I", SIAM J. Sci. Comput. 31(1), Lemma 3.2):
    ``q = fl(fl(sigma + x) - sigma)`` is a multiple of ``u sigma``
    (``u = 2**-53``) and ``r = x - q`` is exact with ``|r| <= u sigma``.
    Every partial sum of the ``q``s is a multiple of ``u sigma`` below
    ``sigma``, so their sum ``tau`` is exact in any order.  In any order
    the ``r``s sum to ``low`` within ``(N - 1) u / (1 - (N - 1) u)`` times
    ``N u sigma``, less than ``2 N**2 u**2 sigma``.  ``c = fl(tau + low)``
    and its exact error ``err`` (TwoSum) put the exact sum within that
    bound of ``c + err``; when the interval lies inside ``c``'s rounding
    interval, ``c`` is the exactly rounded sum.  Else (a sum near a
    midpoint between two floats, or zero) let ``g`` be the spacing of
    floats at the row's least nonzero ``|x|``: every ``x`` is a multiple of
    ``g``, so every ``r`` is one of ``h = min(g, u sigma)``.  If ``N u sigma
    <= 2**53 g``, every sum of some ``r``s is a multiple of ``h`` of at most
    ``2**53 h`` (as ``N <= 2**53``), which a float holds: ``low`` is exact,
    and ``c`` is the exact sum rounded to nearest, ties to even, as ``fsum``
    rounds.  A row of zeros (``mu = 0``) sums to ``+0.0``, or to ``-0.0``
    where every value is ``-0.0`` and this Python's ``fsum`` keeps that sign.

    A row whose ``sigma`` would be below ``2**-900`` is scaled up by
    ``1 / sigma`` and split at ``1`` (a block with no such row is not
    scaled).  Both scales are exact: rounding commutes with them where the
    sum is normal, and a subnormal sum is a float.  A row that both tests
    leave open, or whose ``mu`` is not finite or above ``_SUM_SIGMA_MAX /
    (2 N)``, is summed with ``fsum`` over a new pass of its blocks
    (:func:`_row`).  The split takes two scratch arrays of a block's size.
    """
    mu = np.asarray(mu, dtype=float)
    # a row that is not split (inf, nan, too large) may overflow or form
    # inf - inf below; its sums are discarded
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.frexp(mu * (2.0 * N))[1]  # 0 where mu is 0, inf or nan
        shift = np.where(e < -900, -e, 0)  # u sigma and the bound of low stay normal
        sigma, scaled = np.ldexp(1.0, e + shift), shift.any()
        tau, low = np.zeros((2, nrows))
        least = np.full(nrows, 2 ** 64 - 1, np.uint64)  # bits of the least |x| > 0, less 1
        negative = (mu == 0.0) & _FSUM_KEEPS_NEGATIVE_ZERO  # zero rows, until a +0.0
        scratch = np.empty(0)
        for i, x in blocks():
            rows = slice(i, i + len(x))
            if _FSUM_KEEPS_NEGATIVE_ZERO:
                for j in np.flatnonzero(negative[rows]):  # -0.0 has the top bit alone
                    negative[i + j] = x[j].view(np.uint64).min() == 1 << 63
            if scratch.size < 2 * x.size:
                scratch = np.empty(2 * x.size)
            q, r = scratch[:2 * x.size].reshape((2,) + x.shape)
            if scaled and shift[rows].any():
                x = np.ldexp(x, shift[rows, None], out=r)
            bits = np.abs(x, out=q).view(np.uint64)
            bits -= 1  # a zero wraps round to the largest value
            np.minimum(least[rows], bits.min(axis=1), out=least[rows])
            sig = sigma[rows, None]
            np.add(x, sig, out=q)
            q -= sig
            np.subtract(x, q, out=r)
            tau[rows] += q.sum(axis=1)
            low[rows] += r.sum(axis=1)
            x = None  # the next block may be formed while this one is not held
        q = r = bits = scratch = None  # a new pass below holds no block of this one
        c = tau + low
        z = c - tau
        err = (tau - (c - z)) + (low - z)
        a = np.abs(c)
        half_gap = (a - np.nextafter(a, 0.0)) * 0.5  # the smaller of c's two gaps
        g = np.spacing((least + np.uint64(1)).view(float))
        decided = (mu <= _SUM_SIGMA_MAX / (2.0 * N)) & (
            (mu == 0.0) | ((N * 2.0 ** -53) * sigma <= 2.0 ** 53 * g)
            | (half_gap - np.abs(err) > sigma * (2.0 * N * N * 2.0 ** -106)))
    c = np.ldexp(c, -shift) if scaled else c
    c[negative] = -0.0
    for i in np.flatnonzero(~decided):
        c[i] = fsum(chain.from_iterable(map(memoryview, _row(blocks, i))))
    return c


def _row(blocks, i):
    """Row ``i``'s runs of values, from a new pass of ``blocks()``."""
    for i0, x in blocks():
        if i0 <= i < i0 + len(x):
            yield x[i - i0]


def _fsum_rows(rows, mu=None):
    """``math.fsum`` of each row of the 2D float array ``rows``, by
    :func:`_exact_sums`: the exactly rounded sums, with ``fsum``'s bits,
    without a Python step per float.

    ``mu`` is each row's largest absolute value, when the caller has it.
    The rows go through the split in blocks of ``_SUM_BLOCK`` cells.
    """
    nrows, N = rows.shape
    if mu is None:
        mu = np.maximum(rows.max(axis=1), -rows.min(axis=1))
    width = min(N, _SUM_BLOCK)
    step = max(1, _SUM_BLOCK // N)

    def blocks():
        for r0 in range(0, nrows, step):
            for c0 in range(0, N, width):
                yield r0, rows[r0:r0 + step, c0:c0 + width]

    return _exact_sums(blocks, nrows, N, mu)


def integrate(grid, u):
    """Midpoint-rule integral of cell values over the domain (exactly
    ``cell_volume * sum``, the sum exactly rounded)."""
    u = np.asarray(u, dtype=float)
    return grid.cell_volume * float(_fsum_rows(u.reshape(1, -1))[0])


def species_integrals(grid, F):
    """:func:`integrate` of every species row of the stack ``F``, as an
    array.

    Each row sum is exactly rounded (:func:`_fsum_rows`), so each entry has
    the bits of ``integrate(grid, F[i])``.
    """
    F = np.asarray(F, dtype=float)
    return grid.cell_volume * _fsum_rows(F.reshape(F.shape[0], -1))


def gradient_sq_integral(grid, u, level=None):
    """Face-difference approximation of ``int |grad u|^2``.

    Gradients live on interior faces; per axis, each face carries weight
    ``L_axis / (m_axis - 1)`` times the transverse spacings, so a uniform
    slope integrates exactly for any resolution.  When ``level`` is given,
    a face contributes only if both adjacent cells lie in the level set
    ``|u| <= level`` (a conservative under-approximation on it).

    The squared differences (and the level mask) are formed one block of
    whole rows of the grid at a time, about ``_SUM_BLOCK`` cells
    (:func:`_face_squares`), and each axis' sum is exactly rounded
    (:func:`_exact_sums`), split at the largest square, which a first pass
    over the blocks finds.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != grid.shape:
        raise DomainError(f"values shape {u.shape} does not match grid {grid.shape}")

    def blocks():
        return _face_squares(grid, u, level)

    return _gradient_total(grid, _exact_sums(blocks, grid.dim, grid.ncells,
                                             _row_maxima(blocks, grid.dim)))


def _row_maxima(blocks, nrows):
    """Each row's largest value, at least ``0.0`` (a NaN stays), from one
    pass of ``blocks()``: the bounds of rows of nonnegative values."""
    mu = np.zeros(nrows)
    for i, x in blocks():
        mu[i:i + len(x)] = np.maximum(mu[i:i + len(x)], x.max(axis=1))
    return mu


def _face_squares(grid, u, level):
    """Yield ``(axis, sq)``: the squared face differences of ``u`` over
    ``h_axis``, zero where ``level`` masks the face, as ``(1, faces)``
    blocks of about ``_SUM_BLOCK`` cells, in the order of the faces; a grid
    of at most ``_SUM_BLOCK`` cells gives one block per axis.  The blocks
    are views of one buffer, valid until the next is yielded.
    """
    h, m0 = grid.h, grid.shape[0]
    rest = grid.ncells // m0  # cells of a row
    cells = u.reshape(-1)
    k = min(m0, max(1, _SUM_BLOCK // rest))  # rows of a block
    # one float and two boolean blocks of k + 1 rows; every operand is
    # a contiguous run of cells, which numpy reads without buffering
    buf = np.empty((k + 1) * rest)
    ok_buf = np.empty((k + 1) * rest, dtype=bool)
    keep_buf = np.empty(k * rest, dtype=bool)

    def masked(sq, ok_hi, ok_lo):
        keep = np.logical_and(ok_hi, ok_lo, out=keep_buf[:sq.size])
        np.copyto(sq, 0.0, where=np.logical_not(keep, out=keep))

    for lo in range(0, m0 * rest, k * rest):
        hi = min(lo + k * rest, m0 * rest)  # the block's cells
        end = min(hi + rest, m0 * rest)  # and the next row's
        ok = None if level is None else np.less_equal(
            np.abs(cells[lo:end], out=buf[:end - lo]), level, out=ok_buf[:end - lo])
        faces = min(hi, end - rest) - lo  # axis 0: cells c and c + rest
        if faces > 0:
            sq = np.subtract(cells[lo + rest:lo + rest + faces], cells[lo:lo + faces],
                             out=buf[:faces])
            sq /= h[0]
            sq *= sq
            if ok is not None:
                masked(sq, ok[rest:rest + faces], ok[:faces])
            yield 0, sq[None]
        if grid.dim == 2:
            # axis 1: cells c and c + 1; the differences across the end of
            # a row are set to zero, which adds nothing to the sum
            sq = np.subtract(cells[lo + 1:hi], cells[lo:hi - 1], out=buf[:hi - lo - 1])
            sq /= h[1]
            sq *= sq
            if ok is not None:
                masked(sq, ok[1:hi - lo], ok[:hi - lo - 1])
            sq[rest - 1::rest] = 0.0
            yield 1, sq[None]


def _gradient_total(grid, sums):
    """``fsum`` over the axes of each axis' face weight times ``sums[axis]``,
    the exactly rounded sum of its squared face differences."""
    h = grid.h
    total_terms = []
    for axis in range(grid.dim):
        w = grid.lengths[axis] / (grid.shape[axis] - 1)
        for other, oh in enumerate(h):
            if other != axis:
                w *= oh
        total_terms.append(w * float(sums[axis]))
    return fsum(total_terms)


# -- CSV snapshots ---------------------------------------------------------


def _csv_lines(columns, lo, hi):
    """The CSV lines of rows ``lo:hi`` of the table whose columns are the 1D
    arrays ``columns``, converted ``_CSV_CHUNK_ROWS`` rows at a time from
    views of the columns: the float objects of a whole table, or a copy of
    it, would outweigh the table itself several times."""
    for start in range(lo, hi, _CSV_CHUNK_ROWS):
        stop = min(start + _CSV_CHUNK_ROWS, hi)
        for row in zip(*[col[start:stop].tolist() for col in columns]):
            yield ",".join(map(repr, row)) + "\n"


def _csv_parts(nrows):
    """How many processes format a table of ``nrows`` data rows: one per
    usable CPU, each with at least ``_CSV_PART_MIN_ROWS`` rows; one where
    the platform has no ``os.fork`` or ``os.sched_getaffinity``."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), nrows // _CSV_PART_MIN_ROWS))


def _fork_formatter(columns, lo, hi, directory):
    """Fork a child that writes the CSV lines of rows ``lo:hi`` into an
    unnamed temporary file in ``directory``; returns ``(pid, file)``.

    ``repr`` holds the interpreter lock, so only a process can format in
    parallel.  The child runs only ``tolist`` and ``repr`` on columns it
    inherits, no BLAS call, so a lock held by another thread of the parent
    (a BLAS pool) at the fork is never waited on.  It writes its part chunk
    by chunk into a file, not a pipe, so it never waits for the parent to
    finish its own part, and it leaves only through ``os._exit``: it runs
    none of the parent's ``finally`` blocks and flushes none of its
    buffers.
    """
    part = tempfile.TemporaryFile(dir=directory)
    try:
        pid = os.fork()
    except OSError:
        part.close()
        raise
    if pid == 0:
        code = 1
        try:
            with open(part.fileno(), "w", closefd=False) as out:
                out.writelines(_csv_lines(columns, lo, hi))
            code = 0
        finally:
            os._exit(code)
    return pid, part


def write_species_csv(path, grid, values, metadata=None):
    """Write species fields as CSV with ``#``-prefixed metadata headers.

    Columns are the cell-center coordinates followed by one column per
    species.  Floats are written with ``repr`` round-trip precision.

    A table of at least ``2 * _CSV_PART_MIN_ROWS`` rows is formatted by up
    to one process per usable CPU: the rows are split into contiguous
    parts, this process streams the first, and a forked child writes each
    other part into a temporary file beside ``path`` that is copied into
    the file in order.  The bytes are the same for any number of parts.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    columns = [ax.ravel() for ax in grid.meshgrid()] + list(values.reshape(n, -1))
    nrows = len(columns[0])
    parts = _csv_parts(nrows)
    bounds = [nrows * k // parts for k in range(parts + 1)]
    children = []
    failed = 0
    try:
        with open(path, "w") as fh:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                children.append(_fork_formatter(columns, lo, hi,
                                                os.path.dirname(os.path.abspath(path))))
            fh.write(f"# grid_shape={','.join(str(m) for m in grid.shape)}\n")
            fh.write(f"# grid_lengths={','.join(repr(L) for L in grid.lengths)}\n")
            fh.write(f"# species={n}\n")
            for key, val in (metadata or {}).items():
                fh.write(f"# {key}={val}\n")
            coords = ["x", "y"][: grid.dim]
            fh.write(",".join(coords + [f"f_{i}" for i in range(1, n + 1)]) + "\n")
            fh.writelines(_csv_lines(columns, 0, bounds[1]))
            fh.flush()
            while children:
                pid, part = children.pop(0)
                with part:
                    if os.waitpid(pid, 0)[1] != 0:
                        failed += 1
                        continue
                    part.seek(0)
                    while chunk := part.read(_CSV_COPY_BYTES):
                        fh.buffer.write(chunk)
    finally:
        for pid, part in children:
            part.close()
            failed += os.waitpid(pid, 0)[1] != 0
    if failed:
        raise OSError(f"{path}: {failed} of {parts - 1} formatting processes failed")


def read_species_csv(path):
    """Inverse of :func:`write_species_csv`; returns ``(grid, values, metadata)``.

    The metadata headers come before the data rows.  The rows are parsed
    ``_CSV_CHUNK_ROWS`` at a time into the preallocated ``values``; Python's
    ``float`` of a ``repr`` is exact, so every value keeps its bits.
    """
    metadata = {}
    shape = lengths = values = None
    nrows = 0
    with open(path) as fh:
        while lines := list(islice(fh, _CSV_CHUNK_ROWS)):
            data = []
            for line in lines:
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
                if values is None:
                    if shape is None or lengths is None:
                        raise DomainError(f"{path}: missing grid metadata headers")
                    grid = GridSpec(shape=shape, lengths=lengths)
                    ncols = line.count(",") + 1
                    values = np.empty((ncols - grid.dim, grid.ncells))
                if line.count(",") + 1 != ncols:
                    raise DomainError(f"{path}: a data row does not have {ncols} columns")
                data.append(line)
            if not data:
                continue
            if nrows + len(data) > grid.ncells:
                raise DomainError(f"{path}: more than {grid.ncells} data rows")
            block = np.fromiter(map(float, ",".join(data).split(",")), float,
                                count=len(data) * ncols).reshape(len(data), ncols)
            values[:, nrows:nrows + len(data)] = block[:, grid.dim:].T
            nrows += len(data)
    if shape is None or lengths is None:
        raise DomainError(f"{path}: missing grid metadata headers")
    if values is None:
        raise DomainError(f"{path}: no data rows")
    if nrows != grid.ncells:
        raise DomainError(f"{path}: {nrows} data rows for a grid of {grid.ncells} cells")
    return grid, values.reshape((len(values),) + grid.shape), metadata
