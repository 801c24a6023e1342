"""Test oracles that share no code with the library they check.

``spectral_heat_solve_1d`` is the cosine-series solution of the pure heat
equation with Neumann data.  The reflected-ghost stencil has the same
cosine modes as exact eigenvectors (``fragdiff.grid``), so the DCT-II path
cross-checks the stencil steppers without reusing them.

``stencil_eigenvalue`` is that eigenvalue, ``-(2/h^2)(1 - cos(k pi h / L))``
for cosine mode ``k`` on one axis, in closed form.

``laplacian_neumann`` applies the reflected-ghost stencil with ``np.roll``
and so shares no code with the stepper, which builds the same operator as
tridiagonal diagonals; the tests use it as the residual and stencil oracle.

``validate_kernel_set_by_pair`` is the per-pair form of the kernel
validator: every check of every pair in one Python pass, with ``fsum``
over numpy scalars.  It is kept verbatim as the reference that
``fragdiff.validate_kernel_set`` must match report for report, floats and
messages included.

``_exact_mass_ok_by_pair`` checks local mass conservation of a built-in
family's closed form in exact rational arithmetic, one pair at a time.

``gradient_sq_by_axis`` is ``fragdiff.gradient_sq_integral`` from whole
arrays: ``np.diff`` per axis and ``fsum`` of each axis' float list, which
the streamed blocks must match bit for bit.

``fsum_keeping_negative_zero`` is ``math.fsum`` as on a Python whose sum
of ``-0.0`` alone is ``-0.0``: the IEEE sum of values that are all
``-0.0``.
"""

import math
from fractions import Fraction
from math import fsum

import numpy as np
import scipy.fft

from fragdiff.errors import DomainError, FragdiffError
from fragdiff.kernels import ValidationReport


def spectral_heat_solve_1d(grid, u0, d, t):
    """Evolve ``u_t = d u_xx`` with Neumann data via the cosine transform.

    The DCT-II coefficients of ``u0`` are damped by the continuous-operator
    factors ``exp(-d (k pi / L)**2 t)``; ``t = 0`` returns ``u0`` up to
    rounding.  This path shares no code with the stencil steppers and is
    used as an independent oracle.
    """
    if grid.dim != 1:
        raise DomainError("spectral reference solver is 1D only")
    if t < 0:
        raise DomainError("t must be >= 0")
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != grid.shape:
        raise DomainError("values shape does not match grid")
    L = grid.lengths[0]
    m = grid.shape[0]
    coeff = scipy.fft.dct(u0, type=2, norm="ortho")
    k = np.arange(m)
    coeff *= np.exp(-d * (k * np.pi / L) ** 2 * t)
    return scipy.fft.idct(coeff, type=2, norm="ortho")


def stencil_eigenvalue(grid, k, axis=0):
    """Eigenvalue of the discrete Laplacian for cosine mode ``k`` on one axis."""
    h = grid.h[axis]
    L = grid.lengths[axis]
    return -(2.0 / (h * h)) * (1.0 - np.cos(k * np.pi * h / L))


def _reflect_second_diff(u, axis):
    """Second difference along one axis with reflected (Neumann) ghosts."""
    um = np.roll(u, 1, axis=axis)
    up = np.roll(u, -1, axis=axis)
    # overwrite the wrapped slices with reflection: ghost equals edge cell,
    # so the boundary stencil degenerates to a one-sided first difference
    sl_first = [slice(None)] * u.ndim
    sl_last = [slice(None)] * u.ndim
    sl_first[axis] = 0
    sl_last[axis] = -1
    um[tuple(sl_first)] = u[tuple(sl_first)]
    up[tuple(sl_last)] = u[tuple(sl_last)]
    return um - 2.0 * u + up


def laplacian_neumann(grid, u):
    """Apply the reflected-ghost Laplacian stencil to cell values ``u``.

    ``u`` is one field of shape ``grid.shape`` or a species stack of shape
    ``(n, *grid.shape)``; the stencil acts on the trailing grid axes.
    """
    u = np.asarray(u, dtype=float)
    lead = u.ndim - grid.dim
    if lead not in (0, 1) or u.shape[lead:] != grid.shape:
        raise DomainError(f"values shape {u.shape} does not match grid {grid.shape}")
    out = np.zeros_like(u)
    for axis, hh in enumerate(grid.h):
        out += _reflect_second_diff(u, lead + axis) / (hh * hh)
    return out


def validate_kernel_set_by_pair(ks, i_max=None, rel_tol=1e-12):
    """Check the structural identities of a kernel set.

    Verifies symmetry and nonnegativity of ``a`` and ``b``, positivity of
    ``d``, the support condition ``b^k_ij = 0`` for ``k >= i+j``, and local
    mass conservation ``sum_k k b^k_ij = i+j`` in floating point with
    relative tolerance ``rel_tol`` for all ``i, j <= i_max``.
    """
    if i_max is None:
        i_max = ks.n
    failures = []
    notes = list(ks.notes)

    if np.any(ks.d <= 0) or not np.all(np.isfinite(ks.d)):
        failures.append("diffusion coefficients must be positive and finite")

    # a-symmetry / nonnegativity on the stored range
    amat = ks.a_matrix()
    if not np.array_equal(amat, amat.T):
        failures.append("collision rates are not symmetric")
    if np.any(amat < 0):
        failures.append("collision rates contain negative entries")

    worst = 0.0
    pairs = 0
    for i in range(1, i_max + 1):
        # one (j, k) block per row: j = i..i_max, k up to the widest support + 2
        jv = np.arange(i, i_max + 1)[:, None]
        k = np.arange(1, i + i_max + 3)[None, :]
        col = ks._b_fn(i, jv, k)
        inside = k < i + jv
        asym = np.any((col != ks._b_fn(jv, i, k)) & inside, axis=1)
        negative = np.any((col < 0) & inside, axis=1)
        beyond = (col != 0.0) & ~inside & (k < i + jv + 3)
        first_beyond = k[0, np.argmax(beyond, axis=1)]
        weighted = k * col
        for r, j in enumerate(range(i, i_max + 1)):
            s = i + j
            if asym[r]:
                failures.append(f"b^k_{{{i},{j}}} != b^k_{{{j},{i}}}")
            if negative[r]:
                failures.append(f"b^k_{{{i},{j}}} has negative entries")
            if beyond[r].any():
                failures.append(f"b^{first_beyond[r]}_{{{i},{j}}} nonzero beyond support")
            total = fsum(weighted[r, : s - 1])
            resid = abs(total - s) / s
            if resid > worst or math.isnan(resid):  # a NaN total stays the worst
                worst = resid
            if not resid <= rel_tol:  # a NaN total fails
                failures.append(
                    f"mass conservation off at ({i},{j}): sum k b^k = {total!r} != {s}"
                )
            pairs += 1
            if len(failures) > 20:
                failures.append("... further failures suppressed")
                return ValidationReport(False, worst, pairs, failures, notes)

    return ValidationReport(not failures, worst, pairs, failures, notes)


def _exact_mass_ok_by_pair(ks, i, j):
    """Local mass conservation in exact rational arithmetic."""
    s = i + j
    if ks.family == "power_law_uniform":
        total = Fraction(2, s - 1) * sum(range(1, s))
        return total == s
    if ks.family == "cheng_redner_uniform":
        def side(size):
            if size == 1:
                return Fraction(1)
            return Fraction(2, size - 1) * sum(range(1, size))
        return side(i) + side(j) == s
    raise FragdiffError(f"no exact rational form for family {ks.family!r}")


def gradient_sq_by_axis(grid, u, mask=None):
    """``sum_axis w_axis * fsum((diff_axis(u) / h_axis)**2)`` over the faces
    whose two cells are both in ``mask`` (every face when ``mask`` is
    None), with the face weights of ``fragdiff.gradient_sq_integral``."""
    terms = []
    for axis, h in enumerate(grid.h):
        m = grid.shape[axis]
        sq = (np.diff(u, axis=axis) / h) ** 2
        if mask is not None:
            both = mask.take(range(1, m), axis=axis) & mask.take(range(m - 1), axis=axis)
            sq[~both] = 0.0
        w = grid.lengths[axis] / (m - 1)
        for other, oh in enumerate(grid.h):
            if other != axis:
                w *= oh
        terms.append(w * fsum(sq.ravel().tolist()))
    return fsum(terms)


def fsum_keeping_negative_zero(values):
    values = list(values)
    if values and all(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in values):
        return -0.0
    return fsum(values)
