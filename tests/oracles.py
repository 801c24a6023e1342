"""Test oracles that share no code with the library they check.

``spectral_heat_solve_1d`` is the cosine-series solution of the pure heat
equation with Neumann data.  The reflected-ghost stencil has the same
cosine modes as exact eigenvectors (``fragdiff.grid``), so the DCT-II path
cross-checks the stencil steppers without reusing them.
"""

import numpy as np
import scipy.fft

from fragdiff.errors import DomainError


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
