"""Evaluators for the truncated, regularized fragmentation operator.

For a species vector ``f = (f_1 .. f_n)`` the truncated operator is

    Q_i(f) = 1/2 sum_{j=i+1}^{n} sum_{k=1}^{j-1} b^i_{j-k,k} a_{j-k,k} f_{j-k} f_k
             - sum_{j=1}^{n-i} a_ij f_i f_j,

i.e. only collisions of total size at most ``n`` occur, which conserves the
weighted sum ``sum_i i Q_i`` exactly.  The regularized variant divides the
whole vector by ``1 + eps * sum_j c_j f_j**2`` with the certified
regularization weights ``c_j``; the shared denominator leaves the weighted
null sum intact and reduces bit-consistently to the truncated operator at
``eps = 0``.

Collisions that re-emit exactly the colliding pair (for the uniform
breakage family every pair of total size <= 3, for Cheng-Redner only the
pair (1,1)) contribute zero to every ``Q_i`` identically in exact
arithmetic.  The evaluator skips them, so the cancellation happens
analytically instead of numerically -- this is what keeps
``|sum_i i Q_i|`` at the rounding floor of the *active* collisions rather
than of the full operator, and makes low-``n`` neutral states evaluate to
exact zeros.  Gain and loss are each sums of nonnegative terms, so the
only cancellation left is the final ``gain - loss``.

There is one evaluator, :func:`q_field`, over stacked fields
``(n, *spatial)``; the single-point functions are views of it on one cell.
Its loss is one product with the masked loss matrix of
:meth:`KernelSet.loss_matrix` for every family.  Its gain takes one path
per kernel structure: the uniform family uses pair sums, the Cheng-Redner
family suffix sums over the loss rows (O(n) per cell, no tables), and
tabulated kernels contract the dense gain tensor.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, DomainError

QUASIPOSITIVITY_TOL = 1e-14


def _checked(F, ks):
    F = np.asarray(F, dtype=float)
    if F.ndim == 0:
        raise DomainError("field has no species axis (got a scalar)")
    if F.shape[0] != ks.n:
        raise DomainError(f"field has {F.shape[0]} species, kernel set has {ks.n}")
    if not np.all(np.isfinite(F)):
        raise DomainError("field contains non-finite entries")
    if np.any(F < 0):
        raise ContractViolationError(
            f"field contains negative entries (min {F.min():g})"
        )
    return F


def _point(f, ks):
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise DomainError(f"species vector must be 1-D, got shape {f.shape}")
    return _checked(f, ks)


def _check_eps(eps):
    if not 0.0 <= eps < 1.0:
        raise DomainError(f"eps must lie in [0, 1), got {eps}")


def _denominator(G2, ks, eps):
    return 1.0 + eps * np.einsum("j,jm,jm->m", ks.c_mid, G2, G2)


def _gain_loss(G2, ks):
    """Gain and loss terms of the truncated operator, each ``(n, ncells)``.

    The loss ``f_i * sum_j M_ij f_j`` is one product with the masked loss
    matrix for every family.  The gain takes one path per kernel structure:

    * uniform family (``a_ij = w_i w_j``, uniform breakage): pair sums
      ``S_j = sum_k g_{j-k} g_k`` with ``g = w * f``, distributed with
      weight ``2/(j-1)`` through suffix sums over ``j``;
    * Cheng-Redner family: a collider ``p >= 2`` leaves ``2/(p-1)``
      fragments of every size below it and a monomer passes through, so
      ``gain_i = sum_{p > i} 2/(p-1) loss_p + [i = 1] loss_1``, a suffix
      sum over the loss rows (O(n) per cell, no tables).  ``sum_i i gain_i
      = sum_p p loss_p`` holds term by term;
    * tables: the dense gain tensor contraction.

    Both are sums of nonnegative terms.
    """
    n = ks.n
    loss = G2 * (ks.loss_matrix() @ G2)
    if ks.family == "cheng_redner_uniform":
        # V_p = 2/(p-1) loss_p for p = 2..n; gain_i = sum_{p >= i+1} V_p for i < n
        V = loss[1:] * (2.0 / np.arange(1.0, n))[:, None]
        gain = np.zeros_like(loss)
        gain[: n - 1] = np.cumsum(V[::-1], axis=0)[::-1]
        gain[0] += loss[0]
    elif ks.uniform_breakage and ks.sep_weights is not None:
        g = ks.sep_weights[:, None] * G2
        # gain_i = sum_{j >= max(i+1, 4)} S_j/(j-1): a suffix sum over j,
        # accumulated in place from j = n down, row j-1 holding gain_{j-1}
        gain = np.zeros(G2.shape)
        for j in range(n, 3, -1):
            row = gain[j - 2]
            np.einsum("km,km->m", g[: j - 1], g[j - 2 :: -1], out=row)
            row /= j - 1.0
            row += gain[j - 1]
        if n >= 4:
            gain[:2] = gain[2]
    else:
        gain = 0.5 * np.einsum("ipq,pm,qm->im", ks.gain_tensor(), G2, G2, optimize=True)
    return gain, loss


def q_field(F, ks, eps=0.0):
    """Operator evaluation on stacked fields, shape ``(n, *spatial)``.

    Evaluation at distinct cells is independent, and for a given field
    shape the reduction order is fixed, so reruns are bitwise equal.  A
    cell evaluated alone can differ in the last bits from the same cell
    inside a larger field: the matrix products order their sums by shape.
    """
    F = _checked(F, ks)
    G2 = F.reshape(ks.n, -1)
    Q, loss = _gain_loss(G2, ks)
    Q -= loss
    if eps:
        _check_eps(eps)
        Q /= _denominator(G2, ks, eps)
    return Q.reshape(F.shape)


def q_truncated(f, ks):
    """Truncated fragmentation operator at a single spatial point."""
    return q_field(_point(f, ks), ks)


def regularization_denominator(f, ks, eps):
    """``1 + eps * sum_j c_j f_j**2`` with enclosure-midpoint weights."""
    _check_eps(eps)
    f = _point(f, ks)
    if eps == 0.0:
        return 1.0
    return float(_denominator(f[:, None], ks, eps)[0])


def q_regularized(f, ks, eps):
    """Regularized operator ``Q_i / (1 + eps sum_j c_j f_j^2)``.

    At ``eps = 0`` the denominator is exactly 1.0 and the result is
    bit-identical to :func:`q_truncated`.
    """
    return q_field(_point(f, ks), ks, eps)


def check_quasipositivity(f, ks, eps, i):
    """Evaluate ``Q_i`` for a state with ``f_i = 0``.

    Returns ``(q_i, gain_i)``.  Raises :class:`ContractViolationError` when
    the value drops below ``-1e-14`` times the gain magnitude -- with a
    vanishing ``f_i`` the loss term vanishes exactly, so the result must be
    a pure (nonnegative) gain.
    """
    f = _point(f, ks)
    if i < 1 or i > ks.n:
        raise DomainError(f"species index {i} outside 1..{ks.n}")
    if f[i - 1] != 0.0:
        raise DomainError(f"quasipositivity check requires f_{i} = 0, got {f[i-1]!r}")
    gain, loss = _gain_loss(f[:, None], ks)
    gain_i = gain[i - 1, 0]
    q_i = (gain_i - loss[i - 1, 0]) / regularization_denominator(f, ks, eps)
    if q_i < -QUASIPOSITIVITY_TOL * abs(gain_i):
        raise ContractViolationError(
            f"quasipositivity violated at i={i}: Q_i={q_i!r}, gain={gain_i!r}"
        )
    return q_i, gain_i


def dump_q_csv(path, f, ks, eps=0.0):
    """Write per-species gain/loss/denominator/Q diagnostics as CSV."""
    f = _point(f, ks)
    gain, loss = _gain_loss(f[:, None], ks)
    denom = regularization_denominator(f, ks, eps)
    with open(path, "w") as fh:
        fh.write("i,gain,loss,denominator,Q\n")
        for i in range(ks.n):
            g, l = float(gain[i, 0]), float(loss[i, 0])
            q = (g - l) / denom
            fh.write(f"{i+1},{g!r},{l!r},{float(denom)!r},{q!r}\n")
