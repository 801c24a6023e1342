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

The uniform pair sums are formed in one of two ways, chosen by the field
size ``n * cells``.  Up to :data:`PAIR_PRODUCT_MAX_SIZE` values, one
strided product over a zero-padded Toeplitz view forms every pair sum at
once; above it, one product per total size ``j``.  The per-``j`` loop pays
a fixed cost for each ``j``, the single product multiplies a zero half,
so each is faster on one side of the bound.  Both sum every pair sum in
the same order and give the same bits.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ContractViolationError, DomainError

QUASIPOSITIVITY_TOL = 1e-14
PAIR_PRODUCT_MAX_SIZE = 8192
"""Largest field, ``n * cells`` values, whose uniform gain forms every pair
sum in one strided product; larger fields take one product per ``j``.
The loop's fixed cost per ``j`` grows with ``n`` and the product's zero
half with ``n**2 * cells``, so the faster path follows ``n * cells``.
``_gain_loss`` per call, loop / product, one BLAS thread: (n, cells) =
(32, 128) 247 / 132 us, (64, 128) 666 / 419 us, (32, 1024) 567 / 1701 us."""


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


def _pair_suffix_sums_loop(g, gain):
    """Rows 2..n-2 of the uniform gain into ``gain``: one product per ``j``."""
    n = g.shape[0]
    # gain_i = sum_{j >= max(i+1, 4)} S_j/(j-1): a suffix sum over j,
    # accumulated in place from j = n down, row j-1 holding gain_{j-1}
    for j in range(n, 3, -1):
        row = gain[j - 2]
        np.einsum("km,km->m", g[: j - 1], g[j - 2 :: -1], out=row)
        row /= j - 1.0
        row += gain[j - 1]


def _pair_suffix_sums_product(g, gain):
    """Rows 2..n-2 of the uniform gain into ``gain``: all ``S_j`` in one product."""
    n, m = g.shape
    # g below n-4 zero rows, and the read-only Toeplitz view
    # W[a, k] = g[a + 2 - k] (zero for k > a + 2): row a of the product is
    # S_{a+4}, summed over k = 0, 1, .. as the loop sums it
    pad = np.zeros((2 * n - 4, m))
    pad[n - 4 :] = g
    s0, s1 = pad.strides
    W = as_strided(pad[n - 2 :], shape=(n - 3, n - 1, m), strides=(s0, -s0, s1),
                   writeable=False)
    S = np.einsum("jkm,km->jm", W, g[: n - 1])
    S /= np.arange(3.0, n)[:, None]
    gain[2 : n - 1] = np.cumsum(S[::-1], axis=0)[::-1]


def _gain_loss(G2, ks):
    """Gain and loss terms of the truncated operator, each ``(n, ncells)``.

    The loss ``f_i * sum_j M_ij f_j`` is one product with the masked loss
    matrix for every family.  The gain takes one path per kernel structure:

    * uniform family (``a_ij = w_i w_j``, uniform breakage): pair sums
      ``S_j = sum_k g_{j-k} g_k`` with ``g = w * f``, distributed with
      weight ``2/(j-1)`` through suffix sums over ``j``.  Fields of at
      most :data:`PAIR_PRODUCT_MAX_SIZE` values form every ``S_j`` in one
      strided product (:func:`_pair_suffix_sums_product`), larger ones
      one product per ``j`` (:func:`_pair_suffix_sums_loop`).  Both add
      the terms of ``S_j`` for ``k = 1, 2, .., j-1`` in sequence, divide
      by ``j - 1`` and sum from ``j = n`` down, so they are bitwise
      equal;
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
        gain = np.zeros(G2.shape)
        if n >= 4:
            if g.size <= PAIR_PRODUCT_MAX_SIZE:
                _pair_suffix_sums_product(g, gain)
            else:
                _pair_suffix_sums_loop(g, gain)
            gain[:2] = gain[2]
    else:
        gain = 0.5 * np.einsum("ipq,pm,qm->im", ks.gain_tensor(), G2, G2, optimize=True)
    return gain, loss


def q_field(F, ks, eps=0.0):
    """Operator evaluation on stacked fields, shape ``(n, *spatial)``.

    Evaluation at distinct cells is independent, and for a given field
    shape the reduction order is fixed, so reruns are bitwise equal.  A
    cell's gain is bitwise the same on either uniform gain path, so the
    field size that selects the path does not show in it.  A cell
    evaluated alone can still differ in the last bits from the same cell
    inside a larger field: the loss is a BLAS matrix product, which
    orders its sums by shape.
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
