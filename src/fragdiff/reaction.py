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
``(n, *spatial)``; a species vector ``(n,)`` is the field of one point.
It can evaluate into a caller's stack with a caller's block scratch, so a
time step allocates no field-sized array.  Its loss is one product with
the masked loss matrix of :meth:`KernelSet.loss_matrix` for every kernel
set, formed whole in the result.  Its gain takes one path per kernel
structure, chosen by the set's count function ``_b_fn``, the one the
validator checks: the built-in uniform counts use pair sums, the built-in
Cheng-Redner counts suffix sums over the loss rows (O(n) per cell, no
tables), both formed one block of cells at a time in scratch, and any
other counts, tables and wrapped built-in counts alike, contract the
dense gain tensor.

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

from .errors import ContractViolationError, DomainError
from .kernels import _cheng_redner_counts, _uniform_counts

QUASIPOSITIVITY_TOL = 1e-14
PAIR_PRODUCT_MAX_SIZE = 8192
"""Largest field, ``n * cells`` values, whose uniform gain forms every pair
sum in one strided product; larger fields take one product per ``j``.
The loop's fixed cost per ``j`` grows with ``n`` and the product's zero
half with ``n**2 * cells``, so the faster path follows ``n * cells``.
``_gain_loss`` per call, loop / product, one BLAS thread: (n, cells) =
(32, 128) 247 / 132 us, (64, 128) 666 / 419 us, (32, 1024) 567 / 1701 us."""
GAIN_BLOCK_VALUES = 1 << 15
"""Values of the block scratch that :func:`q_field` allocates when it is
given none, or fewer where one block holds the field: 256 kB, inside a
core's L2 cache."""


def _checked(F, ks):
    F = np.asarray(F, dtype=float)
    if F.ndim == 0:
        raise DomainError("field has no species axis (got a scalar)")
    if F.shape[0] != ks.n:
        raise DomainError(f"field has {F.shape[0]} species, kernel set has {ks.n}")
    # two reductions decide; NaN fails both comparisons, and only a failing
    # field pays for isfinite to name its fault
    lo = F.min(initial=np.inf)
    if not (lo >= 0.0 and F.max(initial=-np.inf) < np.inf):
        if not np.all(np.isfinite(F)):
            raise DomainError("field contains non-finite entries")
        raise ContractViolationError(f"field contains negative entries (min {lo:g})")
    return F


def _point(f, ks):
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise DomainError(f"species vector must be 1-D, got shape {f.shape}")
    return _checked(f, ks)


def _check_eps(eps):
    if not 0.0 <= eps < 1.0:
        raise DomainError(f"eps must lie in [0, 1), got {eps}")


def _denominator(G2, ks, eps, out=None):
    """``1 + eps * sum_j c_j f_j**2`` per cell, into ``out`` where given."""
    d = np.einsum("j,jm,jm->m", ks.c_mid, G2, G2, out=out)
    d *= eps
    d += 1.0
    return d


def _pair_suffix_sums_loop(g, row):
    """Rows 2..n-2 of the uniform gain, over ``g = w * f`` in place: one
    product per ``j``, formed in the scratch ``row``."""
    n = g.shape[0]
    # gain_i = sum_{j >= max(i+1, 4)} S_j/(j-1): a suffix sum over j,
    # accumulated from j = n down, row j-1 holding gain_{j-1} (zero for
    # j = n).  S_j reads rows 0..j-2 of g, so row j-2 is free once S_j is
    # formed, and no later S reads a row that holds a gain
    for j in range(n, 3, -1):
        np.einsum("km,km->m", g[: j - 1], g[j - 2 :: -1], out=row)
        row /= j - 1.0
        np.add(row, g[j - 1], out=g[j - 2])


def _pair_suffix_sums_product(g):
    """Rows 2..n-2 of the uniform gain, over ``g = w * f`` in place: all
    ``S_j`` in one product."""
    n, m = g.shape
    # g below n-4 zero rows, and the read-only Toeplitz view
    # W[a, k] = g[a + 2 - k] (zero for k > a + 2): row a of the product is
    # S_{a+4}, summed over k = 0, 1, .. as the loop sums it
    pad = np.zeros((2 * n - 4, m))
    pad[n - 4 :] = g
    s0, s1 = pad.strides
    W = np.ndarray((n - 3, n - 1, m), buffer=pad, offset=(n - 2) * s0,
                   strides=(s0, -s0, s1))
    W.flags.writeable = False
    S = np.einsum("jkm,km->jm", W, g[: n - 1])
    S /= np.arange(3.0, n)[:, None]
    np.cumsum(S[::-1], axis=0, out=g[2 : n - 1][::-1])


def _loss(G2, ks, out=None):
    """The loss ``f_i * sum_j M_ij f_j`` of the cells ``G2``, one product
    with the masked loss matrix of :meth:`KernelSet.loss_matrix` for every
    kernel set, into ``out`` where given, else into a new array."""
    out = np.matmul(ks.loss_matrix(), G2, out=out)
    out *= G2
    return out


def _gain(G2, loss, ks, gain, row, product):
    """The gain term of the cells ``G2``, ``(n, cells)``, whose loss is
    ``loss``.

    It takes one path per count function ``ks._b_fn``:

    * the uniform counts (``a_ij = w_i w_j``, uniform breakage): pair sums
      ``S_j = sum_k g_{j-k} g_k`` with ``g = w * f``, formed in ``gain``,
      and distributed with weight ``2/(j-1)`` through suffix sums over
      ``j``, which replace ``g`` row by row in place.  Row ``n`` of ``g``
      is in no pair sum, so it holds the zero ``gain_n`` from the start.
      With ``product``, every ``S_j`` is formed in one strided product
      (:func:`_pair_suffix_sums_product`), else one product per ``j``
      (:func:`_pair_suffix_sums_loop`).  Both add the terms of ``S_j`` for
      ``k = 1, 2, .., j-1`` in sequence, divide by ``j - 1`` and sum from
      ``j = n`` down, so they are bitwise equal;
    * the Cheng-Redner counts: a collider ``p >= 2`` leaves ``2/(p-1)``
      fragments of every size below it and a monomer passes through, so
      ``gain_i = sum_{p > i} 2/(p-1) loss_p + [i = 1] loss_1``, a suffix
      sum over the loss rows, accumulated in place (O(n) per cell, no
      tables).  ``sum_i i gain_i = sum_p p loss_p`` holds term by term;
    * any other counts, wrapped built-in ones included: the dense gain
      tensor contraction, into a new array.

    The built-in paths write into ``gain``, a C-contiguous ``(n, cells)``
    array; the per-``j`` products take the scratch ``row`` of ``cells``
    values.  Each cell's gain is formed from its
    own column alone, in an order that does not depend on the number of
    cells, so a block of cells has the bits of the same cells in a whole
    field.  The gain is a sum of nonnegative terms; it is returned.
    """
    n = ks.n
    counts = ks._b_fn
    if counts is _uniform_counts:
        np.multiply(ks.sep_weights[:, None], G2, out=gain)
        if n >= 4:
            gain[n - 1] = 0.0
            if product:
                _pair_suffix_sums_product(gain)
            else:
                _pair_suffix_sums_loop(gain, row)
            gain[:2] = gain[2]
        else:
            gain.fill(0.0)
    elif counts is _cheng_redner_counts:
        # V_p = 2/(p-1) loss_p for p = 2..n in gain[p - 2]; then
        # gain_i = sum_{p >= i+1} V_p for i < n, a reversed cumsum in place
        V = np.multiply(loss[1:], ks.cheng_redner_weights(), out=gain[: n - 1])
        gain[n - 1] = 0.0
        np.cumsum(V[::-1], axis=0, out=V[::-1])  # empty at n = 1
        gain[0] += loss[0]
    else:
        gain = np.einsum("ipq,pm,qm->im", ks.gain_tensor(), G2, G2, optimize=True)
        gain *= 0.5
    return gain


def _gain_loss(G2, ks):
    """Gain and loss terms of the truncated operator at the cells ``G2``,
    each a new ``(n, ncells)`` array (:func:`_loss`, :func:`_gain`).  The
    uniform gain forms every pair sum in one product for fields of at most
    :data:`PAIR_PRODUCT_MAX_SIZE` values."""
    loss = _loss(G2, ks)
    gain = _gain(G2, loss, ks, np.empty(G2.shape), np.empty(G2.shape[1]),
                 G2.size <= PAIR_PRODUCT_MAX_SIZE)
    return gain, loss


def _stack(a, shape, name):
    """``a`` as a field stack of ``shape`` to evaluate into, or a new one."""
    if a is None:
        return np.empty(shape)
    if not (a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
            and a.flags.writeable):
        raise DomainError(f"{name} must be a writable C-contiguous float64 array "
                          f"of shape {shape}")
    return a


def q_field(F, ks, eps=0.0, *, out=None, work=None):
    """Operator evaluation on stacked fields, shape ``(n, *spatial)``.

    ``Q`` is written into ``out`` and returned: a writable C-contiguous
    float64 array of the field's shape, or ``None`` for a new one, that
    does not share memory with ``F``.  The loss is formed there for the
    whole field, in one matrix product.  Then, one block of ``c = work.size
    // (n + 1)`` cells at a time, the block's gain (over ``g = w * f`` on
    the uniform paths; the Cheng-Redner suffix sums read the block's loss
    rows in ``out``) and one row are formed in the scratch ``work``, then
    ``Q = gain - loss`` in ``out``, and with ``eps`` the block's denominator
    in the row.  ``work`` is a writable C-contiguous one-dimensional
    float64 array of at least ``n + 1`` values, sharing memory with neither
    ``F`` nor ``out``, or ``None`` for about :data:`GAIN_BLOCK_VALUES` new
    values.  Tables form their gain for the whole field, in a new array.  A
    time step that passes its own stack and scratch allocates no array the
    size of a field or of one species.

    Evaluation at distinct cells is independent, and for a given field
    shape the reduction order is fixed, so reruns are bitwise equal, into
    given stacks or new ones, with any scratch.  A cell's gain and
    denominator are bitwise the same in a block of any width, and a cell's
    gain the same on either uniform gain path, so neither the scratch nor
    the field size that selects the path shows in it.  A cell evaluated
    alone can still differ in the last bits from the same cell inside a
    larger field: the loss is a BLAS matrix product, which orders its sums
    by shape.
    """
    F = _checked(F, ks)
    out = _stack(out, F.shape, "out")
    n = ks.n
    per_cell = n + 1
    G2, Q = F.reshape(n, -1), out.reshape(n, -1)
    cells = G2.shape[1]
    if work is None:
        work = np.empty(per_cell * min(cells, max(1, GAIN_BLOCK_VALUES // per_cell)))
    elif not (work.ndim == 1 and work.dtype == np.float64 and work.flags.c_contiguous
              and work.flags.writeable and work.size >= per_cell):
        raise DomainError(f"work must be a writable C-contiguous one-dimensional float64 "
                          f"array of at least {per_cell} values")
    if eps:
        _check_eps(eps)
    _loss(G2, ks, out=Q)
    # tables: the gain of the whole field, in a new array
    whole = (None if ks._b_fn in (_uniform_counts, _cheng_redner_counts)
             else _gain(G2, Q, ks, None, None, False))
    product = G2.size <= PAIR_PRODUCT_MAX_SIZE
    c = max(1, work.size // per_cell)
    for c0 in range(0, cells, c):
        cols = slice(c0, c0 + c)
        G, loss = G2[:, cols], Q[:, cols]
        m = G.shape[1]
        row = work[n * m:per_cell * m]
        if whole is None:
            gain = _gain(G, loss, ks, work[:n * m].reshape(n, m), row, product)
        else:
            gain = whole[:, cols]
        np.subtract(gain, loss, out=loss)
        if eps:
            loss /= _denominator(G, ks, eps, out=row)
    return out


def regularization_denominator(f, ks, eps):
    """``1 + eps * sum_j c_j f_j**2`` with enclosure-midpoint weights."""
    _check_eps(eps)
    f = _point(f, ks)
    if eps == 0.0:
        return 1.0
    return float(_denominator(f[:, None], ks, eps)[0])


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
