"""Collision, breakage, and diffusion coefficient families.

The model is parameterized by three ingredient sets:

* collision rates ``a_ij`` (symmetric, nonnegative),
* breakage counts ``b^k_ij`` = expected number of size-``k`` fragments
  produced when sizes ``i`` and ``j`` collide, constrained by local mass
  conservation ``sum_k k * b^k_ij = i + j`` and by ``b^k_ij = 0`` for
  ``k >= i + j``,
* diffusion coefficients ``d_i > 0``.

The built-in power-law family is

    a_ij = (i*j)**-lam,   b^k_ij = 2/(i+j-1),   d_i = i**-alpha,

for which the regularization weights ``c_j = sum_i a_ij = j**-lam * Z(lam)``
(with ``Z`` the power series ``sum i**-lam``) admit certified interval
enclosures: a short partial sum plus an Euler-Maclaurin tail whose remainder
is bracketed by its first omitted term.  A uniform Cheng-Redner
variant redistributes each collider's own mass over sizes strictly below
it; its size-1 collider case is handled by a pass-through convention (see
``_cheng_redner_counts``).  Arbitrary tabulated kernels can be loaded from
CSV files.

Every coefficient has one definition, held by a :class:`KernelSet`: the
arrays ``d``, ``c_lo``/``c_hi`` and ``a_matrix()`` and the count function
behind ``b``.  The solver, the monitors and the audits read those, and so
do the scalar accessors ``a(i, j)`` and ``b(i, j, k)``.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import fsum

import numpy as np

from .errors import DivergentSeriesError, DomainError, FragdiffError

__all__ = [
    "Enclosure",
    "KernelSet",
    "ValidationReport",
    "power_series_enclosure",
    "validate_kernel_set",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Enclosure:
    """Certified interval ``[lo, hi]`` containing a series value."""

    lo: float
    hi: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def __mul__(self, other):
        """Product of two nonnegative enclosures, rounded outward.

        Each end is one correctly rounded product, within half a float of
        the exact one, so one ``nextafter`` step makes it a directed bound.
        """
        return Enclosure(math.nextafter(self.lo * other.lo, -math.inf),
                         math.nextafter(self.hi * other.hi, math.inf))


def _check_index(name, value):
    if not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")
    return int(value)


def _uniform_counts(i, j, k):
    """Uniform breakage counts ``2/(i+j-1)`` for ``k < i+j``, else 0.

    Like every family's count function (``KernelSet._b_fn``), it broadcasts
    over integer index arrays; the scalar view ``KernelSet.b``, the gain
    tensor, the validator and the summability audit all read it.
    """
    s = np.add(i, j)
    return np.where(k < s, 2.0 / (s - 1), 0.0)


def _cheng_redner_counts(i, j, k):
    """Cheng-Redner counts: each collider shatters its own mass (broadcasts).

    A size-``i`` collider with ``i >= 2`` redistributes uniformly over sizes
    ``1..i-1`` (``2/(i-1)`` fragments each); a size-1 collider cannot break
    and passes through as a single size-1 particle.  The pass-through branch
    keeps ``sum_k k b^k_ij = i + j`` valid for every pair, at the cost of
    deviating from the strict sub-collider redistribution rule at size 1.
    """

    def side(size):
        plateau = np.where(k < size, 2.0 / np.maximum(size - 1, 1), 0.0)
        return np.where(size == 1, np.where(k == 1, 1.0, 0.0), plateau)

    return side(i) + side(j)


_EM_N = 32
"""Partial-sum length of :func:`power_series_enclosure`, a power of two so
that ``N**(-s-m) = N**-s * 2**(-5m)`` is exact."""
_EM_COEFFS = tuple(
    float(Fraction(*b) / math.factorial(2 * k))
    for k, b in enumerate(((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
                           (-691, 2730), (7, 6)), start=1)
)
"""``B_2k / (2k)!`` for ``k = 1..7``, each correctly rounded; the last one
bounds the remainder."""


def power_series_enclosure(s, tol=1e-10):
    """Certified enclosure of ``sum_{i>=1} i**-s`` (the zeta function at ``s > 1``).

    Euler-Maclaurin summation with ``N = 32`` and ``K = 6`` gives

        Z(s) = sum_{i<N} i**-s + N**(1-s)/(s-1) + N**-s/2
               + sum_{k=1}^{K} T_k + R_K,
        T_k = B_2k/(2k)! * s(s+1)...(s+2k-2) * N**(-s-2k+1).

    ``x**-s`` is completely monotone (every even derivative is positive),
    so the remainder has the sign of the first omitted term and is bounded
    by it: ``R_K`` lies between 0 and ``T_{K+1}`` (Olver, *Asymptotics and
    Special Functions*, ch. 8; Johansson 2015, Numer. Algorithms 69, treats
    the Hurwitz zeta function the same way).  ``T_7`` is below 1e-22 for
    every ``s > 1``, so the width is set by rounding alone.

    Rounding pad, with ``u = eps/2`` the unit roundoff, correctly rounded
    ``+ - * /`` and a faithful ``pow`` (error below one ulp, at most
    ``2u`` relative; glibc's is within 0.52 ulp):

    * the partial sum: ``N-1`` powers (``2u`` each) and one correctly
      rounded ``fsum`` (``u``): ``3u`` of its value;
    * ``p = N**-s``: one ``pow``, ``2u``; ``N*p`` and ``p/2`` are exact;
      the integral term adds ``s-1`` and one division: ``4u``;
    * ``T_k``: ``p``, one product for ``T_1``'s ``s*p``, four roundings
      per further rising-factorial step (two sums, two products; the
      divisions by ``N`` are exact), the rounded coefficient and the last
      product: ``(4k+1)u``, at most ``29u`` for ``k <= 7``.

    The pad ``eps*(2*partial + 3*(integral + N**-s/2) + 16*sum|T_k|)``
    covers these first-order bounds with room for the second-order terms
    and for the rounding of the pad itself.  Underflow (``s`` above about
    200) adds absolute errors near ``2**-1074``, far below the pad, which is
    at least ``2 eps`` since the partial sum is at least 1.  The bracket's
    ends are then summed exactly by ``fsum`` and moved one float outward,
    which makes the final rounding directed.

    ``tol`` is a postcondition on the width, checked once: a width above it
    raises :class:`FragdiffError` (for the default 1e-10 that happens only
    for ``s - 1`` below about 1.6e-5, where the value exceeds 6e4 and the
    pad alone is wider).  Raises :class:`DivergentSeriesError` for
    ``s <= 1`` and :class:`DomainError` for a non-finite ``s``.
    """
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"series exponent must be finite, got {s}")
    if s <= 1.0:
        raise DivergentSeriesError(f"sum i**-s diverges for s={s} <= 1")
    N = _EM_N
    partial = fsum(float(i) ** -s for i in range(1, N))
    p = float(N) ** -s
    integral = N * p / (s - 1.0)
    r = s * p / N  # s(s+1)...(s+2k-2) * N**(-s-2k+1), for k = 1
    terms = []
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        if k > 1:
            r = r * (s + (2 * k - 3)) / N * (s + (2 * k - 2)) / N
        terms.append(coeff * r)
    *body, omitted = terms
    half = 0.5 * p
    pad = _EPS * (2.0 * partial + 3.0 * (integral + half) + 16.0 * fsum(map(abs, terms)))
    value = [partial, integral, half, *body]
    lo = math.nextafter(fsum(value + [min(omitted, 0.0), -pad]), -math.inf)
    hi = math.nextafter(fsum(value + [max(omitted, 0.0), pad]), math.inf)
    if hi - lo > tol:
        raise FragdiffError(
            f"enclosure of sum i**-{s} has width {hi - lo:g} above tol {tol:g}"
        )
    return Enclosure(lo, hi)


def _scaled(w, z):
    """Outward-rounded ``[lo, hi]`` of ``W * z`` for a weight ``w = pow(...)``.

    A faithful ``pow`` leaves the exact weight ``W`` within one float of
    ``w``; each product is one more correct rounding.  One ``nextafter``
    for each keeps both ends directed.  Broadcasts over arrays ``w >= 0``.
    """
    lo = np.nextafter(np.nextafter(w, -np.inf) * z.lo, -np.inf)
    hi = np.nextafter(np.nextafter(w, np.inf) * z.hi, np.inf)
    return lo, hi


@dataclass
class KernelSet:
    """One concrete choice of collision/breakage/diffusion coefficients.

    Instances are built through the factory classmethods.  Each holds the
    diffusion vector, the regularization-weight enclosures, the breakage
    counts as one broadcasting function ``_b_fn(i, j, k)``, and its neutral
    pairs as data: the pairs ``(p, q)`` whose collision re-emits exactly
    ``{p, q}``.  The built-in factories state that set from their closed
    form; ``from_tables`` finds it by a per-pair scan.  The collision
    matrix, the masked loss matrix, the Cheng-Redner fragment weights and
    (tables only) the gain tensor are built on first use.
    """

    family: str
    n: int
    lam: float | None
    alpha: float | None
    d: np.ndarray
    c_lo: np.ndarray
    c_hi: np.ndarray
    _b_fn: object  # broadcasting count function (i, j, k) -> b^k_ij
    sep_weights: np.ndarray | None = None  # a_ij == w_i * w_j when set
    neutral_pairs: tuple = ()
    notes: list[str] = field(default_factory=list)
    _a_mat: np.ndarray | None = None
    _gain_tensor: np.ndarray | None = None
    _loss_matrix: np.ndarray | None = None
    _cr_weights: np.ndarray | None = None

    # -- factories ---------------------------------------------------------

    @classmethod
    def power_law_uniform(cls, n, lam, alpha, reg_tol=1e-10, profile="weaker"):
        n = _check_index("n", n)
        if lam < 0 or alpha < 0:
            raise DomainError("lam and alpha must be >= 0")
        notes = []
        if profile == "weaker":
            if lam < 4:
                msg = f"lam={lam} is below the assumption-family threshold 4"
                warnings.warn(msg, stacklevel=2)
                notes.append(msg)
            if alpha > 1:
                msg = f"alpha={alpha} is outside [0, 1]"
                warnings.warn(msg, stacklevel=2)
                notes.append(msg)
        i1 = np.arange(1, n + 1, dtype=float)
        w = i1 ** (-lam)
        c_lo, c_hi = _scaled(w, power_series_enclosure(lam, reg_tol))
        return cls(
            family="power_law_uniform",
            n=n,
            lam=float(lam),
            alpha=float(alpha),
            d=i1 ** (-alpha),
            c_lo=c_lo,
            c_hi=c_hi,
            _b_fn=_uniform_counts,
            sep_weights=w,
            neutral_pairs=((1, 1), (1, 2), (2, 1)),
            notes=notes,
        )

    @classmethod
    def cheng_redner_uniform(cls, n, lam, alpha, reg_tol=1e-10, profile="weaker"):
        base = cls.power_law_uniform(n, lam, alpha, reg_tol=reg_tol, profile=profile)
        base.family = "cheng_redner_uniform"
        base._b_fn = _cheng_redner_counts
        base.neutral_pairs = ((1, 1),)
        base.notes.append(
            "size-1 colliders pass through unchanged (the strict sub-collider "
            "redistribution rule is unsatisfiable at size 1)"
        )
        return base

    @classmethod
    def from_tables(cls, a_path, b_path, d_path, n=None):
        """Load a tabulated kernel from three CSV files.

        ``a_path`` has columns ``i,j,a``;  ``b_path`` has ``i,j,k,b``;
        ``d_path`` has ``i,d``.  Missing entries default to zero (``a``,
        ``b``) and must be present for every ``d_i``.  Every entry must be
        finite, ``a`` and ``b`` nonnegative and ``d`` positive.  A file that
        breaks these rules raises :class:`DomainError` with a message that
        starts with its path.
        """
        a_rows = _read_csv_rows(a_path, 3)
        b_rows = _read_csv_rows(b_path, 4)
        d_rows = _read_csv_rows(d_path, 2)
        sizes = [r[0] for r in d_rows]
        n_table = max(sizes)
        if n is None:
            n = n_table
        if sorted(sizes) != list(range(1, n_table + 1)):
            raise DomainError(f"{d_path}: need one d_i row for each i = 1..{n_table}")
        if n > n_table:
            raise DomainError(f"{d_path}: requested n={n} exceeds table size {n_table}")
        d = np.zeros(n)
        for i, val in d_rows:
            if i <= n:
                d[i - 1] = val
        if np.any(d <= 0) or not np.all(np.isfinite(d)):
            raise DomainError(f"{d_path}: diffusion coefficients must be positive and finite")

        a_mat = np.zeros((n, n))
        for i, j, val in a_rows:
            if not (math.isfinite(val) and val >= 0):
                raise DomainError(f"{a_path}: a[{i},{j}] = {val} must be finite and nonnegative")
            if i <= n and j <= n:
                a_mat[i - 1, j - 1] = val

        kmax = 2 * n - 1
        b_tab = np.zeros((kmax, n, n))
        for i, j, k, val in b_rows:
            if not (math.isfinite(val) and val >= 0):
                raise DomainError(f"{b_path}: b[{k};{i},{j}] = {val} must be finite and nonnegative")
            if i <= n and j <= n and k <= kmax:
                b_tab[k - 1, i - 1, j - 1] = val

        def b_fn(i, j, k):
            entry = b_tab[np.minimum(k, kmax) - 1, np.minimum(i, n) - 1, np.minimum(j, n) - 1]
            return np.where((i <= n) & (j <= n) & (k <= kmax), entry, 0.0)

        # the neutral pairs p + q <= n re-emit exactly {p, q}, b^k_pq = [k=p] + [k=q]
        # for every k < p+q; scanned one p at a time, so memory stays O(n^2)
        neutral = []
        k = np.arange(1, n)[None, :]
        for p in range(1, n):
            q = np.arange(1, n + 1 - p)[:, None]
            match = (b_fn(p, q, k) == 1.0 * (k == p) + (k == q)) | (k >= p + q)
            neutral += [(p, int(x)) for x in q[match.all(axis=1), 0]]

        c = np.array([fsum(a_mat[:, j]) for j in range(n)])
        return cls(
            family="table",
            n=n,
            lam=None,
            alpha=None,
            d=d,
            c_lo=c.copy(),
            c_hi=c.copy(),
            _b_fn=b_fn,
            neutral_pairs=tuple(neutral),
            _a_mat=a_mat,
        )

    # -- accessors ---------------------------------------------------------

    def a(self, i, j):
        """Collision rate for the (1-based) pair ``(i, j)``, both at most ``n``."""
        i, j = _check_index("i", i), _check_index("j", j)
        if max(i, j) > self.n:
            raise DomainError(f"pair ({i},{j}) exceeds truncation size n={self.n}")
        return float(self.a_matrix()[i - 1, j - 1])

    def b(self, i, j, k):
        """Breakage count of size-``k`` fragments from an ``(i, j)`` collision."""
        i, j, k = _check_index("i", i), _check_index("j", j), _check_index("k", k)
        return float(self._b_fn(i, j, k))

    @property
    def c_mid(self):
        return 0.5 * (self.c_lo + self.c_hi)

    def a_matrix(self):
        if self._a_mat is None:
            self._a_mat = np.outer(self.sep_weights, self.sep_weights)
        return self._a_mat

    def gain_tensor(self):
        """Dense ``B[i-1, p-1, q-1] = b^i_pq * a_pq`` masked to ``p+q <= n``.

        Neutral pairs are zeroed; their exact cancellation against the loss
        term is applied analytically instead (see :mod:`fragdiff.reaction`).
        Only fragments ``i < p+q`` enter the operator, so table entries
        beyond that support are ignored here (the validator reports them).
        """
        if self._gain_tensor is None:
            n = self.n
            k, p, q = np.ogrid[1:n + 1, 1:n + 1, 1:n + 1]
            B = self._b_fn(p, q, k)
            B[k >= p + q] = 0.0
            B *= self.loss_matrix()
            self._gain_tensor = B
        return self._gain_tensor

    def loss_matrix(self):
        """Dense ``M[p-1, q-1] = a_pq`` masked to ``p+q <= n``, neutral pairs zeroed.

        A neutral pair (``neutral_pairs``) contributes zero to every ``Q_i``
        identically, so the evaluators skip it.  Building ``M`` is
        ``O(n^2)``: it reads no breakage count.
        """
        if self._loss_matrix is None:
            n = self.n
            i1 = np.arange(1, n + 1)
            M = np.where(i1[:, None] + i1[None, :] <= n, self.a_matrix(), 0.0)
            for p, q in self.neutral_pairs:
                if p + q <= n:
                    M[p - 1, q - 1] = 0.0
            self._loss_matrix = M
        return self._loss_matrix

    def cheng_redner_weights(self):
        """The column ``2/(p-1)``, ``p = 2..n``: the fragments of each size
        below ``p`` that a Cheng-Redner collider of size ``p`` leaves (see
        :func:`fragdiff.reaction._gain_loss`).  Built on first use."""
        if self._cr_weights is None:
            self._cr_weights = (2.0 / np.arange(1.0, self.n))[:, None]
        return self._cr_weights


def _read_csv_rows(path, width):
    """The data rows of a table file with ``width`` columns, as ``width - 1``
    sizes (integers from 1) followed by one float."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if all(not _is_number(cell) for cell in row):
                continue  # header line
            if len(row) != width:
                raise DomainError(f"{path}: expected {width} columns, got {row!r}")
            try:
                rows.append([int(cell) for cell in row[:-1]] + [float(row[-1])])
            except ValueError as exc:
                raise DomainError(f"{path}: row {row!r}: {exc}") from exc
            if min(rows[-1][:-1]) < 1:
                raise DomainError(f"{path}: row {row!r}: sizes start at 1")
    if not rows:
        raise DomainError(f"{path}: no data rows")
    return rows


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


@dataclass
class ValidationReport:
    ok: bool
    max_mass_residual: float
    pairs_checked: int
    exact_pairs_checked: int
    failures: list[str]
    notes: list[str]


def validate_kernel_set(ks, i_max=None, exact_limit=64, rel_tol=1e-12):
    """Check the structural identities of a kernel set.

    Verifies symmetry and nonnegativity of ``a`` and ``b``, positivity of
    ``d``, the support condition ``b^k_ij = 0`` for ``k >= i+j``, and local
    mass conservation ``sum_k k b^k_ij = i+j``.  Mass conservation is checked
    in exact rational arithmetic for ``i + j <= exact_limit`` (built-in
    families only) and in floating point with relative tolerance ``rel_tol``
    for all ``i, j <= i_max``, each sum correctly rounded (the value of
    ``fsum``).  A Cheng-Redner set's ``cheng_redner_weights()``, which the
    gain reads in place of the counts, must equal the plateaus
    ``b^1_pp / 2 = 2/(p-1)`` of its counts for ``p = 2..n``; that check runs
    after the pair checks.

    The pair checks take one of two paths, by the count function:

    * a built-in family's own closed form (``_uniform_counts`` or
      ``_cheng_redner_counts``) is read once per size, in ``O(i_max**2)``
      evaluations (:func:`_pair_checks_by_size`);
    * any other count function (tables, wrapped counts), and any set in
      which the first path finds a failure, is checked one row ``i`` at a
      time, as a ``(j, k)`` block (:func:`_pair_checks_by_row`).  Only this
      path words a pair's failures; its report stops after 20 failures.

    Both paths give the same report, floats included, and keep memory at
    ``O(i_max**2)``.
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

    exact_ok, sizes_ok = (None, None) if ks.family == "table" else _exact_mass_check(ks)
    worst, pairs, exact_pairs = (
        _pair_checks_by_size(ks, i_max, exact_limit, rel_tol, sizes_ok)
        or _pair_checks_by_row(ks, i_max, exact_limit, rel_tol, exact_ok, failures))
    if len(failures) <= 20 and ks.family == "cheng_redner_uniform":  # not cut short
        failures += _weight_failures(ks)
    return ValidationReport(not failures, worst, pairs, exact_pairs, failures, notes)


def _pair_checks_by_row(ks, i_max, exact_limit, rel_tol, exact_ok, failures):
    """Every check of every pair ``i <= j <= i_max``, one row ``i`` at a time.

    Appends each failure to ``failures`` and stops once there are more
    than 20, with a suppression line.  Returns ``(worst, pairs,
    exact_pairs)`` over the pairs checked.
    """
    worst = 0.0
    pairs = 0
    exact_pairs = 0
    for i in range(1, i_max + 1):
        # one (j, k) block per row: j = i..i_max, k up to the widest support + 2
        jv = np.arange(i, i_max + 1)[:, None]
        k = np.arange(1, i + i_max + 3)[None, :]
        col = ks._b_fn(i, jv, k)
        inside = k < i + jv
        asym = np.any((col != ks._b_fn(jv, i, k)) & inside, axis=1).tolist()
        negative = np.any((col < 0) & inside, axis=1).tolist()
        # b^k_ij for k = s, s+1, s+2 (s = i+j): the three sizes past the support
        beyond = col[jv - i, i + jv - 1 + np.arange(3)] != 0.0
        flagged = beyond.any(axis=1).tolist()
        # fsum reads each weighted row prefix straight from the float buffer
        width = k.shape[1]
        weighted = (k * col).reshape(-1).data
        for r, j in enumerate(range(i, i_max + 1)):
            s = i + j
            if asym[r]:
                failures.append(f"b^k_{{{i},{j}}} != b^k_{{{j},{i}}}")
            if negative[r]:
                failures.append(f"b^k_{{{i},{j}}} has negative entries")
            if flagged[r]:
                first = s + int(np.argmax(beyond[r]))
                failures.append(f"b^{first}_{{{i},{j}}} nonzero beyond support")
            total = fsum(weighted[r * width:r * width + s - 1])
            resid = abs(total - s) / s
            worst = max(worst, resid)
            if resid > rel_tol:
                failures.append(
                    f"mass conservation off at ({i},{j}): sum k b^k = {total!r} != {s}"
                )
            pairs += 1
            if s <= exact_limit and exact_ok:
                if not exact_ok(i, j):
                    failures.append(f"exact mass conservation fails at ({i},{j})")
                exact_pairs += 1
            if len(failures) > 20:
                failures.append("... further failures suppressed")
                return worst, pairs, exact_pairs
    return worst, pairs, exact_pairs


def _pair_checks_by_size(ks, i_max, exact_limit, rel_tol, sizes_ok):
    """The pair checks of a built-in family, from its counts per size.

    Returns ``(worst, pairs, exact_pairs)`` when every pair passes
    every check, and ``None`` otherwise, or when ``ks._b_fn`` is not a
    built-in closed form; the caller then checks pair by pair.

    A closed form fixes the structure of the counts: ``b^k_ij = U_{i+j}(k)``
    for uniform breakage (``_uniform_counts`` reads ``i + j`` alone) and
    ``b^k_ij = P_i(k) + P_j(k)`` for Cheng-Redner (``_cheng_redner_counts``
    adds one term per collider, so ``P_p = b_pp / 2`` exactly).  The
    vectors ``U_s`` or ``P_p`` are read once for every ``k`` the pair
    checks read and must be finite, nonnegative and zero outside their own
    support (``k >= s``; ``k >= max(p, 2)``).  That implies every pair's
    checks: a float sum commutes exactly, so ``b^k_ij = b^k_ji``; a sum of
    nonnegative terms is nonnegative; and each term vanishes at
    ``k >= i + j``.  Every pair's mass total has the bits of its per-pair
    ``fsum`` (:func:`_uniform_mass_totals`, :func:`_cheng_redner_mass_totals`),
    and the rational check takes one ``Fraction`` per size
    (:func:`_exact_mass_check`).
    """
    if i_max < 1:
        return None
    if ks._b_fn is _uniform_counts:
        totals = _uniform_mass_totals(ks, i_max)
    elif ks._b_fn is _cheng_redner_counts:
        totals = _cheng_redner_mass_totals(ks, i_max)
    else:
        return None
    if totals is None:
        return None
    sizes = np.arange(1, i_max + 1)
    s = np.add.outer(sizes, sizes)
    worst = float(np.max(np.triu(np.abs(totals - s) / s)))  # over the pairs i <= j
    if worst > rel_tol:
        return None
    exact_pairs = 0
    if sizes_ok:
        limit = int(min(exact_limit, 2 * i_max))
        exact_pairs = sum(max(0, min(i_max, limit - i) - i + 1) for i in sizes.tolist())
        if exact_pairs and not sizes_ok(i_max, limit):
            return None
    return worst, i_max * (i_max + 1) // 2, exact_pairs


def _plateaus_ok(counts, outside):
    """Every count is finite and nonnegative, and zero where ``outside`` holds."""
    return bool(np.all((counts >= 0.0) & (counts < np.inf))
                and not np.any(outside & (counts != 0.0)))


def _uniform_mass_totals(ks, m):
    """``T[i-1, j-1] = fsum_k k b^k_ij`` for the uniform pairs ``i, j <= m``.

    Every pair of total size ``s`` has the same counts ``U_s``, so the same
    weighted terms and the same ``fsum``: one per ``s``.  ``None`` when a
    count vector fails :func:`_plateaus_ok`.
    """
    s = np.arange(2, 2 * m + 1)[:, None]
    k = np.arange(1, 2 * m + 3)
    terms = ks._b_fn(1, s - 1, k)  # row s - 2 holds U_s
    if not _plateaus_ok(terms, k >= s):
        return None
    terms *= k
    by_size = np.array([fsum(row[:size - 1].data) for row, size in zip(terms, s[:, 0])])
    sizes = np.arange(m)
    return by_size[np.add.outer(sizes, sizes)]


def _cheng_redner_mass_totals(ks, m):
    """``T[i-1, j-1] = fsum_k k b^k_ij`` for the Cheng-Redner pairs ``i <= j <= m``.

    Pair ``(i, j)`` sums ``x_k = fl(k fl(P_i(k) + P_j(k)))`` over ``k``;
    with ``h_p = max(p, 2) - 1`` the support length of ``P_p``, its terms
    ``k <= h_i`` (the head) need both plateaus and the rest are
    ``fl(k P_j(k))``, a suffix of a sequence fixed by ``j`` alone.

    The sum is formed exactly by error-free extraction (Rump, Ogita and
    Oishi 2008, "Accurate floating-point summation, Part I", SIAM J. Sci.
    Comput. 31(1), Lemma 3.3).  With ``sigma = 2**K`` at least ``N`` times
    the largest term, ``N = max h_p`` the terms per pair, each term splits
    exactly as ``x = q + r``: ``q = fl(fl(sigma + x) - sigma)`` is a
    multiple of ``2**(K-52)`` and ``|r| <= 2**(K-53)``.  Every partial sum
    of ``q``s stays below ``2 sigma`` on that grid, so it is exact in any
    order.  Every term is a multiple of ``delta``, the spacing of floats at
    the smallest positive count, so the ``r``s are too; their partial sums
    stay below ``N 2**(K-53)``, exact while ``N sigma <= 2**106 delta``.
    Then ``fl(sum q + sum r)`` is the exact sum rounded once, the value
    ``fsum`` returns.  The heads are summed one row ``i`` at a time, the
    tails from one table of suffix sums.  Entries below the diagonal are
    zero.  ``None`` when a plateau fails :func:`_plateaus_ok` or the split
    is not exact (``m`` above 8193); the caller then sums every pair
    with ``fsum``.
    """
    p = np.arange(1, m + 1)[:, None]
    k = np.arange(1, 2 * m + 3)
    plateaus = ks._b_fn(p, p, k) / 2
    support = np.maximum(p[:, 0], 2) - 1
    if not _plateaus_ok(plateaus, k > support[:, None]):
        return None
    terms = int(support[-1])
    sigma = math.ldexp(1.0, math.frexp(terms * (terms * 2.0 * plateaus.max()))[1])
    delta = np.spacing(plateaus.min(where=plateaus > 0.0, initial=np.inf))
    if not terms * sigma <= math.ldexp(delta, 106):
        return None

    P = plateaus[:, :m]  # k = 1..m holds every nonzero count
    kf = np.arange(1.0, m + 1)
    # the tail terms fl(k P_j(k)) split into q + r, and their suffix sums
    # from each column on (column m: the empty tail)
    r = P * kf
    q = r + sigma
    q -= sigma
    r -= q
    q_tail, r_tail = np.zeros((m, m + 1)), np.zeros((m, m + 1))
    np.cumsum(q[:, ::-1], axis=1, out=q_tail[:, m - 1::-1])
    np.cumsum(r[:, ::-1], axis=1, out=r_tail[:, m - 1::-1])
    totals = np.zeros((m, m))
    for i in range(1, m + 1):
        h = support[i - 1]
        x = P[i - 1:, :h] + P[i - 1, :h]  # rows j = i..m
        x *= kf[:h]
        q = x + sigma
        q -= sigma
        x -= q
        high = q.sum(axis=1) + q_tail[i - 1:, h]
        totals[i - 1, i - 1:] = high + (x.sum(axis=1) + r_tail[i - 1:, h])
    return totals


def _weight_failures(ks):
    """``cheng_redner_weights()`` against the plateaus of the counts.

    The Cheng-Redner gain reads the column ``2/(p-1)``, ``p = 2..n``, in
    place of ``_b_fn``; each entry must equal ``b^1_pp / 2``.  Returns one
    failure naming the first ``p`` that differs, or none.
    """
    p = np.arange(2, ks.n + 1)
    plateau = ks._b_fn(p, p, 1) / 2
    weights = ks.cheng_redner_weights()[:, 0]
    bad = np.flatnonzero(weights != plateau)
    if bad.size == 0:
        return []
    first = int(bad[0])
    return [f"cheng_redner_weights() at p={first + 2} is {float(weights[first])!r}, "
            f"not b^1_{{{first + 2},{first + 2}}}/2 = {float(plateau[first])!r}"
            f" ({bad.size} of {p.size} sizes differ)"]


def _exact_mass_check(ks):
    """``(ok, sizes_ok)``: local mass conservation in exact rational arithmetic.

    The family's closed form is a sum of plateaus ``sum_{k < p} k 2/(p-1)``,
    one per total size ``p = i + j`` (uniform breakage) or one per collider
    ``p = i, j`` (Cheng-Redner, where a monomer passes through with mass
    1).  Each plateau's mass is summed as a ``Fraction`` once.  ``ok(i, j)``
    checks one pair; ``sizes_ok(i_max, limit)`` checks every pair
    ``i <= j <= i_max`` with ``i + j <= limit <= 2 i_max`` at once, one
    size at a time: it asks that every plateau those pairs add has mass
    ``p``, and then every pair's sum is ``i + j``.
    """
    memo = {}

    def plateau_mass(size):  # sum_{k < size} k * 2/(size-1)
        if size not in memo:
            memo[size] = Fraction(2, size - 1) * sum(range(1, size))
        return memo[size]

    if ks.family == "power_law_uniform":
        return (lambda i, j: plateau_mass(i + j) == i + j,
                lambda i_max, limit: all(plateau_mass(s) == s for s in range(2, limit + 1)))
    if ks.family == "cheng_redner_uniform":
        memo[1] = Fraction(1)  # a monomer passes through
        return (lambda i, j: plateau_mass(i) + plateau_mass(j) == i + j,
                lambda i_max, limit: all(plateau_mass(p) == p
                                         for p in range(1, min(i_max, limit - 1) + 1)))

    def no_closed_form(*_):
        raise FragdiffError(f"no exact rational form for family {ks.family!r}")
    return no_closed_form, no_closed_form


# module-level aliases for the factory classmethods
power_law_uniform = KernelSet.power_law_uniform
cheng_redner_uniform = KernelSet.cheng_redner_uniform
from_tables = KernelSet.from_tables
