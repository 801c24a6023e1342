"""Numeric audits of kernel summability and initial-data admissibility.

The solver's large-size behaviour is governed by three series built from
the kernel triple ``(a, b, d)``:

* ``A1``:     sum_{i,j} (i+j) a_{ij}
* ``A4_term1``: sum_{j,k} sum_{i<=j+k-1} sqrt(b^i_{jk} a_{jk}) / sqrt(k j d_i d_j)
* ``A4_term2``: sum_{i,j} sqrt(a_{ij}) / sqrt(i j d_i d_j)

The auditor reports three-valued verdicts with explicit bounds instead of
booleans: ``CONVERGES`` comes with a certified enclosure, ``DIVERGES``
with a proven minorant, and everything else is ``INCONCLUSIVE`` together
with the partial-sum growth trend.  Borderline parameter pairs are
genuinely delicate — for the power-law family with ``lam = 2*alpha + 2``
the first A4 sum trends logarithmically and no verdict is claimed either
way.

For the power-law families, A1 and ``A4_term2`` factorize into power
series ``Z(s) = sum i**-s``.  Each is enclosed by a partial sum plus an
Euler-Maclaurin remainder bracket (see
:func:`fragdiff.kernels.power_series_enclosure`), and their products are
rounded outward.  ``A4_term1``'s upper bound is its partial sum plus a
majorant tail over ``max(j, k) > N``: integral tail bounds times such
enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import grid as gridmod
from .errors import DomainError
from .kernels import power_series_enclosure

CONVERGES = "CONVERGES"
DIVERGES = "DIVERGES"
INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_LEVELS = (50, 100, 200, 400)
_CR_ROW_BLOCK = 8  # rows of A4 term-1 terms built at once (Cheng-Redner)


@dataclass(frozen=True)
class ConditionReport:
    """Verdict for one summability condition.

    ``lower`` is always a computed partial sum (hence a true lower bound);
    ``upper`` is a certified majorant when the verdict is CONVERGES and
    ``None`` otherwise.
    """

    condition: str
    verdict: str
    lower: float
    upper: float | None
    truncation: dict
    note: str = ""

    def to_json_dict(self):
        return {
            "condition": self.condition,
            "lower": self.lower,
            "upper": self.upper,
            "verdict": self.verdict,
            "truncation": self.truncation,
            "note": self.note,
        }


@dataclass
class SummabilityReport:
    family: str
    profile: str
    conditions: list[ConditionReport] = field(default_factory=list)

    @property
    def worst_verdict(self):
        verdicts = {c.verdict for c in self.conditions}
        if DIVERGES in verdicts:
            return DIVERGES
        if INCONCLUSIVE in verdicts:
            return INCONCLUSIVE
        return CONVERGES

    def to_json_dict(self):
        return {
            "family": self.family,
            "profile": self.profile,
            "worst_verdict": self.worst_verdict,
            "conditions": [c.to_json_dict() for c in self.conditions],
        }


def _partial_power(s, N):
    """Exact partial sum of i**(-s) over 1..N."""
    return math.fsum(float(i) ** (-s) for i in range(1, N + 1))


def _integral_tail(s, N):
    """Upper bound for sum_{i>N} i**(-s), valid for s > 1."""
    return N ** (1.0 - s) / (s - 1.0)


def _log_trend(levels, partials):
    """Least-squares slope of partial sums against log(level)."""
    x = np.log(np.asarray(levels, dtype=float))
    y = np.asarray(partials, dtype=float)
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


# -- A1 --------------------------------------------------------------------


def _audit_a1_power(lam, levels):
    partials = [2.0 * _partial_power(lam - 1.0, N) * _partial_power(lam, N) for N in levels]
    trunc = {"levels": list(levels), "partials": partials}
    if lam <= 2.0:
        note = (
            "factor sum i**(%.3g) has exponent <= 1: harmonic-type divergence"
            % (1.0 - lam)
        )
        return ConditionReport("A1", DIVERGES, partials[-1], None, trunc, note)
    z = power_series_enclosure(lam - 1.0) * power_series_enclosure(lam)
    return ConditionReport(
        "A1", CONVERGES, 2.0 * z.lo, 2.0 * z.hi, trunc,
        "factorizes into two power series; each enclosed by a partial sum "
        "plus an Euler-Maclaurin remainder bracket",
    )


def _audit_a1_table(ks, levels):
    n = ks.n
    a = ks.a_matrix()
    i1 = np.arange(1, n + 1, dtype=float)
    w = i1[:, None] + i1[None, :]
    total = math.fsum((w * a).ravel())
    trunc = {"levels": [n], "partials": [total]}
    pad = 4.0 * np.finfo(float).eps * max(total, 1.0)
    return ConditionReport(
        "A1", CONVERGES, total, total + pad, trunc,
        "finite kernel table: the sum has finitely many terms",
    )


# -- A4 term 2 -------------------------------------------------------------


def _audit_term2_power(lam, alpha, levels):
    s = 0.5 * (lam + 1.0 - alpha)
    partials = [_partial_power(s, N) ** 2 for N in levels]
    trunc = {"levels": list(levels), "partials": partials}
    if s <= 1.0:
        note = "factor exponent -(lam+1-alpha)/2 = %.4g >= -1: diverges" % (-s)
        return ConditionReport("A4_term2", DIVERGES, partials[-1], None, trunc, note)
    z = power_series_enclosure(s)
    z2 = z * z
    return ConditionReport(
        "A4_term2", CONVERGES, z2.lo, z2.hi, trunc,
        "equals (sum i**(-(lam+1-alpha)/2))**2",
    )


def _audit_term2_table(ks, levels):
    n = ks.n
    a = ks.a_matrix()
    i1 = np.arange(1, n + 1, dtype=float)
    w = np.sqrt(i1 * ks.d)  # sqrt(i d_i)
    terms = np.sqrt(a) / (w[:, None] * w[None, :])
    total = math.fsum(terms.ravel())
    pad = 4.0 * np.finfo(float).eps * max(total, 1.0)
    return ConditionReport(
        "A4_term2", CONVERGES, total, total + pad,
        {"levels": [n], "partials": [total]},
        "finite kernel table",
    )


# -- A4 term 1 -------------------------------------------------------------


def _cum_power(alpha, smax):
    """P[s] = sum_{i<=s} i**(alpha/2) for s = 0..smax (P[0] = 0)."""
    i = np.arange(0, smax + 1, dtype=float)
    p = i ** (0.5 * alpha)
    p[0] = 0.0
    return np.cumsum(p)


def _term1_partials_uniform(lam, alpha, levels):
    """Exact partial sums over j,k <= N at each truncation level ``N``, for
    the size-symmetric breakage family.

    With b^i_{jk} = 2/(j+k-1) the inner i-sum collapses onto the cumulative
    power sums P, leaving a dense (N, N) evaluation, built once in place
    at the largest level from Hankel views of ``P[j+k-1]`` and
    ``sqrt(j+k-1)``.  An entry does not depend on the level (``np.cumsum``
    is sequential), so level ``N`` sums the leading ``N x N`` block, with
    ``fsum``'s bits (:func:`grid._fsum_rows`).
    """
    N = max(levels)
    P = _cum_power(alpha, 2 * N - 1)
    jv = np.arange(1, N + 1, dtype=float)
    jcol = jv ** (0.5 * (alpha - lam - 1.0))
    krow = jv ** (-0.5 * (lam + 1.0))
    hankel = np.lib.stride_tricks.sliding_window_view  # [j, k] = x[j + k]
    terms = np.multiply(math.sqrt(2.0) * jcol[:, None], krow[None, :])
    terms *= hankel(P[1:], N)
    terms /= hankel(np.sqrt(np.arange(1.0, 2 * N)), N)
    return [float(gridmod._fsum_rows(terms[:level, :level].reshape(1, -1))[0])
            for level in levels]


def _term1_partials_cr(lam, alpha, levels):
    """Exact partial sums at each square truncation level, for the
    shatter-both-colliders breakage family.

    b^i_{jk} is piecewise constant in i (two plateaus plus the monomer
    pass-through spike), so the inner sum reduces to at most three
    cumulative-power segment differences per pair.  Each row ``j`` of
    terms is built once, at the largest level, in blocks of
    ``_CR_ROW_BLOCK`` rows so that memory stays ``O(N)``; a term does not
    depend on the level (``np.cumsum`` is sequential), so level ``N`` sums
    the first ``N`` terms of each of the first ``N`` rows, then the row
    totals.
    """
    N = max(levels)
    P = _cum_power(alpha, 2 * N - 1)
    totals = [[] for _ in levels]
    kv = np.arange(1, N + 1)
    kf = kv.astype(float)
    base = kf ** (-0.5 * (lam + 1.0))
    c = np.where(kv > 1, 2.0 / np.maximum(kf - 1.0, 1.0), 0.0)  # plateau 2/(k-1)
    # a monomer collider: one plateau, plus the pass-through monomer at i = 1
    edge = np.sqrt(c + 1.0) + np.sqrt(c) * (P[kv - 1] - P[1])
    for first in range(1, N + 1, _CR_ROW_BLOCK):
        js = range(first, min(first + _CR_ROW_BLOCK, N + 1))
        j = np.array(js)[:, None]
        # scalar pow per row: numpy's vectorized pow need not round like libm's
        jcol = np.array([float(jj) ** (-0.5 * lam) * float(jj) ** (0.5 * (alpha - 1.0))
                         for jj in js])
        cj = c[j - 1]
        m1 = np.minimum(j, kv)
        m2 = np.maximum(j, kv)
        chigh = np.where(kv > j, c, cj)
        inner = np.sqrt(cj + c) * P[m1 - 1] + np.sqrt(chigh) * (P[m2 - 1] - P[m1 - 1])
        inner[:, 0] = edge[j[:, 0] - 1]
        if first == 1:
            inner[0] = edge
            inner[0, 0] = math.sqrt(2.0)  # both monomers re-emitted
        # fsum reads each row prefix straight from the float buffer
        rows = (jcol[:, None] * base * inner).reshape(-1).data
        for r, jj in enumerate(js):
            for total, level in zip(totals, levels):
                if jj <= level:
                    total.append(math.fsum(rows[r * N:r * N + level]))
    return [math.fsum(total) for total in totals]


def _audit_term1_power(ks, levels):
    lam, alpha = ks.lam, ks.alpha
    uniform = ks.family == "power_law_uniform"
    if uniform:
        partials = _term1_partials_uniform(lam, alpha, levels)
    else:
        partials = _term1_partials_cr(lam, alpha, levels)
    trunc = {"levels": list(levels), "partials": partials}
    Nmax = max(levels)

    if uniform:
        # majorant sqrt(2) j**(-(lam-2*alpha)/2) k**(-(lam-alpha)/2)
        u = 0.5 * (lam - 2.0 * alpha)
        v = 0.5 * (lam - alpha)
        cmaj = math.sqrt(2.0)
        how = "plateau-breakage majorant"
    else:
        # bounded-count majorant sqrt(3) j**(-(lam-2*alpha-1)/2) k**(-(lam-alpha-1)/2)
        u = 0.5 * (lam - 2.0 * alpha - 1.0)
        v = 0.5 * (lam - alpha - 1.0)
        cmaj = math.sqrt(3.0)
        how = "bounded-count majorant"

    if u > 1.0 and v > 1.0:
        zu = power_series_enclosure(u)
        zv = power_series_enclosure(v)
        tail = cmaj * (_integral_tail(u, Nmax) * zv.hi + zu.hi * _integral_tail(v, Nmax))
        return ConditionReport(
            "A4_term1", CONVERGES, partials[-1], partials[-1] + tail, trunc,
            f"{how}: certified tail bound over max(j,k) > {Nmax}",
        )

    if uniform and lam <= alpha + 2.0:
        note = (
            "minorant k**((1+alpha)/2) (jk)**(-(lam+1)/2) j**(alpha/2) has a "
            "non-summable factor: diverges"
        )
        return ConditionReport("A4_term1", DIVERGES, partials[-1], None, trunc, note)

    slope = _log_trend(levels, partials)
    note = (
        "no convergent majorant at these parameters; partial sums grow "
        f"~ {slope:.3g} * log(level) (consistent with logarithmic divergence, "
        "not certified either way)"
    )
    return ConditionReport("A4_term1", INCONCLUSIVE, partials[-1], None, trunc, note)


def _audit_term1_table(ks, levels):
    """The finite term-1 sum of a kernel table, one exactly rounded ``fsum``.

    The terms are built one row ``j`` at a time, as a ``(k, i)`` block, so
    memory stays ``O(n^2)``; ``fsum`` reads each block's kept terms from
    its float buffer as the sum goes.
    """
    n = ks.n
    k, i = np.ogrid[1:n + 1, 1:n + 1]
    a = ks.a_matrix()
    sqrt_d = np.sqrt(ks.d)

    def row_terms(j):
        b = ks._b_fn(j, k, i)
        a_j = a[j - 1][:, None]
        terms = np.sqrt(b * a_j) / (np.sqrt(k * j) * sqrt_d[i - 1] * sqrt_d[j - 1])
        return terms[(i < j + k) & (a_j != 0.0) & (b != 0.0)].data

    total = math.fsum(chain.from_iterable(map(row_terms, range(1, n + 1))))
    pad = 4.0 * np.finfo(float).eps * max(total, 1.0)
    return ConditionReport(
        "A4_term1", CONVERGES, total, total + pad,
        {"levels": [n], "partials": [total]},
        "finite kernel table; fragment index truncated at the table size",
    )


def audit_summability(ks, profile="stronger", truncation_levels=DEFAULT_LEVELS):
    """Audit the three kernel series and return certified verdicts.

    ``truncation_levels`` are the square truncations at which partial sums
    are recorded (monotone in the level since every term is nonnegative).
    """
    levels = tuple(int(N) for N in truncation_levels)
    if not levels or any(N < 2 for N in levels) or list(levels) != sorted(levels):
        raise DomainError("truncation levels must be an increasing sequence of ints >= 2")
    report = SummabilityReport(family=ks.family, profile=profile)
    if ks.family == "table":
        report.conditions.append(_audit_a1_table(ks, levels))
        report.conditions.append(_audit_term1_table(ks, levels))
        report.conditions.append(_audit_term2_table(ks, levels))
    else:
        report.conditions.append(_audit_a1_power(ks.lam, levels))
        report.conditions.append(_audit_term1_power(ks, levels))
        report.conditions.append(_audit_term2_power(ks.lam, ks.alpha, levels))
    return report


# -- initial data ----------------------------------------------------------


@dataclass
class AdmissibilityReport:
    weighted_sum: float
    partial: float
    tail_estimate: float
    judgment: str  # "finite" | "infinite" | "unclear"
    decay_model: str  # "geometric" | "power" | "zero" | "none"
    mass_l2: float
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self):
        return {
            "weighted_sum": self.weighted_sum,
            "partial": self.partial,
            "tail_estimate": self.tail_estimate,
            "judgment": self.judgment,
            "decay_model": self.decay_model,
            "mass_l2": self.mass_l2,
            "notes": list(self.notes),
        }


def check_initial_data(grid, F, ks):
    """Admissibility of initial data: sum_i d_i^{-1/2} ||f_i||_L1^{1/2} and
    the L2 norm of the weighted density sum_i i f_i.

    The first quantity is computed as an exact partial sum over the resolved
    sizes plus a decay-fit tail estimate: the trailing terms are fit against
    both a geometric and a power-law model and the better fit decides the
    finite/infinite judgment for the underlying analytic family.

    ``F`` is the species stack on ``grid``, shape ``(ks.n, *grid.shape)``;
    it must be finite and nonnegative.
    """
    F = np.asarray(F, dtype=float)
    if F.shape != (ks.n, *grid.shape):
        raise DomainError(f"field shape {F.shape} does not match (n, *grid) = "
                          f"{(ks.n, *grid.shape)}")
    if not np.all(np.isfinite(F)):
        raise DomainError("field contains non-finite entries")
    if np.min(F) < 0:
        raise DomainError("initial data must be nonnegative")
    n = F.shape[0]

    norms = gridmod.species_integrals(grid, F)
    terms = np.sqrt(norms) / np.sqrt(ks.d)
    partial = math.fsum(terms)

    i1 = np.arange(1, n + 1, dtype=float)
    rho = np.tensordot(i1, F, axes=(0, 0))
    mass_l2 = math.sqrt(gridmod.integrate(grid, rho * rho))

    notes = []
    if not np.any(terms > 0.0):
        return AdmissibilityReport(0.0, 0.0, 0.0, "finite", "zero", mass_l2,
                                   ["all species vanish"])

    # fit the trailing positive terms
    m = max(8, n // 4)
    idx = np.nonzero(terms > 0.0)[0][-m:]
    tail_estimate = 0.0
    if idx.size < 3:
        return AdmissibilityReport(partial, partial, 0.0, "unclear", "none", mass_l2,
                                   ["too few nonzero terms to fit a decay model"])
    x = idx + 1.0
    y = np.log(terms[idx])
    cg, rg = np.polyfit(x, y, 1, full=True)[:2]
    cp, rp = np.polyfit(np.log(x), y, 1, full=True)[:2]
    res_g = float(rg[0]) if rg.size else 0.0
    res_p = float(rp[0]) if rp.size else 0.0

    if res_g <= res_p:
        model = "geometric"
        ratio = math.exp(cg[0])
        if ratio < 1.0 - 1e-9:
            tail_estimate = terms[idx[-1]] * ratio / (1.0 - ratio)
            judgment = "finite"
            notes.append(f"geometric decay fit, ratio {ratio:.6g}")
        else:
            judgment = "infinite" if ratio > 1.0 + 1e-9 else "unclear"
            notes.append(f"geometric fit ratio {ratio:.6g} not below one")
    else:
        model = "power"
        p = -cp[0]
        if p > 1.0 + 1e-6:
            last = float(x[-1])
            tail_estimate = terms[idx[-1]] * last / (p - 1.0)
            judgment = "finite"
            notes.append(f"power decay fit, exponent {p:.6g}")
        else:
            judgment = "infinite"
            notes.append(
                f"power decay fit, exponent {p:.6g} <= 1: weighted sum diverges"
            )

    return AdmissibilityReport(partial + tail_estimate, partial, tail_estimate,
                               judgment, model, mass_l2, notes)
