import math

import mpmath
import numpy as np
import pytest
from scipy.special import zeta

import fragdiff as fd
from fragdiff.errors import DomainError
from fragdiff.summability import (
    CONVERGES,
    DIVERGES,
    INCONCLUSIVE,
    _cum_power,
    _term1_partials_cr,
    _term1_partials_uniform,
    audit_summability,
    check_initial_data,
)


def _by_name(report, name):
    (c,) = [c for c in report.conditions if c.condition == name]
    return c


class TestSeriesVerdicts:
    def test_a1_encloses_zeta_product(self):
        # sum_{i,j} i * (ij)^-4 = zeta(3) * zeta(4), doubled by the symmetric weight
        rep = audit_summability(fd.power_law_uniform(8, 4.0, 0.5))
        c = _by_name(rep, "A1")
        assert c.verdict == CONVERGES
        ref = 2.0 * float(zeta(3.0)) * float(zeta(4.0))
        assert c.lower <= ref <= c.upper
        assert c.upper - c.lower < 1e-4

    def test_term2_encloses_zeta_square(self):
        rep = audit_summability(fd.power_law_uniform(8, 4.0, 0.0))
        c = _by_name(rep, "A4_term2")
        assert c.verdict == CONVERGES
        ref = float(zeta(2.5)) ** 2
        assert c.lower <= ref <= c.upper

    @pytest.mark.parametrize("lam", (2.05, 2.5, 3.0, 4.0, 5.0, 7.0))
    def test_power_enclosures_contain_mpmath_values(self, lam):
        # A1 = 2 zeta(lam-1) zeta(lam); A4 term 2 = zeta(s)^2, s = (lam+1-alpha)/2
        alpha = 0.5
        rep = audit_summability(fd.power_law_uniform(4, lam, alpha, profile="stronger"),
                                truncation_levels=(10, 20))
        a1, t2 = _by_name(rep, "A1"), _by_name(rep, "A4_term2")
        assert a1.verdict == t2.verdict == CONVERGES
        with mpmath.workdps(40):
            s = (mpmath.mpf(lam) + 1 - mpmath.mpf(alpha)) / 2
            exact_a1 = 2 * mpmath.zeta(mpmath.mpf(lam) - 1) * mpmath.zeta(mpmath.mpf(lam))
            exact_t2 = mpmath.zeta(s) ** 2
            assert mpmath.mpf(a1.lower) <= exact_a1 <= mpmath.mpf(a1.upper)
            assert mpmath.mpf(t2.lower) <= exact_t2 <= mpmath.mpf(t2.upper)
        assert a1.upper - a1.lower <= 1e-12 * a1.upper

    def test_diverges_for_slow_decay(self):
        rep = audit_summability(
            fd.power_law_uniform(8, 2.0, 1.0, profile="stronger"), profile="stronger"
        )
        assert _by_name(rep, "A1").verdict == DIVERGES
        assert _by_name(rep, "A4_term2").verdict == DIVERGES
        assert rep.worst_verdict == DIVERGES

    def test_term1_converges_small_alpha(self):
        for alpha in (0.0, 0.5):
            rep = audit_summability(fd.power_law_uniform(8, 4.0, alpha))
            c = _by_name(rep, "A4_term1")
            assert c.verdict == CONVERGES, (alpha, c.note)
            assert c.upper is not None and c.lower <= c.upper

    def test_term1_inconclusive_at_boundary(self):
        rep = audit_summability(fd.power_law_uniform(8, 4.0, 1.0))
        c = _by_name(rep, "A4_term1")
        assert c.verdict == INCONCLUSIVE
        assert c.upper is None
        assert "log(level)" in c.note  # reports the growth trend as evidence

    def test_partials_monotone(self):
        rep = audit_summability(fd.power_law_uniform(8, 4.0, 0.5))
        for c in rep.conditions:
            parts = c.truncation["partials"]
            assert parts == sorted(parts)
            assert c.truncation["levels"] == sorted(c.truncation["levels"])

    def test_custom_levels_validation(self):
        ks = fd.power_law_uniform(8, 4.0, 0.5)
        with pytest.raises(DomainError):
            audit_summability(ks, truncation_levels=(100, 50))
        with pytest.raises(DomainError):
            audit_summability(ks, truncation_levels=())
        rep = audit_summability(ks, truncation_levels=(10, 20))
        assert all(c.truncation["levels"] == [10, 20] for c in rep.conditions)


def _term1_naive(lam, alpha, N, count):
    """Triple loop straight from the definitions; deliberately unoptimized."""
    total = 0.0
    for j in range(1, N + 1):
        for k in range(1, N + 1):
            a = (j * k) ** -lam
            for i in range(1, j + k):
                b = count(j, k, i)
                if b == 0.0:
                    continue
                di = i ** -alpha
                dj = j ** -alpha
                total += math.sqrt(b * a) / math.sqrt(k * j * di * dj)
    return total


def test_term1_partial_uniform_matches_naive():
    # every level is summed from the matrix built once at the largest one
    for lam, alpha in [(4.0, 0.5), (4.0, 1.0), (5.0, 0.25)]:
        fast = _term1_partials_uniform(lam, alpha, [7, 30])
        for N, got in zip([7, 30], fast):
            slow = _term1_naive(lam, alpha, N, fd.power_law_uniform(N, lam, alpha).b)
            assert got == pytest.approx(slow, rel=1e-13), (lam, alpha, N)


def test_term1_partials_uniform_are_fsums_of_the_terms():
    # each level's partial sum has the bits of fsum over the same terms,
    # formed one by one as Python floats from the same powers
    levels = [7, 30, 33]
    for lam, alpha in [(4.0, 0.5), (4.0, 0.95), (6.0, 0.25)]:
        N = max(levels)
        P = _cum_power(alpha, 2 * N - 1)
        jv = np.arange(1, N + 1, dtype=float)
        jcol = jv ** (0.5 * (alpha - lam - 1.0))
        krow = jv ** (-0.5 * (lam + 1.0))
        got = _term1_partials_uniform(lam, alpha, levels)
        for level, partial in zip(levels, got):
            terms = [math.sqrt(2.0) * float(jcol[j - 1]) * float(krow[k - 1])
                     * float(P[j + k - 1]) / math.sqrt(j + k - 1)
                     for j in range(1, level + 1) for k in range(1, level + 1)]
            assert type(partial) is float
            assert partial.hex() == math.fsum(terms).hex(), (lam, alpha, level)


def test_uniform_audit_holds_no_term_list():
    # the 400x400 term table takes 1.3 MB as floats; as a list of Python
    # floats it took about 7.7 MB
    import tracemalloc

    ks = fd.power_law_uniform(128, 4.0, 0.5)
    audit_summability(ks)
    tracemalloc.start()
    try:
        audit_summability(ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def test_term1_partial_cr_matches_naive():
    # every level is summed from the terms built once at the largest one;
    # a level above 32 spans two blocks of rows
    for lam, alpha, levels in [(4.0, 0.0, [7, 30]), (4.0, 0.5, [7, 30, 33]),
                               (5.0, 1.0, [7, 30])]:
        fast = _term1_partials_cr(lam, alpha, levels)
        for N, got in zip(levels, fast):
            slow = _term1_naive(lam, alpha, N, fd.cheng_redner_uniform(N, lam, alpha).b)
            assert got == pytest.approx(slow, rel=1e-13), (lam, alpha, N)


def test_cr_term1_certifies_alpha_zero():
    rep = audit_summability(fd.cheng_redner_uniform(8, 4.0, 0.0))
    assert _by_name(rep, "A4_term1").verdict == CONVERGES
    rep = audit_summability(fd.cheng_redner_uniform(8, 4.0, 1.0))
    assert _by_name(rep, "A4_term1").verdict == INCONCLUSIVE


def _plateau_table(tmp_path, n):
    """A table of ``a_ij = (ij)**-2``, ``b^k_ij = 2/(i+j-1)`` and ``d_i = 1/i``."""
    with open(tmp_path / "a.csv", "w") as fh:
        fh.write("i,j,a\n")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                fh.write(f"{i},{j},{(i * j) ** -2.0}\n")
    with open(tmp_path / "b.csv", "w") as fh:
        fh.write("i,j,k,b\n")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, i + j):
                    fh.write(f"{i},{j},{k},{2.0 / (i + j - 1)}\n")
    with open(tmp_path / "d.csv", "w") as fh:
        fh.write("i,d\n")
        for i in range(1, n + 1):
            fh.write(f"{i},{1.0 / i}\n")
    return fd.from_tables(tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "d.csv")


def test_table_family_finite_sums(tmp_path):
    # a finite table is a finite sum: every condition must certify
    n = 6
    ks = _plateau_table(tmp_path, n)
    rep = audit_summability(ks)
    assert rep.worst_verdict == CONVERGES
    # brute force the first condition over the table
    brute_a1 = 0.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            brute_a1 += 2.0 * i * (i * j) ** -2.0
    a1 = _by_name(rep, "A1")
    assert a1.lower == pytest.approx(brute_a1, rel=1e-12)

    brute_t1 = _term1_naive_table(ks)
    t1 = _by_name(rep, "A4_term1")
    assert t1.lower == pytest.approx(brute_t1, rel=1e-12)
    assert t1.upper >= t1.lower


def test_table_audit_memory_stays_quadratic(tmp_path):
    # one n**3 float array at n=40 takes 0.5 MB; one (k, i) row block 12.8 kB
    import tracemalloc

    n = 40
    ks = _plateau_table(tmp_path, n)
    ks.a_matrix()
    tracemalloc.start()
    try:
        rep = audit_summability(ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.worst_verdict == CONVERGES
    assert peak < n**3 * 8 / 2, peak


def _term1_naive_table(ks):
    total = 0.0
    n = ks.n
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            a = ks.a(j, k)
            for i in range(1, j + k):
                b = ks.b(j, k, i)
                if b == 0.0 or a == 0.0 or i > n:
                    continue
                total += math.sqrt(b * a) / math.sqrt(k * j * ks.d[i - 1] * ks.d[j - 1])
    return total


def test_json_layout():
    rep = audit_summability(fd.power_law_uniform(8, 4.0, 0.5))
    doc = rep.to_json_dict()
    assert set(doc) == {"family", "profile", "worst_verdict", "conditions"}
    for c in doc["conditions"]:
        assert set(c) == {"condition", "lower", "upper", "verdict", "truncation", "note"}
        assert set(c["truncation"]) == {"levels", "partials"}


# -- initial-data admissibility -------------------------------------------


def _monomial_field(values, m=16):
    grid = fd.make_grid_1d(m)
    data = [np.full(m, v) for v in values]
    return grid, np.array(data)


def test_exponential_ic_admissible():
    # sum sqrt(i) e^{-i/2}: frozen by summing 10^6 terms offline
    ks = fd.power_law_uniform(32, 4.0, 1.0)
    fld = _monomial_field([math.exp(-i) for i in range(1, 33)])
    rep = check_initial_data(*fld, ks)
    assert rep.judgment == "finite"
    assert rep.decay_model == "geometric"
    est = rep.partial + rep.tail_estimate
    assert est == pytest.approx(2.312449444248655, rel=1e-4)


def test_zero_field_is_trivially_admissible():
    ks = fd.power_law_uniform(8, 4.0, 0.5)
    rep = check_initial_data(*_monomial_field([0.0] * 8), ks)
    assert rep.judgment == "finite"
    assert rep.decay_model == "zero"
    assert rep.weighted_sum == 0.0


def test_power_tail_inadmissible():
    ks = fd.power_law_uniform(48, 4.0, 1.0)
    rep = check_initial_data(*_monomial_field([i ** -2.0 for i in range(1, 49)]), ks)
    # terms i^{1/2} * i^{-1} = i^{-1/2}: a divergent power tail
    assert rep.judgment == "infinite"
    assert rep.decay_model == "power"


def test_fast_power_tail_admissible():
    ks = fd.power_law_uniform(48, 4.0, 1.0)
    rep = check_initial_data(*_monomial_field([i ** -8.0 for i in range(1, 49)]), ks)
    assert rep.judgment == "finite"


def test_negative_ic_rejected():
    ks = fd.power_law_uniform(8, 4.0, 0.5)
    with pytest.raises(DomainError):
        check_initial_data(*_monomial_field([1.0, -1e-3] + [0.0] * 6), ks)
