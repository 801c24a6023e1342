import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import zeta

import fragdiff as fd
from fragdiff.errors import DomainError, DivergentSeriesError, FragdiffError


def test_collision_rate_values():
    ks = fd.power_law_uniform(8, 4.0, 0.5)
    assert ks.a(1, 1) == 1.0
    assert ks.a(2, 3) == 6.0 ** -4
    # the rates are products w_i w_j, and each factor 2**-lam is exact
    assert fd.power_law_uniform(8, 2.0, 0.5, profile="stronger").a(5, 2) == 10.0 ** -2


def test_collision_rate_symmetry():
    # a set has lam > 1: its weights sum_i a_ij diverge below that
    rng = np.random.default_rng(7)
    for _ in range(50):
        i, j = rng.integers(1, 200, size=2)
        lam = float(rng.uniform(1.0, 6.0))
        ks = fd.power_law_uniform(200, lam, 0.5, profile="stronger")
        assert ks.a(int(i), int(j)) == ks.a(int(j), int(i))
        assert np.array_equal(ks.a_matrix(), ks.a_matrix().T)


def test_collision_rate_rejects_bad_indices():
    ks = fd.power_law_uniform(8, 4.0, 0.5)
    with pytest.raises(DomainError):
        ks.a(0, 1)
    with pytest.raises(DomainError):
        ks.a(1, -3)
    with pytest.raises(DomainError):
        ks.a(1.5, 1)


def test_breakage_count_plateau_and_support():
    # every admissible fragment size gets the same count 2/(i+j-1)
    ks = fd.power_law_uniform(4, 4.0, 0.5)
    assert ks.b(2, 2, 1) == 2.0 / 3.0
    assert ks.b(2, 2, 3) == 2.0 / 3.0
    assert ks.b(2, 2, 4) == 0.0
    assert ks.b(1, 1, 1) == 2.0
    assert ks.b(1, 1, 2) == 0.0
    assert type(ks.b(2, 2, 1)) is float


def test_breakage_counts_reject_bad_indices():
    for make in (fd.power_law_uniform, fd.cheng_redner_uniform):
        count = make(8, 4.0, 0.0).b
        with pytest.raises(DomainError):
            count(0, 1, 1)
        with pytest.raises(DomainError):
            count(1, 1, 1.0)


def test_breakage_mass_exact_rational():
    # sum_k k * b^k equals i+j as exact rationals
    for i in range(1, 17):
        for j in range(1, 17):
            s = i + j
            total = Fraction(2, s - 1) * sum(range(1, s))
            assert total == s


def test_cheng_redner_counts():
    # each collider shatters into its own fragments; monomers pass through
    ks = fd.cheng_redner_uniform(4, 4.0, 0.5)
    assert ks.b(3, 2, 1) == 1.0 + 2.0  # 2/(3-1) + 2/(2-1)
    assert ks.b(3, 2, 2) == 1.0  # only the size-3 side reaches k=2
    assert ks.b(3, 2, 3) == 0.0
    assert ks.b(1, 1, 1) == 2.0
    assert ks.b(1, 4, 1) == 1.0 + 2.0 / 3.0


def test_cheng_redner_mass_exact():
    ks = fd.cheng_redner_uniform(32, 4.0, 0.5)
    for i in range(1, 33):
        for j in range(1, 33):
            total = Fraction(0)
            for k in range(1, i + j):
                total += Fraction(ks.b(i, j, k)).limit_denominator(10**9) * k
            assert total == i + j, (i, j)


def test_diffusion_coeff():
    assert fd.power_law_uniform(16, 4.0, 0.7).d[1 - 1] == 1.0
    assert fd.power_law_uniform(16, 4.0, 0.5).d[16 - 1] == 0.25
    assert fd.power_law_uniform(16, 4.0, 0.0).d[8 - 1] == 1.0


def test_power_series_enclosure_contains_reference_values():
    for s, ref in [(2.0, math.pi ** 2 / 6.0), (4.0, math.pi ** 4 / 90.0),
                   (2.5, float(zeta(2.5))), (3.0, float(zeta(3.0)))]:
        e = fd.power_series_enclosure(s, tol=1e-10)
        assert e.lo <= ref <= e.hi, (s, ref, e)
        assert e.hi - e.lo <= 2e-10


def test_power_series_enclosure_divergence():
    with pytest.raises(DivergentSeriesError):
        fd.power_series_enclosure(1.0)
    with pytest.raises(DivergentSeriesError):
        fd.power_series_enclosure(0.5)


ZETA_GRID = (1.001, 1.01, 1.05, 1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 2.75, 3.3, 4.0,
             5.0, 6.5, 8.0)


def _zeta40(s):
    """mpmath's zeta at the exact double ``s``, to 40 digits (test-only oracle)."""
    with mpmath.workdps(40):
        return mpmath.zeta(mpmath.mpf(s))


@pytest.mark.parametrize("s", ZETA_GRID)
def test_power_series_enclosure_contains_mpmath_zeta(s):
    e = fd.power_series_enclosure(s)
    z = _zeta40(s)
    assert mpmath.mpf(e.lo) <= z <= mpmath.mpf(e.hi), (s, e, z)
    assert e.width <= 1e-12 * float(z)


@pytest.mark.parametrize("s", (1.001, 1.5, 2.75, 8.0, 20.0))
def test_euler_maclaurin_remainder_is_bracketed_by_next_term(s):
    # the fact the enclosure rests on, in exact arithmetic: after K Bernoulli
    # terms the remainder lies between 0 and the (K+1)-th term, for every K
    with mpmath.workdps(120):
        bern = [mpmath.bernoulli(2 * k) for k in range(1, 8)]
        s_, N = mpmath.mpf(s), mpmath.mpf(32)
        approx = (mpmath.fsum(mpmath.mpf(i) ** -s_ for i in range(1, 32))
                  + N ** (1 - s_) / (s_ - 1) + N ** -s_ / 2)
        z = mpmath.zeta(s_)
        for k, b in enumerate(bern, start=1):
            term = b / mpmath.factorial(2 * k) * mpmath.rf(s_, 2 * k - 1) * N ** (-s_ - 2 * k + 1)
            assert 0 <= (z - approx) / term <= 1, (s, k)
            approx += term


def test_power_series_enclosure_tol_is_a_postcondition():
    # the width is fixed by N and K; a tolerance below it fails at once
    with pytest.raises(FragdiffError, match="above tol"):
        fd.power_series_enclosure(4.0, tol=1e-20)
    with pytest.raises(FragdiffError, match="above tol"):
        fd.power_law_uniform(8, 4.0, 0.5, reg_tol=1e-20)
    with pytest.raises(DomainError):
        fd.power_series_enclosure(float("nan"))
    with pytest.raises(DomainError):
        fd.power_series_enclosure(float("inf"))


def test_enclosure_helpers():
    e = fd.power_series_enclosure(4.0)
    assert e.lo < e.mid < e.hi
    assert e.width == e.hi - e.lo
    assert e.mid in e


def test_reg_weight_scaling():
    # c_j = j^-lam * sum_i i^-lam
    ks = fd.power_law_uniform(2, 4.0, 0.5)
    e1, e2 = (fd.Enclosure(ks.c_lo[j - 1], ks.c_hi[j - 1]) for j in (1, 2))
    assert math.pi ** 4 / 90.0 in e1
    assert e2.lo == pytest.approx(e1.lo / 16.0, rel=1e-14)


@pytest.mark.parametrize("lam", (1.05, 1.5, 2.0, 3.7, 4.0, 5.0, 7.5))
def test_reg_weights_contain_mpmath_values(lam):
    ks = fd.power_law_uniform(1000, lam, 0.5, profile="stronger")
    z = _zeta40(lam)
    with mpmath.workdps(40):
        for j in (1, 2, 3, 7, 64, 1000):
            exact = mpmath.mpf(j) ** -mpmath.mpf(lam) * z
            lo, hi = ks.c_lo[j - 1], ks.c_hi[j - 1]
            assert mpmath.mpf(lo) <= exact <= mpmath.mpf(hi), (lam, j, lo, hi)


def test_power_law_factory_fields():
    ks = fd.power_law_uniform(16, 4.0, 0.5)
    assert ks.n == 16
    assert ks.family == "power_law_uniform"
    assert ks.d[0] == 1.0
    assert ks.d[3] == 0.5
    assert ks.a(2, 3) == 6.0 ** -4
    assert ks.b(2, 3, 4) == 0.5
    np.testing.assert_allclose(ks.a_matrix(), ks.a_matrix().T)
    assert np.all(ks.c_lo <= ks.c_hi)
    assert float(zeta(4.0)) in fd.power_series_enclosure(4.0)


def test_power_law_warns_outside_family():
    with pytest.warns(UserWarning):
        fd.power_law_uniform(8, 2.0, 0.5)
    with pytest.warns(UserWarning):
        fd.power_law_uniform(8, 4.0, 1.5)
    # stronger profile takes any positive parameters silently
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fd.power_law_uniform(8, 2.0, 0.5, profile="stronger")


def test_neutral_pairs():
    # a neutral pair collides at a nonzero rate but its loss entry is zeroed
    ks = fd.power_law_uniform(8, 4.0, 0.0)
    M = ks.loss_matrix()
    assert np.all(ks.a_matrix()[:2, :2] > 0.0)
    assert M[0, 0] == 0.0
    assert M[0, 1] == 0.0
    assert M[1, 0] == 0.0
    assert M[1, 1] != 0.0
    cr = fd.cheng_redner_uniform(8, 4.0, 0.0)
    M = cr.loss_matrix()
    assert M[0, 0] == 0.0
    assert M[0, 1] != 0.0  # the size-2 side shatters into monomers
    assert M[1, 1] != 0.0


def test_gain_tensor_mask_and_neutral_zeroing():
    ks = fd.power_law_uniform(6, 4.0, 0.0)
    B = ks.gain_tensor()
    assert B.shape == (6, 6, 6)
    # pairs with total size beyond n never fire
    assert np.all(B[:, 5, 5] == 0.0)
    assert np.all(B[:, 3, 4] == 0.0)
    # neutral pairs are zeroed by construction
    assert np.all(B[:, 0, 0] == 0.0)
    assert np.all(B[:, 0, 1] == 0.0)
    # an active pair carries b * a
    assert B[0, 1, 2] == pytest.approx(ks.b(2, 3, 1) * ks.a(2, 3), rel=1e-15)
    M = ks.loss_matrix()
    assert M[0, 0] == 0.0 and M[1, 1] != 0.0
    assert M[5, 5] == 0.0


def test_validate_power_law():
    rep = fd.validate_kernel_set(fd.power_law_uniform(24, 4.0, 0.5))
    assert rep.ok, rep.failures
    assert rep.max_mass_residual <= 1e-12


def test_validate_cheng_redner():
    rep = fd.validate_kernel_set(fd.cheng_redner_uniform(24, 4.0, 1.0))
    assert rep.ok, rep.failures


def _write_tables(tmp_path, n=4, break_row=None, extra=()):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    d = tmp_path / "d.csv"
    with open(a, "w") as fh:
        fh.write("i,j,a\n")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                fh.write(f"{i},{j},{1.0 / (i * j)}\n")
    with open(b, "w") as fh:
        fh.write("i,j,k,b\n")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, i + j):
                    val = 2.0 / (i + j - 1)
                    if break_row == (i, j, k):
                        val *= 1.5
                    fh.write(f"{i},{j},{k},{val}\n")
        for i, j, k, val in extra:
            fh.write(f"{i},{j},{k},{val}\n")
    with open(d, "w") as fh:
        fh.write("i,d\n")
        for i in range(1, n + 1):
            fh.write(f"{i},{1.0 / i}\n")
    return a, b, d


def test_table_family_round_trip(tmp_path):
    a, b, d = _write_tables(tmp_path)
    ks = fd.from_tables(a, b, d)
    assert ks.family == "table"
    assert ks.n == 4
    assert ks.a(2, 3) == pytest.approx(1.0 / 6.0)
    assert ks.b(2, 2, 3) == pytest.approx(2.0 / 3.0)
    assert ks.d[3] == 0.25
    rep = fd.validate_kernel_set(ks)
    assert rep.ok, rep.failures


def test_table_family_detects_broken_mass(tmp_path):
    a, b, d = _write_tables(tmp_path, break_row=(2, 2, 3))
    ks = fd.from_tables(a, b, d)
    rep = fd.validate_kernel_set(ks)
    assert not rep.ok
    assert any("mass" in f.lower() or "symmet" in f.lower() for f in rep.failures)


def test_table_missing_d_row(tmp_path):
    a, b, d = _write_tables(tmp_path)
    with open(d, "w") as fh:
        fh.write("i,d\n1,1.0\n3,0.5\n")
    with pytest.raises(DomainError):
        fd.from_tables(a, b, d)


def _tables_by_pair(ks):
    """Per-pair reference loops for ``gain_tensor`` and ``loss_matrix``."""
    n = ks.n
    a = ks.a_matrix()
    B = np.zeros((n, n, n))
    M = np.zeros((n, n))
    for p in range(1, n + 1):
        for q in range(1, n + 1 - p):
            col = [ks.b(p, q, k) for k in range(1, p + q)]
            if col == [float(k == p) + float(k == q) for k in range(1, p + q)]:
                continue  # neutral pair
            M[p - 1, q - 1] = a[p - 1, q - 1]
            for k in range(1, p + q):
                B[k - 1, p - 1, q - 1] = col[k - 1] * a[p - 1, q - 1]
    return B, M


@pytest.mark.parametrize("family", ["uniform", "cheng_redner", "table", "table_neutral",
                                    "table_beyond_support"])
def test_tables_match_per_pair_loops(tmp_path, family):
    if family in ("uniform", "cheng_redner"):
        # the per-pair reference checks each built-in family's declared neutral set
        make = fd.power_law_uniform if family == "uniform" else fd.cheng_redner_uniform
        kernel_sets = [make(n, 4.0, 0.5) for n in (1, 2, 3, 4, 13, 40)]
    else:
        extra = {
            "table": [],
            # later rows override: (1, 3) re-emits {1, 3} and (2, 2) re-emits {2, 2}
            "table_neutral": [(1, 3, 1, 1.0), (1, 3, 2, 0.0), (1, 3, 3, 1.0),
                              (3, 1, 1, 1.0), (3, 1, 2, 0.0), (3, 1, 3, 1.0),
                              (2, 2, 1, 0.0), (2, 2, 2, 2.0), (2, 2, 3, 0.0)],
            "table_beyond_support": [(2, 3, 5, 0.25), (1, 4, 7, 0.5)],
        }[family]
        kernel_sets = [fd.from_tables(*_write_tables(tmp_path, n=7, extra=extra))]
    for ks in kernel_sets:
        B, M = _tables_by_pair(ks)
        if family == "table_neutral":
            assert M[0, 2] == M[2, 0] == M[1, 1] == 0.0
        np.testing.assert_array_equal(ks.loss_matrix(), M, err_msg=f"n={ks.n}")
        np.testing.assert_array_equal(ks.gain_tensor(), B, err_msg=f"n={ks.n}")


@pytest.mark.parametrize("make", [fd.power_law_uniform, fd.cheng_redner_uniform])
def test_builtin_loss_matrix_reads_no_counts(make):
    # the built-in families declare their neutral pairs; nothing is scanned
    ks = make(16, 4.0, 0.5)

    def counts(i, j, k):
        raise AssertionError("loss_matrix read the breakage counts")

    ks._b_fn = counts
    np.testing.assert_array_equal(ks.loss_matrix(), _tables_by_pair(make(16, 4.0, 0.5))[1])


@pytest.mark.parametrize("family", ["uniform", "cheng_redner", "table"])
def test_collision_rate_accessor_reads_the_matrix(tmp_path, family):
    if family == "table":
        ks = fd.from_tables(*_write_tables(tmp_path, n=5))
    else:
        make = fd.power_law_uniform if family == "uniform" else fd.cheng_redner_uniform
        ks = make(5, 4.0, 0.5)
    for i in range(1, 6):
        for j in range(1, 6):
            assert ks.a(i, j) == ks.a_matrix()[i - 1, j - 1]
            assert type(ks.a(i, j)) is float
    for i, j in ((6, 1), (1, 6), (9, 9)):
        with pytest.raises(DomainError, match="exceeds truncation size"):
            ks.a(i, j)
    with pytest.raises(DomainError):
        ks.a(0, 1)


@pytest.mark.parametrize("where", ["a", "b"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_table_rejects_non_finite_entries(tmp_path, where, value):
    a, b, d = _write_tables(tmp_path)
    with open(a if where == "a" else b, "a") as fh:
        fh.write(f"2,3,{value}\n" if where == "a" else f"2,3,1,{value}\n")
    with pytest.raises(DomainError, match="must be finite and nonnegative"):
        fd.from_tables(a, b, d)


def test_table_with_non_finite_entry_exits_2(tmp_path, capsys):
    from fragdiff import cli

    a, b, d = _write_tables(tmp_path)
    with open(b, "a") as fh:
        fh.write("2,2,1,nan\n")
    doc = {"kernel": {"family": "table", "n": 4, "a_table": str(a), "b_table": str(b),
                      "d_table": str(d)}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert cli.main(["audit", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_table_without_every_d_row_simulates_nothing(tmp_path, capsys):
    # the kernel set is built before any artifact is written, so a rejected
    # table leaves no config.json behind
    from fragdiff import cli

    a, b, d = _write_tables(tmp_path)
    d.write_text("i,d\n1,1.0\n2,0.5\n4,0.25\n")
    doc = {"kernel": {"family": "table", "n": 4, "a_table": str(a), "b_table": str(b),
                      "d_table": str(d)}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "need one d_i row" in capsys.readouterr().err
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("where, line", [("b", "2,2,1,abc\n"), ("a", "2,3,nan\n"),
                                         ("a", "0,2,7.0\n"), ("d", "5,0.2,1\n")],
                         ids=["abc_in_b", "nan_in_a", "size_0_in_a", "three_columns_in_d"])
def test_table_content_error_names_only_its_key(tmp_path, capsys, where, line):
    from fragdiff import cli

    paths = dict(zip("abd", _write_tables(tmp_path)))
    with open(paths[where], "a") as fh:
        fh.write(line)
    doc = {"kernel": {"family": "table", "n": 4,
                      **{f"{k}_table": str(p) for k, p in paths.items()}}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: kernel.{where}_table ({paths[where]}): "), err
    assert [k for k in "abd" if f"kernel.{k}_table" in err] == [where], err
    assert "Traceback" not in err
    assert not out.exists()


def test_table_support_violation_names_first_k(tmp_path):
    extra = [(2, 3, 5, 0.25), (1, 1, 3, 0.5), (1, 1, 4, 0.5)]
    a, b, d = _write_tables(tmp_path, extra=extra)
    rep = fd.validate_kernel_set(fd.from_tables(a, b, d))
    assert not rep.ok
    assert rep.failures == ["b^3_{1,1} nonzero beyond support",
                            "b^5_{2,3} nonzero beyond support"]
    assert rep.pairs_checked == 10
    assert rep.max_mass_residual == 0.0


def test_table_validation_stops_after_20_failures(tmp_path):
    n = 8
    extra = [(i, j, i + j, 0.5) for i in range(1, n + 1) for j in range(i, n + 1)]
    a, b, d = _write_tables(tmp_path, n=n, extra=extra)
    rep = fd.validate_kernel_set(fd.from_tables(a, b, d))
    assert not rep.ok
    assert rep.pairs_checked == 21  # (1,1)..(1,8), (2,2)..(2,8), (3,3)..(3,8)
    assert len(rep.failures) == 22
    assert rep.failures[20] == "b^11_{3,8} nonzero beyond support"
    assert rep.failures[-1] == "... further failures suppressed"


# -- the validator against its per-pair reference ----------------------------


def _with_counts(ks, fault):
    """``ks`` with ``fault(i, j, k, counts)`` as its breakage counts."""
    base = ks._b_fn
    ks._b_fn = lambda i, j, k: fault(np.asarray(i), np.asarray(j), np.asarray(k), base(i, j, k))
    return ks


FAULTS = {
    # b^1_{2,5} > b^1_{5,2}: asymmetric, and off in mass at (2, 5)
    "asymmetric": lambda i, j, k, b: b + np.where((i == 2) & (j == 5) & (k == 1), 1e-3, 0.0),
    "negative": lambda i, j, k, b: np.where((i + j == 7) & (k == 2), -b, b),
    "beyond_support": lambda i, j, k, b: b + np.where((k == i + j + i % 3) & (j % 5 == 0),
                                                      0.5, 0.0),
    "mass_off": lambda i, j, k, b: b * np.where(i * j % 4 == 3, 1.0 + 3e-12, 1.0),
    # NaN != NaN reads as asymmetric; a NaN mass residual is never above tolerance
    "nan": lambda i, j, k, b: np.where((i + j == 7) & (k == 3), np.nan, b),
    # every pair fails twice, so the report stops mid-row
    "everything_negative": lambda i, j, k, b: -b,
}


def _validator_cases():
    pl, cr = fd.power_law_uniform, fd.cheng_redner_uniform
    for n in (1, 2, 3, 5, 17, 64, 128, 256):
        yield f"uniform-n{n}", lambda n=n: pl(n, 4.0, 0.5), {}
        yield f"cr-n{n}", lambda n=n: cr(n, 5.0, 0.5), {}
    yield "uniform-imax-beyond-n", lambda: pl(5, 4.0, 0.5), {"i_max": 11}
    yield "cr-imax-beyond-n", lambda: cr(5, 4.0, 0.5), {"i_max": 11}
    yield "uniform-exact-limit-10", lambda: pl(17, 4.0, 0.5), {"exact_limit": 10}
    yield "cr-exact-limit-10", lambda: cr(17, 4.0, 0.5), {"exact_limit": 10}
    yield "uniform-rel-tol-0", lambda: pl(40, 4.0, 0.5), {"rel_tol": 0.0}
    yield "cr-rel-tol-0", lambda: cr(40, 4.0, 0.5), {"rel_tol": 0.0}
    for name, fault in FAULTS.items():
        yield f"uniform-{name}", lambda f=fault: _with_counts(pl(12, 4.0, 0.5), f), {}
        yield f"cr-{name}", lambda f=fault: _with_counts(cr(12, 4.0, 0.5), f), {}


TABLE_CASES = {
    "plain": {},
    "broken_mass": {"break_row": (2, 2, 3)},
    "beyond_support": {"extra": [(2, 3, 5, 0.25), (1, 1, 3, 0.5), (1, 1, 4, 0.5)]},
    "asymmetric_beyond": {"n": 7, "extra": [(2, 3, 5, 0.25), (1, 4, 7, 0.5), (3, 1, 2, 0.1)]},
    "over_20_failures": {"n": 8, "extra": [(i, j, i + j, 0.5) for i in range(1, 9)
                                           for j in range(i, 9)]},
}


@pytest.mark.parametrize("name,make,kwargs", list(_validator_cases()),
                         ids=[c[0] for c in _validator_cases()])
def test_validator_matches_per_pair_reference(name, make, kwargs):
    from oracles import validate_kernel_set_by_pair

    rep = fd.validate_kernel_set(make(), **kwargs)
    assert repr(rep) == repr(validate_kernel_set_by_pair(make(), **kwargs))
    if "everything" in name:
        assert rep.failures[-1] == "... further failures suppressed"


@pytest.mark.parametrize("name", TABLE_CASES)
def test_table_validator_matches_per_pair_reference(tmp_path, name):
    from oracles import validate_kernel_set_by_pair

    ks = fd.from_tables(*_write_tables(tmp_path, **TABLE_CASES[name]))
    for kwargs in ({}, {"i_max": ks.n + 2, "rel_tol": 0.0}):
        rep = fd.validate_kernel_set(ks, **kwargs)
        assert repr(rep) == repr(validate_kernel_set_by_pair(ks, **kwargs))


def test_validator_without_closed_form_raises_like_reference():
    from oracles import validate_kernel_set_by_pair

    for check in (fd.validate_kernel_set, validate_kernel_set_by_pair):
        ks = fd.power_law_uniform(6, 4.0, 0.5)
        ks.family = "unnamed"  # a family with no rational form
        with pytest.raises(FragdiffError, match="no exact rational form"):
            check(ks)
        assert check(ks, exact_limit=1).exact_pairs_checked == 0


def test_validator_memory_stays_quadratic():
    # an n**3 float tensor at n=128 would take 16.8 MB; a row block takes 0.26 MB
    import tracemalloc

    ks = fd.cheng_redner_uniform(128, 5.0, 0.5)
    tracemalloc.start()
    try:
        rep = fd.validate_kernel_set(ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.pairs_checked == 8256
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("make", [fd.power_law_uniform, fd.cheng_redner_uniform])
def test_validator_memory_stays_quadratic_at_n256(make):
    # an n**3 float tensor at n=256 would take 134 MB; the per-size counts,
    # the pair totals and the Cheng-Redner suffix sums take about 4 MB
    import tracemalloc

    ks = make(256, 5.0, 0.5)
    tracemalloc.start()
    try:
        rep = fd.validate_kernel_set(ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.pairs_checked == 32896
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("make", [fd.power_law_uniform, fd.cheng_redner_uniform])
def test_builtin_counts_never_enter_the_row_path(monkeypatch, make):
    from fragdiff import kernels

    def by_row(*args):
        raise AssertionError("checked pair by pair")

    monkeypatch.setattr(kernels, "_pair_checks_by_row", by_row)
    for kwargs in ({}, {"i_max": 11}, {"exact_limit": 10}, {"exact_limit": 1000}):
        assert fd.validate_kernel_set(make(40, 4.0, 0.5), **kwargs).ok
    # the same counts behind a wrapper are checked pair by pair
    with pytest.raises(AssertionError, match="pair by pair"):
        fd.validate_kernel_set(_with_counts(make(40, 4.0, 0.5), lambda i, j, k, b: b))


@pytest.mark.parametrize("family", ["uniform", "cheng_redner"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 33, 64])
def test_per_size_mass_totals_are_per_pair_fsums(family, n):
    # every pair's total, not only the worst residual the report shows,
    # has the bits of a per-pair fsum over k b^k_ij, k < i + j
    from fragdiff import kernels

    if family == "uniform":
        ks, totals = fd.power_law_uniform(n, 4.0, 0.5), kernels._uniform_mass_totals
    else:
        ks, totals = fd.cheng_redner_uniform(n, 4.0, 0.5), kernels._cheng_redner_mass_totals
    got = totals(ks, n)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            k = np.arange(1, i + j)
            want = math.fsum(k * ks._b_fn(i, j, k))
            assert got[i - 1, j - 1].hex() == want.hex(), (i, j)


def test_cheng_redner_weights_are_checked_against_the_counts():
    ks = fd.cheng_redner_uniform(12, 4.0, 0.5)
    assert fd.validate_kernel_set(ks).ok
    up = math.nextafter(2.0 / 6.0, 1.0)
    ks.cheng_redner_weights()[5, 0] = up  # p = 7
    rep = fd.validate_kernel_set(ks)
    assert not rep.ok
    assert rep.failures == [
        f"cheng_redner_weights() at p=7 is {up!r}, "
        f"not b^1_{{7,7}}/2 = {2.0 / 6.0!r} (1 of 11 sizes differ)"]
    # the pair checks are those of the unperturbed set
    assert rep.pairs_checked == 78 and rep.max_mass_residual <= 1e-15
    ks._cr_weights = 2.0 / np.arange(2.0, 13.0)[:, None]  # 2/p in place of 2/(p-1)
    assert fd.validate_kernel_set(ks).failures[0].endswith("(11 of 11 sizes differ)")
