"""Operator tests against a straight-from-the-definition oracle.

The oracle below re-derives gain and loss with explicit loops and makes no
attempt to cancel neutral pairs analytically, so agreement with the library
also confirms that the neutral-pair exclusion is an exact identity.
"""

import math
import tracemalloc

import numpy as np
import pytest

import fragdiff as fd
from fragdiff import reaction
from fragdiff.config import (
    SimConfig,
    make_grid,
    make_initial_condition,
    make_kernel_set,
    reference_scenario_dict,
)
from fragdiff.errors import ContractViolationError, DomainError
from fragdiff.reaction import (
    _gain_loss,
    check_quasipositivity,
    q_field,
    regularization_denominator,
)


def naive_q(f, ks):
    n = ks.n
    gain = [0.0] * n
    loss = [0.0] * n
    for p in range(1, n + 1):
        for q in range(1, n + 1 - p):
            a = ks.a(p, q)
            for i in range(1, p + q):
                gain[i - 1] += 0.5 * ks.b(p, q, i) * a * f[p - 1] * f[q - 1]
            loss[p - 1] += a * f[p - 1] * f[q - 1]
    return np.array(gain) - np.array(loss)


def test_hand_worked_case():
    ks = fd.power_law_uniform(4, 4.0, 0.5)
    q = q_field([1.0, 1.0, 0.0, 0.0], ks)
    # only the (2,2) collision is active: each fragment size gets
    # (1/2)(2/3)(1/256), species 2 additionally loses a22 f2^2 = 1/256
    expect = np.array([1.0 / 768.0, -1.0 / 384.0, 1.0 / 768.0, 0.0])
    np.testing.assert_allclose(q, expect, rtol=1e-14, atol=0.0)


def test_matches_naive_oracle_uniform():
    rng = np.random.default_rng(11)
    for n in (5, 8, 12):
        for lam in (4.0, 5.5):
            ks = fd.power_law_uniform(n, lam, 0.5)
            for _ in range(6):
                f = rng.uniform(0.0, 2.0, size=n)
                # the oracle sums neutral pairs and cancels them in floating
                # point, leaving noise at the collision-term scale
                atol = 1e-14 * float(f.max()) ** 2
                np.testing.assert_allclose(
                    q_field(f, ks), naive_q(f, ks), rtol=1e-12, atol=atol
                )


def test_matches_naive_oracle_cheng_redner():
    rng = np.random.default_rng(12)
    for n in (5, 9):
        ks = fd.cheng_redner_uniform(n, 4.0, 0.25)
        for _ in range(6):
            f = rng.uniform(0.0, 2.0, size=n)
            got = q_field(f, ks)
            want = naive_q(f, ks)
            scale = np.abs(want).max() + 1e-30
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * scale)


def test_mass_null_sum():
    rng = np.random.default_rng(13)
    sizes = np.arange(1, 17, dtype=float)
    ks = fd.power_law_uniform(16, 4.0, 0.5)
    cr = fd.cheng_redner_uniform(16, 4.0, 0.5)
    for _ in range(25):
        f = rng.uniform(0.0, 3.0, size=16)
        for kernel in (ks, cr):
            q = q_field(f, kernel)
            activity = float(np.abs(q).sum()) + 1e-30
            assert abs(float(sizes @ q)) <= 1e-13 * activity


def test_small_systems_identically_zero():
    # with n <= 3 every in-range collision is neutral, so Q vanishes bitwise
    rng = np.random.default_rng(14)
    for n in (1, 2, 3):
        ks = fd.power_law_uniform(n, 4.0, 0.5)
        for _ in range(5):
            f = rng.uniform(0.0, 5.0, size=n)
            assert np.array_equal(q_field(f, ks), np.zeros(n))


def test_cheng_redner_n3_active():
    # CR treats (1,2) as active (the dimer shatters), unlike uniform breakage
    ks = fd.cheng_redner_uniform(3, 4.0, 0.0)
    q = q_field([1.0, 1.0, 0.0], ks)
    assert np.any(q != 0.0)
    assert abs(q[0] + 2.0 * q[1] + 3.0 * q[2]) <= 1e-15


def test_quasipositivity_random_states():
    rng = np.random.default_rng(15)
    ks = fd.power_law_uniform(10, 4.0, 1.0)
    for _ in range(40):
        f = rng.uniform(0.0, 2.0, size=10)
        i = int(rng.integers(1, 11))
        f[i - 1] = 0.0
        eps = float(rng.choice([0.0, 0.05]))
        q_i, gain_i = check_quasipositivity(f, ks, eps, i)
        assert q_i >= 0.0
        assert gain_i >= 0.0


def test_quasipositivity_requires_vanishing_species():
    ks = fd.power_law_uniform(6, 4.0, 0.5)
    with pytest.raises(DomainError):
        check_quasipositivity([1.0] * 6, ks, 0.0, 2)


def naive_q_regularized(f, ks, eps):
    return naive_q(f, ks) / (1.0 + eps * math.fsum(ks.c_mid * f * f))


def assert_columns_match_oracle(F, ks):
    """Every cell of a ``q_field`` evaluation matches the pointwise oracle."""
    for eps in (0.0, 0.1):
        QF = q_field(F, ks, eps)
        assert QF.shape == F.shape
        cols = F.reshape(ks.n, -1)
        for x, got in enumerate(QF.reshape(ks.n, -1).T):
            want = naive_q_regularized(cols[:, x], ks, eps)
            # the oracle cancels neutral pairs in floating point
            atol = 1e-14 * float(cols[:, x].max()) ** 2
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)


def test_field_path_matches_point_path():
    rng = np.random.default_rng(16)
    n = 12
    for ks in (fd.power_law_uniform(n, 4.0, 0.5), fd.cheng_redner_uniform(n, 4.0, 0.5)):
        for spatial in ((7,), (3, 4)):
            assert_columns_match_oracle(rng.uniform(0.0, 2.0, size=(n,) + spatial), ks)


def test_field_path_matches_point_path_table(tmp_path):
    n = 5
    with open(tmp_path / "a.csv", "w") as fh:
        fh.write("i,j,a\n")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                fh.write(f"{i},{j},{1.0 / (i + j)}\n")
    with open(tmp_path / "b.csv", "w") as fh:
        fh.write("i,j,k,b\n")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, i + j):
                    fh.write(f"{i},{j},{k},{2.0 / (i + j - 1)}\n")
    with open(tmp_path / "d.csv", "w") as fh:
        fh.write("i,d\n")
        for i in range(1, n + 1):
            fh.write(f"{i},1.0\n")
    ks = fd.from_tables(tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "d.csv")
    rng = np.random.default_rng(17)
    for spatial in ((6,), (2, 3)):
        assert_columns_match_oracle(rng.uniform(0.0, 1.0, size=(n,) + spatial), ks)


def fsum_q_uniform(f, n, lam):
    """Uniform-family operator from explicit loops, each sum exactly rounded.

    Pairs of total size <= 3 re-emit their colliders and are left out of
    gain and loss alike.
    """
    gains = [[] for _ in range(n)]
    losses = [[] for _ in range(n)]
    for p in range(1, n + 1):
        for q in range(1, n + 1 - p):
            if p + q <= 3:
                continue
            rate = float(p * q) ** (-lam) * f[p - 1] * f[q - 1]
            for k in range(1, p + q):
                gains[k - 1].append(rate / (p + q - 1))
            losses[p - 1].append(rate)
    return np.array([math.fsum(gains[i]) - math.fsum(losses[i]) for i in range(n)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 17, 32])
def test_field_uniform_loss_has_no_cancellation(n):
    # f_1 dominates every partial sum of g = w*f here; a loss formed as a
    # difference of prefix sums of g loses ~1e-13 relative accuracy.  The
    # three columns are also tiled wider than the product path's size
    # bound, so the per-j loop path meets the oracle too.  Below n = 4
    # every pair is neutral and Q must vanish exactly; at n = 4 and 5 the
    # suffix sums are one and two rows long
    ks = fd.power_law_uniform(n, 6.0, 0.5)
    F = np.stack([np.ones(n), np.full(n, 3.0), np.linspace(3.0, 0.1, n)], axis=1)
    wide = np.tile(F, (1, reaction.PAIR_PRODUCT_MAX_SIZE // (3 * n) + 1))
    assert wide.size > reaction.PAIR_PRODUCT_MAX_SIZE
    wants = [fsum_q_uniform(F[:, x], n, 6.0) for x in range(3)]
    sizes = np.arange(1, n + 1, dtype=float)
    for field in (F, wide):
        QF = q_field(field, ks)
        for x in range(field.shape[1]):
            want = wants[x % 3]
            err = float(np.max(np.abs(QF[:, x] - want)))
            assert err <= 1e-14 * float(np.max(np.abs(want))), (field.shape, x, err)
            null = abs(math.fsum(sizes * QF[:, x]))
            assert null <= 1e-12 * math.fsum(np.abs(sizes * QF[:, x])), (field.shape, x)


def _on_path(monkeypatch, path, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the uniform gain forced onto one path."""
    limit = {"product": 10**18, "loop": -1}[path]
    monkeypatch.setattr(reaction, "PAIR_PRODUCT_MAX_SIZE", limit)
    return fn(*args, **kwargs)


def _grid_shape(cells):
    """The most nearly square 2D shape with ``cells`` cells."""
    rows = max(d for d in range(1, math.isqrt(cells) + 1) if cells % d == 0)
    return rows, cells // rows


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 32, 64])
def test_uniform_gain_paths_bitwise_equal(n, monkeypatch):
    # the product path accumulates each pair sum S_j over k = 1 .. j-1 in
    # the loop's order, so gain, loss and Q agree bit for bit, on both
    # sides of the size bound and on 1D and 2D field shapes
    ks = fd.power_law_uniform(n, 4.0, 0.5)
    bound = reaction.PAIR_PRODUCT_MAX_SIZE // n
    rng = np.random.default_rng(30 + n)
    for cells in (1, bound, bound + 1):
        for spatial in ((cells,), _grid_shape(cells)):
            shape = (n,) + spatial
            F = rng.uniform(0.0, 2.0, size=shape) * (rng.random(shape) < 0.7)
            F.reshape(n, -1)[:, 0] = 0.0
            F[n // 2] = 0.0
            G2 = F.reshape(n, -1)
            prod_gain, prod_loss = _on_path(monkeypatch, "product", _gain_loss, G2, ks)
            loop_gain, loop_loss = _on_path(monkeypatch, "loop", _gain_loss, G2, ks)
            np.testing.assert_array_equal(prod_gain, loop_gain)
            np.testing.assert_array_equal(prod_loss, loop_loss)
            for eps in (0.0, 0.1):
                np.testing.assert_array_equal(
                    _on_path(monkeypatch, "product", q_field, F, ks, eps),
                    _on_path(monkeypatch, "loop", q_field, F, ks, eps),
                )


def test_uniform_gain_product_holds_no_cube():
    # the Toeplitz view of the pair sums is read in place: the product
    # path allocates a few (n, cells) arrays, never an n^2 * cells one
    n = 64
    cells = reaction.PAIR_PRODUCT_MAX_SIZE // n
    ks = fd.power_law_uniform(n, 4.0, 0.5)
    G2 = np.random.default_rng(40).uniform(0.0, 2.0, size=(n, cells))
    ks.loss_matrix()
    tracemalloc.start()
    try:
        _gain_loss(G2, ks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cube = n * n * cells * 8
    assert peak < cube // 4, (peak, cube)


def test_uniform_run_is_the_same_on_either_gain_path(monkeypatch):
    # a grid sweep changes the cell count across the size bound; the path
    # the gain takes must not show in any sampled state, its Q or the
    # terminal state
    doc = reference_scenario_dict()
    doc["stepper"]["t_end"] = 0.02
    cfg = SimConfig.from_dict(doc)
    grid, ks = make_grid(cfg.grid), make_kernel_set(cfg.kernel)
    F0 = make_initial_condition(cfg.ic, grid, cfg.kernel.n)

    def run(path):
        samples = []

        def sample(t, F, Q):
            samples.append((t, F.copy(), Q.copy()))

        traj = _on_path(monkeypatch, path, fd.run_simulation, grid, ks, F0,
                        cfg.stepper, eps=cfg.eps, cadence=3, sample=sample)
        return samples, traj.terminal

    prod_samples, prod_terminal = run("product")
    loop_samples, loop_terminal = run("loop")
    assert len(prod_samples) == len(loop_samples) > 4
    for (t_p, F_p, Q_p), (t_l, F_l, Q_l) in zip(prod_samples, loop_samples):
        assert t_p == t_l
        np.testing.assert_array_equal(F_p, F_l)
        np.testing.assert_array_equal(Q_p, Q_l)
    np.testing.assert_array_equal(prod_terminal, loop_terminal)


def dense_q_field(F, ks, eps):
    """Operator from the dense gain tensor and loss matrix, any family."""
    G = F.reshape(ks.n, -1)
    gain = 0.5 * np.einsum("ipq,pm,qm->im", ks.gain_tensor(), G, G, optimize=True)
    loss = G * (ks.loss_matrix() @ G)
    denom = 1.0 + eps * np.einsum("j,jm,jm->m", ks.c_mid, G, G)
    return ((gain - loss) / denom).reshape(F.shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 64, 128])
def test_field_cheng_redner_matches_dense_tensor(n):
    rng = np.random.default_rng(18 + n)
    ks = fd.cheng_redner_uniform(n, 4.0, 0.25)
    for spatial in ((7,), (3, 4)):
        F = rng.uniform(0.0, 2.0, size=(n,) + spatial)
        for eps in (0.0, 0.1):
            got = q_field(F, ks, eps).reshape(n, -1)
            want = dense_q_field(F, ks, eps).reshape(n, -1)
            # columns that vanish (every collision neutral) must vanish exactly
            tol = 1e-14 * np.abs(want).max(axis=0)
            assert np.all(np.abs(got - want) <= tol), (spatial, eps)


def _scaled_at_size_9(ks):
    """``ks`` with its counts scaled by ``1 + 1e-6`` where ``i + j = 9``."""
    base = ks._b_fn
    ks._b_fn = lambda i, j, k: base(i, j, k) * np.where(np.add(i, j) == 9, 1.0 + 1e-6, 1.0)
    return ks


@pytest.mark.parametrize("make", [fd.power_law_uniform, fd.cheng_redner_uniform])
def test_wrapped_counts_take_the_dense_tensor_path(make):
    # the gain follows the counts the validator checks, not the family
    # name: counts behind a wrapper, which fail validation, give the dense
    # tensor's Q bit for bit, and not the closed form's
    ks = _scaled_at_size_9(make(12, 4.0, 0.5))
    assert not fd.validate_kernel_set(ks).ok
    F = np.random.default_rng(41).uniform(0.0, 2.0, size=(12, 5, 7))
    for eps in (0.0, 0.1):
        got = q_field(F, ks, eps)
        np.testing.assert_array_equal(got, dense_q_field(F, ks, eps))
        assert not np.array_equal(got, q_field(F, make(12, 4.0, 0.5), eps))


@pytest.mark.parametrize("make", [fd.power_law_uniform, fd.cheng_redner_uniform])
def test_builtin_counts_never_build_the_gain_tensor(make, monkeypatch):
    def gain_tensor(self):
        raise AssertionError("dense gain tensor built")

    monkeypatch.setattr(fd.KernelSet, "gain_tensor", gain_tensor)
    F = np.random.default_rng(42).uniform(0.0, 2.0, size=(12, 5, 7))
    assert np.all(np.isfinite(q_field(F, make(12, 4.0, 0.5), 0.1)))


@pytest.mark.parametrize("case", ["uniform", "uniform_product", "cheng_redner", "wrapped"])
def test_q_field_into_given_stacks(case):
    # Q written into a caller's stack, with a caller's block scratch, has the
    # bits of a fresh evaluation on every gain path; what the scratch held
    # before does not show, and a stack of the wrong shape or layout, or
    # scratch that is not a long enough flat float64 array, is refused
    make = fd.cheng_redner_uniform if case == "cheng_redner" else fd.power_law_uniform
    ks = make(12, 4.0, 0.5)
    if case == "wrapped":
        ks = _scaled_at_size_9(ks)
    spatial = (4, 5) if case == "uniform_product" else (40, 30)
    assert (12 * math.prod(spatial) <= reaction.PAIR_PRODUCT_MAX_SIZE) == (
        case == "uniform_product")
    F = np.random.default_rng(43).uniform(0.0, 2.0, size=(12,) + spatial)
    for eps in (0.0, 0.1):
        want = q_field(F, ks, eps)
        # blocks of 7 cells of n + 1 = 13 values, and a remainder
        out, work = np.full(F.shape, np.nan), np.full(13 * 7 + 3, -1.0)
        assert q_field(F, ks, eps, out=out, work=work) is out
        assert out.tobytes() == want.tobytes()
    for bad in (np.empty(F.shape[:-1]), np.empty(F.shape, order="F"),
                np.empty(F.shape, dtype=np.float32)):
        for name in ("out", "work"):
            with pytest.raises(DomainError, match=f"{name} must be a writable C-contiguous"):
                q_field(F, ks, 0.0, **{name: bad})
    for bad in (np.empty(12), np.empty(26)[::2], np.empty(13, dtype=np.float32)):
        with pytest.raises(DomainError, match="work must be a writable C-contiguous"):
            q_field(F, ks, 0.0, work=bad)


@pytest.mark.parametrize("case", ["uniform_loop", "uniform_product", "cheng_redner", "wrapped"])
def test_q_field_in_blocks_has_the_bits_of_the_whole_field(case, monkeypatch):
    # the gain and the denominator, formed one block of cells at a time in
    # block scratch (here 1, 2, 7 and 64 of 143 cells, each with a
    # remainder, and every cell), give the bits of gain - loss and of the
    # denominator formed for the whole field at once, on every gain path;
    # a field of 12000 cells spans several blocks of the default scratch
    make = fd.cheng_redner_uniform if case == "cheng_redner" else fd.power_law_uniform
    n = 12
    ks = make(n, 4.0, 0.5)
    if case == "wrapped":
        ks = _scaled_at_size_9(ks)
    if case == "uniform_loop":
        monkeypatch.setattr(reaction, "PAIR_PRODUCT_MAX_SIZE", -1)
    rng = np.random.default_rng(47)
    for spatial, widths in (((13, 11), (1, 2, 7, 64, 143)), ((12000,), (None,))):
        shape = (n,) + spatial
        F = rng.uniform(0.0, 2.0, size=shape) * (rng.random(shape) < 0.8)
        G2 = F.reshape(n, -1)
        assert (G2.size <= reaction.PAIR_PRODUCT_MAX_SIZE) == (
            case != "uniform_loop" and len(spatial) == 2)
        gain, loss = _gain_loss(G2, ks)
        for eps in (0.0, 0.1):
            want = gain - loss
            if eps:
                want /= reaction._denominator(G2, ks, eps)
            for width in widths:
                if width is None:
                    assert reaction.GAIN_BLOCK_VALUES < (n + 1) * G2.shape[1] // 4
                    work = None
                else:
                    work = np.full((n + 1) * width + n, np.nan)
                out = np.full(shape, np.nan)
                assert q_field(F, ks, eps, out=out, work=work) is out
                assert out.tobytes() == want.reshape(shape).tobytes(), (spatial, eps, width)


def fsum_gain_loss_cheng_redner(f, n, lam):
    """Cheng-Redner gain and loss from explicit loops, each sum exactly rounded.

    A size-``s`` collider with ``s >= 2`` leaves ``2/(s-1)`` fragments of
    every size below ``s``; a size-1 collider passes through.  The neutral
    pair (1,1) is left out of gain and loss alike.
    """
    gains = [[] for _ in range(n)]
    losses = [[] for _ in range(n)]
    for p in range(1, n + 1):
        for q in range(1, n + 1 - p):
            if p == q == 1:
                continue
            rate = float(p * q) ** (-lam) * f[p - 1] * f[q - 1]
            for s in (p, q):
                if s == 1:
                    gains[0].append(0.5 * rate)
                for k in range(1, s):
                    gains[k - 1].append(rate / (s - 1))
            losses[p - 1].append(rate)
    return (np.array([math.fsum(x) for x in gains]),
            np.array([math.fsum(x) for x in losses]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 17, 32, 64])
def test_field_cheng_redner_has_no_cancellation(n):
    # f_1 dominates every partial sum of g = w*f here; a partner sum T_1
    # formed as a prefix sum minus g_1 loses relative accuracy.  At n = 1
    # the suffix sum over the loss rows has no rows; up to n = 2 every pair
    # is neutral, so gain, loss and Q must vanish exactly
    ks = fd.cheng_redner_uniform(n, 6.0, 0.5)
    F = np.stack([np.ones(n), np.full(n, 3.0), np.linspace(3.0, 0.1, n)], axis=1)
    QF = q_field(F, ks)
    gain, loss = _gain_loss(F, ks)
    sizes = np.arange(1, n + 1, dtype=float)
    for x in range(3):
        want_gain, want_loss = fsum_gain_loss_cheng_redner(F[:, x], n, 6.0)
        want_q = want_gain - want_loss
        for got, want in ((gain[:, x], want_gain), (loss[:, x], want_loss),
                          (QF[:, x], want_q)):
            err = float(np.max(np.abs(got - want)))
            assert err <= 1e-14 * float(np.max(np.abs(want))), (x, err)
        null = abs(math.fsum(sizes * QF[:, x]))
        assert null <= 1e-12 * math.fsum(np.abs(sizes * QF[:, x])), x


@pytest.mark.parametrize("n", [3, 16, 64])
def test_quasipositivity_cheng_redner(n):
    rng = np.random.default_rng(19 + n)
    ks = fd.cheng_redner_uniform(n, 4.0, 0.5)
    for eps in (0.0, 0.1):
        for i in range(1, n + 1):
            f = rng.uniform(0.0, 5.0, size=n)
            f[i - 1] = 0.0
            q_i, gain_i = check_quasipositivity(f, ks, eps, i)
            assert q_i >= 0.0
            assert gain_i >= 0.0


def test_field_2d_shape():
    ks = fd.power_law_uniform(6, 4.0, 0.5)
    F = np.ones((6, 4, 5))
    assert q_field(F, ks).shape == (6, 4, 5)


def test_regularization_identity_at_zero_eps():
    ks = fd.power_law_uniform(8, 4.0, 0.5)
    f = np.linspace(0.1, 1.0, 8)
    assert regularization_denominator(f, ks, 0.0) == 1.0
    q0 = q_field(f, ks)
    qr = q_field(f, ks, 0.0)
    assert np.array_equal(q0, qr)


def test_regularization_denominator_value():
    ks = fd.power_law_uniform(6, 4.0, 0.5)
    f = np.array([1.0, 0.5, 0.0, 2.0, 0.0, 0.0])
    eps = 0.25
    manual = 1.0 + eps * math.fsum(ks.c_mid[j] * f[j] ** 2 for j in range(6))
    assert regularization_denominator(f, ks, eps) == pytest.approx(manual, rel=1e-15)
    with pytest.raises(DomainError):
        regularization_denominator(f, ks, 1.0)


@pytest.mark.parametrize("values, error, message", [
    ([np.nan], DomainError, "field contains non-finite entries"),
    ([np.inf], DomainError, "field contains non-finite entries"),
    ([-np.inf], DomainError, "field contains non-finite entries"),
    ([-0.25], ContractViolationError, "field contains negative entries (min -0.25)"),
    ([-0.25, np.nan], DomainError, "field contains non-finite entries"),
    ([-0.0], None, None),
], ids=["nan", "+inf", "-inf", "negative", "negative_and_nan", "minus_zero"])
def test_field_check_errors(values, error, message):
    # non-finite is named before negative, and -0.0 is no negative entry
    ks = fd.power_law_uniform(4, 4.0, 0.5)
    F = np.ones((4, 32))
    F[2, 7 : 7 + len(values)] = values
    if error is None:
        np.testing.assert_array_equal(q_field(F, ks), q_field(np.abs(F), ks))
        return
    with pytest.raises(error) as exc_info:
        q_field(F, ks)
    assert str(exc_info.value) == message


def test_input_validation():
    ks = fd.power_law_uniform(4, 4.0, 0.5)
    with pytest.raises(ContractViolationError):
        q_field([1.0, -0.1, 0.0, 0.0], ks)
    with pytest.raises(DomainError):
        q_field([1.0, 1.0], ks)
    with pytest.raises(DomainError):
        q_field([1.0, np.nan, 0.0, 0.0], ks)
    with pytest.raises(DomainError):
        q_field(1.0, ks)
    for eps in (0.0, 0.1):
        with pytest.raises(DomainError):
            regularization_denominator([1.0, np.nan, 0.0, 0.0], ks, eps)
        with pytest.raises(DomainError):
            regularization_denominator([1.0, 1.0], ks, eps)

