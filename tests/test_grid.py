import math
import os
import tracemalloc

import numpy as np
import pytest

import fragdiff as fd
from fragdiff import grid as gridmod
from fragdiff.errors import DomainError
from fragdiff.grid import (
    GridSpec,
    gradient_sq_integral,
    integrate,
    make_grid_1d,
    make_grid_2d,
    read_species_csv,
    species_integrals,
    write_species_csv,
)
from oracles import (
    gradient_sq_by_axis,
    laplacian_neumann,
    spectral_heat_solve_1d,
    stencil_eigenvalue,
)


class TestGridSpec:
    def test_basic_properties(self):
        g = make_grid_1d(10, 2.0)
        assert g.dim == 1
        assert g.h == (0.2,)
        assert g.cell_volume == pytest.approx(0.2)
        assert g.ncells == 10
        np.testing.assert_allclose(g.centers(), np.arange(10) * 0.2 + 0.1)

    def test_2d(self):
        g = make_grid_2d(4, 8, 1.0, 2.0)
        assert g.shape == (4, 8)
        assert g.cell_volume == pytest.approx(0.25 * 0.25)
        X, Y = g.meshgrid()
        assert X.shape == (4, 8)
        assert Y[0, 0] == pytest.approx(0.125)

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(shape=(3,), lengths=(1.0,))
        with pytest.raises(DomainError):
            GridSpec(shape=(8, 8, 8), lengths=(1.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            GridSpec(shape=(8,), lengths=(0.0,))
        with pytest.raises(DomainError):
            GridSpec(shape=(8, 8), lengths=(1.0,))


def test_stencil_cosine_modes_are_eigenvectors():
    # cos(k pi x / L) at cell centers reflects exactly at both walls, so the
    # stencil acts on it as multiplication by its eigenvalue
    g = make_grid_1d(32, 1.5)
    x = g.centers()
    for k in (0, 1, 2, 5, 11):
        u = np.cos(k * np.pi * x / 1.5)
        got = laplacian_neumann(g, u)
        lam = stencil_eigenvalue(g, k)
        np.testing.assert_allclose(got, lam * u, atol=1e-10 * max(1.0, abs(lam)))


def test_stencil_eigenvalue_continuum_limit():
    lam_exact = -((3.0 * np.pi / 1.0) ** 2)
    errs = []
    for m in (64, 128, 256):
        g = make_grid_1d(m)
        errs.append(abs(stencil_eigenvalue(g, 3) - lam_exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_laplacian_2d_additivity():
    g = make_grid_2d(8, 12, 1.0, 3.0)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(g.shape)
    full = laplacian_neumann(g, u)
    # sum of the per-axis operators applied through 1D grids
    gx = make_grid_1d(8, 1.0)
    gy = make_grid_1d(12, 3.0)
    part = np.zeros_like(u)
    for col in range(12):
        part[:, col] += laplacian_neumann(gx, u[:, col])
    for row in range(8):
        part[row, :] += laplacian_neumann(gy, u[row, :])
    np.testing.assert_allclose(full, part, rtol=1e-12, atol=1e-12)


def test_laplacian_annihilates_constants_and_conserves():
    g = make_grid_2d(6, 6)
    assert np.array_equal(laplacian_neumann(g, np.full(g.shape, 3.7)), np.zeros(g.shape))
    rng = np.random.default_rng(4)
    u = rng.uniform(size=g.shape)
    # zero-flux boundaries: the stencil sum telescopes to zero
    assert abs(integrate(g, laplacian_neumann(g, u))) <= 1e-12


def test_integrate_constant():
    g = make_grid_2d(5, 7, 2.0, 3.0)
    assert integrate(g, np.full(g.shape, 2.0)) == pytest.approx(12.0, rel=1e-15)


@pytest.mark.parametrize("grid", [make_grid_1d(37, 1.3), make_grid_2d(6, 9, 0.7, 2.0)],
                         ids=["1D", "2D"])
def test_species_integrals_are_integrate_per_row(grid):
    F = np.random.default_rng(5).uniform(0.0, 3.0, size=(7,) + grid.shape)
    F[3] = 0.0
    got = species_integrals(grid, F)
    assert got.shape == (7,)
    assert got.tolist() == [integrate(grid, F[i]) for i in range(7)]


_LAYOUTS = {
    "transposed": lambda a: np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1),
    "fortran": np.asfortranarray,
    "strided_slice": lambda a: np.repeat(np.repeat(a, 2, axis=1), 3, axis=2)[:, ::2, ::3],
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_integrals_read_any_layout_as_the_float_list(layout):
    # every sum is exactly rounded, as fsum of the row's Python float list
    # is, so it has the same bits; 6x9 is summed in one block of
    # _fsum_rows, 48x90 in several
    for shape in ((6, 9), (48, 90)):
        g = make_grid_2d(*shape, 0.7, 2.0)
        F = np.random.default_rng(6).uniform(0.0, 3.0, size=(5,) + g.shape)
        X = _LAYOUTS[layout](F)
        assert np.array_equal(X, F) and not X.flags.c_contiguous
        vol = g.cell_volume
        flat = [X[i].ravel().tolist() for i in range(5)]
        assert species_integrals(g, X).tolist() == [vol * math.fsum(row) for row in flat]
        for i in range(5):
            assert integrate(g, X[i]) == vol * math.fsum(flat[i])
            terms = []
            for axis, h in enumerate(g.h):
                sq = (np.diff(X[i], axis=axis) / h) ** 2
                w = g.lengths[axis] / (g.shape[axis] - 1) * g.h[1 - axis]
                terms.append(w * math.fsum(sq.ravel().tolist()))
            assert gradient_sq_integral(g, X[i]) == math.fsum(terms)


def _fsum_hex(rows):
    return [math.fsum(row.tolist()).hex() for row in rows]


@pytest.mark.parametrize("shape", [(32, 128), (64, 64), (32, 4096), (1, 65536)])
def test_row_sums_have_the_bits_of_fsum(shape):
    rng = np.random.default_rng(shape[0] + shape[1])
    signed = rng.standard_normal(shape) * 2.0 ** rng.integers(-40, 40, size=shape)
    for rows in (rng.uniform(0.0, 2.0, size=shape), signed, np.abs(signed)):
        got = gridmod._fsum_rows(rows)
        assert [float(v).hex() for v in got] == _fsum_hex(rows)


def _count_fallbacks(monkeypatch):
    # the values of each fsum in grid, a fallback's joined from the blocks
    # it read
    calls = []

    def counted(values):
        values = list(values)
        calls.append(np.array(values))
        return math.fsum(values)

    monkeypatch.setattr(gridmod, "fsum", counted)
    return calls


@pytest.mark.parametrize("head", [[1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -80],
                                  [1.0, 2.0 ** -53, -(2.0 ** -80)], [1.0, -1.0]])
def test_row_sums_at_a_rounding_midpoint_fall_back_to_fsum(monkeypatch, head):
    # a sum within the bound of a midpoint between two floats, whose terms
    # span too many binades for the grid certificate, is left to fsum; the
    # other rows are decided by the bound.  The zero sum of [1.0, -1.0] is
    # decided by the certificate
    rows = np.ones((3, 4096))
    rows[1] = 0.0
    rows[1, :len(head)] = head
    calls = _count_fallbacks(monkeypatch)
    got = gridmod._fsum_rows(rows)
    assert [float(v).hex() for v in got] == _fsum_hex(rows)
    if head == [1.0, -1.0]:
        assert calls == []
    else:
        assert len(calls) == 1 and np.array_equal(calls[0], rows[1])


def test_a_midpoint_that_a_float_sum_of_low_misses_goes_to_fsum(monkeypatch):
    # 2 + 2**-52 + 2**-105 rounds up, but the remainders 2**-52, 2**-67 +
    # 2**-105 and -2**-67 span 53 binades and their float sum drops
    # 2**-105: the grid certificate must not take this row
    row = np.array([[2.0 ** -52, 2.0 ** -67 + 2.0 ** -105, 1.0, 1.0, -(2.0 ** -67)]])
    calls = _count_fallbacks(monkeypatch)
    assert gridmod._fsum_rows(row)[0] == 2.0 + 2.0 ** -51 == math.fsum(row[0].tolist())
    assert len(calls) == 1


def _decided_rows(N):
    """Rows that the split decides without fsum: tiny rows, scaled up by a
    power of two, with normal and with subnormal sums; sums at a rounding
    midpoint that the grid certificate decides (one ties down, one up);
    the zero sum of [1.0, -1.0]."""
    rng = np.random.default_rng(N)
    rows = np.zeros((9, N))
    rows[0] = rng.uniform(0.5, 1.0, N) * 2.0 ** -1000  # normal terms and sum
    rows[1] = rows[0] * rng.choice([-1.0, 1.0], N)
    rows[2] = rng.uniform(0.0, 1.0, N) * 2.0 ** -1015  # a subnormal spacing
    rows[3] = rng.integers(0, 2 ** 8, N) * 5e-324  # a subnormal sum
    rows[4] = rows[3] * rng.choice([-1.0, 1.0], N)
    rows[5, [0, N // 2]] = [5e-324, 5e-324]  # the two smallest subnormals
    rows[6, [1, N - 1]] = [1.0, 1.0 + 2.0 ** -52]  # 2 + 2**-52 ties down to 2
    rows[7, [0, N - 2]] = [1.0 + 2.0 ** -52, 2.0 + 2.0 ** -51]  # ties up
    rows[8, [2, N - 3]] = [1.0, -1.0]
    return rows


def test_tiny_and_midpoint_rows_are_decided_in_one_pass(monkeypatch):
    # each row has fsum's bits without a call of fsum, in one block (16 and
    # 4096 cells) and streamed over blocks cut across it
    calls = _count_fallbacks(monkeypatch)
    for N in (16, 4096):
        rows = _decided_rows(N)
        got = gridmod._fsum_rows(rows)
        assert [float(v).hex() for v in got] == _fsum_hex(rows)
    N = 12000
    rows = _decided_rows(N)
    assert math.fsum(rows[3].tolist()) < 2.0 ** -1022 <= math.fsum(rows[2].tolist())
    mu = np.maximum(rows.max(axis=1), -rows.min(axis=1))
    for bound in (mu, 3.0 * mu):
        blocks, passes = _runs(rows, [0, 1, 9, 4096, 4097, 8190, 8192, N])
        got = gridmod._exact_sums(blocks, len(rows), N, bound)
        assert [float(v).hex() for v in got] == _fsum_hex(rows)
        assert len(passes) == 1
    assert calls == []


def test_row_sums_with_zeros_and_subnormals():
    rng = np.random.default_rng(12)
    rows = rng.uniform(0.0, 1.0, size=(8, 4096))
    rows[:, ::3] = 0.0
    rows[:, 1::5] = -0.0
    rows[:, 2::7] = 5e-324
    rows[2] = 0.0
    rows[3] = -0.0
    rows[4] = rng.integers(0, 2 ** 20, size=4096) * 5e-324  # every entry subnormal
    rows[5] *= 2.0 ** -1000  # normal entries with a subnormal spacing
    rows[6] = -rows[6]
    for table in (rows, np.abs(rows)):
        got = gridmod._fsum_rows(table)
        assert [float(v).hex() for v in got] == _fsum_hex(table)


def test_row_sums_of_non_finite_and_huge_rows():
    rows = np.random.default_rng(13).uniform(0.0, 1.0, size=(5, 4096))
    rows[0, 7] = np.inf
    rows[1, 9] = np.nan
    rows[2, 11] = -np.inf
    rows[3] = 1e300  # too large to split; the sum is finite
    for table in (rows, np.abs(rows)):
        got = gridmod._fsum_rows(table)
        assert [float(v).hex() for v in got] == _fsum_hex(table)
    overflowing = np.full((2, 4096), 1e305)
    with pytest.raises(OverflowError) as want:
        math.fsum(overflowing[0].tolist())
    with pytest.raises(OverflowError) as got:
        gridmod._fsum_rows(overflowing)
    assert str(got.value) == str(want.value)


def _zero_rows(N):
    rows = np.zeros((4, N))
    rows[1] = -0.0
    rows[2, ::3] = -0.0
    rows[3, 1::2] = -0.0
    return rows


def test_zero_rows_are_decided_without_fsum(monkeypatch):
    # the split decides a row of zeros without fsum, on a table of 16
    # cells as of 4096: +0.0, or fsum's sum of -0.0 alone where every
    # value is -0.0 (+0.0 on Python 3.10 and 3.11)
    calls = _count_fallbacks(monkeypatch)
    for N in (16, 4096):
        for rows in (_zero_rows(N), np.abs(_zero_rows(N))):
            got = gridmod._fsum_rows(rows)
            assert [float(v).hex() for v in got] == _fsum_hex(rows)
    for keeps_negative_zero in (gridmod._FSUM_KEEPS_NEGATIVE_ZERO, True):
        # True: as on a Python whose fsum of -0.0 alone is -0.0
        monkeypatch.setattr(gridmod, "_FSUM_KEEPS_NEGATIVE_ZERO", keeps_negative_zero)
        for negative, rows in ((keeps_negative_zero, _zero_rows(4096)),
                               (False, np.abs(_zero_rows(4096)))):
            got = gridmod._fsum_rows(rows)
            want = [0.0, -0.0 if negative else 0.0, 0.0, 0.0]
            assert [float(v).hex() for v in got] == [v.hex() for v in want]
    assert not calls


def _runs(rows, cuts):
    """``blocks`` for ``_exact_sums`` over ``rows`` cut at the columns
    ``cuts``: odd runs as one block of every row, even runs one row at a
    time, last row first; ``passes`` counts the calls."""
    passes = []

    def blocks():
        passes.append(None)
        for k, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            if k % 2:
                yield 0, rows[:, a:b]
            else:
                for i in reversed(range(len(rows))):
                    yield i, rows[i:i + 1, a:b]

    return blocks, passes


def test_streamed_sums_have_the_bits_of_fsum_across_blocks(monkeypatch):
    rng = np.random.default_rng(14)
    N = 12000
    rows = rng.uniform(0.0, 1.0, size=(7, N)) * 2.0 ** rng.integers(-30, 30, size=(7, N))
    rows[1] = -rows[1]
    rows[2, ::2] = 0.0
    rows[2, 1::4] = -0.0
    rows[3] = rng.integers(0, 2 ** 20, size=N) * 5e-324  # every entry subnormal
    rows[4] *= 2.0 ** -1000  # normal entries with a subnormal spacing
    rows[5] = 0.0
    rows[5, [4095, 8191]] = [1.0, 2.0 ** -53]  # a midpoint, one value per block
    rows[6] = rng.standard_normal(N)
    cuts = [0, 1, 9, 4096, 4097, 8190, 8192, N]
    mu = np.maximum(rows.max(axis=1), -rows.min(axis=1))
    calls = _count_fallbacks(monkeypatch)
    for table in (rows, np.abs(rows)):
        for bound in (mu, 3.0 * mu):  # a loose bound gives the same bits
            calls.clear()
            blocks, passes = _runs(table, cuts)
            got = gridmod._exact_sums(blocks, len(table), N, bound)
            assert [float(v).hex() for v in got] == _fsum_hex(table)
            # the midpoint is read again from new passes of the blocks
            assert len(calls) == len(passes) - 1 >= 1
            assert any(np.array_equal(c, rows[5]) for c in calls)


@pytest.mark.parametrize("shape", [(300,), (37, 50), (9, 700)])
def test_gradient_sq_streams_blocks_with_the_bits_of_whole_arrays(monkeypatch, shape):
    # blocks of 256 cells: 1D in two blocks, 37x50 in blocks of five rows and
    # a last one of two, 9x700 one row per block
    monkeypatch.setattr(gridmod, "_SUM_BLOCK", 256)
    g = make_grid_1d(*shape) if len(shape) == 1 else make_grid_2d(*shape, 0.7, 2.0)
    rng = np.random.default_rng(15)
    u = rng.uniform(0.0, 1.0, size=g.shape)
    flat = u.reshape(-1)
    flat[::5] = 0.0
    flat[1::7] = -0.0
    flat[2::11] = 5e-324
    for level in (0.25, 0.5, 2.0):
        want = gradient_sq_by_axis(g, u, np.abs(u) <= level)
        assert gradient_sq_integral(g, u, level=level).hex() == want.hex()
    assert gradient_sq_integral(g, u).hex() == gradient_sq_by_axis(g, u).hex()
    flat[13] = np.nan  # outside every level set
    want = gradient_sq_by_axis(g, u, np.abs(u) <= 0.5)
    assert gradient_sq_integral(g, u, level=0.5).hex() == want.hex()


def test_gradient_sq_exact_for_linear():
    # a uniform slope has |grad u|^2 = s^2 everywhere; the face weighting
    # makes the quadrature exact at any resolution
    for m in (4, 9, 50):
        g = make_grid_1d(m, 2.0)
        u = 3.0 * g.centers()
        assert gradient_sq_integral(g, u) == pytest.approx(9.0 * 2.0, rel=1e-13)
    g2 = make_grid_2d(5, 8, 1.0, 2.0)
    X, Y = g2.meshgrid()
    u2 = 2.0 * X - 1.0 * Y
    assert gradient_sq_integral(g2, u2) == pytest.approx((4.0 + 1.0) * 2.0, rel=1e-13)


def test_gradient_sq_mask():
    # u increases from 0.05 to 0.95: the level 0 masks every cell, and the
    # level u[4] keeps the first five cells
    g = make_grid_1d(10)
    u = g.centers().copy()
    full = gradient_sq_integral(g, u)
    none = gradient_sq_integral(g, u, level=0.0)
    assert none == 0.0
    part = gradient_sq_integral(g, u, level=u[4])  # 4 interior faces of 9 stay active
    assert 0.0 < part < full
    assert part == pytest.approx(full * 4.0 / 9.0, rel=1e-12)


def test_gradient_sq_shape_errors():
    g = make_grid_1d(8)
    with pytest.raises(DomainError):
        gradient_sq_integral(g, np.zeros(9))
    with pytest.raises(DomainError):
        gradient_sq_integral(g, np.zeros((8, 1)))


class TestSpectralReference:
    def test_zero_time_identity(self):
        g = make_grid_1d(16)
        rng = np.random.default_rng(5)
        u0 = rng.uniform(size=16)
        np.testing.assert_allclose(spectral_heat_solve_1d(g, u0, 0.3, 0.0), u0, rtol=1e-13)

    def test_single_mode_decay(self):
        g = make_grid_1d(64, 1.0)
        x = g.centers()
        u0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
        d, t = 0.25, 0.1
        expect = 1.0 + 0.5 * math.exp(-d * (2.0 * np.pi) ** 2 * t) * np.cos(2.0 * np.pi * x)
        np.testing.assert_allclose(spectral_heat_solve_1d(g, u0, d, t), expect, atol=1e-12)

    def test_mass_preserved(self):
        g = make_grid_1d(32)
        rng = np.random.default_rng(6)
        u0 = rng.uniform(size=32)
        ut = spectral_heat_solve_1d(g, u0, 1.0, 0.7)
        assert integrate(g, ut) == pytest.approx(integrate(g, u0), rel=1e-13)

    def test_rejects_bad_input(self):
        g = make_grid_1d(8)
        with pytest.raises(DomainError):
            spectral_heat_solve_1d(g, np.zeros(8), 1.0, -0.1)
        with pytest.raises(DomainError):
            spectral_heat_solve_1d(make_grid_2d(8, 8), np.zeros((8, 8)), 1.0, 0.1)


def test_species_csv_round_trip_1d(tmp_path):
    g = make_grid_1d(12, 1.75)
    rng = np.random.default_rng(8)
    vals = rng.uniform(size=(3, 12))
    p = tmp_path / "fields.csv"
    write_species_csv(p, g, vals, metadata={"t": repr(0.125), "note": "x"})
    g2, vals2, meta = read_species_csv(p)
    assert g2 == g
    assert np.array_equal(vals, vals2)  # bitwise via repr round-trip
    assert meta["t"] == "0.125"
    assert meta["note"] == "x"


def test_species_csv_round_trip_2d(tmp_path):
    g = make_grid_2d(5, 6, 2.0, 0.5)
    rng = np.random.default_rng(9)
    vals = rng.standard_normal((2, 5, 6))
    p = tmp_path / "fields2d.csv"
    write_species_csv(p, g, vals)
    g2, vals2, meta = read_species_csv(p)
    assert g2 == g
    assert np.array_equal(vals, vals2)
    assert meta == {"species": "2"}


def _per_cell_csv(grid, values):
    """Reference writer: one ``repr`` per cell, cells in row-major order."""
    n = values.shape[0]
    lines = [f"# grid_shape={','.join(str(m) for m in grid.shape)}",
             f"# grid_lengths={','.join(repr(L) for L in grid.lengths)}",
             f"# species={n}",
             ",".join(["x", "y"][: grid.dim] + [f"f_{i}" for i in range(1, n + 1)])]
    for cell in np.ndindex(*grid.shape):
        row = [repr(float(grid.centers(a)[c])) for a, c in enumerate(cell)]
        row += [repr(float(values[(i,) + cell])) for i in range(n)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("grid", [make_grid_1d(7, 0.3), make_grid_2d(4, 5, 1.0, 0.7)])
def test_species_csv_matches_per_cell_writer(tmp_path, grid):
    awkward = [5e-324, 0.1, 1e300, 0.0, 1.0 / 3.0, -0.0, 2.5e-310, 123456789.125]
    n = 3
    vals = np.resize(np.array(awkward), n * grid.ncells).reshape((n,) + grid.shape)
    p = tmp_path / "fields.csv"
    write_species_csv(p, grid, vals)
    assert p.read_bytes() == _per_cell_csv(grid, vals).encode()


def _split_writer(monkeypatch, cpus, min_rows):
    """Make ``write_species_csv`` see ``cpus`` usable CPUs and split from
    ``min_rows`` rows per part, converting two rows at a time."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(gridmod, "_CSV_PART_MIN_ROWS", min_rows)
    monkeypatch.setattr(gridmod, "_CSV_CHUNK_ROWS", 2)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_SPLIT_GRID = make_grid_2d(5, 7, 1.0, 0.7)  # 35 rows: 2 and 3 parts leave remainders
_SPLIT_VALUES = np.resize(np.array([-0.0, 5e-324, 1e308, 2.0, 17.0, 0.1, 1.0 / 3.0]),
                          3 * 35).reshape(3, 5, 7)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split writer forks")
@pytest.mark.parametrize("parts", [1, 2, 3])
def test_split_species_csv_has_the_one_part_bytes(tmp_path, monkeypatch, parts):
    one = tmp_path / "one.csv"
    write_species_csv(one, _SPLIT_GRID, _SPLIT_VALUES, metadata={"t": "0.5"})
    _split_writer(monkeypatch, cpus=parts, min_rows=8)
    assert gridmod._csv_parts(35) == parts
    split = tmp_path / "split.csv"
    write_species_csv(split, _SPLIT_GRID, _SPLIT_VALUES, metadata={"t": "0.5"})
    assert split.read_bytes() == one.read_bytes()
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split writer forks")
def test_split_species_csv_child_failure_raises(tmp_path, monkeypatch):
    _split_writer(monkeypatch, cpus=3, min_rows=8)
    parent, csv_lines = os.getpid(), gridmod._csv_lines

    def failing_in_children(columns, lo, hi):
        if os.getpid() != parent:
            raise ValueError("formatting failed")
        return csv_lines(columns, lo, hi)

    monkeypatch.setattr(gridmod, "_csv_lines", failing_in_children)
    path = tmp_path / "split.csv"
    with pytest.raises(OSError, match="split.csv: 2 of 2 formatting processes failed"):
        write_species_csv(path, _SPLIT_GRID, _SPLIT_VALUES)
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split writer forks")
def test_split_species_csv_reaps_children_when_the_writer_raises(tmp_path, monkeypatch):
    _split_writer(monkeypatch, cpus=3, min_rows=8)
    with pytest.raises(FileNotFoundError):
        write_species_csv(tmp_path / "missing" / "split.csv", _SPLIT_GRID, _SPLIT_VALUES)
    _assert_no_child_left()


def test_small_species_csv_does_not_fork(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked for a table below the split threshold")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    rows = 2 * gridmod._CSV_PART_MIN_ROWS - 1
    path = tmp_path / "small.csv"
    write_species_csv(path, make_grid_1d(rows), np.ones((2, rows)))
    assert read_species_csv(path)[1].shape == (2, rows)


def _traced_peak(fn):
    """``fn()`` and the traced peak it allocated above what was traced before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_species_csv_streams_in_block_sized_memory(tmp_path, monkeypatch):
    # 128x128, n=32: the writer copies no table and the reader builds no
    # float list; the values, zeros and subnormals among them, keep their bits
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    g = make_grid_2d(128, 128)
    rng = np.random.default_rng(14)
    vals = rng.uniform(0.0, 1.0, size=(32,) + g.shape) * np.exp(-np.arange(1.0, 33.0))[:, None, None]
    vals[:, ::3] = 0.0
    vals[:, 1::5] = -0.0
    vals[:, :, ::7] = 5e-324
    vals[5, 2] = 2.5e-310
    stack = vals.nbytes
    path = tmp_path / "fields.csv"
    _, written = _traced_peak(lambda: write_species_csv(path, g, vals, metadata={"t": "0.5"}))
    assert written < 0.25 * stack, written  # a copy of the table was 1.27 stacks
    (g2, vals2, meta), read = _traced_peak(lambda: read_species_csv(path))
    assert read - vals2.nbytes < 0.25 * stack, read  # a float list per row was 5.75 stacks
    assert g2 == g and meta == {"species": "32", "t": "0.5"}
    assert vals2.shape == vals.shape and vals2.flags.c_contiguous
    assert np.array_equal(vals2.view(np.uint64), vals.view(np.uint64))


def test_species_csv_rejects_a_table_that_does_not_fit_the_grid(tmp_path):
    g = make_grid_1d(6)
    good = tmp_path / "good.csv"
    write_species_csv(good, g, np.ones((2, 6)))
    lines = good.read_text().splitlines(keepends=True)
    for name, text in [("short.csv", "".join(lines[:-1])),
                       ("long.csv", "".join(lines + lines[-1:])),
                       ("ragged.csv", "".join(lines[:-1]) + lines[-1].rstrip() + ",1.0\n")]:
        bad = tmp_path / name
        bad.write_text(text)
        with pytest.raises(DomainError, match=name):
            read_species_csv(bad)


def test_species_csv_missing_metadata(tmp_path):
    p = tmp_path / "broken.csv"
    p.write_text("x,f_1\n0.5,1.0\n")
    with pytest.raises(DomainError):
        read_species_csv(p)


def test_field_validation():
    # the admissibility check takes a species stack that fits its grid and size count
    g = make_grid_1d(8)
    ks = fd.power_law_uniform(4, 4.0, 0.5)
    with pytest.raises(DomainError):
        fd.check_initial_data(g, np.zeros((4, 7)), ks)
    with pytest.raises(DomainError):
        fd.check_initial_data(g, np.zeros((2, 8)), ks)
    with pytest.raises(DomainError):
        fd.check_initial_data(g, np.array([[np.inf] * 8] * 4), ks)
    assert fd.check_initial_data(g, np.ones((4, 8)), ks).partial > 0.0
