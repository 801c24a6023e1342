import math
import os

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
from oracles import laplacian_neumann, spectral_heat_solve_1d, stencil_eigenvalue


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
    # every fsum sees the same floats in the same order as the row's
    # Python float list, so its exactly rounded sum has the same bits
    g = make_grid_2d(6, 9, 0.7, 2.0)
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
    g = make_grid_1d(10)
    u = g.centers().copy()
    full = gradient_sq_integral(g, u)
    none = gradient_sq_integral(g, u, mask=np.zeros(10, dtype=bool))
    assert none == 0.0
    half = np.zeros(10, dtype=bool)
    half[:5] = True  # 4 interior faces of 9 stay active
    part = gradient_sq_integral(g, u, mask=half)
    assert 0.0 < part < full
    assert part == pytest.approx(full * 4.0 / 9.0, rel=1e-12)


def test_gradient_sq_shape_errors():
    g = make_grid_1d(8)
    with pytest.raises(DomainError):
        gradient_sq_integral(g, np.zeros(9))
    with pytest.raises(DomainError):
        gradient_sq_integral(g, np.zeros(8), mask=np.ones(7, dtype=bool))


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

    def failing_in_children(rows):
        if os.getpid() != parent:
            raise ValueError("formatting failed")
        return csv_lines(rows)

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
