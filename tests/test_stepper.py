import importlib.machinery
import importlib.util
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import fragdiff as fd
from fragdiff import stepper
from fragdiff.errors import DomainError, NumericalAbortError
from fragdiff.grid import integrate, make_grid_1d, make_grid_2d
from fragdiff.stepper import (
    _MAX_FACTOR_SETS,
    _ldl_factor,
    DiffusionSolver,
    StepperConfig,
    checkpoint_load,
    checkpoint_save,
    run_simulation,
)
from oracles import laplacian_neumann, stencil_eigenvalue


def pure_diffusion_kernel():
    # a single species never collides within the truncation, so the
    # reaction term vanishes identically and only diffusion remains
    return fd.power_law_uniform(1, 4.0, 0.0)


def weighted_mass(grid, ks, F):
    return math.fsum((i + 1) * integrate(grid, F[i]) for i in range(ks.n))


def copies():
    """``(kept, sample)``: a sampler that keeps a copy of every sampled
    state in the list ``kept``."""
    kept = []
    return kept, lambda t, F, Q: kept.append(F.copy())


def test_stepper_config_validation():
    with pytest.raises(DomainError, match="'leapfrog' is unknown"):
        StepperConfig(scheme="leapfrog")
    with pytest.raises(DomainError, match="'rk4_explicit' was removed; 'imex_euler' is the only"):
        StepperConfig(scheme="rk4_explicit")
    with pytest.raises(DomainError, match="'clip_to_zero' was removed; 'reject_and_halve' is the only"):
        StepperConfig(negativity_policy="clip_to_zero")
    with pytest.raises(DomainError, match="'ignore' is unknown"):
        StepperConfig(negativity_policy="ignore")
    with pytest.raises(DomainError):
        StepperConfig(dt=0.0)
    with pytest.raises(DomainError):
        StepperConfig(t_end=-1.0)


def _heat_error(m, mode, dt, t_end):
    """Terminal error of a pure-diffusion run against the semi-discrete
    exact solution (the cosine mode decays by the *stencil* eigenvalue)."""
    g = make_grid_1d(m)
    ks = pure_diffusion_kernel()
    x = g.centers()
    u0 = 1.0 + np.cos(mode * np.pi * x)
    cfg = StepperConfig(dt=dt, t_end=t_end)
    traj = run_simulation(g, ks, u0[None, :], cfg)
    lam = stencil_eigenvalue(g, mode)
    exact = 1.0 + math.exp(lam * t_end) * np.cos(mode * np.pi * x)
    return float(np.max(np.abs(traj.terminal[0] - exact)))


def test_imex_first_order_in_time():
    t_end = 1.0 / 32.0
    e1 = _heat_error(16, 4, 1.0 / 512.0, t_end)
    e2 = _heat_error(16, 4, 1.0 / 1024.0, t_end)
    assert e1 > 1e-6
    assert 1.7 < e1 / e2 < 2.4


def _ldl_reference(diag, off, rhs):
    """Textbook LDL^T solve of one symmetric tridiagonal system in plain
    Python floats: the factor ``l_i = e_i / d_i``, ``d_{i+1} -= l_i * e_i``,
    then ``y_i -= l_{i-1} * y_{i-1}`` and ``x_i = y_i / d_i - l_i * x_{i+1}``."""
    d = [float(v) for v in diag]
    l = []
    for i, e in enumerate(off):
        l.append(e / d[i])
        d[i + 1] -= l[i] * e
    y = [float(v) for v in rhs]
    for i in range(1, len(y)):
        y[i] -= l[i - 1] * y[i - 1]
    x = y[:]
    x[-1] = y[-1] / d[-1]
    for i in range(len(y) - 2, -1, -1):
        x[i] = y[i] / d[i] - l[i] * x[i + 1]
    return x


def _line_operator(m, h, dt, d):
    """Diagonal and off-diagonal of ``I - dt * d * L`` on one line of ``m``
    cells, ``L`` the reflected-ghost second difference."""
    c = (dt / (h * h)) * float(d)
    return [1.0 + c] + [1.0 + 2.0 * c] * (m - 2) + [1.0 + c], [-c] * (m - 1)


def _per_line_sweep(grid, ks, stage, dt, axis):
    """Reference sweep along ``axis``: every grid line of every species is
    solved on its own by :func:`_ldl_reference`."""
    out = np.array(stage, dtype=float)
    for i, d in enumerate(ks.d):
        diag, off = _line_operator(grid.shape[axis], grid.h[axis], dt, d)
        lines = np.moveaxis(out[i], axis, -1)  # a view: writes land in out
        for idx in np.ndindex(lines.shape[:-1]):
            lines[idx] = _ldl_reference(diag, off, lines[idx])
    return out


def _per_line_ldl(grid, ks, stage, dt):
    """Reference solve: one :func:`_per_line_sweep` per axis."""
    for axis in range(grid.dim):
        stage = _per_line_sweep(grid, ks, stage, dt, axis)
    return stage


def _shifted_residual(diag, off, x, b):
    """Signed residual ``A x - b`` along the last axis of ``x`` from shifted
    views, ``diag`` and ``off`` broadcasting against ``x`` and
    ``x[..., 1:]``: the upper term ``off[k] * x[k + 1]`` is added to row
    ``k`` first, then the lower term ``off[k] * x[k]`` to row ``k + 1``."""
    r = diag * x - b
    r[..., :-1] += off * x[..., 1:]
    r[..., 1:] += off * x[..., :-1]
    return r


def _reference_refusal(grid, ks, stage, dt, axis):
    """The refusal of the sweep along ``axis`` from per-line solves and
    residuals, species by species (``None`` when every species meets
    ``1e-12 * max(1, max|stage_i|)``)."""
    x = _per_line_sweep(grid, ks, stage, dt, axis)
    resid, bound = [], []
    for i, d in enumerate(ks.d):
        diag, off = _line_operator(grid.shape[axis], grid.h[axis], dt, d)
        r = _shifted_residual(np.array(diag), np.array(off),
                              np.moveaxis(x[i], axis, -1), np.moveaxis(stage[i], axis, -1))
        resid.append(np.max(np.abs(r)))
        bound.append(1e-12 * max(1.0, np.max(np.abs(stage[i]))))
    resid, bound = np.array(resid), np.array(bound)
    if np.all(resid <= bound):
        return None
    worst = int(np.argmax(resid / bound))
    return (f"implicit solve residual {resid[worst]:g} above contract "
            f"{bound[worst]:g} (species {worst + 1}, axis {axis}, dt={dt:g})")


def _line_residual(grid, axis, d_dt, x, b):
    """``max|x - dt*d*L_axis x - b|`` with ``L_axis`` applied line by line
    through the public 1D stencil."""
    line_grid = make_grid_1d(grid.shape[axis], grid.lengths[axis])
    xs = np.moveaxis(x, axis, -1).reshape(-1, grid.shape[axis])
    bs = np.moveaxis(b, axis, -1).reshape(-1, grid.shape[axis])
    return max(
        float(np.max(np.abs(xl - d_dt * laplacian_neumann(line_grid, xl) - bl)))
        for xl, bl in zip(xs, bs)
    )


class TestDiffusionSolver:
    def test_residual_contract(self):
        rng = np.random.default_rng(21)
        ks = fd.power_law_uniform(3, 4.0, 0.5)
        g = make_grid_1d(64)
        solver = DiffusionSolver(g, ks)
        for dt in (1e-3, 0.5):
            stage = rng.standard_normal((3,) + g.shape)  # signed input is fine
            out = solver.solve(stage.copy(), dt)
            for i in range(3):
                b, x = stage[i], out[i]
                resid = np.max(np.abs(x - dt * ks.d[i] * laplacian_neumann(g, x) - b))
                assert resid <= 1e-12 * max(1.0, np.max(np.abs(b)))
        # 2D: the x sweep and the y sweep each meet the contract on their own
        g = make_grid_2d(8, 12, 1.0, 1.5)
        solver = DiffusionSolver(g, ks)
        for dt in (1e-3, 0.5):
            stage = rng.standard_normal((3,) + g.shape)
            w = solver.sweep(stage.copy(), dt, 0)
            out = solver.sweep(w.copy(), dt, 1)
            np.testing.assert_array_equal(solver.solve(stage.copy(), dt), out)
            for i in range(3):
                for axis, b, x in ((0, stage[i], w[i]), (1, w[i], out[i])):
                    resid = _line_residual(g, axis, dt * ks.d[i], x, b)
                    assert resid <= 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_batched_matches_per_species_ldl(self):
        # the blocks are decoupled, so the batched factorization does the
        # same arithmetic as one textbook LDL^T per species
        rng = np.random.default_rng(26)
        g = make_grid_1d(48, 1.5)
        ks = fd.power_law_uniform(5, 4.0, 0.5)
        solver = DiffusionSolver(g, ks)
        for dt in (1e-4, 1e-3, 0.05, 0.5, 2.0):
            stage = rng.uniform(0.0, 2.0, size=(5,) + g.shape)
            np.testing.assert_array_equal(
                solver.solve(stage.copy(), dt), _per_line_ldl(g, ks, stage, dt)
            )

    @pytest.mark.parametrize("shape", [(8, 12), (37, 53)], ids=["8x12", "37x53"])
    def test_2d_matches_per_line_ldl(self, shape):
        # every line of a species shares that species' block, so the
        # multi-right-hand-side sweeps do the same arithmetic as one
        # textbook LDL^T solve per line
        rng = np.random.default_rng(27)
        g = make_grid_2d(*shape, 1.0, 1.5)
        ks = fd.power_law_uniform(3, 4.0, 0.5)
        solver = DiffusionSolver(g, ks)
        for dt in (1e-4, 1e-3, 0.05, 0.5):
            stage = rng.uniform(0.0, 2.0, size=(3,) + g.shape)
            out = solver.solve(stage.copy(), dt)
            assert out.flags.c_contiguous
            np.testing.assert_array_equal(out, _per_line_ldl(g, ks, stage, dt))

    def test_matches_dense_solve(self):
        # against a dense LU of I - dt*d_i*L with L taken from the public
        # stencil: A is a diagonally dominant M-matrix with unit row sums,
        # so ||A^-1||_inf <= 1 and the two solutions differ by at most the
        # sum of their residuals, each within the 1e-12 contract
        rng = np.random.default_rng(29)
        g = make_grid_1d(48, 1.5)
        ks = fd.power_law_uniform(5, 4.0, 0.5)
        solver = DiffusionSolver(g, ks)
        lap = np.stack([laplacian_neumann(g, e) for e in np.eye(48)], axis=1)
        for dt in (1e-4, 1e-3, 0.05, 0.5, 2.0):
            stage = rng.uniform(0.0, 2.0, size=(5,) + g.shape)
            out = solver.solve(stage.copy(), dt)
            for i in range(5):
                dense = np.linalg.solve(np.eye(48) - dt * ks.d[i] * lap, stage[i])
                tol = 2e-12 * max(1.0, np.max(np.abs(stage[i])))
                assert np.max(np.abs(out[i] - dense)) <= tol

    @pytest.mark.parametrize(
        "grid", [make_grid_1d(48), make_grid_2d(8, 12), make_grid_2d(37, 53)],
        ids=["48", "8x12", "37x53"],
    )
    def test_factor_storage_per_species(self, grid):
        # one tridiagonal block per species and axis, shared by all lines:
        # the LDL^T factor of an axis with m cells holds 2 * n * m - 1
        # numbers, and it carries the sign certificate (the pivots of these
        # unit-row-sum M-matrices are even >= 1)
        ks = fd.power_law_uniform(5, 4.0, 0.5)
        solver = DiffusionSolver(grid, ks)
        out = solver.solve(np.ones((5,) + grid.shape), 1e-3)
        assert out.flags.c_contiguous
        for (*_, d, l), m in zip(solver._factors[1e-3], grid.shape):
            assert d.size + l.size == 2 * ks.n * m - 1
            assert np.all(d >= 1.0) and np.all(l <= 0.0)

    def test_sign_certificate(self):
        # a positive multiplier would let the substitutions subtract, and a
        # nonpositive pivot means no LDL^T factor: both are refused
        d, l = _ldl_factor(np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0]))
        np.testing.assert_array_equal(l, [-0.5, -1.0 / 1.5])
        with pytest.raises(fd.LinearSolveError):
            _ldl_factor(np.array([2.0, 2.0]), np.array([1.0]))
        with pytest.raises(fd.LinearSolveError):
            _ldl_factor(np.array([1.0, 1.0]), np.array([-2.0]))

    def test_nonnegative_exactly(self):
        # no-pivot LU of an M-matrix: nonnegative input gives nonnegative
        # output without any floating-point undershoot
        rng = np.random.default_rng(22)
        for g in (make_grid_1d(64), make_grid_2d(9, 9)):
            ks = fd.power_law_uniform(4, 4.0, 0.5)
            solver = DiffusionSolver(g, ks)
            for dt in (1e-3, 0.05, 1.0):
                stage = rng.uniform(0.0, 1.0, size=(4,) + g.shape)
                stage[stage < 0.35] = 0.0  # plenty of exact zeros
                out = solver.solve(stage, dt)
                assert np.all(out >= 0.0)

    def test_uncertifiable_solve_refused(self):
        # at dt * d / h^2 ~ 1.5e5 the attainable residual exceeds the
        # certification threshold, so the solver must refuse, not hand
        # back an unverified state
        g, ks, stage = _uncertifiable_setup()
        solver = DiffusionSolver(g, ks)
        with pytest.raises(fd.LinearSolveError, match=r"\(species 1, axis 0, dt=37\.5\)$"):
            solver.solve(stage, 37.5)

    @pytest.mark.parametrize("shape, dt", [((64,), 37.5), ((4, 64), 300.0), ((6, 64), 300.0)],
                             ids=["64", "4x64", "6x64"])
    def test_refusal_matches_per_species_reference(self, shape, dt, monkeypatch):
        self._check_refusal_matches_reference(shape, dt, False, monkeypatch)

    @pytest.mark.parametrize("shape, dt", [((64,), 37.5), ((4, 64), 300.0), ((6, 64), 300.0)],
                             ids=["64", "4x64", "6x64"])
    def test_refusal_matches_per_species_reference_one_row_blocks(self, shape, dt, monkeypatch):
        self._check_refusal_matches_reference(shape, dt, True, monkeypatch)

    @pytest.mark.parametrize("rows", [False, True], ids=["blocks", "one_row_blocks"])
    @pytest.mark.parametrize("shape, dt", [((64,), 37.5), ((4, 64), 300.0), ((6, 64), 300.0)],
                             ids=["64", "4x64", "6x64"])
    def test_refusal_bound_reads_the_whole_stage(self, shape, dt, rows, monkeypatch):
        # every species peaks at 4 in the first row of the x sweep, which
        # is constant along x: the refusal's bound is 4e-12, also where
        # that row passed and was written back before a later block missed
        # (6x64 with one row per block)
        self._check_refusal_matches_reference(shape, dt, rows, monkeypatch, peak=4.0)

    @staticmethod
    def _check_refusal_matches_reference(shape, dt, rows, monkeypatch, peak=None):
        # stages whose sweeps miss the contract, on the y sweep (4x64) and
        # on the x sweep (64, 6x64): the refusal names the species, axis,
        # residual and bound that per-line solves and residuals give.  With
        # one row per block, species 1 is constant and meets the contract,
        # so on the y sweep, one line per block, the first blocks pass and
        # the failing species lie in later ones
        g = make_grid_1d(*shape) if len(shape) == 1 else make_grid_2d(*shape)
        ks = fd.power_law_uniform(4, 4.0, 0.5)
        stage = np.ones((4,) + g.shape)
        stage[..., ::3] = 0.0
        if rows:
            monkeypatch.setattr(stepper, "_BLOCK_CELLS", 1)
            stage[0] = 1.0
        if peak is not None:
            stage[..., 0] = peak
        solver = DiffusionSolver(g, ks)
        for axis in range(g.dim):
            want = _reference_refusal(g, ks, stage, dt, axis)
            if want is not None:
                break
            stage = solver.sweep(stage, dt, axis)
        assert want is not None
        with pytest.raises(fd.LinearSolveError) as exc_info:
            solver.sweep(stage, dt, axis)
        assert str(exc_info.value) == want

    def test_refusal_bound_reads_a_gathered_block_before_its_write_back(self, monkeypatch):
        # blocks of 400 cells: the x sweep of 6x64 gathers the 64 lines of
        # one species per block, solves them in scratch and writes them
        # back once checked.  Every species peaks at 4 in one cell, which
        # its solve smooths, so the refusal's bound, 4e-12, is read from
        # the stage that x still holds when a block misses
        monkeypatch.setattr(stepper, "_BLOCK_CELLS", 400)
        g = make_grid_2d(6, 64)
        ks = fd.power_law_uniform(4, 4.0, 0.5)
        stage = np.ones((4,) + g.shape)
        stage[..., ::3] = 0.0
        stage[:, 2, 7] = 4.0
        want = _reference_refusal(g, ks, stage, 1e3, 0)
        assert want is not None and "contract 4e-12" in want
        with pytest.raises(fd.LinearSolveError) as exc_info:
            DiffusionSolver(g, ks).sweep(stage.copy(), 1e3, 0)
        assert str(exc_info.value) == want

    @pytest.mark.parametrize("grid", [make_grid_1d(48), make_grid_2d(8, 12)], ids=["1D", "2D"])
    def test_contract_decided_whole_array_first(self, grid, monkeypatch):
        # no species' bound is below 1e-12, so a residual within 1e-12
        # everywhere is accepted by one test of the whole array; a stage
        # scaled by 1e6 misses that test, and its per-species bounds, each
        # 1e-12 * max|stage_i|, accept it
        calls = []
        real = stepper._species_contract

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(stepper, "_species_contract", counted)
        ks = fd.power_law_uniform(3, 4.0, 0.5)
        solver = DiffusionSolver(grid, ks)
        stage = np.random.default_rng(31).uniform(0.0, 2.0, size=(3,) + grid.shape)
        for scale, per_species in ((1.0, 0), (1e6, grid.dim)):
            for dt in (1e-3, 0.05):
                calls.clear()
                out = solver.solve(scale * stage, dt)
                assert len(calls) == per_species, (scale, dt)
                np.testing.assert_array_equal(out, _per_line_ldl(grid, ks, scale * stage, dt))

    @pytest.mark.parametrize(
        "grid", [make_grid_1d(40), make_grid_2d(8, 12), make_grid_2d(37, 53)],
        ids=["40", "8x12", "37x53"],
    )
    def test_flat_residual_matches_shifted_form(self, grid, monkeypatch):
        self._check_flat_residual(grid, False, monkeypatch)

    @pytest.mark.parametrize(
        "grid", [make_grid_1d(40), make_grid_2d(8, 12), make_grid_2d(37, 53)],
        ids=["40", "8x12", "37x53"],
    )
    def test_flat_residual_matches_shifted_form_one_row_blocks(self, grid, monkeypatch):
        self._check_flat_residual(grid, True, monkeypatch)

    @staticmethod
    def _check_flat_residual(grid, rows, monkeypatch):
        # both couplings are added over the flat residual; across the end
        # of a line or a species they add +-0, so the residual is the one
        # the shifted per-line form gives, with the same absolute bits.
        # Every block forms its residual once, whether it misses or not:
        # one block per sweep at these sizes; with one cell per block, one
        # per line of each species on every axis, 1D included
        if rows:
            monkeypatch.setattr(stepper, "_BLOCK_CELLS", 1)
        seen = []
        real = stepper._residual

        def recorded(diag, off, prev, x, b, r, t):
            want = _shifted_residual(diag, off[..., :-1], x, b)  # before t overwrites b
            seen.append((want, real(diag, off, prev, x, b, r, t).copy()))
            return r

        monkeypatch.setattr(stepper, "_residual", recorded)
        ks = fd.power_law_uniform(3, 4.0, 0.5)
        solver = DiffusionSolver(grid, ks)
        rng = np.random.default_rng(32)
        for dt in (1e-3, 0.5):
            for scale in (1.0, 1e6):
                solver.solve(scale * rng.uniform(0.0, 2.0, size=(3,) + grid.shape), dt)
        cells = math.prod(grid.shape)
        blocks = 3 * sum(cells // m for m in grid.shape) if rows else grid.dim
        assert len(seen) == 4 * blocks
        for want, got in seen:
            np.testing.assert_array_equal(got, want)
            assert np.abs(got).tobytes() == np.abs(want).tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("grid", [make_grid_1d(16), make_grid_2d(8, 12)], ids=["1D", "2D"])
    def test_non_finite_stage_refused(self, grid, value, monkeypatch):
        self._check_non_finite_refused(grid, value, False, monkeypatch)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("grid", [make_grid_1d(16), make_grid_2d(8, 12)], ids=["1D", "2D"])
    def test_non_finite_stage_refused_one_row_blocks(self, grid, value, monkeypatch):
        self._check_non_finite_refused(grid, value, True, monkeypatch)

    @staticmethod
    def _check_non_finite_refused(grid, value, rows, monkeypatch):
        # the residual contract fails closed: a NaN residual misses it, on
        # every axis, also when it lies in a later block than the first
        # (with one row per block, in 2D: the x sweep's sixth line and the
        # y sweep's first line of that species).  Zero couplings carry a NaN into the
        # other species of a solve, yet the refusal names the species whose
        # stage is not finite, and no sweep warns (the suite turns a
        # RuntimeWarning into an error)
        if rows:
            monkeypatch.setattr(stepper, "_BLOCK_CELLS", 1)
        solver = DiffusionSolver(grid, fd.power_law_uniform(4, 4.0, 0.5))
        for species in (2, 4):
            stage = np.ones((4,) + grid.shape)
            stage[species - 1].flat[5] = value
            with pytest.raises(fd.LinearSolveError, match=f"species {species}, axis 0, dt="):
                solver.solve(stage.copy(), 1e-3)
            for axis in range(grid.dim):
                with pytest.raises(fd.LinearSolveError,
                                   match=f"species {species}, axis {axis}, dt="):
                    solver.sweep(stage.copy(), 1e-3, axis)

    def test_1d_reads_the_stage_in_place(self):
        # the solve runs dpttrs on its stage itself and returns it; a stage
        # in any layout, copied into a C-contiguous stack, solves to the
        # same bits, and one that is not such a stack is refused, since
        # dpttrs would solve a copy of it
        rng = np.random.default_rng(30)
        g = make_grid_1d(40)
        solver = DiffusionSolver(g, fd.power_law_uniform(5, 4.0, 0.5))
        stage = rng.uniform(0.0, 2.0, size=(5,) + g.shape)
        x = stage.copy()
        out = solver.solve(x, 0.05)
        assert out is x
        np.testing.assert_array_equal(out, _per_line_ldl(g, solver.ks, stage, 0.05))
        for view in (np.asfortranarray(stage), np.repeat(stage, 2, axis=1)[:, ::2]):
            np.testing.assert_array_equal(solver.solve(np.ascontiguousarray(view), 0.05), out)
            before = view.tobytes()
            with pytest.raises(DomainError, match="C-contiguous float64"):
                solver.solve(view, 0.05)
            assert view.tobytes() == before
        frozen = stage.copy()
        frozen.flags.writeable = False
        for bad in (frozen, stage.astype(np.float32)):
            with pytest.raises(DomainError, match="writable C-contiguous float64"):
                solver.solve(bad, 0.05)

    @pytest.mark.parametrize("rows", [False, True], ids=["blocks", "one_row_blocks"])
    @pytest.mark.parametrize(
        "grid", [make_grid_1d(48), make_grid_2d(8, 12), make_grid_2d(37, 53)],
        ids=["48", "8x12", "37x53"],
    )
    def test_in_place_sweeps_match_per_line_ldl(self, grid, rows, monkeypatch):
        # each sweep overwrites its stage with the bits of the per-line
        # reference solve of a copy, also when its rows are gathered (the
        # x sweep of a 2D stack) and with one row per block
        if rows:
            monkeypatch.setattr(stepper, "_BLOCK_CELLS", 1)
        rng = np.random.default_rng(34)
        ks = fd.power_law_uniform(4, 4.0, 0.5)
        solver = DiffusionSolver(grid, ks)
        for dt in (1e-3, 0.5):
            stage = rng.uniform(0.0, 2.0, size=(4,) + grid.shape)
            x = stage.copy()
            for axis in range(grid.dim):
                want = _per_line_sweep(grid, ks, x, dt, axis)
                assert solver.sweep(x, dt, axis) is x
                assert x.tobytes() == want.tobytes(), axis
            x = stage.copy()
            assert solver.solve(x, dt) is x
            assert x.tobytes() == _per_line_ldl(grid, ks, stage, dt).tobytes()

    @pytest.mark.parametrize("n, cells, scratch", [(4, 160, 3 * 159), (5, 600, 3 * 592)])
    def test_sweeps_solve_in_blocks_of_lines(self, n, cells, scratch, monkeypatch):
        # on 37x53, blocks of 160 cells: the x sweep gathers four lines of
        # 37 cells of one species per block (a line of the 4 species is 148
        # cells), and the y sweep takes each species three lines of 53 cells
        # at a time.  Blocks of 600 cells: the x sweep gathers sixteen lines
        # of one species, and the y sweep takes eleven lines.  The bits are
        # the per-line reference solve's, and the scratch is three blocks
        monkeypatch.setattr(stepper, "_BLOCK_CELLS", cells)
        g = make_grid_2d(37, 53)
        ks = fd.power_law_uniform(n, 4.0, 0.5)
        solver = DiffusionSolver(g, ks)
        stage = np.random.default_rng(35).uniform(0.0, 2.0, size=(n,) + g.shape)
        for dt in (1e-3, 0.5):
            x = stage.copy()
            for axis in range(2):
                want = _per_line_sweep(g, ks, x, dt, axis)
                assert solver.sweep(x, dt, axis).tobytes() == want.tobytes()
            x = stage.copy()
            assert solver.solve(x, dt).tobytes() == _per_line_ldl(g, ks, stage, dt).tobytes()
        assert solver._scratch.size == scratch

    def test_1d_stack_larger_than_a_block(self):
        # n=1024 species of 64 cells are four blocks of 256 species, each
        # solved in place: the scratch stays three blocks, and the bits are
        # the per-line reference solve's.  A NaN or inf in a later block is
        # refused, and the refusal names its first species that is not
        # finite, also where an earlier block passed
        g = make_grid_1d(64)
        ks = fd.power_law_uniform(1024, 4.0, 0.5)
        solver = DiffusionSolver(g, ks)
        stage = np.random.default_rng(36).uniform(0.0, 2.0, size=(1024,) + g.shape)
        x = stage.copy()
        assert solver.solve(x, 0.05) is x
        assert x.tobytes() == _per_line_ldl(g, ks, stage, 0.05).tobytes()
        assert solver._scratch.nbytes == 3 * 8 * stepper._BLOCK_CELLS
        for bad in ((700,), (600, 1000), (1000, 300)):
            x = stage.copy()
            for species, value in zip(bad, (np.nan, np.inf)):
                x[species - 1, 5] = value
            with pytest.raises(fd.LinearSolveError,
                               match=f"species {min(bad)}, axis 0, dt=0.05"):
                solver.solve(x, 0.05)

    def test_split_species_bound_reads_every_block(self, monkeypatch):
        # one line per block of the y sweep: species 2's bound reads its
        # peak from a block that passed; the spike of 4 in line 0 solves
        # within 1e-12, and lines 1 to 3 miss 1e-12 but meet 4e-12, so the
        # sweep accepts, as the per-line reference does
        monkeypatch.setattr(stepper, "_BLOCK_CELLS", 64)
        g = make_grid_2d(4, 64)
        ks = fd.power_law_uniform(4, 4.0, 0.5)
        stage = np.zeros((4,) + g.shape)
        stage[1] = 1.0
        stage[1, :, ::3] = 0.0
        stage[1, 0] = 0.0
        stage[1, 0, 7] = 4.0
        assert _reference_refusal(g, ks, stage, 3.0, 1) is None
        x = stage.copy()
        want = _per_line_sweep(g, ks, stage, 3.0, 1)
        assert DiffusionSolver(g, ks).sweep(x, 3.0, 1).tobytes() == want.tobytes()

    def test_solver_holds_no_field_sized_buffer(self):
        # a 2D sweep solves in place and allocates no field-sized array,
        # here an eighth of a stack at a warm step size: the solver keeps
        # its factors, about 4 * n * m numbers per axis, and three scratch
        # blocks, which the first sweep allocates
        import tracemalloc

        g = make_grid_2d(64, 64)
        ks = fd.power_law_uniform(32, 4.0, 0.5)
        stage = np.random.default_rng(33).uniform(0.0, 2.0, size=(32,) + g.shape)
        factor_bytes = 8 * 4 * 32 * sum(g.shape) + 16384
        blocks = 3 * 8 * stepper._BLOCK_CELLS
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solver = DiffusionSolver(g, ks)
            assert tracemalloc.get_traced_memory()[0] - base < 4096
            solver.sweep(stage, 1e-3, 0)
            held = tracemalloc.get_traced_memory()[0] - base
            for dt in (1e-3, 2e-3):  # a warm and a cold step size
                for axis in (0, 1):
                    tracemalloc.reset_peak()
                    start = tracemalloc.get_traced_memory()[0]
                    assert solver.sweep(stage, dt, axis) is stage
                    peak = tracemalloc.get_traced_memory()[1] - start
                    # numpy's ufunc buffer of 8192 values, and the factors of
                    # a cold step size with their temporaries
                    assert peak <= (2**17 if dt == 1e-3 else 2 * factor_bytes), (dt, axis, peak)
            held_after = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= factor_bytes + blocks and held_after <= 2 * factor_bytes + blocks, \
            (held, held_after)
        assert solver._scratch.nbytes == blocks
        arrays = [a for axes in solver._factors.values() for f in axes for a in f]
        assert max(a.size for a in arrays) < stage.size // 16

    def test_factor_cache(self):
        g = make_grid_1d(16)
        solver = DiffusionSolver(g, pure_diffusion_kernel())
        solver.solve(np.ones((1, 16)), 1e-3)
        solver.solve(np.ones((1, 16)), 1e-3)
        assert len(solver._factors) == 1
        solver.solve(np.ones((1, 16)), 2e-3)
        assert len(solver._factors) == 2
        # least recently used step sizes are evicted; 2e-3 stays in use
        stage = np.cos(np.pi * g.centers())[None, :] + 2.0
        first = solver.solve(stage, 1e-3)
        for k in range(3, 3 * _MAX_FACTOR_SETS):
            solver.solve(stage, 2e-3)
            solver.solve(stage, k * 1e-3)
            assert len(solver._factors) <= _MAX_FACTOR_SETS
            assert 2e-3 in solver._factors
        assert 1e-3 not in solver._factors
        np.testing.assert_array_equal(solver.solve(stage, 1e-3), first)

    def test_constant_passthrough(self):
        # row sums of I - dt*d*L are 1, so constants are fixed points
        g = make_grid_1d(32)
        solver = DiffusionSolver(g, pure_diffusion_kernel())
        out = solver.solve(np.full((1, 32), 0.75), 0.2)
        np.testing.assert_allclose(out, 0.75, rtol=1e-13)


def test_import_loads_lapack_without_scipy_linalg():
    # a fresh interpreter: fails if the loader silently falls back to
    # scipy.linalg.lapack or runs scipy/__init__ to find scipy's directory,
    # and checks that scipy.linalg still imports later
    code = (
        "import sys, fragdiff.cli\n"
        "assert 'scipy.linalg' not in sys.modules, sorted(sys.modules)\n"
        "assert 'scipy' not in sys.modules, sorted(sys.modules)\n"
        "import numpy as np, scipy.linalg\n"
        "assert scipy.linalg.solve(np.eye(2), np.ones(2)).tolist() == [1.0, 1.0]\n"
    )
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _assert_same_as_scipy_linalg(dpttrf, dpttrs):
    """Factors and a multi-column solve of a diagonally dominant tridiagonal
    system are bitwise equal to ``scipy.linalg.lapack``'s."""
    from scipy.linalg import lapack

    rng = np.random.default_rng(16)
    diag, off = 2.0 + rng.random(200), -rng.random(199)
    b = rng.standard_normal((200, 7))
    d, l, info = dpttrf(diag, off)
    d_ref, l_ref, info_ref = lapack.dpttrf(diag, off)
    assert info == info_ref == 0
    x, info = dpttrs(d, l, b)
    x_ref, info_ref = lapack.dpttrs(d_ref, l_ref, b)
    assert info == info_ref == 0
    for got, ref in ((d, d_ref), (l, l_ref), (x, x_ref)):
        assert got.tobytes() == ref.tobytes()


def test_loaded_lapack_routines_match_scipy_linalg():
    _assert_same_as_scipy_linalg(stepper.dpttrf, stepper.dpttrs)


def test_lapack_loader_falls_back_without_the_extension_file(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix"])
    _assert_same_as_scipy_linalg(*stepper._load_lapack_pt())


def test_lapack_loader_falls_back_without_a_scipy_spec(monkeypatch):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    _assert_same_as_scipy_linalg(*stepper._load_lapack_pt())


def test_run_frees_a_handed_over_initial_stack():
    # a stack passed directly stays alive for the whole run, one handed
    # over through [F0].pop is freed before the first sample, also while
    # the caller holds every argument until the call returns, as CPython
    # frames before 3.11 do; the argument tuple held here stands for that
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(4, 4.0, 0.5)
    cfg = StepperConfig(dt=1e-3, t_end=3e-3)
    for handed_over in (False, True):
        F0 = np.ones((4,) + g.shape)
        ref = weakref.ref(F0)
        args = (g, ks, [F0].pop if handed_over else F0, cfg)
        del F0
        alive = []
        traj = run_simulation(*args, cadence=1,
                              sample=lambda t, F, Q: alive.append(ref() is not None))
        assert alive == [not handed_over] * 4
        np.testing.assert_array_equal(traj.times, [0.0, 1e-3, 2e-3, 3e-3])


def _bump_2d(n):
    """A 64 x 64 grid and a smooth initial stack of ``n`` species on it."""
    g = make_grid_2d(64, 64)
    x, y = np.meshgrid(*[(np.arange(64) + 0.5) / 64] * 2, indexing="ij")
    F0 = np.array([math.exp(-i) * (1.0 + 0.5 * np.cos(2 * np.pi * x) * np.cos(np.pi * y))
                   for i in range(1, n + 1)])
    return g, F0


def test_loop_peak_is_four_field_stacks():
    # three stacks, F, Q and the work stack, plus the solver's three
    # scratch blocks and its factors: the run copies its initial stack and
    # releases it, and no step allocates a field-sized array (a fourth
    # stack would take the peak to at least 4.75 MB)
    import tracemalloc

    g, F0 = _bump_2d(32)
    ks = fd.power_law_uniform(32, 4.0, 0.5)
    cfg = StepperConfig(dt=1e-3, t_end=3e-3)
    run_simulation(g, ks, F0, cfg, eps=0.01, sample=lambda t, F, Q: None)  # warm imports
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = run_simulation(g, ks, F0, cfg, eps=0.01, sample=lambda t, F, Q: None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert traj.state.step_index == 3 and traj.state.rejected_steps == 0
    assert F0.nbytes == 2**20
    assert peak <= 3 * 2**20 + 3 * 8 * stepper._BLOCK_CELLS + 3 * 2**17, peak / 2**20


def test_loop_peak_is_two_field_stacks(monkeypatch):
    # two stacks, F and Q: an attempt forms and solves its stage in Q's
    # stack, and every q_field, the first included, forms its gain in the
    # solver's three idle scratch blocks, so the loop peaks at two stacks
    # plus those blocks and the solver's factors (a third stack would take
    # the peak to at least 3 MB)
    import tracemalloc

    g, F0 = _bump_2d(32)
    ks = fd.power_law_uniform(32, 4.0, 0.5)
    cfg = StepperConfig(dt=1e-3, t_end=3e-3)
    scratch, real = [], fd.reaction.q_field

    def recorded(F, ks, eps=0.0, **stacks):
        scratch.append(stacks["work"].size)
        return real(F, ks, eps, **stacks)

    monkeypatch.setattr(fd.reaction, "q_field", recorded)
    run_simulation(g, ks, F0, cfg, eps=0.01, sample=lambda t, F, Q: None)  # warm imports
    assert scratch == [3 * stepper._BLOCK_CELLS] * 4
    assert F0.nbytes == 2**20
    # streamed into a sampler, and with no sampler at every step: a run
    # without a sampler keeps no sampled state
    for kwargs in ({"sample": lambda t, F, Q: None}, {"cadence": 1}):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            traj = run_simulation(g, ks, F0, cfg, eps=0.01, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert traj.state.step_index == 3 and traj.state.rejected_steps == 0
        bound = 2 * 2**20 + 3 * 8 * stepper._BLOCK_CELLS + 3 * 2**17
        assert peak <= bound, (kwargs, peak / 2**20)
    assert len(traj.times) == 4


@pytest.mark.parametrize("make, n", [(fd.power_law_uniform, 32), (fd.cheng_redner_uniform, 16)],
                         ids=["uniform", "cheng_redner"])
def test_no_step_allocates_a_field_stack(make, n):
    # sampled after every step, the traced peak since the last sample stays
    # within one stack of what is allocated at the sample: the stage, the
    # sweeps and the reaction term are formed in the run's own stacks
    import tracemalloc

    g, F0 = _bump_2d(n)
    ks = make(n, 4.0, 0.5)
    cfg = StepperConfig(dt=1e-3, t_end=5e-3)
    seen = []

    def sample(t, F, Q):
        seen.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        traj = run_simulation(g, ks, F0, cfg, eps=0.01, cadence=1, sample=sample)
    finally:
        tracemalloc.stop()
    assert traj.state.step_index == 5 and len(seen) == 6
    for current, peak in seen:
        assert peak - current < F0.nbytes, (current, peak)
    # after the first step, which allocates the solver's factors and
    # scratch, only the recorded sample times grow
    assert seen[-1][0] - seen[1][0] < 4096, seen


def test_imex_mass_conservation():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(8, 4.0, 0.5)
    x = g.centers()
    F0 = np.array([math.exp(-i) * (1.0 + 0.5 * np.cos(2 * np.pi * x)) for i in range(1, 9)])
    cfg = StepperConfig(scheme="imex_euler", dt=1e-3, t_end=0.05)
    fields, sample = copies()
    traj = run_simulation(g, ks, F0, cfg, eps=0.01, sample=sample)
    m0 = weighted_mass(g, ks, fields[0])
    m1 = weighted_mass(g, ks, traj.terminal)
    assert abs(m1 - m0) <= 1e-12 * m0
    assert np.min(traj.terminal) >= 0.0


def _fast_decay_setup():
    """Constant-in-x state whose species 3 decays at rate ~19.25, so the
    dt = 0.2 and dt = 0.1 stages both go negative and dt = 0.05 does not."""
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(4, 1.5, 0.0, profile="stronger")
    F0 = np.zeros((4, 16))
    F0[0] = 300.0
    F0[2] = 1.0
    return g, ks, F0


def test_imex_reject_to_abort():
    # the next halving after dt = 0.1 undercuts dt_min
    g, ks, F0 = _fast_decay_setup()
    cfg = StepperConfig(scheme="imex_euler", dt=0.2, t_end=100.0,
                        negativity_policy="reject_and_halve", dt_min=0.06)
    with pytest.raises(NumericalAbortError) as exc_info:
        run_simulation(g, ks, F0, cfg)
    exc = exc_info.value
    assert exc.trajectory is not None
    assert exc.trajectory.state.rejected_steps == 2
    assert exc.trajectory.times == [0.0]
    np.testing.assert_array_equal(exc.trajectory.terminal, F0)


def _uncertifiable_setup():
    """The grid, kernel and stage of ``test_uncertifiable_solve_refused``:
    the residual contract fails at dt = 37.5 and first holds after six
    halvings, at dt = 37.5 / 64."""
    g = make_grid_1d(64)
    ks = fd.power_law_uniform(4, 4.0, 0.5)
    F0 = np.ones((4,) + g.shape)
    F0[:, ::3] = 0.0
    return g, ks, F0


def test_failed_solve_contract_halves_step():
    g, ks, F0 = _uncertifiable_setup()
    cfg = StepperConfig(dt=37.5, t_end=37.5)
    traj = run_simulation(g, ks, F0, cfg, cadence=1)
    assert traj.times[1] == 37.5 / 64.0
    assert traj.state.rejected_steps >= 6
    assert traj.state.t == pytest.approx(37.5)
    assert np.min(traj.terminal) >= 0.0


def test_halved_retries_reuse_the_states_q(monkeypatch):
    # one q_field per accepted state, and one per rejected attempt: an
    # attempt forms its stage in Q's stack, so a rejected one evaluates the
    # state's Q again from the untouched state
    g, ks, F0 = _uncertifiable_setup()
    calls = []
    real = fd.reaction.q_field

    def counted(F, ks, eps=0.0, **stacks):
        calls.append(None)
        return real(F, ks, eps, **stacks)

    monkeypatch.setattr(fd.reaction, "q_field", counted)
    cfg = StepperConfig(scheme="imex_euler", dt=37.5, t_end=37.5)
    fields, sample = copies()
    traj = run_simulation(g, ks, F0, cfg, cadence=1, sample=sample)
    assert traj.state.rejected_steps >= 6
    assert len(calls) == traj.state.step_index + 1 + traj.state.rejected_steps
    assert len(fields) == len(traj.times) == traj.state.step_index + 1


def test_steps_start_at_the_last_accepted_dt(monkeypatch):
    # the reference config on 4096 cells to t_end 0.01: a step is first
    # accepted at dt / 8, after three halvings.  Every later step starts at
    # the step just accepted, and every 10th tries twice that and is
    # halved back, so the run pays 3 + 7 rejected attempts, where restarting
    # every step at dt paid 225 in 78 steps.  The solver holds the factors
    # of the four step sizes it tried.
    from fragdiff.config import (SimConfig, make_grid, make_initial_condition, make_kernel_set,
                                 reference_scenario_dict)

    doc = reference_scenario_dict()
    doc["grid"]["cells"] = [4096]
    doc["stepper"]["t_end"] = 0.01
    cfg = SimConfig.from_dict(doc)
    solvers = []

    class Recorded(DiffusionSolver):
        def __init__(self, *args):
            super().__init__(*args)
            solvers.append(self)

    monkeypatch.setattr(stepper, "DiffusionSolver", Recorded)
    grid = make_grid(cfg.grid)
    traj = run_simulation(grid, make_kernel_set(cfg.kernel),
                          make_initial_condition(cfg.ic, grid, cfg.kernel.n), cfg.stepper,
                          eps=cfg.eps, cadence=1, sample=lambda t, F, Q: None)
    assert (traj.state.step_index, traj.state.rejected_steps) == (80, 10)
    assert traj.state.t == traj.times[-1] == 0.01
    assert np.allclose(np.diff(traj.times), 1e-3 / 8, rtol=1e-9, atol=0.0)
    assert sorted(solvers[0]._factors) == [1e-3 / 8, 1e-3 / 4, 1e-3 / 2, 1e-3]
    assert len(solvers[0]._factors) <= _MAX_FACTOR_SETS


def _reference_trajectory(grid, ks, F0, cfg, eps):
    """``(t, digest of F, digest of Q)`` of every accepted state, and the
    rejected attempts, of a loop that forms every stage and every ``Q`` in
    new arrays, with :func:`run_simulation`'s operations and step-size
    rule."""
    import hashlib

    solver = DiffusionSolver(grid, ks)
    F = np.array(F0, dtype=float)
    t, dt_next, streak, rejected = 0.0, cfg.dt, 0, 0
    guard = 1e-12 * max(1.0, abs(cfg.t_end))
    Q = fd.q_field(F, ks, eps)
    states = [(t, hashlib.sha256(F).hexdigest(), hashlib.sha256(Q).hexdigest())]
    while t < cfg.t_end - guard:
        dt = dt_next if cfg.t_end - t >= dt_next - guard else cfg.t_end - t
        while True:
            try:
                cand = solver.solve(Q * dt + F, dt)
            except fd.LinearSolveError:
                cand = None
            if cand is not None and cand.min() >= 0.0:
                break
            rejected += 1
            dt *= 0.5
        streak = streak + 1 if dt < cfg.dt else 0
        dt_next = dt if streak < stepper._DT_STREAK else min(2.0 * dt, cfg.dt)
        streak %= stepper._DT_STREAK
        t += dt
        if t >= cfg.t_end - guard:
            t = cfg.t_end
        F = cand
        Q = fd.q_field(F, ks, eps)
        states.append((t, hashlib.sha256(F).hexdigest(), hashlib.sha256(Q).hexdigest()))
    return states, rejected


@pytest.mark.parametrize("setup", ["uncertifiable", "cells_4096"])
def test_two_stacks_keep_the_trajectory_of_new_arrays(setup):
    # the run recycles two stacks: each attempt forms and solves its stage
    # in Q's stack, and a rejected one evaluates the state's Q again.
    # Every accepted state and its Q, and the rejected attempts, are those
    # of a loop that forms every stage and every Q in new arrays: on
    # _uncertifiable_setup, whose solves miss the residual contract, and
    # on the reference config at 4096 cells (80 steps, 10 rejected)
    import hashlib

    if setup == "uncertifiable":
        g, ks, F0 = _uncertifiable_setup()
        cfg, eps = StepperConfig(dt=37.5, t_end=37.5), 0.0
    else:
        from fragdiff.config import (SimConfig, make_grid, make_initial_condition,
                                     make_kernel_set, reference_scenario_dict)

        doc = reference_scenario_dict()
        doc["grid"]["cells"] = [4096]
        doc["stepper"]["t_end"] = 0.01
        sim = SimConfig.from_dict(doc)
        g, ks = make_grid(sim.grid), make_kernel_set(sim.kernel)
        F0 = make_initial_condition(sim.ic, g, sim.kernel.n)
        cfg, eps = sim.stepper, sim.eps
    states, rejected = _reference_trajectory(g, ks, F0, cfg, eps)
    seen = []

    def sample(t, F, Q):
        seen.append((t, hashlib.sha256(F).hexdigest(), hashlib.sha256(Q).hexdigest()))

    traj = run_simulation(g, ks, F0, cfg, eps=eps, cadence=1, sample=sample)
    assert traj.state.rejected_steps == rejected >= (6 if setup == "uncertifiable" else 10)
    assert traj.state.step_index + 1 == len(states)
    assert seen == states


@pytest.mark.parametrize("value, message, rejected", [
    (np.nan, "non-finite state at t=0 (dt=0.01)", 0),
    (np.inf, "non-finite state at t=0 (dt=0.01)", 0),
    (-np.inf, "non-finite state at t=0 (dt=0.01)", 0),
    (-0.25, "step size fell below dt_min=0.004 at t=0", 2),
    (-0.0, None, 0),
], ids=["nan", "+inf", "-inf", "negative", "minus_zero"])
def test_candidate_check(monkeypatch, value, message, rejected):
    # every candidate is checked: non-finite aborts, negative is rejected,
    # and -0.0 is no negative entry
    real = stepper.DiffusionSolver.solve

    def spoiled(self, stage, dt):
        out = real(self, stage, dt)
        out[2, 7] = value
        return out

    monkeypatch.setattr(stepper.DiffusionSolver, "solve", spoiled)
    g = make_grid_1d(16)
    cfg = StepperConfig(scheme="imex_euler", dt=0.01, t_end=0.02, dt_min=0.004)
    F0 = np.ones((4,) + g.shape)
    if message is None:
        traj = run_simulation(g, fd.power_law_uniform(4, 4.0, 0.5), F0, cfg)
        assert traj.state.step_index == 2 and traj.state.rejected_steps == 0
        return
    with pytest.raises(NumericalAbortError) as exc_info:
        run_simulation(g, fd.power_law_uniform(4, 4.0, 0.5), F0, cfg)
    assert str(exc_info.value) == message
    assert exc_info.value.trajectory.state.rejected_steps == rejected


def test_non_finite_reaction_term_aborts_without_halving():
    # Q overflows on data of 1e200, and every attempt from the state shares
    # that Q: the first failed solve names it instead of halving to dt_min
    g = make_grid_1d(16)
    F0 = np.full((4,) + g.shape, 1e200)
    cfg = StepperConfig(dt=1e-3, t_end=0.01, dt_min=2e-4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalAbortError) as exc_info:
            run_simulation(g, fd.power_law_uniform(4, 4.0, 0.5), F0, cfg)
    assert str(exc_info.value) == "non-finite reaction term at t=0"
    traj = exc_info.value.trajectory
    assert traj.state.rejected_steps == 0
    assert traj.times == [0.0]
    np.testing.assert_array_equal(traj.terminal, F0)


def test_failed_solve_contract_aborts_below_dt_min():
    g, ks, F0 = _uncertifiable_setup()
    cfg = StepperConfig(scheme="imex_euler", dt=37.5, t_end=100.0, dt_min=1.0)
    with pytest.raises(NumericalAbortError) as exc_info:
        run_simulation(g, ks, F0, cfg)
    traj = exc_info.value.trajectory
    assert traj.state.rejected_steps == 6
    assert traj.times == [0.0]
    np.testing.assert_array_equal(traj.terminal, F0)


def test_imex_reject_policy_recovers():
    g, ks, F0 = _fast_decay_setup()
    cfg = StepperConfig(dt=0.2, t_end=0.8, negativity_policy="reject_and_halve")
    traj = run_simulation(g, ks, F0, cfg)
    assert traj.state.rejected_steps >= 2
    assert traj.state.t == pytest.approx(0.8)
    assert np.min(traj.terminal) >= 0.0


def test_negative_initial_data_rejected():
    g = make_grid_1d(16)
    ks = pure_diffusion_kernel()
    with pytest.raises(DomainError):
        run_simulation(g, ks, np.full((1, 16), -1.0), StepperConfig())


def test_sampling_times():
    g = make_grid_1d(16)
    ks = pure_diffusion_kernel()
    F0 = np.ones((1, 16))
    dt = 1.0 / 256.0
    cfg = StepperConfig(scheme="imex_euler", dt=dt, t_end=10.0 / 256.0)
    fields, sample = copies()
    traj = run_simulation(g, ks, F0, cfg, cadence=3, sample=sample)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 10.0 / 256.0  # dyadic steps sum exactly
    assert traj.times == [0.0, 3 * dt, 6 * dt, 9 * dt, 10 * dt]
    assert len(fields) == len(traj.times)


def test_last_step_within_rounding_of_dt_reuses_its_factor(monkeypatch):
    # 49 steps of 1e-3 leave 0.0009999999999999662 of t_end = 0.05: the
    # last step is still dt, so one factor set serves the whole run
    calls = []
    real = DiffusionSolver._factorize

    def counted(self, dt):
        calls.append(dt)
        return real(self, dt)

    monkeypatch.setattr(DiffusionSolver, "_factorize", counted)
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(4, 4.0, 0.5)
    cfg = StepperConfig(scheme="imex_euler", dt=1e-3, t_end=0.05)
    traj = run_simulation(g, ks, np.ones((4, 16)), cfg, eps=0.01)
    assert calls == [1e-3]
    assert traj.state.step_index == 50
    assert traj.times[-1] == traj.state.t == 0.05


def test_zero_duration_run():
    g = make_grid_1d(16)
    traj = run_simulation(g, pure_diffusion_kernel(), np.ones((1, 16)),
                          StepperConfig(t_end=0.0))
    assert traj.times == [0.0]
    assert traj.state.step_index == 0


def test_deterministic_rerun():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(6, 4.0, 0.5)
    rng = np.random.default_rng(23)
    F0 = rng.uniform(0.5, 1.5, size=(6, 16))
    cfg = StepperConfig(scheme="imex_euler", dt=1e-3, t_end=0.02)
    fields1, sample1 = copies()
    fields2, sample2 = copies()
    t1 = run_simulation(g, ks, F0, cfg, eps=0.01, sample=sample1)
    t2 = run_simulation(g, ks, F0, cfg, eps=0.01, sample=sample2)
    assert t1.times == t2.times
    for a, b in zip(fields1, fields2):
        np.testing.assert_array_equal(a, b)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        g = make_grid_1d(12, 1.5)
        rng = np.random.default_rng(24)
        F = rng.uniform(size=(3, 12))
        echo = {"stepper": {"dt": 0.001}, "eps": 0.01}
        p = tmp_path / "chk.csv"
        checkpoint_save(p, g, F, 0.015625, config_echo=echo)
        g2, F2, t2, echo2 = checkpoint_load(p)
        assert g2 == g
        assert np.array_equal(F, F2)
        assert t2 == 0.015625
        assert echo2 == echo

    def test_no_echo(self, tmp_path):
        g = make_grid_1d(8)
        p = tmp_path / "chk.csv"
        checkpoint_save(p, g, np.ones((1, 8)), 0.25)
        _, _, t2, echo2 = checkpoint_load(p)
        assert t2 == 0.25
        assert echo2 is None

    def test_restart_matches_uninterrupted_run(self, tmp_path):
        # split at a dyadic time so both runs take identical steps
        g = make_grid_1d(16)
        ks = fd.power_law_uniform(6, 4.0, 0.5)
        rng = np.random.default_rng(25)
        F0 = rng.uniform(0.5, 1.5, size=(6, 16))
        dt = 1.0 / 512.0
        t_mid, t_end = 8.0 / 512.0, 16.0 / 512.0

        full = run_simulation(g, ks, F0, StepperConfig(dt=dt, t_end=t_end), eps=0.01)

        first = run_simulation(g, ks, F0, StepperConfig(dt=dt, t_end=t_mid), eps=0.01)
        assert first.times[-1] == t_mid
        p = tmp_path / "restart.csv"
        checkpoint_save(p, g, first.terminal, first.times[-1])
        g2, F_mid, t_loaded, _ = checkpoint_load(p)
        second = run_simulation(g2, ks, F_mid, StepperConfig(dt=dt, t_end=t_end),
                                eps=0.01, t0=t_loaded)

        assert second.times[-1] == full.times[-1] == t_end
        np.testing.assert_array_equal(second.terminal, full.terminal)
