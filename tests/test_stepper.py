import importlib.machinery
import importlib.util
import math
import os
import subprocess
import sys
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
            out = solver.solve(stage, dt)
            for i in range(3):
                b, x = stage[i], out[i]
                resid = np.max(np.abs(x - dt * ks.d[i] * laplacian_neumann(g, x) - b))
                assert resid <= 1e-12 * max(1.0, np.max(np.abs(b)))
        # 2D: the x sweep and the y sweep each meet the contract on their own
        g = make_grid_2d(8, 12, 1.0, 1.5)
        solver = DiffusionSolver(g, ks)
        for dt in (1e-3, 0.5):
            stage = rng.standard_normal((3,) + g.shape)
            w = solver.sweep(stage, dt, 0)
            out = solver.sweep(w, dt, 1)
            np.testing.assert_array_equal(solver.solve(stage, dt), out)
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
                solver.solve(stage, dt), _per_line_ldl(g, ks, stage, dt)
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
            out = solver.solve(stage, dt)
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
            out = solver.solve(stage, dt)
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
    def test_refusal_matches_per_species_reference(self, shape, dt):
        # stages whose sweeps miss the contract, on the y sweep (4x64) and
        # on the x sweep (64, 6x64): the refusal names the species, axis,
        # residual and bound that per-line solves and residuals give
        g = make_grid_1d(*shape) if len(shape) == 1 else make_grid_2d(*shape)
        ks = fd.power_law_uniform(4, 4.0, 0.5)
        stage = np.ones((4,) + g.shape)
        stage[..., ::3] = 0.0
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
        # both couplings are added over the flat residual; across the end
        # of a line or a species they add +-0, so the residual is the one
        # the shifted per-line form gives, with the same absolute bits
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
        assert len(seen) == 4 * grid.dim
        for want, got in seen:
            np.testing.assert_array_equal(got, want)
            assert np.abs(got).tobytes() == np.abs(want).tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("grid", [make_grid_1d(16), make_grid_2d(8, 12)], ids=["1D", "2D"])
    def test_non_finite_stage_refused(self, grid, value):
        # the residual contract fails closed: a NaN residual misses it
        solver = DiffusionSolver(grid, fd.power_law_uniform(4, 4.0, 0.5))
        stage = np.ones((4,) + grid.shape)
        stage[1].flat[5] = value
        with pytest.raises(fd.LinearSolveError):
            solver.solve(stage, 1e-3)

    def test_1d_reads_the_stage_in_place(self):
        # the solve never writes its stage, and a stage in any layout
        # solves to the same bits
        rng = np.random.default_rng(30)
        g = make_grid_1d(40)
        solver = DiffusionSolver(g, fd.power_law_uniform(5, 4.0, 0.5))
        stage = rng.uniform(0.0, 2.0, size=(5,) + g.shape)
        before = stage.tobytes()
        out = solver.solve(stage, 0.05)
        assert stage.tobytes() == before
        assert not np.shares_memory(out, stage)
        for view in (np.asfortranarray(stage), np.repeat(stage, 2, axis=1)[:, ::2]):
            np.testing.assert_array_equal(solver.solve(view, 0.05), out)

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


def test_imex_mass_conservation():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(8, 4.0, 0.5)
    x = g.centers()
    F0 = np.array([math.exp(-i) * (1.0 + 0.5 * np.cos(2 * np.pi * x)) for i in range(1, 9)])
    cfg = StepperConfig(scheme="imex_euler", dt=1e-3, t_end=0.05)
    traj = run_simulation(g, ks, F0, cfg, eps=0.01)
    m0 = weighted_mass(g, ks, traj.fields[0])
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
    # one q_field per accepted state, shared by every attempt from it
    g, ks, F0 = _uncertifiable_setup()
    calls = []
    real = fd.reaction.q_field

    def counted(F, ks, eps=0.0):
        calls.append(None)
        return real(F, ks, eps)

    monkeypatch.setattr(fd.reaction, "q_field", counted)
    cfg = StepperConfig(scheme="imex_euler", dt=37.5, t_end=37.5)
    traj = run_simulation(g, ks, F0, cfg, cadence=1)
    assert traj.state.rejected_steps >= 6
    assert len(calls) == traj.state.step_index + 1
    assert len(traj.fields) == len(traj.times) == traj.state.step_index + 1


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
    traj = run_simulation(g, ks, F0, cfg, cadence=3)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 10.0 / 256.0  # dyadic steps sum exactly
    assert traj.times == [0.0, 3 * dt, 6 * dt, 9 * dt, 10 * dt]
    assert len(traj.fields) == len(traj.times)


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
    t1 = run_simulation(g, ks, F0, cfg, eps=0.01)
    t2 = run_simulation(g, ks, F0, cfg, eps=0.01)
    assert t1.times == t2.times
    for a, b in zip(t1.fields, t2.fields):
        np.testing.assert_array_equal(a, b)


def test_trajectory_fields_are_snapshots():
    g = make_grid_1d(16)
    F0 = np.ones((1, 16))
    traj = run_simulation(g, pure_diffusion_kernel(), F0,
                          StepperConfig(t_end=0.0))
    F0[:] = 99.0
    assert traj.fields[0][0, 0] == 1.0


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
