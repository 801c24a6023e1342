"""Time integration: IMEX Euler (implicit diffusion, explicit reaction).

The IMEX step treats the stiff diffusion implicitly and the reaction
explicitly:

    f* = f + dt * Q(f),      (I - dt * d_i * Lap_h) f_new,i = f*_i.

In 2D the implicit operator is split into one sweep per axis (locally
one-dimensional Lie splitting),

    (I - dt * d_i * L_x) w_i = f*_i,      (I - dt * d_i * L_y) f_new,i = w_i,

which differs from the unsplit operator by ``dt**2 * d_i**2 * L_x L_y``,
so the 2D step carries an extra local error of order ``dt**2`` and stays
first order in ``dt`` overall, like IMEX Euler itself.  In 1D there is
one sweep and no splitting.

Every sweep solves all lines of all species at once.  Per axis there is
one symmetric tridiagonal M-matrix block of ``m x m`` per species (``m``
cells along the axis).  The blocks, concatenated with zero couplings, are
factorized once per step size as ``L D L^T`` (LAPACK ``dpttrf``, which
never pivots).  Every factor is certified: all pivots positive, all
multipliers ``<= 0``.  Then the substitutions of ``dpttrs`` add only
nonnegative terms, so each sweep maps nonnegative stages to nonnegative
states exactly, also in floating point, and it conserves mass because
every column of its matrix sums to one.  Every grid line of a species
shares that species' block, so the lines are right-hand sides of one
solve and the factor storage is ``2 * n * m - 1`` numbers, independent
of the number of lines.  The residual of every sweep is verified per
species against a 1e-12 contract, with the matrix applied from its
stored diagonals, not from the factor; there is no iterative refinement,
whose correction could carry either sign.  The contract is decided in
two stages: no species' bound ``1e-12 * max(1, max|stage_i|)`` is below
``1e-12``, so one test of the whole residual against ``1e-12`` accepts
the sweep; only when that test misses are the per-species residual
maxima and bounds formed, and they decide.

Negativity: the sweeps keep a nonnegative stage nonnegative, so a
candidate turns negative only where the explicit reaction makes ``f*``
negative.  There is one rule, ``reject_and_halve``: a candidate that is
negative, like one whose implicit solve misses the residual contract, is
a rejected attempt, retried with half the step size (flooring at
``dt_min``), unless the state's own reaction term is not finite, which
no smaller step can mend.  No accepted state is edited after its solve.

``dpttrf`` and ``dpttrs`` are loaded from the file of scipy's compiled
LAPACK extension, found without importing ``scipy``, so importing fragdiff
runs neither ``scipy`` nor ``scipy.linalg``; where no such file is found
they come from ``scipy.linalg.lapack``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import grid as gridmod
from . import reaction
from .errors import DomainError, LinearSolveError, NumericalAbortError

REJECT_AND_HALVE = "reject_and_halve"

_RESIDUAL_TOL = 1e-12
_MAX_FACTOR_SETS = 8


def _load_lapack_pt():
    """LAPACK's ``(dpttrf, dpttrs)``, taken from scipy's ``_flapack``
    extension loaded by path, so that neither ``scipy/__init__`` nor
    ``scipy.linalg/__init__`` (more than half of fragdiff's import time)
    runs, else from ``scipy.linalg.lapack``.  Both give the same binary
    routines."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        linalg_dir = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(linalg_dir, "_flapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
                flapack = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(flapack)
                return flapack.dpttrf, flapack.dpttrs
    from scipy.linalg.lapack import dpttrf, dpttrs
    return dpttrf, dpttrs


dpttrf, dpttrs = _load_lapack_pt()


@dataclass
class StepperConfig:
    scheme: str = "imex_euler"
    dt: float = 1e-3
    t_end: float = 1.0
    negativity_policy: str = REJECT_AND_HALVE
    dt_min: float = 1e-9

    def __post_init__(self):
        if self.scheme != "imex_euler":
            why = "was removed" if self.scheme == "rk4_explicit" else "is unknown"
            raise DomainError(f"scheme {self.scheme!r} {why}; 'imex_euler' is the only scheme")
        if self.negativity_policy != REJECT_AND_HALVE:
            why = "was removed" if self.negativity_policy == "clip_to_zero" else "is unknown"
            raise DomainError(f"negativity policy {self.negativity_policy!r} {why}; "
                              f"'reject_and_halve' is the only policy")
        if not (self.dt > 0 and self.t_end >= 0 and self.dt_min > 0):  # NaN fails too
            raise DomainError("dt and dt_min must be positive, t_end nonnegative")


@dataclass
class SimState:
    t: float = 0.0
    step_index: int = 0
    rejected_steps: int = 0


@dataclass
class Trajectory:
    """Sample times and terminal state of one run.

    ``terminal`` is the last state :func:`run_simulation` reached (the
    last accepted state of an aborted run).  ``fields[k]`` is the stack at
    ``times[k]`` when the run stores its samples, which is what
    :func:`run_simulation` does by default; a run streamed into another
    sampler leaves ``fields`` empty.
    """

    grid: gridmod.GridSpec
    times: list[float] = field(default_factory=list)
    fields: list[np.ndarray] = field(default_factory=list)
    state: SimState = field(default_factory=SimState)
    terminal: np.ndarray | None = None

    def store(self, t, F, Q):
        """The default sampler: keep a copy of every sampled state."""
        self.fields.append(F.copy())


def _ldl_factor(diag, off):
    """Certified LDL^T factor ``(d, l)`` of the symmetric tridiagonal matrix
    with diagonal ``diag`` and off-diagonal ``off`` (LAPACK ``dpttrf``).

    The certificate: every pivot ``d`` is positive and every multiplier
    ``l`` is ``<= 0``.  Then both substitutions of ``dpttrs``,
    ``y_i = b_i - l_{i-1} y_{i-1}`` and ``x_i = y_i / d_i - l_i x_{i+1}``,
    add only nonnegative terms to nonnegative data.  Raises
    :class:`LinearSolveError` when the factor fails it.
    """
    d, l, info = dpttrf(diag, off)
    if info != 0 or not (np.all(d > 0.0) and np.all(l <= 0.0)):
        raise LinearSolveError(
            f"tridiagonal factor fails its sign certificate (dpttrf info={info})"
        )
    return d, l


def _residual(diag, off, prev, x, b, r, t):
    """``A x - b`` into ``r``, with ``A`` applied along the last axis of
    ``x`` from its diagonal ``diag``, its off-diagonal ``off`` (``off[k]``
    couples cells ``k`` and ``k + 1``; zero where a line ends) and the
    one-place shift ``prev[k] = off[k - 1]`` (zero where a line starts),
    all three broadcasting against ``x``.  ``r`` and the scratch ``t`` are
    C-contiguous arrays of the shape of ``x``; ``t`` may share memory with
    ``b``, which is read first.  Each coupling is one product aligned with
    ``x`` and one add over the flat ``r``; across the end of a line both
    add ``off * x = +-0``, so the flat adds give the bits of a per-line
    residual."""
    np.multiply(diag, x, out=r)
    r -= b
    flat_r, flat_t = r.reshape(-1), t.reshape(-1)
    np.multiply(prev, x, out=t)  # the upper term off[k] * x[k + 1] of row k
    flat_r[:-1] += flat_t[1:]
    np.multiply(off, x, out=t)  # the lower term off[k] * x[k] of row k + 1
    flat_r[1:] += flat_t[:-1]
    return r


def _species_contract(r, stage, blocks, axes, where):
    """Raise :class:`LinearSolveError` unless, for every species ``s``,
    ``max|r_s| <= 1e-12 * max(1, max|stage_s|)``; a NaN residual or bound
    fails.  ``r`` is the signed residual of a sweep, overwritten by
    ``|r|``; its reshape to ``blocks`` groups it by species, which
    ``axes`` reduce away.  ``where`` ends the message."""
    bound = _RESIDUAL_TOL * np.maximum(
        1.0, np.max(np.abs(stage).reshape(stage.shape[0], -1), axis=1))
    resid = np.max(np.abs(r, out=r).reshape(blocks), axis=axes)
    if not np.all(resid <= bound):
        worst = int(np.argmax(resid / bound))
        raise LinearSolveError(
            f"implicit solve residual {resid[worst]:g} above contract "
            f"{bound[worst]:g} (species {worst + 1}, {where})"
        )


class DiffusionSolver:
    """Batched certified line solver for ``I - dt * d_i * Lap_h``.

    Per axis, ``I - dt * d_i * L_axis`` is one symmetric tridiagonal
    M-matrix block per species.  The blocks are concatenated, with zero
    couplings between species, into one system of ``n * m`` unknowns,
    which is factorized once per step size as ``L D L^T`` (LAPACK
    ``dpttrf``, no pivoting by construction).  Every factor is checked
    against the sign certificate of :func:`_ldl_factor`, so a sweep maps
    nonnegative stages to nonnegative states exactly.  A sweep solves
    every grid line of a species as one right-hand side of ``dpttrs``.
    Along the first axis one call covers all species, with the stage as
    the columns of an ``(n * m, lines per species)`` array; in 1D, one
    line per species, the stage has that layout already and is read in
    place, never written.  Along the second axis one in-place call per
    species solves the transposed lines of one C-order copy of the stage.
    A 2D solve is an x sweep followed by a y sweep (Lie splitting).  Every
    sweep forms its residual over the whole solution at once
    (:func:`_residual`) in two stage-sized work arrays that the solver
    keeps, so a sweep allocates only its result, and tests it against
    ``1e-12`` before any per-species maximum is formed
    (:func:`_species_contract`); a residual that is not finite fails.
    The factors of the ``_MAX_FACTOR_SETS`` most recently used step sizes
    are cached; factorization is deterministic, so an evicted step size
    refactorizes to the same solves.
    """

    def __init__(self, grid, ks):
        self.grid = grid
        self.ks = ks
        self._factors = OrderedDict()
        # reused by every sweep: the staged right-hand side (later the
        # residual's scratch) and the residual
        self._work = np.empty((2, ks.n * math.prod(grid.shape)))

    def _factorize(self, dt):
        """Per axis: ``(diag, off, prev, d, l)``.  ``diag`` and ``off`` are
        the operator's ``n * m`` diagonal and off-diagonal, whose last entry
        per species is the zero coupling to the next; ``prev`` is ``off``
        shifted one place on, two views of ``[0, off]``.  All three
        broadcast against the sweep's solution (flat along axis 0,
        ``(n, 1, m)`` along axis 1), as :func:`_residual` takes them.
        ``(d, l)`` is the certified factor of ``diag``, ``off[:-1]``."""
        factors = []
        n = self.ks.n
        for axis, (m, h) in enumerate(zip(self.grid.shape, self.grid.h)):
            c = (dt / (h * h)) * self.ks.d[:, None]
            diag = np.repeat(1.0 + 2.0 * c, m, axis=1)
            diag[:, [0, -1]] = 1.0 + c  # reflected ghost cells
            pad = np.zeros(n * m + 1)
            pad[1:].reshape(n, m)[:, :-1] = -c
            shape = (n * m,) if axis == 0 else (n, 1, m)
            factors.append((diag.reshape(shape), pad[1:].reshape(shape),
                            pad[:-1].reshape(shape)) + _ldl_factor(diag.ravel(), pad[1:-1]))
        return factors

    def sweep(self, stage, dt, axis):
        """Solve ``(I - dt * d_i * L_axis) x_i = stage_i`` along every line of ``axis``.

        Returns an ``(n, *shape)`` stack, C-contiguous when ``axis`` is the
        last axis; ``stage`` is not modified.  Raises
        :class:`LinearSolveError` when, for some species, the residual is
        not at most ``1e-12 * max(1, max|stage_i|)`` (a NaN residual or
        bound fails).  No species' bound is below ``1e-12``, so one test
        of the whole residual against ``1e-12`` accepts most sweeps; only
        when it misses are the per-species maxima formed and compared.
        """
        if dt in self._factors:
            self._factors.move_to_end(dt)
        else:
            self._factors[dt] = self._factorize(dt)
            if len(self._factors) > _MAX_FACTOR_SETS:
                self._factors.popitem(last=False)
        diag, off, prev, d, l = self._factors[dt][axis]
        n, m = self.ks.n, self.grid.shape[axis]
        b, r = (w[:stage.size] for w in self._work)
        if axis == 0:
            # every line of every species is a column of one solve: b and
            # x.T hold one line of all species per row, (lines, n * m)
            if self.grid.dim == 1:
                b = stage.reshape(1, n * m)
            else:
                b = b.reshape(-1, n * m)
                np.copyto(b.reshape(-1, n, m), stage.reshape(n, m, -1).transpose(2, 0, 1))
            x = dpttrs(d, l, b.T)[0]
            out = x.reshape(stage.shape)
            x, blocks, axes = x.T, (-1, n, m), (0, 2)
        else:
            # the lines of species s are the columns of x[s].T, solved in place
            b = b.reshape(stage.shape)
            np.copyto(b, stage)
            out = x = b.copy()
            for s in range(n):
                dpttrs(d[s * m:(s + 1) * m], l[s * m:(s + 1) * m - 1], x[s].T,
                       overwrite_b=1)
            blocks, axes = x.shape, (1, 2)
        r = _residual(diag, off, prev, x, b, r.reshape(x.shape),
                      self._work[0, :x.size].reshape(x.shape))
        # no bound is below 1e-12; NaN fails both comparisons
        if not (r.max() <= _RESIDUAL_TOL and -r.min() <= _RESIDUAL_TOL):
            _species_contract(r, stage, blocks, axes, f"axis {axis}, dt={dt:g}")
        return out

    def solve(self, stage, dt):
        """Apply every axis sweep in turn; each one verifies its residual."""
        for axis in range(self.grid.dim):
            stage = self.sweep(stage, dt, axis)
        return stage


def run_simulation(grid, ks, F0, cfg, eps=0.0, cadence=10, t0=0.0, sample=None):
    """Integrate from ``t0`` to ``cfg.t_end`` and sample every ``cadence`` steps.

    A sample calls ``sample(t, F, Q)`` with the state ``F`` at time ``t``
    and ``Q = reaction.q_field(F, ks, eps)``; neither array is modified
    later.  The initial and the final state are always sampled.  The
    default sampler, :meth:`Trajectory.store`, keeps a copy of every
    sampled state in the returned trajectory; the trajectory always
    records the sample times and the terminal state.

    ``Q`` is evaluated once per accepted state and shared by every step
    attempted from it, halved retries included, and by its sample.  When
    the run aborts, the last accepted state is sampled before
    :class:`NumericalAbortError` is raised; the error carries the
    trajectory as ``exc.trajectory``.

    The loop is fully deterministic: fixed reduction orders, no threading,
    and a rejected step always retries with exactly half the step size.
    """
    F = np.array(F0, dtype=float, copy=True)
    if np.any(F < 0):
        raise DomainError("initial data contains negative entries")
    traj = Trajectory(grid=grid)
    if sample is None:
        sample = traj.store
    state = traj.state
    state.t = t0
    solver = DiffusionSolver(grid, ks)

    def take(t, F, Q):
        traj.times.append(t)
        sample(t, F, Q)

    def abort(message, t, F, Q):
        if traj.times[-1] != t:
            take(t, F, Q)
        traj.terminal = F
        return NumericalAbortError(message, trajectory=traj)

    t = t0
    Q = reaction.q_field(F, ks, eps)
    take(t, F, Q)
    guard = 1e-12 * max(1.0, abs(cfg.t_end))
    while t < cfg.t_end - guard:
        # a remainder within rounding of dt is a full step: no second factor set
        remaining = cfg.t_end - t
        dt_try = cfg.dt if remaining >= cfg.dt - guard else remaining
        while True:
            # each attempt ends in one of three ways: accept, halve or abort
            try:
                # no name holds the stage, so the first sweep frees it
                cand = solver.solve(F + dt_try * Q, dt_try)
            except LinearSolveError:
                # every attempt from this state shares its Q: if Q is not
                # finite, no halving can help
                if not np.all(np.isfinite(Q)):
                    raise abort(f"non-finite reaction term at t={t:g}", t, F, Q)
            else:
                # two reductions decide; NaN fails both comparisons, and only a
                # failing candidate pays for isfinite to name its fault
                if cand.min() >= 0.0 and cand.max() < math.inf:
                    break
                if not np.all(np.isfinite(cand)):
                    raise abort(f"non-finite state at t={t:g} (dt={dt_try:g})", t, F, Q)
            state.rejected_steps += 1
            dt_try *= 0.5
            if dt_try < cfg.dt_min:
                raise abort(f"step size fell below dt_min={cfg.dt_min:g} at t={t:g}",
                            t, F, Q)
        F, Q = cand, None  # the old state's Q goes before the new one is formed
        Q = reaction.q_field(F, ks, eps)
        t += dt_try
        if t >= cfg.t_end - guard:
            t = cfg.t_end  # the last step ends at t_end exactly
        state.t = t
        state.step_index += 1
        if state.step_index % cadence == 0 and t < cfg.t_end - guard:
            take(t, F, Q)

    if traj.times[-1] != t:
        take(t, F, Q)
    traj.terminal = F
    return traj


# -- checkpointing ---------------------------------------------------------


def checkpoint_save(path, grid, F, t, config_echo=None):
    """Persist state as a species CSV with full round-trip float precision."""
    meta = {"t": repr(float(t))}
    if config_echo is not None:
        meta["config_json"] = json.dumps(config_echo, sort_keys=True)
    gridmod.write_species_csv(path, grid, F, metadata=meta)


def checkpoint_load(path):
    """Load ``(grid, F, t, config_echo)`` written by :func:`checkpoint_save`."""
    grid, values, meta = gridmod.read_species_csv(path)
    t = float(meta.get("t", "0.0"))
    cfg = json.loads(meta["config_json"]) if "config_json" in meta else None
    return grid, values, t, cfg
