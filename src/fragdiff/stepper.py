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
whose correction could carry either sign.  A sweep solves in place in the
stack it is given, in blocks of whole lines, by one rule along every axis
and in 1D: a block is ``k = min(lines, max(1, B // m))`` lines of
``q = min(n, max(1, B // (k * m)))`` species, ``B = _BLOCK_CELLS``.  It
checks each block while it is in cache: the block's stage is copied into
scratch as the residual's right-hand side.  Where a block's lines are
contiguous in the stack (the y sweep and 1D), ``dpttrs`` solves the block
in the stack itself; the lines of a 2D x sweep are strided, so its block
is gathered into scratch, solved there and written back.  No species'
bound ``1e-12 * max(1, max|stage_i|)`` is below ``1e-12``, so a block
whose residual is within ``1e-12`` passes at once; from the first block
that misses on, the per-species residual maxima are folded block by
block, and they and the bounds decide.

Memory: :func:`run_simulation` owns two field stacks, the state ``F`` and
its reaction term ``Q``, with or without a sampler, and keeps no sampled
state.  It recycles them: an attempt forms its stage in ``Q``'s stack and
solves it there, an accepted candidate becomes the next ``F``, and the
old ``F``'s stack takes the next ``Q``.  A rejected attempt evaluates the
state's ``Q`` again from the untouched ``F``.  The solver keeps its
factors and one scratch array of three blocks, in 1D as in 2D, which
:func:`reaction.q_field` borrows between sweeps as the scratch of its
gain, so after the first step no step allocates a field-sized array.

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
_DT_STREAK = 10
"""Accepted steps in a row below ``cfg.dt`` after which the step size doubles."""
# cells of a sweep's block of whole lines (one line, where a line is
# larger): the solver's three scratch blocks take 3 * 8 * _BLOCK_CELLS =
# 384 kB, at most 128 kB each, inside a core's L2 cache, so a run's
# scratch does not grow with its grid or its number of species
_BLOCK_CELLS = 1 << 14


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
    last accepted state of an aborted run).  A caller keeps sampled states
    through its sampler.
    """

    times: list[float] = field(default_factory=list)
    state: SimState = field(default_factory=SimState)
    terminal: np.ndarray | None = None


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
    C-contiguous arrays of the shape of ``x``; ``b`` may be ``t``, which
    is written only after ``b`` is read.  Each coupling is one
    product aligned with ``x`` and one add over the flat ``r``; across the
    end of a line both add ``off * x = +-0``, so the flat adds give the
    bits of a per-line residual."""
    np.multiply(diag, x, out=r)
    r -= b
    flat_r, flat_t = r.reshape(-1), t.reshape(-1)
    np.multiply(prev, x, out=t)  # the upper term off[k] * x[k + 1] of row k
    flat_r[:-1] += flat_t[1:]
    np.multiply(off, x, out=t)  # the lower term off[k] * x[k] of row k + 1
    flat_r[1:] += flat_t[:-1]
    return r


def _block_rule(n, m, lines):
    """``(k, q)``: a sweep's block along an axis of ``m`` cells is ``k`` of
    its ``lines`` whole lines of ``q`` of the ``n`` species, at most
    ``_BLOCK_CELLS`` cells or one line."""
    k = min(lines, max(1, _BLOCK_CELLS // m))
    return k, min(n, max(1, _BLOCK_CELLS // (k * m)))


def _extent(a, axes):
    """``max|a|`` over ``axes``, from the maximum and the minimum (NaN
    propagates)."""
    return np.maximum(a.max(axis=axes), -a.min(axis=axes))


def _species_contract(resid, extent, where):
    """Raise :class:`LinearSolveError` unless, for every species ``s``,
    ``resid[s] <= 1e-12 * max(1, extent[s])``, where ``extent[s]`` is
    ``max|stage_s|``; a NaN residual or bound fails.  The message names
    the first species whose stage is not finite, whose NaN the solve may
    have carried into other species, or else the species furthest above
    its bound.  ``where`` ends it."""
    bound = _RESIDUAL_TOL * np.maximum(1.0, extent)
    if not np.all(resid <= bound):
        non_finite = ~np.isfinite(bound)
        worst = int(np.argmax(non_finite if non_finite.any() else resid / bound))
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
    every grid line of a species as one right-hand side of ``dpttrs``, in
    place in the stack it is given.  Along the first axis the stack is
    viewed as ``(lines, n, m)``: row ``p`` holds line ``p`` of every
    species, and the lines of a block of species are the columns of one
    solve; in 1D there is one line.  Along the last axis of a 2D grid it
    is ``(n, lines, m)``, and the lines of a species are the columns of
    one solve of its transpose.  A 2D solve is an x sweep followed by a y
    sweep (Lie splitting).  Every sweep solves and checks its stack in
    blocks of whole lines of one size rule (:meth:`sweep`), and a residual
    that is not finite fails.  The solver keeps factors and three scratch
    blocks: the ``_MAX_FACTOR_SETS`` most recently used step sizes are
    cached, and factorization is deterministic, so an evicted step size
    refactorizes to the same solves.
    """

    def __init__(self, grid, ks):
        self.grid = grid
        self.ks = ks
        self._factors = OrderedDict()
        self._scratch = np.empty(0)

    def _factorize(self, dt):
        """Per axis: ``(diag, off, prev, d, l)``.  ``diag`` and ``off`` are
        the operator's ``n * m`` diagonal and off-diagonal, whose last entry
        per species is the zero coupling to the next; ``prev`` is ``off``
        shifted one place on, two views of ``[0, off]``.  All three are
        shaped ``(1, n, m)`` along axis 0 and ``(n, 1, m)`` along axis 1,
        the sweep's layout with the species axis kept, as a block's
        :func:`_residual` takes them.  ``(d, l)`` is the certified factor of ``diag``,
        ``off[:-1]``."""
        factors = []
        n = self.ks.n
        for axis, (m, h) in enumerate(zip(self.grid.shape, self.grid.h)):
            c = (dt / (h * h)) * self.ks.d[:, None]
            diag = np.repeat(1.0 + 2.0 * c, m, axis=1)
            diag[:, [0, -1]] = 1.0 + c  # reflected ghost cells
            pad = np.zeros(n * m + 1)
            pad[1:].reshape(n, m)[:, :-1] = -c
            shape = (1, n, m) if axis == 0 else (n, 1, m)
            factors.append((diag.reshape(shape), pad[1:].reshape(shape),
                            pad[:-1].reshape(shape)) + _ldl_factor(diag.ravel(), pad[1:-1]))
        return factors

    def scratch(self, size):
        """The one scratch array that the solver keeps, of at least ``size``
        values.  It is allocated on first use with at least three of the
        largest block of any axis, so that no sweep of a stack on the grid
        enlarges it, and enlarged only when a caller needs more.  Between
        sweeps the run lends it to :func:`reaction.q_field` as block
        scratch."""
        if self._scratch.size < size:
            n, shape = self.ks.n, self.grid.shape
            blocks = [m * math.prod(_block_rule(n, m, self.grid.ncells // m)) for m in shape]
            self._scratch = np.empty(max(size, 3 * max(blocks)))
        return self._scratch

    def _blocks(self, size):
        """Three scratch blocks of ``size`` cells, the rows of a view of
        :meth:`scratch`."""
        return self.scratch(3 * size)[:3 * size].reshape(3, size)

    @np.errstate(over="ignore", invalid="ignore")
    def sweep(self, x, dt, axis):
        """Solve ``(I - dt * d_i * L_axis) x_i = stage_i`` along every line of ``axis``, in place.

        ``x`` is the stage, a writable C-contiguous float64 ``(n, *shape)``
        stack; it is overwritten with the solution and returned.  Along
        every axis, 1D included, it is solved in blocks of ``k = min(lines,
        max(1, B // m))`` whole lines of ``q = min(n, max(1, B // (k * m)))``
        species, ``B = _BLOCK_CELLS``, so a block holds at most ``B`` cells
        or one line.  The block's stage is first copied into scratch as the
        right-hand side of its residual, which is formed in the solver's
        scratch while the block is in cache.  The y sweep and the 1D sweep
        run ``dpttrs`` on ``x`` itself; the x sweep of a 2D stack, whose
        lines are strided in ``x``, solves a gathered copy and writes it
        back once its residual is checked.  A species whose lines span
        several blocks folds its ``max|stage_i|`` from every block; any
        other reads it from its one block, in ``x`` or its scratch copy,
        when that block misses.  Raises
        :class:`LinearSolveError` when, for some species, the residual is
        not at most ``1e-12 * max(1, max|stage_i|)`` (a NaN residual or
        bound fails); ``x`` is then partly solved.  No species' bound is
        below ``1e-12``, so a block whose residual is within ``1e-12``
        passes at once; only from the first block that misses on are the
        per-species residual maxima folded.  A stage that is not finite
        fails, and the refusal names its first species that is not finite;
        numpy's warnings on ``inf - inf`` in the residual would only repeat
        that, so none is raised.
        """
        if not (x.dtype == np.float64 and x.flags.c_contiguous and x.flags.writeable):
            raise DomainError("a sweep solves in place in a writable C-contiguous "
                              "float64 stack")
        if dt in self._factors:
            self._factors.move_to_end(dt)
        else:
            self._factors[dt] = self._factorize(dt)
            if len(self._factors) > _MAX_FACTOR_SETS:
                self._factors.popitem(last=False)
        diag, off, prev, d, l = self._factors[dt][axis]
        n, m = self.ks.n, self.grid.shape[axis]
        # a block is k whole lines of q species
        lines = x.size // (n * m)
        k, q = _block_rule(n, m, lines)
        species_blocks = [slice(s, min(s + q, n)) for s in range(0, n, q)]
        line_blocks = [slice(p, p + k) for p in range(0, lines, k)]
        if axis == 0:
            # line p of every species is row p of (lines, n, m), and the
            # lines are the columns of one solve
            rows = x.reshape(n, m, -1).transpose(2, 0, 1)
            blocks = [(s, rows[p, s]) for s in species_blocks for p in line_blocks]
        else:
            # the lines of species s are the columns of x[s].T
            blocks = [(s, x[s, p]) for s in species_blocks for p in line_blocks]
        gather = axis == 0 and lines > 1  # lines strided in x
        # a species whose lines span several blocks folds its extent from
        # every block: one that passes before a later one misses is solved
        # over its stage by then.  Any other species lies whole in one
        # block and reads its extent there, once the block misses, while
        # its stage is still held: a species of a passing block has a
        # finite stage and a zero residual in the fold, so its bound
        # decides nothing
        fold = k < lines
        scratch = self._blocks(blocks[0][1].size)
        resid = None
        extent = np.zeros(n)
        for species, rows_b in blocks:
            r, t, bb = scratch[:, :rows_b.size].reshape((3,) + rows_b.shape)
            xb = rows_b
            bb[...] = xb
            if fold:
                # before the residual, which may take bb as its scratch
                es = extent[species]
                np.maximum(es, _extent(bb, (axis, 2)), out=es)
            if gather:
                # solved in scratch and written back once checked, so the
                # stage stays in x and the residual may take bb as scratch
                xb, t = t, bb
                xb[...] = bb
            if axis == 0:
                # the species' systems, uncoupled, are one of q * m unknowns
                a, b = species.start * m, species.stop * m
                dpttrs(d[a:b], l[a:b - 1], xb.reshape(-1, b - a).T, overwrite_b=1)
            else:
                for i, species_lines in enumerate(xb, start=species.start):
                    dpttrs(d[i * m:(i + 1) * m], l[i * m:(i + 1) * m - 1], species_lines.T,
                           overwrite_b=1)
            along = (slice(None), species) if axis == 0 else species
            _residual(diag[along], off[along], prev[along], xb, bb, r, t)
            # NaN fails both comparisons
            if resid is not None or not (r.max() <= _RESIDUAL_TOL
                                         and -r.min() <= _RESIDUAL_TOL):
                if resid is None:
                    resid = np.zeros(n)
                rs = resid[species]
                np.maximum(rs, np.max(np.abs(r, out=r), axis=(axis, 2)), out=rs)
                if not fold:
                    extent[species] = _extent(rows_b if gather else bb, (axis, 2))
            if gather:
                rows_b[...] = xb
        if resid is not None:
            _species_contract(resid, extent, f"axis {axis}, dt={dt:g}")
        return x

    def solve(self, x, dt):
        """Apply every axis sweep in turn to the stage ``x``, in place, and
        return it; each sweep verifies its residual."""
        for axis in range(self.grid.dim):
            self.sweep(x, dt, axis)
        return x


def run_simulation(grid, ks, F0, cfg, eps=0.0, cadence=10, t0=0.0, sample=None):
    """Integrate from ``t0`` to ``cfg.t_end`` and sample every ``cadence`` steps.

    A sample records its time ``t`` in the trajectory and, when a sampler
    is given, calls ``sample(t, F, Q)`` with the state ``F`` at time ``t``
    and ``Q = reaction.q_field(F, ks, eps)``.  Both arrays are the run's
    own stacks, valid only during the call: the run overwrites them
    later, so a sampler copies what it keeps.  The initial and the final
    state are always sampled.  The trajectory records the sample times
    and the terminal state, and keeps no sampled state.

    ``Q`` is evaluated once per accepted state, shared by its sample and
    its first attempt, and evaluated again after each rejected attempt,
    with the same bits, for the next attempt or the abort.  When the run
    aborts, the last accepted state is sampled before
    :class:`NumericalAbortError` is raised; the error carries the
    trajectory as ``exc.trajectory``.

    The loop is fully deterministic: fixed reduction orders, no threading,
    and a rejected step always retries with exactly half the step size.
    Each step starts at the step size just accepted; after ``_DT_STREAK``
    (10) accepted steps in a row below ``cfg.dt`` the next one starts at
    twice that, up to ``cfg.dt``.  A step never passes ``cfg.t_end``, and
    the last one ends there.

    ``F0`` is the initial stack, or a function of no arguments that
    returns it.  The run copies the stack.  A stack passed directly stays
    alive for the whole run; one returned by a function that hands over
    the only reference, such as ``[F0].pop``, is freed once copied, before
    the first step.  The run then holds two field stacks, ``F`` and
    ``Q``, and recycles them.  An attempt forms its stage ``F + dt * Q``
    in ``Q``'s stack and solves it there.  On accept, the candidate is the
    new state, and the new ``Q`` is evaluated into the old ``F``'s stack.
    A rejected attempt, whether it halves or aborts, first evaluates the
    state's ``Q`` again from the untouched ``F`` into its stack: one
    ``q_field`` per rejected attempt.  The solver adds its factors and
    three scratch blocks of about ``_BLOCK_CELLS`` cells, which
    ``q_field`` takes as block scratch for its gain.
    """
    F = np.array(F0() if callable(F0) else F0, dtype=float, order="C", copy=True)
    if np.any(F < 0):
        raise DomainError("initial data contains negative entries")
    traj = Trajectory()
    state = traj.state
    state.t = t0
    solver = DiffusionSolver(grid, ks)

    def take(t, F, Q):
        traj.times.append(t)
        if sample is not None:
            sample(t, F, Q)

    def abort(message, t, F, Q):
        if traj.times[-1] != t:
            take(t, F, Q)
        traj.terminal = F
        return NumericalAbortError(message, trajectory=traj)

    def evaluate(F, Q):
        # the reaction term of F into Q's stack, with the solver's idle
        # scratch as its block scratch
        reaction.q_field(F, ks, eps, out=Q, work=solver.scratch(ks.n + 1))

    t = t0
    Q = np.empty_like(F)
    evaluate(F, Q)
    take(t, F, Q)
    guard = 1e-12 * max(1.0, abs(cfg.t_end))
    dt_next, streak = cfg.dt, 0  # the step size to start at; accepted steps below cfg.dt
    while t < cfg.t_end - guard:
        # a remainder within rounding of dt is a full step: no second factor set
        remaining = cfg.t_end - t
        dt_try = dt_next if remaining >= dt_next - guard else remaining
        while True:
            # each attempt ends in one of three ways: accept, halve or abort;
            # the stage Q * dt + F, formed in Q's stack, has the bits of F + dt * Q
            np.multiply(Q, dt_try, out=Q)
            Q += F
            try:
                cand = solver.solve(Q, dt_try)
            except LinearSolveError:
                cand = None
            else:
                # two reductions decide; NaN fails both comparisons, and only a
                # failing candidate pays for isfinite to name its fault
                if cand.min() >= 0.0 and cand.max() < math.inf:
                    break
            non_finite = cand is not None and not np.all(np.isfinite(cand))
            # the attempt spent Q's stack: the state's Q is evaluated again
            # from the untouched F, with the same bits
            evaluate(F, Q)
            if non_finite:
                raise abort(f"non-finite state at t={t:g} (dt={dt_try:g})", t, F, Q)
            # every attempt from this state shares its Q: if Q is not
            # finite, no halving can help
            if cand is None and not np.all(np.isfinite(Q)):
                raise abort(f"non-finite reaction term at t={t:g}", t, F, Q)
            state.rejected_steps += 1
            dt_try *= 0.5
            if dt_try < cfg.dt_min:
                raise abort(f"step size fell below dt_min={cfg.dt_min:g} at t={t:g}",
                            t, F, Q)
        # the next step starts at the step just accepted, doubled (up to
        # cfg.dt) after _DT_STREAK accepted steps in a row below cfg.dt
        streak = streak + 1 if dt_try < cfg.dt else 0
        dt_next = dt_try if streak < _DT_STREAK else min(2.0 * dt_try, cfg.dt)
        streak %= _DT_STREAK
        F, Q = cand, F  # the old state's stack takes the new Q
        evaluate(F, Q)
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
