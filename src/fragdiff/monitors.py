"""Trajectory functionals: mass, moments, tails, duality, budgets, energy.

Every monitor is a fold over samples.  :class:`MonitorAccumulator` takes
one sample ``(t, F, Q)`` at a time, the state and its reaction term, and
keeps only scalars and per-species vectors, so a run is monitored while
it is taken and no sampled field is stored.  :func:`compute_monitors`
folds the same accumulator over states that a caller kept.

Every time integral is a trapezoidal quadrature on the sample cadence,
accumulated in sample order, so each reported quantity is a
discretization of the corresponding exact-time functional; tolerances on
the checks absorb the quadrature error.  All species reductions use
compensated summation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import grid as gridmod
from . import reaction
from .errors import DomainError

MASS_REL_TOL = 1e-10
MOMENT0_REL_TOL = 1e-10
ENERGY_SLACK_REL_TOL = 1e-3
TAIL_ENVELOPE_FACTOR = 2.0


def _mass_above(ints, M):
    """``sum_{i>M} i * ints[i-1]`` from the float array of precomputed
    species integrals (:func:`grid.species_integrals`)."""
    if M < 0:
        raise DomainError("tail level must be nonnegative")
    # one vectorized product: each float is the per-element (i + 1) * ints[i]
    return math.fsum((np.arange(M + 1, len(ints) + 1) * ints[M:]).data)


def _particles(ints):
    return math.fsum(ints.data)


def total_mass(grid, F):
    """Weighted mass  sum_i i * integral(f_i)."""
    return _mass_above(gridmod.species_integrals(grid, F), 0)


def moment0(grid, F):
    """Total particle number  sum_i integral(f_i)."""
    return _particles(gridmod.species_integrals(grid, F))


def tail_mass(grid, F, M):
    """Mass carried by sizes above ``M``: sum_{i>M} i * integral(f_i)."""
    return _mass_above(gridmod.species_integrals(grid, F), M)


def tail_envelope_exponential(M):
    """Analytic tail of the unit exponential spectrum: sum_{i>M} i e^{-i}.

    Bounded by (M+1) e^{-M} / (1 - e^{-1})**2, which is what this returns.
    """
    return (M + 1.0) * math.exp(-float(M)) / (1.0 - math.exp(-1.0)) ** 2


def _trapezoid_cumulative(times, values):
    """Cumulative trapezoid of the sampled integrand; robust to a short
    final interval."""
    out = [0.0]
    for k in range(1, len(times)):
        dt = times[k] - times[k - 1]
        out.append(out[-1] + 0.5 * dt * (values[k] + values[k - 1]))
    return out


@dataclass
class DualityReport:
    D: float
    R: float
    ratio: float
    series: list[float]


@dataclass
class BudgetReport:
    total: float
    series: list[float]
    per_species: np.ndarray


@dataclass
class EnergyReport:
    species: int
    level: float
    lhs: float
    rhs: float
    slack: float
    slack_series: list[float]


@dataclass
class LinfReport:
    sup: float
    eps: float
    ratio: float  # sup / (1/eps) = sup * eps; zero when eps == 0


@dataclass
class MonitorReport:
    times: list[float]
    mass: list[float]
    moment0: list[float]
    minval: list[float]
    maxval: list[float]
    tails: dict[int, list[float]]
    duality: DualityReport
    budget: BudgetReport
    energy: list[EnergyReport]
    linf: LinfReport
    invariants: dict[str, dict]

    @property
    def all_pass(self):
        return all(entry["pass"] for entry in self.invariants.values())


class MonitorAccumulator:
    """Every monitor as a fold over samples.

    ``add(t, F, Q)`` takes the state ``F`` at time ``t`` with
    ``Q = q_field(F, ks, eps)`` and keeps only scalars and per-species
    vectors of it: the species integrals, min and max, and the duality,
    budget and energy integrands, all exactly rounded sums (``math.fsum``'s
    bits) from one exact-sum pass per sample, over rows formed whole
    (:meth:`_one_block`) or block by block (:meth:`_streamed`), which reads
    a row again only where :func:`grid._exact_sums` leaves it to ``fsum``.
    ``report()`` forms the time series and audits the invariants over the
    samples added so far.  ``add`` is a sampler for ``run_simulation``.

    * Duality: quadrature of ``integral (sum i d_i f_i)(sum i f_i) dx``
      against ``R = (sup_i d_i) * ||sum i f_i(0)||_L2**2``.
    * Budget: accumulated weighted reaction throughput
      ``sum_i ||Q_i / d_i||_L1``, in total and per species.
    * Energy, for each ``(species, level)`` of ``energy_specs``: the
      level-truncated energy inequality.  LHS is ``d_i`` times the
      quadrature of the masked Dirichlet energy (a face counts only when
      both adjacent cells sit within the level, a conservative
      under-approximation); RHS is
      ``level * (||Q_i||_L1((0,t)xOmega) + ||f_i(0)||_L1)``.
    * L-infinity: the largest sampled value against ``1/eps``.

    ``envelope_family="exponential"`` additionally compares final tails
    against the analytic exponential envelope.
    """

    def __init__(self, grid, ks, eps=0.0, tail_levels=(8, 16, 24),
                 energy_specs=(), envelope_family=None):
        self.energy_specs = []
        for species, level in energy_specs:
            if not 1 <= species <= ks.n:
                raise DomainError(f"species {species} out of range")
            if level <= 0:
                raise DomainError("truncation level must be positive")
            self.energy_specs.append((species, float(level)))
        self.grid = grid
        self.eps = eps
        self.tail_levels = tuple(int(M) for M in tail_levels)
        self.envelope_family = envelope_family
        i1 = np.arange(1, ks.n + 1, dtype=float)
        shape = (ks.n,) + (1,) * grid.dim
        self._wid = (i1 * ks.d).reshape(shape)
        self._wi = i1.reshape(shape)
        self.ks = ks
        self._inv_d = 1.0 / ks.d
        self.times = []
        self._ints = []
        self._minv = []
        self._maxv = []
        self._dual = []
        self._per_t = []
        self._grads = [[] for _ in self.energy_specs]
        self._qnorm = [[] for _ in self.energy_specs]
        self._R = None

    def add(self, t, F, Q):
        grid, n = self.grid, len(F)
        first = self._R is None
        sample = self._one_block if F.size <= gridmod._SUM_BLOCK else self._streamed
        sums, lo, hi = sample(F, Q, first)
        # a nonzero extreme has one set of bits however it is reduced; a
        # zero one may be either zero, so it is read as the whole stack's
        lo, hi = lo.min(), hi.max()
        vol = grid.cell_volume
        q_ints = vol * sums[n:2 * n]
        self.times.append(t)
        self._ints.append(vol * sums[:n])
        self._minv.append(float(lo if lo != 0.0 else np.min(F)))
        self._maxv.append(float(hi if hi != 0.0 else np.max(F)))
        self._dual.append(vol * float(sums[2 * n]))
        if first:
            self._R = float(np.max(self.ks.d)) * (vol * float(sums[2 * n + 1]))
        self._per_t.append(self._inv_d * q_ints)
        r = 2 * n + 1 + first
        for (species, level), grads, qnorm in zip(self.energy_specs, self._grads, self._qnorm):
            grads.append(float(self.ks.d[species - 1])
                         * gridmod._gradient_total(grid, sums[r:r + grid.dim]))
            qnorm.append(float(q_ints[species - 1]))
            r += grid.dim

    def _face_rows(self, F, r):
        """``(row, sq)``: each energy spec's squared face differences per
        axis (:func:`grid._face_squares`), as rows ``r, r + 1, ...``."""
        for species, level in self.energy_specs:
            for axis, sq in gridmod._face_squares(self.grid, F[species - 1], level):
                yield r + axis, sq
            r += self.grid.dim

    def _one_block(self, F, Q, first):
        """The exact sums of a sample, and each species' minimum and
        maximum, from one exact-sum pass (:func:`grid._fsum_rows`).

        Its rows are the species of ``F``, of ``|Q|``, ``w * v`` and, when
        ``first``, ``v * v``, with ``v = sum_i i f_i`` and ``w = sum_i i d_i
        f_i`` weighted whole, then :meth:`_face_rows`, one block each,
        padded with ``+0.0``, which adds nothing to a sum of squares.  Every
        sum is exactly rounded, so each has the bits of its own pass.
        """
        grid, n = self.grid, len(F)
        rows = np.zeros((2 * n + 1 + first + grid.dim * len(self.energy_specs), grid.ncells))
        rows[:n] = F.reshape(n, -1)
        np.abs(Q.reshape(n, -1), out=rows[n:2 * n])
        v = np.sum(self._wi * F, axis=0).reshape(-1)
        w = np.sum(self._wid * F, axis=0).reshape(-1)
        np.multiply(w, v, out=rows[2 * n])
        if first:
            np.multiply(v, v, out=rows[2 * n + 1])
        for r, sq in self._face_rows(F, 2 * n + 1 + first):
            rows[r, :sq.size] = sq[0]
        top, bottom = rows.max(axis=1), rows.min(axis=1)
        return gridmod._fsum_rows(rows, mu=np.maximum(top, -bottom)), bottom[:n], top[:n]

    def _streamed(self, F, Q, first):
        """:meth:`_one_block`'s sums and extremes for a stack larger than a
        block, from one :func:`grid._exact_sums` over blocks of about
        ``_SUM_BLOCK`` values, forming no single-species field.

        :meth:`_products` come first, then ``|Q|`` in one buffer, then views
        of ``F``, then the face squares.  ``F`` and ``|Q|`` go in runs of
        whole species where a species fits a block, else of ``_SUM_BLOCK``
        values of one species.  The bounds come first: the extents of ``F``
        and ``Q``, bounds of ``w v`` and ``v v`` from them, and a pass over
        the face squares.  A row left to ``fsum`` reads the whole sample again.
        """
        grid, n, B = self.grid, len(F), gridmod._SUM_BLOCK
        flat, qflat = F.reshape(n, -1), Q.reshape(n, -1)
        lo, hi = flat.min(axis=1), flat.max(axis=1)
        extent = np.maximum(hi, -lo)
        # V and W, the exactly rounded sums of i * extent_i and of
        # i * d_i * extent_i, bound |v| and |w| up to n + 1 roundings each;
        # the slack covers the 2 n + 6 roundings of a product's bound for
        # fewer than 2**21 species
        V = math.fsum((self._wi.ravel() * extent).data)
        W = math.fsum((self._wid.ravel() * extent).data)
        slack = 1.0 + 2.0 ** -30
        mu = np.concatenate([
            extent, np.maximum(qflat.max(axis=1), -qflat.min(axis=1)),
            [V * W * slack, V * V * slack][:1 + first],
            gridmod._row_maxima(lambda: self._face_rows(F, 0),
                                grid.dim * len(self.energy_specs))])
        whole = max(1, B // grid.ncells)  # whole rows of a run, where a row fits

        def runs(x):  # rows of x, in runs of at most B values or one row
            return ((i, x[i:i + whole, c:c + B])
                    for i in range(0, len(x), whole) for c in range(0, grid.ncells, B))

        def magnitudes():  # |Q| as rows n, n + 1, ..., in one buffer
            out = np.empty(min(qflat.size, B))
            for i, run in runs(qflat):
                yield n + i, np.abs(run, out=out[:run.size].reshape(run.shape))

        def blocks():
            return chain(self._products(F, first), magnitudes(), runs(flat),
                         self._face_rows(F, 2 * n + 1 + first))

        return gridmod._exact_sums(blocks, len(mu), grid.ncells, mu), lo, hi

    def _products(self, F, first):
        """Yield the rows ``w v`` (``2 n``) and, when ``first``, ``v v``
        (``2 n + 1``) of a streamed sample, one block of whole grid rows of
        about ``_SUM_BLOCK`` values at a time, in three buffers.

        ``v`` and ``w`` are weighted species by species into zeroed ``v``
        and ``w`` as ``np.sum(..., axis=0)`` adds: the same bits.
        """
        n = len(F)
        rows = F.reshape(n, F.shape[1], -1)
        k = max(1, gridmod._SUM_BLOCK // rows.shape[2])
        buffers = np.empty((3, min(k, rows.shape[1]), rows.shape[2]))
        for r0 in range(0, rows.shape[1], k):
            block = rows[:, r0:r0 + k]
            v, w, term = buffers[:, :block.shape[1]]
            v.fill(0.0)
            w.fill(0.0)
            for f, wi, wid in zip(block, self._wi, self._wid):
                v += np.multiply(wi, f, out=term)
                w += np.multiply(wid, f, out=term)
            if first:
                yield 2 * n + 1, np.multiply(v, v, out=term).reshape(1, -1)
            w *= v
            yield 2 * n, w.reshape(1, -1)

    def report(self):
        if not self.times:
            raise DomainError("no samples to report")
        times = list(self.times)
        ints = self._ints
        mass = [_mass_above(v, 0) for v in ints]
        mom0 = [_particles(v) for v in ints]
        tails = {M: [_mass_above(v, M) for v in ints] for M in self.tail_levels}

        series = _trapezoid_cumulative(times, self._dual)
        D, R = series[-1], self._R
        dual = DualityReport(D=D, R=R, series=series,
                             ratio=0.0 if D == 0.0 else (math.inf if R == 0.0 else D / R))

        per_t = self._per_t
        series = _trapezoid_cumulative(times, [math.fsum(map(float, v)) for v in per_t])
        per_species = np.zeros(self.ks.n)
        for k in range(1, len(times)):
            dt = times[k] - times[k - 1]
            per_species += 0.5 * dt * (per_t[k] + per_t[k - 1])
        budget = BudgetReport(total=series[-1], series=series, per_species=per_species)

        energy = []
        for (species, level), grads, qnorm in zip(self.energy_specs, self._grads, self._qnorm):
            lhs_series = _trapezoid_cumulative(times, grads)
            q_l1_series = _trapezoid_cumulative(times, qnorm)
            f0_l1 = float(ints[0][species - 1])
            slack_series = [level * (q + f0_l1) - lhs for q, lhs in zip(q_l1_series, lhs_series)]
            lhs, rhs = lhs_series[-1], level * (q_l1_series[-1] + f0_l1)
            energy.append(EnergyReport(species=species, level=level, lhs=lhs, rhs=rhs,
                                       slack=rhs - lhs, slack_series=slack_series))

        sup = max(self._maxv)
        linf = LinfReport(sup=sup, eps=self.eps, ratio=sup * self.eps)

        invariants = {}

        drift = max(abs(m - mass[0]) for m in mass)
        tol = MASS_REL_TOL * max(1.0, abs(mass[0]))
        invariants["mass_conservation"] = {
            "pass": bool(drift <= tol), "value": drift, "tolerance": tol,
            "detail": "max |M(t) - M(0)| over the sampled trajectory",
        }

        worst_dec = min(
            (mom0[k + 1] - mom0[k] for k in range(len(mom0) - 1)), default=0.0
        )
        tol0 = MOMENT0_REL_TOL * max(1.0, abs(mom0[0]))
        invariants["moment0_nondecreasing"] = {
            "pass": bool(worst_dec >= -tol0), "value": worst_dec, "tolerance": tol0,
            "detail": "most negative increment of the particle count",
        }

        monotone = True
        for k in range(len(times)):
            vals = [tails[M][k] for M in self.tail_levels]
            if any(vals[a] < vals[a + 1] - 1e-15 * max(1.0, abs(vals[a]))
                   for a in range(len(vals) - 1)):
                monotone = False
        invariants["tail_monotone_in_level"] = {
            "pass": bool(monotone), "value": monotone, "tolerance": 0.0,
            "detail": "tail mass nonincreasing in the tail level at every sample",
        }

        if self.envelope_family == "exponential":
            worst = 0.0
            ok = True
            for M in self.tail_levels:
                env = TAIL_ENVELOPE_FACTOR * tail_envelope_exponential(M)
                final = tails[M][-1]
                worst = max(worst, final - env)
                if final > env:
                    ok = False
            invariants["tail_envelope"] = {
                "pass": bool(ok), "value": worst, "tolerance": 0.0,
                "detail": f"final tails vs {TAIL_ENVELOPE_FACTOR} x analytic exponential envelope",
            }

        for rep in energy:
            tol_e = ENERGY_SLACK_REL_TOL * max(abs(rep.rhs), 1e-300)
            invariants[f"energy_slack@({rep.species},{rep.level:g})"] = {
                "pass": bool(rep.slack >= -tol_e), "value": rep.slack, "tolerance": tol_e,
                "detail": "RHS - LHS of the level-truncated energy inequality",
            }

        nonneg = min(self._minv)
        invariants["nonnegativity"] = {
            "pass": bool(nonneg >= -1e-12), "value": nonneg, "tolerance": 1e-12,
            "detail": "minimum field value over the sampled trajectory",
        }

        return MonitorReport(times=times, mass=mass, moment0=mom0, minval=list(self._minv),
                             maxval=list(self._maxv), tails=tails, duality=dual,
                             budget=budget, energy=energy, linf=linf, invariants=invariants)


def compute_monitors(grid, ks, samples, eps=0.0, tail_levels=(8, 16, 24),
                     energy_specs=(), envelope_family=None):
    """Evaluate every monitor over ``(t, F)`` pairs and audit the invariants.

    Folds a :class:`MonitorAccumulator` over ``samples`` with one
    ``q_field`` per state, as a run streamed into it does: states a sampler
    kept as copies give the streamed report, bit for bit.
    """
    acc = MonitorAccumulator(grid, ks, eps=eps, tail_levels=tail_levels,
                             energy_specs=energy_specs, envelope_family=envelope_family)
    for t, F in samples:
        acc.add(t, F, reaction.q_field(F, ks, eps))
    return acc.report()


# -- persistence -----------------------------------------------------------


def write_monitors_csv(path, report):
    """Column layout: t, M, moment0, min, max, tail@<M>..., D_cum, B_cum,
    energy_slack@(i,level)...  (quoted where a name contains a comma)."""
    import csv

    headers = ["t", "M", "moment0", "min", "max"]
    headers += [f"tail@{M}" for M in report.tails]
    headers += ["D_cum", "B_cum"]
    headers += [f"energy_slack@({rep.species},{rep.level:g})" for rep in report.energy]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(headers)
        for k, t in enumerate(report.times):
            row = [repr(t), repr(report.mass[k]), repr(report.moment0[k]),
                   repr(report.minval[k]), repr(report.maxval[k])]
            row += [repr(report.tails[M][k]) for M in report.tails]
            row += [repr(report.duality.series[k]), repr(report.budget.series[k])]
            row += [repr(rep.slack_series[k]) for rep in report.energy]
            w.writerow(row)


def write_summary_json(path, report, extra=None):
    """Deterministic (sorted, fixed-indent) JSON summary of a run."""
    doc = {
        "final": {
            "t": report.times[-1],
            "mass": report.mass[-1],
            "moment0": report.moment0[-1],
            "min": report.minval[-1],
            "max": report.maxval[-1],
            "tails": {str(M): s[-1] for M, s in report.tails.items()},
            "duality": {"D": report.duality.D, "R": report.duality.R,
                        "ratio": report.duality.ratio},
            "budget": report.budget.total,
            "linf": {"sup": report.linf.sup, "eps": report.linf.eps,
                     "ratio": report.linf.ratio},
            "energy": [
                {"species": r.species, "level": r.level, "lhs": r.lhs,
                 "rhs": r.rhs, "slack": r.slack} for r in report.energy
            ],
        },
        "invariants": report.invariants,
        "all_pass": report.all_pass,
    }
    if extra:
        doc.update(extra)
    with open(path, "w", newline="\n") as fh:
        fh.write(json_text(doc) + "\n")


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(val) for val in obj]
    return obj


def json_text(doc):
    """``doc`` as fragdiff writes every JSON document: sorted keys, an
    indent of 2, and ``null`` for each non-finite float, which strict JSON
    cannot hold (a monitor of a run that overflowed is ``inf``).  Encoding
    with ``allow_nan=False`` makes a value this misses raise."""
    return json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False)
