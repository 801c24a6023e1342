"""Run configuration: strict JSON parsing and object builders.

A config document is a single JSON object with sections ``kernel``,
``grid``, ``ic``, ``stepper``, ``monitors`` plus top-level ``eps`` and
``output_dir``.  Every key is optional.  Each section is a dataclass, and
each of its fields states all there is to know about one key: its name,
its JSON type (the annotation; an int is accepted where a float is
expected), its default, and its range check.  One loop, :func:`_parse`,
builds every section from those fields; rules that tie keys together live
in the sections' ``__post_init__``.  Parsing is fail-closed: unknown keys,
values of the wrong type, non-finite numbers (``NaN``, ``Infinity``,
anywhere in a value) and out-of-range values all raise
:class:`ConfigError` — a silently ignored typo in a kernel exponent would
invalidate every certificate the run produces.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import grid as gridmod
from . import kernels
from .errors import ConfigError, DomainError
from .stepper import StepperConfig

IC_FAMILIES = ("exponential", "custom_csv")
IC_PROFILES = ("constant", "cosine", "gaussian_bump")
KERNEL_FAMILIES = ("power_law_uniform", "cheng_redner_uniform", "table")


def _key(default, check=None, rule=""):
    """The field of one config key: its default, and the range check
    ``check(value)`` that ``rule`` states for the error message."""
    meta = {"check": check, "rule": rule}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v):
    """Whether every number in ``v``, nested lists included, is finite.

    ``json.load`` reads ``NaN``, ``Infinity`` and ``-Infinity`` (and
    ``1e400`` as infinity); an int too large for a float counts as infinite.
    """
    if isinstance(v, list):
        return all(map(_finite, v))
    if not _is_number(v):
        return True
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _json_type(hint):
    """The JSON value type of a field annotation: ``list[int] | None`` -> list."""
    if typing.get_origin(hint) is types.UnionType:
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    return typing.get_origin(hint) or hint


def _parse(cls, section, d):
    """Build the config dataclass ``cls`` from the JSON object ``d``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{section}: expected a JSON object, got {d!r}")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{section}: unknown keys {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name not in d:
            continue
        v, typ = d[f.name], _json_type(hints[f.name])
        if v is None and f.default is None:
            values[f.name] = None  # an explicit null is fine wherever the default is null
            continue
        if is_dataclass(typ):
            v = _parse(typ, f.name, v)
        elif not _finite(v):
            raise ConfigError(f"{section}.{f.name}: invalid value {v!r} (numbers must be finite)")
        elif typ is float and _is_int(v):
            v = float(v)
        if not isinstance(v, typ) or isinstance(v, bool) and typ is not bool:
            raise ConfigError(f"{section}.{f.name}: expected {typ.__name__}, got {v!r}")
        check = f.metadata.get("check")
        if check is not None and not check(v):
            rule = f.metadata["rule"]
            raise ConfigError(f"{section}.{f.name}: invalid value {v!r}"
                              + (f" ({rule})" if rule else ""))
        values[f.name] = v
    try:
        return cls(**values)
    except DomainError as exc:  # a section that checks its own ranges
        raise ConfigError(f"{section}: {exc}") from exc


@dataclass
class KernelConfig:
    family: str = _key("power_law_uniform", lambda v: v in KERNEL_FAMILIES)
    n: int = _key(32, lambda v: v >= 1)
    lam: float = _key(4.0, lambda v: v > 0)
    alpha: float = _key(0.5, lambda v: v >= 0)
    profile: str = _key("weaker", lambda v: v in ("weaker", "stronger"))
    reg_tol: float = _key(1e-10, lambda v: 0 < v < 1)
    a_table: str | None = None
    b_table: str | None = None
    d_table: str | None = None

    def __post_init__(self):
        if self.family == "table":
            for name in ("a_table", "b_table", "d_table"):
                if getattr(self, name) is None:
                    raise ConfigError(f"kernel: family 'table' requires {name}")


@dataclass
class GridConfig:
    cells: list[int] = _key([128], lambda v: len(v) in (1, 2)
                            and all(_is_int(c) and c >= 4 for c in v),
                            "1 or 2 axes, each an int >= 4")
    lengths: list[float] | None = _key(None, lambda v: all(_is_number(x) and x > 0 for x in v),
                                       "positive numbers, one per axis")

    def __post_init__(self):
        if self.lengths is None:
            self.lengths = [1.0] * len(self.cells)
        if len(self.lengths) != len(self.cells):
            raise ConfigError("grid.lengths: positive numbers, one per axis")
        self.lengths = [float(x) for x in self.lengths]


@dataclass
class ICConfig:
    family: str = _key("exponential", lambda v: v in IC_FAMILIES)
    gamma: float = _key(1.0, lambda v: v > 0)
    amplitude: float = _key(1.0, lambda v: v >= 0)
    profile: str = _key("constant", lambda v: v in IC_PROFILES)
    depth: float = _key(0.5, lambda v: 0 <= v < 1)
    center: list[float] | None = _key(None, lambda v: all(_is_number(x) for x in v),
                                      "numbers, one per grid axis")
    width: float = _key(0.1, lambda v: v > 0)
    path: str | None = None
    allow_custom: bool = False

    def __post_init__(self):
        if self.family == "custom_csv":
            if not self.allow_custom:
                raise ConfigError(
                    "ic: custom_csv data requires allow_custom=true "
                    "(admissibility is then checked numerically only)"
                )
            if self.path is None:
                raise ConfigError("ic: custom_csv requires a path")


@dataclass
class MonitorsConfig:
    cadence: int = _key(10, lambda v: v >= 1)
    tail_levels: list[int] = _key([8, 16, 24], lambda v: all(_is_int(M) and M >= 0 for M in v)
                                  and v == sorted(v), "increasing nonnegative ints")
    energy_specs: list[list] = _key([], lambda v: all(
        isinstance(s, list) and len(s) == 2 and _is_int(s[0]) and _is_number(s[1])
        and s[1] > 0 for s in v), "entries are [species, level], level > 0")
    envelope_family: str | None = _key(None, lambda v: v in ("exponential",))

    def __post_init__(self):
        self.energy_specs = [[sp, float(level)] for sp, level in self.energy_specs]


@dataclass
class SimConfig:
    kernel: KernelConfig = field(default_factory=KernelConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    ic: ICConfig = field(default_factory=ICConfig)
    stepper: StepperConfig = field(default_factory=StepperConfig)
    monitors: MonitorsConfig = field(default_factory=MonitorsConfig)
    eps: float = _key(0.0, lambda v: 0 <= v < 1)
    output_dir: str | None = None

    def __post_init__(self):
        if self.ic.center is not None and len(self.ic.center) != len(self.grid.cells):
            raise ConfigError("ic.center: numbers, one per grid axis")
        for sp, _level in self.monitors.energy_specs:
            if not 1 <= sp <= self.kernel.n:
                raise ConfigError(
                    f"monitors.energy_specs: species {sp} outside 1..{self.kernel.n}")

    @classmethod
    def from_dict(cls, doc):
        return _parse(cls, "config", doc)

    def to_dict(self):
        return asdict(self)


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return SimConfig.from_dict(doc)


# -- builders --------------------------------------------------------------


def make_kernel_set(kc):
    """The configured kernel set; an unreadable or malformed table file is a
    :class:`ConfigError` naming its key and path."""
    if kc.family == "power_law_uniform":
        return kernels.power_law_uniform(kc.n, kc.lam, kc.alpha,
                                         reg_tol=kc.reg_tol, profile=kc.profile)
    if kc.family == "cheng_redner_uniform":
        return kernels.cheng_redner_uniform(kc.n, kc.lam, kc.alpha,
                                            reg_tol=kc.reg_tol, profile=kc.profile)
    tables = {"kernel.a_table": kc.a_table, "kernel.b_table": kc.b_table,
              "kernel.d_table": kc.d_table}
    try:
        return kernels.from_tables(*tables.values(), n=kc.n)
    except (OSError, ValueError, DomainError) as exc:
        # an OS error names its file, and from_tables' own errors start with its path
        keys = [k for k, path in tables.items()
                if path == getattr(exc, "filename", None) or str(exc).startswith(f"{path}: ")]
        where = ", ".join(f"{k} ({tables[k]})" for k in keys or tables)
        raise ConfigError(f"{where}: cannot read kernel table: {exc}") from exc


def make_grid(gc):
    if len(gc.cells) == 1:
        return gridmod.make_grid_1d(gc.cells[0], gc.lengths[0])
    return gridmod.make_grid_2d(gc.cells[0], gc.cells[1],
                                gc.lengths[0], gc.lengths[1])


def _profile_values(ic, grid):
    axes = grid.meshgrid()
    if ic.profile == "constant":
        return np.ones(grid.shape)
    if ic.profile == "cosine":
        prof = np.ones(grid.shape)
        for ax, x in enumerate(axes):
            prof = prof * (1.0 + ic.depth * np.cos(2.0 * np.pi * x / grid.lengths[ax]))
        return prof
    center = ic.center
    if center is None:
        center = [0.5 * L for L in grid.lengths]
    r2 = np.zeros(grid.shape)
    for ax, x in enumerate(axes):
        r2 = r2 + (x - float(center[ax])) ** 2
    return np.exp(-r2 / (2.0 * ic.width ** 2))


def make_initial_condition(ic, grid, n):
    """Species stack  f_i(x) = amplitude * exp(-gamma*i) * profile(x), or the
    stored ``custom_csv`` field, which must be readable, finite and
    nonnegative (else :class:`ConfigError`)."""
    if ic.family == "custom_csv":
        try:
            g2, values, _ = gridmod.read_species_csv(ic.path)
        except (OSError, ValueError, DomainError) as exc:
            raise ConfigError(f"ic.path ({ic.path}): cannot read stored field: {exc}") from exc
        if g2.shape != grid.shape or values.shape[0] != n:
            raise ConfigError(
                "ic.path: stored field does not match the configured grid/size count"
            )
        if not (np.all(np.isfinite(values)) and np.all(values >= 0.0)):
            raise ConfigError("ic.path: stored field must be finite and nonnegative")
        return values
    prof = _profile_values(ic, grid)
    weights = ic.amplitude * np.exp(-ic.gamma * np.arange(1, n + 1))
    return weights.reshape((n,) + (1,) * grid.dim) * prof[None, ...]


def reference_scenario_dict():
    """The reference validation scenario used across the test-suite:
    1D unit interval, 128 cells, 32 sizes, lam=4, alpha=1/2, eps=1e-2,
    cosine-modulated exponential data, IMEX at dt=1e-3 to T=1."""
    return {
        "kernel": {"family": "power_law_uniform", "n": 32, "lam": 4.0, "alpha": 0.5},
        "grid": {"cells": [128], "lengths": [1.0]},
        "ic": {"family": "exponential", "gamma": 1.0, "amplitude": 1.0,
               "profile": "cosine", "depth": 0.5},
        "stepper": {"scheme": "imex_euler", "dt": 1e-3, "t_end": 1.0,
                    "negativity_policy": "reject_and_halve"},
        "monitors": {"cadence": 10, "tail_levels": [8, 16, 24],
                     "energy_specs": [[1, 0.5], [1, 1.0]],
                     "envelope_family": "exponential"},
        "eps": 1e-2,
    }
