"""Run configuration: strict JSON parsing and object builders.

A config document is a single JSON object with sections ``kernel``,
``grid``, ``ic``, ``stepper``, ``monitors`` plus top-level ``eps`` and
``output_dir``.  Parsing is fail-closed: unknown keys, missing
required keys, and out-of-range values all raise :class:`ConfigError` —
a silently ignored typo in a kernel exponent would invalidate every
certificate the run produces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import grid as gridmod
from . import kernels
from .errors import ConfigError
from .stepper import SCHEMES, REJECT_AND_HALVE, CLIP_TO_ZERO

IC_FAMILIES = ("exponential", "custom_csv")
IC_PROFILES = ("constant", "cosine", "gaussian_bump")
KERNEL_FAMILIES = ("power_law_uniform", "cheng_redner_uniform", "table")


def _section(doc, key):
    if key not in doc:
        return {}
    val = doc[key]
    if not isinstance(val, dict):
        raise ConfigError(f"config section {key!r} must be an object")
    return val


def _pull(d, section, key, typ, default=..., check=None, what=""):
    if key not in d:
        if default is ...:
            raise ConfigError(f"{section}: missing required key {key!r}")
        return default
    v = d[key]
    if v is None and default is None:
        return None  # explicit null is fine wherever the default is null
    if typ is float and isinstance(v, int) and not isinstance(v, bool):
        v = float(v)
    if typ is not None and not isinstance(v, typ) or isinstance(v, bool) and typ is not bool:
        raise ConfigError(f"{section}.{key}: expected {what or typ}, got {v!r}")
    if check is not None and not check(v):
        raise ConfigError(f"{section}.{key}: invalid value {v!r}")
    return v


def _reject_unknown(d, section, allowed):
    extra = set(d) - set(allowed)
    if extra:
        raise ConfigError(f"{section}: unknown keys {sorted(extra)}")


@dataclass
class KernelConfig:
    family: str = "power_law_uniform"
    n: int = 32
    lam: float = 4.0
    alpha: float = 0.5
    profile: str = "weaker"
    reg_tol: float = 1e-10
    a_table: str | None = None
    b_table: str | None = None
    d_table: str | None = None

    KEYS = ("family", "n", "lam", "alpha", "profile", "reg_tol",
            "a_table", "b_table", "d_table")

    @classmethod
    def from_dict(cls, d):
        _reject_unknown(d, "kernel", cls.KEYS)
        kc = cls(
            family=_pull(d, "kernel", "family", str, "power_law_uniform",
                         lambda v: v in KERNEL_FAMILIES, "kernel family name"),
            n=_pull(d, "kernel", "n", int, 32, lambda v: v >= 1),
            lam=_pull(d, "kernel", "lam", float, 4.0, lambda v: v > 0),
            alpha=_pull(d, "kernel", "alpha", float, 0.5, lambda v: v >= 0),
            profile=_pull(d, "kernel", "profile", str, "weaker",
                          lambda v: v in ("weaker", "stronger")),
            reg_tol=_pull(d, "kernel", "reg_tol", float, 1e-10, lambda v: 0 < v < 1),
            a_table=_pull(d, "kernel", "a_table", str, None),
            b_table=_pull(d, "kernel", "b_table", str, None),
            d_table=_pull(d, "kernel", "d_table", str, None),
        )
        if kc.family == "table":
            for name in ("a_table", "b_table", "d_table"):
                if getattr(kc, name) is None:
                    raise ConfigError(f"kernel: family 'table' requires {name}")
        return kc


@dataclass
class GridConfig:
    cells: list[int] = field(default_factory=lambda: [128])
    lengths: list[float] = field(default_factory=lambda: [1.0])

    KEYS = ("cells", "lengths")

    @classmethod
    def from_dict(cls, d):
        _reject_unknown(d, "grid", cls.KEYS)
        cells = _pull(d, "grid", "cells", list, [128])
        lengths = _pull(d, "grid", "lengths", list, None)
        if lengths is None:
            lengths = [1.0] * len(cells)
        if not all(isinstance(c, int) and not isinstance(c, bool) and c >= 4 for c in cells):
            raise ConfigError("grid.cells: each entry must be an int >= 4")
        if len(lengths) != len(cells) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and x > 0 for x in lengths
        ):
            raise ConfigError("grid.lengths: positive numbers, one per axis")
        if len(cells) not in (1, 2):
            raise ConfigError("grid: only 1 or 2 spatial axes supported")
        return cls(cells=list(cells), lengths=[float(x) for x in lengths])


@dataclass
class ICConfig:
    family: str = "exponential"
    gamma: float = 1.0
    amplitude: float = 1.0
    profile: str = "constant"
    depth: float = 0.5
    center: list[float] | None = None
    width: float = 0.1
    path: str | None = None
    allow_custom: bool = False

    KEYS = ("family", "gamma", "amplitude", "profile", "depth", "center",
            "width", "path", "allow_custom")

    @classmethod
    def from_dict(cls, d):
        _reject_unknown(d, "ic", cls.KEYS)
        ic = cls(
            family=_pull(d, "ic", "family", str, "exponential",
                         lambda v: v in IC_FAMILIES),
            gamma=_pull(d, "ic", "gamma", float, 1.0, lambda v: v > 0),
            amplitude=_pull(d, "ic", "amplitude", float, 1.0, lambda v: v >= 0),
            profile=_pull(d, "ic", "profile", str, "constant",
                          lambda v: v in IC_PROFILES),
            depth=_pull(d, "ic", "depth", float, 0.5, lambda v: 0 <= v < 1),
            center=_pull(d, "ic", "center", list, None),
            width=_pull(d, "ic", "width", float, 0.1, lambda v: v > 0),
            path=_pull(d, "ic", "path", str, None),
            allow_custom=_pull(d, "ic", "allow_custom", bool, False),
        )
        if ic.family == "custom_csv":
            if not ic.allow_custom:
                raise ConfigError(
                    "ic: custom_csv data requires allow_custom=true "
                    "(admissibility is then checked numerically only)"
                )
            if ic.path is None:
                raise ConfigError("ic: custom_csv requires a path")
        return ic


@dataclass
class StepperSection:
    scheme: str = "imex_euler"
    dt: float = 1e-3
    t_end: float = 1.0
    negativity_policy: str = REJECT_AND_HALVE
    dt_min: float = 1e-9

    KEYS = ("scheme", "dt", "t_end", "negativity_policy", "dt_min")

    @classmethod
    def from_dict(cls, d):
        _reject_unknown(d, "stepper", cls.KEYS)
        return cls(
            scheme=_pull(d, "stepper", "scheme", str, "imex_euler",
                         lambda v: v in SCHEMES),
            dt=_pull(d, "stepper", "dt", float, 1e-3, lambda v: v > 0),
            t_end=_pull(d, "stepper", "t_end", float, 1.0, lambda v: v >= 0),
            negativity_policy=_pull(d, "stepper", "negativity_policy", str,
                                    REJECT_AND_HALVE,
                                    lambda v: v in (REJECT_AND_HALVE, CLIP_TO_ZERO)),
            dt_min=_pull(d, "stepper", "dt_min", float, 1e-9, lambda v: v > 0),
        )


@dataclass
class MonitorsConfig:
    cadence: int = 10
    tail_levels: list[int] = field(default_factory=lambda: [8, 16, 24])
    energy_specs: list[list] = field(default_factory=list)
    envelope_family: str | None = None

    KEYS = ("cadence", "tail_levels", "energy_specs", "envelope_family")

    @classmethod
    def from_dict(cls, d):
        _reject_unknown(d, "monitors", cls.KEYS)
        mc = cls(
            cadence=_pull(d, "monitors", "cadence", int, 10, lambda v: v >= 1),
            tail_levels=_pull(d, "monitors", "tail_levels", list, [8, 16, 24]),
            energy_specs=_pull(d, "monitors", "energy_specs", list, []),
            envelope_family=_pull(d, "monitors", "envelope_family", str, None,
                                  lambda v: v in ("exponential",)),
        )
        if not all(isinstance(M, int) and not isinstance(M, bool) and M >= 0
                   for M in mc.tail_levels):
            raise ConfigError("monitors.tail_levels: nonnegative ints")
        if sorted(mc.tail_levels) != list(mc.tail_levels):
            raise ConfigError("monitors.tail_levels: must be increasing")
        specs = []
        for item in mc.energy_specs:
            if (not isinstance(item, list) or len(item) != 2
                    or not isinstance(item[0], int) or isinstance(item[0], bool)
                    or not isinstance(item[1], (int, float))):
                raise ConfigError("monitors.energy_specs: entries are [species, level]")
            specs.append([item[0], float(item[1])])
        mc.energy_specs = specs
        return mc


@dataclass
class SimConfig:
    kernel: KernelConfig = field(default_factory=KernelConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    ic: ICConfig = field(default_factory=ICConfig)
    stepper: StepperSection = field(default_factory=StepperSection)
    monitors: MonitorsConfig = field(default_factory=MonitorsConfig)
    eps: float = 0.0
    output_dir: str | None = None

    TOP_KEYS = ("kernel", "grid", "ic", "stepper", "monitors", "eps",
                "output_dir")

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        _reject_unknown(doc, "config", cls.TOP_KEYS)
        return cls(
            kernel=KernelConfig.from_dict(_section(doc, "kernel")),
            grid=GridConfig.from_dict(_section(doc, "grid")),
            ic=ICConfig.from_dict(_section(doc, "ic")),
            stepper=StepperSection.from_dict(_section(doc, "stepper")),
            monitors=MonitorsConfig.from_dict(_section(doc, "monitors")),
            eps=_pull(doc, "config", "eps", float, 0.0, lambda v: 0 <= v < 1),
            output_dir=_pull(doc, "config", "output_dir", str, None),
        )

    def to_dict(self):
        doc = asdict(self)
        return doc


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
    if kc.family == "power_law_uniform":
        return kernels.power_law_uniform(kc.n, kc.lam, kc.alpha,
                                         reg_tol=kc.reg_tol, profile=kc.profile)
    if kc.family == "cheng_redner_uniform":
        return kernels.cheng_redner_uniform(kc.n, kc.lam, kc.alpha,
                                            reg_tol=kc.reg_tol, profile=kc.profile)
    return kernels.from_tables(kc.a_table, kc.b_table, kc.d_table, n=kc.n)


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
    if len(center) != grid.dim:
        raise ConfigError("ic.center: one coordinate per axis")
    r2 = np.zeros(grid.shape)
    for ax, x in enumerate(axes):
        r2 = r2 + (x - float(center[ax])) ** 2
    return np.exp(-r2 / (2.0 * ic.width ** 2))


def make_initial_condition(ic, grid, n):
    """Species stack  f_i(x) = amplitude * exp(-gamma*i) * profile(x)."""
    if ic.family == "custom_csv":
        g2, values, _ = gridmod.read_species_csv(ic.path)
        if g2.shape != grid.shape or values.shape[0] != n:
            raise ConfigError(
                "ic.path: stored field does not match the configured grid/size count"
            )
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
