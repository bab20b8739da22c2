"""Run configuration: a JSON document mapped onto library objects.

Top-level keys: plant, metric, constraint, controller, scenario, and the
optional sweep / certify blocks plus a seed.  This module only parses: every
number goes through _numbers (a JSON number, a nonempty flat list of them or
a nonempty list of equally long such rows; no strings, booleans or null),
every integer through _as_int, every block (each set and certify.box too)
through _get's one check that it is a JSON object, and the two boxes
(constraint, certify.box) through _box.  A value of the wrong JSON type or
shape names its key ("controller.T_i: expected a number, got '2.0'").  The
library object that takes a value checks every rule on it, once, and _naming
makes its ValueError a ConfigError that names the block ("controller: damping
must lie ...").  sweep and certify share one exact (mu, L) over certify.box,
so sweep.mu, sweep.L, sweep.box and a samples key are config errors.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .controller import DPIController, _checked_alpha
from .metric import Metric
from .plants import FourTankPlant, LTIPlant, PlantModel
from .sets import (Ball, Box, ConvexSet, Halfspace, Intersection, LinearPreimage, Polyhedron,
                   ProjectionError)
from .simulation import Scenario

__all__ = ["ConfigError", "RunSetup", "load_config", "build_setup"]


class ConfigError(Exception):
    """Invalid configuration; str(err) names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@contextmanager
def _naming(key: str):
    """Report a library object's ValueError as a ConfigError that names key's block."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


def load_config(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config file ({exc})") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(str(path), "config root must be an object")
    return cfg


@dataclass
class RunSetup:
    plant: PlantModel
    metric: Metric
    constraint: ConvexSet
    controller: DPIController
    scenario: Scenario
    sweep: dict | None
    certify_box: Box | None
    seed: int
    raw: dict


_REQUIRED = object()


def _get(spec: dict, block: str, name: str, kind=None, default=_REQUIRED):
    """spec[name], which errors name block.name (name alone at the top level).

    kind None returns the value as given, dict a JSON object (the one check
    that a block is one), int reads it by _as_int, and 0, 1 or 2 by _numbers
    with that many dimensions.  A key with a default may be left out.
    """
    key = f"{block}.{name}" if block else name
    if name not in spec:
        if default is _REQUIRED:
            raise ConfigError(key, "missing required key")
        return default
    value = spec[name]
    if kind is dict and not isinstance(value, dict):
        raise ConfigError(key, f"expected an object, got {value!r}")
    if kind in (None, dict):
        return value
    return _as_int(value, key) if kind is int else _numbers(value, key, kind)


def _as_int(value, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(key, f"expected an integer, got {value!r}")
    return value


_SHAPES = ("a number", "a nonempty flat list of numbers",
           "a nonempty matrix (a list of equally long rows of numbers)")


def _is_numbers(value, ndim: int) -> bool:
    if ndim == 0:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, list) and bool(value) and all(_is_numbers(v, ndim - 1) for v in value)


def _numbers(value, key: str, ndim: int):
    """A JSON number (ndim 0), a nonempty flat list of them (1) or a nonempty
    list of equally long such lists (2), as a float or a float array.
    Strings, booleans and null are not numbers."""
    if not _is_numbers(value, ndim) or (ndim == 2 and len({len(row) for row in value}) > 1):
        raise ConfigError(key, f"expected {_SHAPES[ndim]}, got {value!r}")
    try:
        return float(value) if ndim == 0 else np.array(value, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(key, f"number out of range ({exc})") from exc


_INFINITIES = {"inf": np.inf, "+inf": np.inf, "-inf": -np.inf}


def _box(spec: dict, key: str) -> Box:
    """A {lower, upper} box, the constraint box or certify.box; a bound is a
    number, null (unbounded) or "inf", "+inf", "-inf"."""
    bounds = []
    for side, unbounded in (("lower", -np.inf), ("upper", np.inf)):
        raw = _get(spec, key, side)
        if isinstance(raw, list):
            raw = [unbounded if v is None else _INFINITIES.get(v, v) if isinstance(v, str) else v
                   for v in raw]
        bounds.append(_numbers(raw, f"{key}.{side}", 1))
    with _naming(key):
        return Box(*bounds)


def _build_set(spec: dict, key: str) -> ConvexSet:
    kind = _get(spec, key, "type")
    with _naming(key):
        if kind == "box":
            return _box(spec, key)
        if kind == "halfspace":
            return Halfspace(_get(spec, key, "a", 1), _get(spec, key, "b", 0))
        if kind == "ball":
            return Ball(_get(spec, key, "center", 1), _get(spec, key, "radius", 0))
        if kind == "polyhedron":
            return Polyhedron(_get(spec, key, "A", 2), _get(spec, key, "b", 1))
        if kind == "intersection":
            members = _get(spec, key, "sets")
            if not isinstance(members, list):
                raise ConfigError(f"{key}.sets", "expected a list of sets")
            named = {f"sets[{i}]": member for i, member in enumerate(members)}
            return Intersection([_build_set(_get(named, key, name, dict), f"{key}.{name}")
                                 for name in named])
        if kind == "linear_preimage":
            return LinearPreimage(_get(spec, key, "K", 2),
                                  _build_set(_get(spec, key, "inner", dict), f"{key}.inner"))
    raise ConfigError(f"{key}.type", f"unknown set type {kind!r}")


def _build_plant(spec: dict, key: str = "plant") -> PlantModel:
    kind = _get(spec, key, "type")
    with _naming(key):
        if kind == "lti":
            return LTIPlant(*(_get(spec, key, name, 2) for name in ("A", "B", "C")),
                            *(_get(spec, key, name, 2, None) for name in ("D", "B_w", "D_w")),
                            T_s=_get(spec, key, "T_s", 0, 1.0))
        if kind == "four_tank":
            fields = {"T_s": 0, "substeps": int, "tank_areas": 1, "split_ratios": 1,
                      "nominal_levels": 1, "nominal_input": 1, "outlet_areas": 1, "g": 0}
            return FourTankPlant(**{name: _get(spec, key, name, read)
                                    for name, read in fields.items() if name in spec})
    raise ConfigError(f"{key}.type", f"unknown plant type {kind!r}")


def _build_metric(spec, dim: int, key: str = "metric") -> Metric:
    if spec is None or spec == "identity":
        return Metric.identity(dim)
    with _naming(key):
        return Metric(_numbers(spec, key, 2))


def _build_schedule(spec, key: str) -> list[tuple[int, np.ndarray]]:
    if not isinstance(spec, list):
        raise ConfigError(key, "expected a list of [start_step, w] pairs")
    schedule = []
    for i, entry in enumerate(spec):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ConfigError(f"{key}[{i}]", "expected a [start_step, w] pair")
        # a plant without a disturbance reads [], which _numbers rejects
        w = np.zeros(0) if entry[1] == [] else _numbers(entry[1], f"{key}[{i}][1]", 1)
        schedule.append((_as_int(entry[0], f"{key}[{i}][0]"), w))
    return schedule


def build_setup(cfg: dict) -> RunSetup:
    """Parse a config document and construct the run objects."""
    seed = _get(cfg, "", "seed", int, 0)
    if seed < 0:  # no library object takes the seed, which the summaries only echo
        raise ConfigError("seed", f"must be at least 0, got {seed}")
    plant = _build_plant(_get(cfg, "", "plant", dict))
    constraint = _build_set(_get(cfg, "", "constraint", dict), "constraint")

    ctrl_cfg = _get(cfg, "", "controller", dict)
    K = _get(ctrl_cfg, "controller", "K", 2)
    T_i = _get(ctrl_cfg, "controller", "T_i", 0)
    damping = _get(ctrl_cfg, "controller", "lambda", 0)
    metric = _build_metric(cfg.get("metric"), K.shape[1])
    eta0 = _get(ctrl_cfg, "controller", "eta0", 1, None)
    u0 = _get(ctrl_cfg, "controller", "u0", 1, None)
    try:
        with _naming("controller"):
            controller = DPIController(K, constraint, metric, plant.T_s, T_i, damping,
                                       eta0=eta0, u0=u0)
    except ProjectionError as exc:  # the initial projection finds Gamma empty
        raise ConfigError("constraint", str(exc)) from exc

    scn_cfg = _get(cfg, "", "scenario", dict)
    with _naming("scenario"):
        scenario = Scenario(
            plant=plant,
            controller=controller,
            schedule=_build_schedule(_get(scn_cfg, "scenario", "schedule"), "scenario.schedule"),
            horizon=_get(scn_cfg, "scenario", "horizon", int),
            x0=_get(scn_cfg, "scenario", "x0", 1))

    sweep = _validate_sweep(_get(cfg, "", "sweep", dict), scenario) if "sweep" in cfg else None
    certify_box = _validate_certify(_get(cfg, "", "certify", dict)) if "certify" in cfg else None
    return RunSetup(plant, metric, constraint, controller, scenario,
                    sweep, certify_box, seed, cfg)


def _reject_removed(spec: dict, block: str, names) -> None:
    """Keys that once set (mu, L) another way fail loudly, never reread."""
    for name in names:
        if name in spec:
            raise ConfigError(f"{block}.{name}", "(mu, L) are exact, from the plant's Jacobian "
                              "over certify.box, and sweep and certify share them; remove this key")


def _validate_sweep(spec: dict, scenario: Scenario) -> dict:
    """Sweep block: the T_i and lambda grid, and as "scenario" the run
    scenario with the sweep's horizon and schedule overrides applied."""
    _reject_removed(spec, "sweep", ("mu", "L", "box", "samples"))
    out = {name: _get(spec, "sweep", name, 1).tolist() for name in ("T_i", "lambda")}
    horizon = _get(spec, "sweep", "horizon", int, scenario.horizon)
    schedule = (_build_schedule(spec["schedule"], "sweep.schedule") if "schedule" in spec
                else scenario.schedule)
    with _naming("sweep"):
        out["scenario"] = replace(scenario, horizon=horizon, schedule=schedule)
        # gain_sweep's own checks, so a bad grid exits before any run
        for T_i in out["T_i"]:
            for damping in out["lambda"]:
                _checked_alpha(scenario.controller.T_s, T_i, damping)
    return out


def _validate_certify(spec: dict) -> Box | None:
    _reject_removed(spec, "certify", ("samples",))
    box = _box(_get(spec, "certify", "box", dict), "certify.box") if "box" in spec else None
    if box is not None and not np.isfinite([box.lower, box.upper]).all():  # (mu, L) at corners
        raise ConfigError("certify.box", "a certificate box must be bounded")
    return box
