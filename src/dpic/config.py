"""Run configuration: a JSON document mapped onto library objects.

Top-level keys: plant, metric, constraint, controller, scenario, and the
optional sweep / certify blocks plus a seed.  Validation errors carry the
path of the offending key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .controller import DPIController
from .metric import Metric
from .plants import FourTankPlant, LTIPlant, PlantModel
from .sets import Ball, Box, ConvexSet, Halfspace, Intersection, LinearPreimage, Polyhedron
from .simulation import Scenario

__all__ = ["ConfigError", "RunSetup", "load_config", "build_setup"]

DEFAULT_SAMPLES = 2000  # sample pairs of an estimated (mu, L)


class ConfigError(Exception):
    """Invalid configuration; str(err) names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


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
    certify: dict | None
    seed: int
    raw: dict


def _get(cfg: dict, key: str, path: str, required: bool = True, default=None):
    if key not in cfg:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
        return default
    return cfg[key]


def _as_float(value, key: str, positive: bool = False) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, f"expected a number, got {value!r}") from exc
    if not np.isfinite(out):
        raise ConfigError(key, "must be finite")
    if positive and out <= 0.0:
        raise ConfigError(key, f"must be positive, got {out:g}")
    return out


def _as_int(value, key: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(key, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(key, f"must be at least {minimum}, got {value}")
    return value


def _as_vector(value, key: str) -> np.ndarray:
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, "expected a list of numbers") from exc
    if out.ndim != 1 or out.size == 0 or not np.all(np.isfinite(out)):
        raise ConfigError(key, "expected a nonempty flat list of finite numbers")
    return out


def _as_matrix(value, key: str) -> np.ndarray:
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, "expected a nested list of numbers") from exc
    if out.ndim != 2 or out.size == 0:
        raise ConfigError(key, "expected a nonempty matrix (list of rows)")
    if not np.all(np.isfinite(out)):
        raise ConfigError(key, "matrix entries must be finite")
    return out


def _as_bound(value, key: str, side: str) -> float:
    """Box bound: a number, null (unbounded), or the literals 'inf'/'-inf'."""
    if value is None:
        return -np.inf if side == "lower" else np.inf
    if isinstance(value, str):
        if value in ("inf", "+inf"):
            return np.inf
        if value == "-inf":
            return -np.inf
        raise ConfigError(key, f"unknown bound literal {value!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(key, f"expected a number, null or 'inf'/'-inf', got {value!r}")


def _build_set(spec, key: str) -> ConvexSet:
    if not isinstance(spec, dict):
        raise ConfigError(key, "constraint sets are objects with a 'type' tag")
    kind = _get(spec, "type", key)
    try:
        if kind == "box":
            raw_lower = _get(spec, "lower", key)
            raw_upper = _get(spec, "upper", key)
            if not isinstance(raw_lower, list) or not isinstance(raw_upper, list):
                raise ConfigError(key, "box bounds must be lists")
            lower = [_as_bound(v, f"{key}.lower", "lower") for v in raw_lower]
            upper = [_as_bound(v, f"{key}.upper", "upper") for v in raw_upper]
            return Box(lower, upper)
        if kind == "halfspace":
            return Halfspace(_as_vector(_get(spec, "a", key), f"{key}.a"),
                             _as_float(_get(spec, "b", key), f"{key}.b"))
        if kind == "ball":
            return Ball(_as_vector(_get(spec, "center", key), f"{key}.center"),
                        _as_float(_get(spec, "radius", key), f"{key}.radius", positive=True))
        if kind == "polyhedron":
            return Polyhedron(_as_matrix(_get(spec, "A", key), f"{key}.A"),
                              _as_vector(_get(spec, "b", key), f"{key}.b"))
        if kind == "intersection":
            members = _get(spec, "sets", key)
            if not isinstance(members, list) or not members:
                raise ConfigError(f"{key}.sets", "expected a nonempty list of sets")
            intersection = Intersection([_build_set(s, f"{key}.sets[{i}]")
                                         for i, s in enumerate(members)])
            intersection._ball_and_rest  # raises past one ball, as projecting would
            return intersection
        if kind == "linear_preimage":
            return LinearPreimage(_as_matrix(_get(spec, "K", key), f"{key}.K"),
                                  _build_set(_get(spec, "inner", key), f"{key}.inner"))
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc
    raise ConfigError(f"{key}.type", f"unknown set type {kind!r}")


def _build_plant(spec, key: str = "plant") -> PlantModel:
    if not isinstance(spec, dict):
        raise ConfigError(key, "expected a plant object")
    kind = _get(spec, "type", key)
    try:
        if kind == "lti":
            return LTIPlant(
                A=_as_matrix(_get(spec, "A", key), f"{key}.A"),
                B=_as_matrix(_get(spec, "B", key), f"{key}.B"),
                C=_as_matrix(_get(spec, "C", key), f"{key}.C"),
                D=None if "D" not in spec else _as_matrix(spec["D"], f"{key}.D"),
                B_w=None if "B_w" not in spec else _as_matrix(spec["B_w"], f"{key}.B_w"),
                D_w=None if "D_w" not in spec else _as_matrix(spec["D_w"], f"{key}.D_w"),
                T_s=_as_float(spec.get("T_s", 1.0), f"{key}.T_s", positive=True))
        if kind == "four_tank":
            kwargs = {}
            if "T_s" in spec:
                kwargs["T_s"] = _as_float(spec["T_s"], f"{key}.T_s", positive=True)
            if "substeps" in spec:
                kwargs["substeps"] = _as_int(spec["substeps"], f"{key}.substeps", 1)
            for name in ("tank_areas", "split_ratios", "nominal_levels",
                         "nominal_input", "outlet_areas"):
                if name in spec:
                    kwargs[name] = _as_vector(spec[name], f"{key}.{name}")
            if "g" in spec:
                kwargs["g"] = _as_float(spec["g"], f"{key}.g", positive=True)
            return FourTankPlant(**kwargs)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc
    raise ConfigError(f"{key}.type", f"unknown plant type {kind!r}")


def _build_metric(spec, dim: int, key: str = "metric") -> Metric:
    if spec is None or spec == "identity":
        return Metric.identity(dim)
    try:
        return Metric(_as_matrix(spec, key))
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


def _build_schedule(spec, key: str, n_w: int) -> list[tuple[int, np.ndarray]]:
    if not isinstance(spec, list) or not spec:
        raise ConfigError(key, "expected a nonempty list of [start_step, w] pairs")
    schedule = []
    for i, entry in enumerate(spec):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ConfigError(f"{key}[{i}]", "expected a [start_step, w] pair")
        start = _as_int(entry[0], f"{key}[{i}][0]", minimum=0)
        w = _as_vector(entry[1], f"{key}[{i}][1]")
        if w.shape != (n_w,):
            raise ConfigError(key, f"disturbance at step {start} must have dimension {n_w}")
        schedule.append((start, w))
    return schedule


def build_setup(cfg: dict) -> RunSetup:
    """Validate a parsed config document and construct the run objects."""
    seed = _as_int(cfg.get("seed", 0), "seed", minimum=0)
    plant = _build_plant(_get(cfg, "plant", ""))
    constraint = _build_set(_get(cfg, "constraint", ""), "constraint")

    ctrl_cfg = _get(cfg, "controller", "")
    if not isinstance(ctrl_cfg, dict):
        raise ConfigError("controller", "expected a controller object")
    K = _as_matrix(_get(ctrl_cfg, "K", "controller"), "controller.K")
    if K.shape != (plant.m, plant.p):
        raise ConfigError("controller.K",
                          f"gain must be {plant.m}x{plant.p} "
                          f"(plant inputs x tracked errors), got {K.shape[0]}x{K.shape[1]}")
    T_i = _as_float(_get(ctrl_cfg, "T_i", "controller"), "controller.T_i", positive=True)
    damping = _as_float(_get(ctrl_cfg, "lambda", "controller"), "controller.lambda")
    if not 0.0 < damping < 1.0:
        raise ConfigError("controller.lambda",
                          f"must lie strictly between 0 and 1, got {damping:g}")
    metric = _build_metric(cfg.get("metric"), K.shape[1])
    eta0 = None if "eta0" not in ctrl_cfg else _as_vector(ctrl_cfg["eta0"], "controller.eta0")
    u0 = None if "u0" not in ctrl_cfg else _as_vector(ctrl_cfg["u0"], "controller.u0")
    try:
        controller = DPIController(K, constraint, metric, plant.T_s, T_i, damping,
                                   eta0=eta0, u0=u0)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise ConfigError("controller", str(exc)) from exc

    scn_cfg = _get(cfg, "scenario", "")
    if not isinstance(scn_cfg, dict):
        raise ConfigError("scenario", "expected a scenario object")
    try:
        scenario = Scenario(
            plant=plant,
            controller=controller,
            schedule=_build_schedule(_get(scn_cfg, "schedule", "scenario"),
                                     "scenario.schedule", plant.n_w),
            horizon=_as_int(_get(scn_cfg, "horizon", "scenario"), "scenario.horizon", 1),
            x0=_as_vector(_get(scn_cfg, "x0", "scenario"), "scenario.x0"))
    except ValueError as exc:
        raise ConfigError("scenario", str(exc)) from exc

    sweep = _validate_sweep(cfg.get("sweep"), scenario) if "sweep" in cfg else None
    certify = _validate_certify(cfg.get("certify")) if "certify" in cfg else None
    return RunSetup(plant, metric, constraint, controller, scenario,
                    sweep, certify, seed, cfg)


def _validate_box_block(spec, key: str) -> Box:
    if not isinstance(spec, dict):
        raise ConfigError(key, "expected an object with 'lower' and 'upper'")
    lower = _as_vector(_get(spec, "lower", key), f"{key}.lower")
    upper = _as_vector(_get(spec, "upper", key), f"{key}.upper")
    try:
        return Box(lower, upper)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


def _validate_sweep(spec, scenario: Scenario) -> dict:
    """Sweep block; out["scenario"] is the run scenario with the sweep's
    horizon and schedule overrides applied."""
    if not isinstance(spec, dict):
        raise ConfigError("sweep", "expected a sweep object")
    ti_raw = _get(spec, "T_i", "sweep")
    lam_raw = _get(spec, "lambda", "sweep")
    if not (isinstance(ti_raw, list) and ti_raw and isinstance(lam_raw, list) and lam_raw):
        raise ConfigError("sweep", "T_i and lambda must be nonempty lists")
    out = {
        "T_i": [_as_float(v, "sweep.T_i", positive=True) for v in ti_raw],
        "lambda": [_as_float(v, "sweep.lambda") for v in lam_raw],
    }
    for v in out["lambda"]:
        if not 0.0 < v < 1.0:
            raise ConfigError("sweep.lambda", f"values must lie in (0, 1), got {v:g}")
    mu = _get(spec, "mu", "sweep")
    L = _get(spec, "L", "sweep")
    if (mu == "estimate") != (L == "estimate"):
        raise ConfigError("sweep.mu", "mu and L must both be numbers or both 'estimate'")
    if mu == "estimate":
        out["estimate"] = True
        out["samples"] = _as_int(spec.get("samples", DEFAULT_SAMPLES), "sweep.samples", 2)
        out["box"] = _validate_box_block(_get(spec, "box", "sweep"), "sweep.box")
    else:
        out["estimate"] = False
        out["mu"] = _as_float(mu, "sweep.mu", positive=True)
        out["L"] = _as_float(L, "sweep.L", positive=True)
        if out["L"] < out["mu"]:
            raise ConfigError("sweep.L", "L must be at least mu")
    if "horizon" in spec:
        out["horizon"] = _as_int(spec["horizon"], "sweep.horizon", 1)
    if "schedule" in spec:
        out["schedule"] = _build_schedule(spec["schedule"], "sweep.schedule", scenario.plant.n_w)
    try:
        out["scenario"] = replace(scenario,
                                  horizon=out.get("horizon", scenario.horizon),
                                  schedule=out.get("schedule", scenario.schedule))
    except ValueError as exc:
        raise ConfigError("sweep", str(exc)) from exc
    return out


def _validate_certify(spec) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError("certify", "expected a certify object")
    out = {"samples": _as_int(spec.get("samples", DEFAULT_SAMPLES), "certify.samples", 2)}
    if "box" in spec:
        out["box"] = _validate_box_block(spec["box"], "certify.box")
    return out
