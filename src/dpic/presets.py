"""Built-in run configurations."""

from __future__ import annotations

import numpy as np

from .plants import FourTankPlant

__all__ = ["PRESET_DESCRIPTIONS", "preset_names", "preset_config"]

PRESET_DESCRIPTIONS = {
    "four-tank": ("quadruple tank under pump saturation and a total-flow cap; "
                  "four reference changes, the last two infeasible"),
    "lti-demo": ("scalar stable plant with a box-constrained input; "
                 "one feasible and one infeasible reference"),
}


def preset_names() -> list[str]:
    return sorted(PRESET_DESCRIPTIONS)


def _four_tank_config() -> dict:
    plant = FourTankPlant()
    # invert the static flow map so the integrator state tracks the
    # equilibrium outlet velocities of the two lower tanks
    K = np.linalg.inv(plant.flow_gain)
    return {
        "seed": 0,
        "plant": {"type": "four_tank", "T_s": 10.0, "substeps": 10},
        "metric": "identity",
        "constraint": {
            "type": "intersection",
            "sets": [
                {"type": "box", "lower": [0.0, 0.0], "upper": [45.0, 45.0]},
                {"type": "halfspace", "a": [1.0, 1.0], "b": 85.0},
            ],
        },
        "controller": {
            "K": K.tolist(),
            "T_i": 15.0,
            "lambda": 0.95,
            "u0": list(plant.u_nominal),
        },
        "scenario": {
            "horizon": 1100,
            "x0": list(plant.h_nominal),
            # nominal hold, two feasible reference changes, then two
            # infeasible ones (pump 1 cap, then the total-flow cap)
            "schedule": [
                [0, [10.0, 10.0]],
                [100, [13.0, 11.0]],
                [300, [12.0, 14.0]],
                [500, [16.0, 9.0]],
                [800, [18.0, 18.0]],
            ],
        },
        "sweep": {
            "T_i": [2.0, 5.0, 10.0, 15.0, 30.0],
            "lambda": [0.1, 0.5, 0.95],
            "horizon": 4000,
            "schedule": [[0, [10.0, 10.0]], [50, [13.0, 11.0]]],
        },
        "certify": {"box": {"lower": [100.0, 100.0], "upper": [185.0, 185.0]}},
    }


def _lti_demo_config() -> dict:
    return {
        "seed": 0,
        "plant": {
            "type": "lti",
            "A": [[0.5]],
            "B": [[0.5]],
            "C": [[1.0]],
            "D": [[0.0]],
            "B_w": [[0.0]],
            "D_w": [[-1.0]],
            "T_s": 1.0,
        },
        "metric": "identity",
        "constraint": {"type": "box", "lower": [-1.0], "upper": [1.0]},
        "controller": {"K": [[1.0]], "T_i": 2.0, "lambda": 0.5, "u0": [0.0]},
        "scenario": {
            "horizon": 400,
            "x0": [0.0],
            # w = 2 puts the zero-error input outside the box [-1, 1]
            "schedule": [[0, [0.5]], [200, [2.0]]],
        },
        "sweep": {
            "T_i": [2.0, 5.0, 10.0, 15.0, 30.0],
            "lambda": [0.1, 0.5, 0.95],
            "horizon": 4500,
            "schedule": [[0, [0.5]]],
        },
        "certify": {},
    }


def preset_config(name: str) -> dict:
    """Fresh config dict for a named preset."""
    if name == "four-tank":
        return _four_tank_config()
    if name == "lti-demo":
        return _lti_demo_config()
    raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
