"""Config loading, validation, and preset construction."""

import copy
import json

import numpy as np
import pytest

from dpic import (
    Box,
    ConfigError,
    FourTankPlant,
    Intersection,
    LTIPlant,
    build_setup,
    load_config,
    preset_config,
    preset_names,
)
from dpic.cli import EXIT_CONFIG, EXIT_OK, main


def lti_base() -> dict:
    """Small valid config used as the mutation target in error tests."""
    return {
        "seed": 3,
        "plant": {
            "type": "lti",
            "A": [[0.5]], "B": [[0.5]], "C": [[1.0]],
            "B_w": [[0.0]], "D_w": [[-1.0]], "T_s": 1.0,
        },
        "metric": "identity",
        "constraint": {"type": "box", "lower": [-1.0], "upper": [1.0]},
        "controller": {"K": [[1.0]], "T_i": 2.0, "lambda": 0.5, "u0": [0.0]},
        "scenario": {"horizon": 50, "x0": [0.0], "schedule": [[0, [0.5]]]},
    }


# ---------------------------------------------------------------------------
# presets

def test_preset_names_sorted_and_described():
    names = preset_names()
    assert names == sorted(names)
    assert "four-tank" in names and "lti-demo" in names


def test_preset_configs_build():
    for name in preset_names():
        setup = build_setup(preset_config(name))
        assert setup.scenario.horizon >= 1
        assert setup.controller.constraint is setup.constraint
        # the sweep block holds its grid and its scenario, no (mu, L) of its own
        assert set(setup.sweep) == {"T_i", "lambda", "scenario"}


def test_preset_config_returns_fresh_dict():
    a = preset_config("lti-demo")
    a["controller"]["lambda"] = 0.99
    b = preset_config("lti-demo")
    assert b["controller"]["lambda"] == 0.5


def test_unknown_preset():
    with pytest.raises(KeyError, match="unknown preset"):
        preset_config("no-such-preset")


def test_four_tank_preset_wiring():
    setup = build_setup(preset_config("four-tank"))
    assert isinstance(setup.plant, FourTankPlant)
    assert isinstance(setup.constraint, Intersection)
    # gain inverts the static flow map of the lower tanks
    assert np.allclose(setup.controller.gain @ setup.plant.flow_gain, np.eye(2),
                       atol=1e-12)
    assert setup.scenario.schedule[0][0] == 0
    assert isinstance(setup.certify_box, Box)


def test_lti_demo_preset_wiring():
    setup = build_setup(preset_config("lti-demo"))
    assert isinstance(setup.plant, LTIPlant)
    assert setup.certify_box is None  # an LTI plant's pair needs no box
    assert len(setup.sweep["T_i"]) == 5 and len(setup.sweep["lambda"]) == 3


# ---------------------------------------------------------------------------
# file loading

def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(lti_base()))
    cfg = load_config(path)
    setup = build_setup(cfg)
    assert setup.seed == 3


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_load_config_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_load_config_non_object_root(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="root must be an object"):
        load_config(path)


# ---------------------------------------------------------------------------
# controller block validation

def test_lambda_above_one_rejected():
    cfg = lti_base()
    cfg["controller"]["lambda"] = 1.5
    with pytest.raises(ConfigError, match=r"^controller: damping must lie strictly in \(0, 1\)"):
        build_setup(cfg)


def test_lambda_zero_rejected():
    cfg = lti_base()
    cfg["controller"]["lambda"] = 0.0
    with pytest.raises(ConfigError, match=r"^controller: damping must lie strictly in \(0, 1\)"):
        build_setup(cfg)


def test_missing_controller_key_names_path():
    cfg = lti_base()
    del cfg["controller"]["T_i"]
    with pytest.raises(ConfigError, match="controller.T_i"):
        build_setup(cfg)


def test_negative_T_i_rejected():
    cfg = lti_base()
    cfg["controller"]["T_i"] = -2.0
    with pytest.raises(ConfigError, match="^controller: integral time T_i must be positive"):
        build_setup(cfg)


def test_eta0_and_u0_both_given_rejected():
    cfg = lti_base()
    cfg["controller"]["eta0"] = [0.0]
    with pytest.raises(ConfigError, match="controller"):
        build_setup(cfg)


def test_infeasible_u0_is_projected():
    cfg = lti_base()
    cfg["controller"]["u0"] = [5.0]   # box is [-1, 1]
    setup = build_setup(cfg)
    assert setup.controller.eta == pytest.approx(1.0)


def test_non_numeric_gain_rejected():
    cfg = lti_base()
    cfg["controller"]["K"] = [["a"]]
    with pytest.raises(ConfigError, match="controller.K"):
        build_setup(cfg)


# ---------------------------------------------------------------------------
# constraint block validation

def test_unknown_set_type():
    cfg = lti_base()
    cfg["constraint"] = {"type": "simplex"}
    with pytest.raises(ConfigError, match="constraint.type"):
        build_setup(cfg)


def test_box_bound_literals():
    cfg = lti_base()
    cfg["constraint"] = {"type": "box", "lower": ["-inf", 0.0],
                         "upper": [1.0, "inf"]}
    cfg["controller"]["K"] = [[1.0, 0.0], [0.0, 1.0]]
    cfg["controller"]["u0"] = [0.0, 0.5]
    cfg["plant"] = {"type": "lti", "A": [[0.5, 0.0], [0.0, 0.5]],
                    "B": [[0.5, 0.0], [0.0, 0.5]],
                    "C": [[1.0, 0.0], [0.0, 1.0]],
                    "B_w": [[0.0, 0.0], [0.0, 0.0]],
                    "D_w": [[-1.0, 0.0], [0.0, -1.0]], "T_s": 1.0}
    cfg["scenario"] = {"horizon": 5, "x0": [0.0, 0.0],
                       "schedule": [[0, [0.2, 0.2]]]}
    setup = build_setup(cfg)
    assert setup.constraint.lower[0] == -np.inf
    assert setup.constraint.upper[1] == np.inf


def test_null_box_bound_means_unbounded():
    cfg = lti_base()
    cfg["constraint"] = {"type": "box", "lower": [None], "upper": [1.0]}
    setup = build_setup(cfg)
    assert setup.constraint.lower[0] == -np.inf


def test_bad_bound_literal():
    cfg = lti_base()
    cfg["constraint"] = {"type": "box", "lower": ["low"], "upper": [1.0]}
    with pytest.raises(ConfigError, match=r"^constraint.lower: expected a nonempty flat list "
                                          r"of numbers, got \['low'\]"):
        build_setup(cfg)


_VECTOR = "expected a nonempty flat list of numbers"
_MATRIX = "expected a nonempty matrix (a list of equally long rows of numbers)"
_BOX = {"type": "box", "lower": [-1.0], "upper": [1.0]}


@pytest.mark.parametrize("path, value, message", [
    # strings, booleans and ragged rows are not numbers, wherever they stand
    (("controller", "T_i"), "2.0", "controller.T_i: expected a number, got '2.0'"),
    (("controller", "T_i"), True, "controller.T_i: expected a number, got True"),
    (("scenario", "x0"), [True], f"scenario.x0: {_VECTOR}, got [True]"),
    (("metric",), [["1"]], f"metric: {_MATRIX}, got [['1']]"),
    (("constraint",), {"type": "halfspace", "a": [1.0], "b": "85"},
     "constraint.b: expected a number, got '85'"),
    (("sweep", "T_i"), ["2"], f"sweep.T_i: {_VECTOR}, got ['2']"),
    (("certify", "box"), {"lower": ["0"], "upper": [1.0]},
     f"certify.box.lower: {_VECTOR}, got ['0']"),
    (("plant", "A"), [[0.5, 0.0], [0.5]], f"plant.A: {_MATRIX}, got [[0.5, 0.0], [0.5]]"),
    # a box bound may be null or an infinite literal
    (("constraint",), {"type": "box", "lower": [None], "upper": ["inf"]}, None),
    (("constraint",), {"type": "box", "lower": ["-inf"], "upper": [None]}, None),
    (("constraint",), {"type": "box", "lower": [-1.0], "upper": ["+inf"]}, None),
    # a block is a JSON object, and a list of sets or of schedule entries a list
    (("plant",), [1.0], "plant: expected an object, got [1.0]"),
    (("constraint",), 2.0, "constraint: expected an object, got 2.0"),
    (("constraint",), {"type": "intersection", "sets": [_BOX, [1.0]]},
     "constraint.sets[1]: expected an object, got [1.0]"),
    (("constraint",), {"type": "linear_preimage", "K": [[2.0]], "inner": 1},
     "constraint.inner: expected an object, got 1"),
    (("controller",), [[1.0]], "controller: expected an object, got [[1.0]]"),
    (("scenario",), 50, "scenario: expected an object, got 50"),
    (("sweep",), [2.0], "sweep: expected an object, got [2.0]"),
    (("certify",), 1, "certify: expected an object, got 1"),
    (("certify", "box"), [-1.0, 1.0], "certify.box: expected an object, got [-1.0, 1.0]"),
    (("constraint",), {"type": "intersection", "sets": _BOX},
     "constraint.sets: expected a list of sets"),
    (("scenario", "schedule"), {"0": [0.5]},
     "scenario.schedule: expected a list of [start_step, w] pairs"),
], ids=["T_i-string", "T_i-bool", "x0-bool", "metric-string", "halfspace-b-string",
        "sweep-T_i-string", "certify-box-string", "plant-A-ragged",
        "box-null-inf", "box-minus-inf-null", "box-plus-inf",
        "plant-list", "constraint-number", "intersection-member-list", "preimage-inner-number",
        "controller-list", "scenario-number", "sweep-list", "certify-number", "certify-box-list",
        "constraint-sets-object", "scenario-schedule-object"])
def test_one_number_rule_for_every_config_value(tmp_path, capsys, path, value, message):
    cfg = lti_base()
    cfg["sweep"] = {"T_i": [2.0], "lambda": [0.5]}
    cfg["certify"] = {}
    target = cfg
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg))
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    if message is None:
        assert code == EXIT_OK
    else:
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_an_integer_beyond_the_float_range_is_a_config_error():
    # json reads 1 followed by 400 zeros as an int, which float() cannot hold
    cfg = lti_base()
    cfg["scenario"]["x0"] = [10 ** 400]
    with pytest.raises(ConfigError, match=r"^scenario.x0: number out of range"):
        build_setup(cfg)


def test_crossed_box_bounds_rejected():
    cfg = lti_base()
    cfg["constraint"] = {"type": "box", "lower": [2.0], "upper": [1.0]}
    with pytest.raises(ConfigError, match="constraint"):
        build_setup(cfg)


def test_empty_intersection_list_rejected():
    cfg = lti_base()
    cfg["constraint"] = {"type": "intersection", "sets": []}
    with pytest.raises(ConfigError, match="^constraint: intersection needs at least one set"):
        build_setup(cfg)


def test_nested_set_error_names_member():
    cfg = lti_base()
    cfg["constraint"] = {
        "type": "intersection",
        "sets": [{"type": "box", "lower": [-1.0], "upper": [1.0]},
                 {"type": "ball", "center": [0.0]}],
    }
    with pytest.raises(ConfigError, match=r"constraint.sets\[1\].radius"):
        build_setup(cfg)


def test_linear_preimage_set():
    cfg = lti_base()
    cfg["constraint"] = {
        "type": "linear_preimage",
        "K": [[2.0]],
        "inner": {"type": "box", "lower": [-1.0], "upper": [1.0]},
    }
    setup = build_setup(cfg)
    assert setup.constraint.contains(np.array([0.4]))
    assert not setup.constraint.contains(np.array([0.6]))


def test_ball_radius_must_be_positive():
    cfg = lti_base()
    cfg["constraint"] = {"type": "ball", "center": [0.0], "radius": -1.0}
    with pytest.raises(ConfigError, match="radius.*positive"):
        build_setup(cfg)


# ---------------------------------------------------------------------------
# plant, metric, scenario blocks

def test_unknown_plant_type():
    cfg = lti_base()
    cfg["plant"] = {"type": "pendulum"}
    with pytest.raises(ConfigError, match="plant.type"):
        build_setup(cfg)


def test_gain_shape_checked_against_plant():
    cfg = lti_base()
    cfg["plant"]["B"] = [[0.5, 0.5]]   # two inputs, scalar gain output
    # the scenario joins plant and controller, and owns the rule that they fit
    with pytest.raises(ConfigError, match=r"^scenario: gain must be 2x1 \(plant inputs x "
                                          r"tracked errors\), got 1x1"):
        build_setup(cfg)


def test_four_tank_plant_overrides():
    cfg = preset_config("four-tank")
    cfg["plant"]["substeps"] = 20
    setup = build_setup(cfg)
    assert setup.plant.substeps == 20


def test_non_spd_metric_rejected():
    cfg = lti_base()
    cfg["metric"] = [[-1.0]]
    with pytest.raises(ConfigError, match="metric"):
        build_setup(cfg)


def test_custom_metric_accepted():
    cfg = lti_base()
    cfg["metric"] = [[4.0]]
    setup = build_setup(cfg)
    assert setup.metric.norm(np.array([1.0])) == pytest.approx(2.0)


def test_schedule_w_dimension_mismatch():
    cfg = lti_base()
    cfg["scenario"]["schedule"] = [[0, [0.5, 0.5]]]
    with pytest.raises(ConfigError, match="^scenario: disturbance at step 0 must have dimension 1"):
        build_setup(cfg)


def test_schedule_entry_shape_rejected():
    cfg = lti_base()
    cfg["scenario"]["schedule"] = [[0, [0.5], "extra"]]
    with pytest.raises(ConfigError, match=r"scenario.schedule\[0\]"):
        build_setup(cfg)


def test_zero_horizon_rejected():
    cfg = lti_base()
    cfg["scenario"]["horizon"] = 0
    with pytest.raises(ConfigError, match="^scenario: horizon must be at least 1"):
        build_setup(cfg)


def test_float_horizon_rejected():
    cfg = lti_base()
    cfg["scenario"]["horizon"] = 50.0
    with pytest.raises(ConfigError, match="scenario.horizon"):
        build_setup(cfg)


def test_negative_seed_rejected():
    cfg = lti_base()
    cfg["seed"] = -1
    with pytest.raises(ConfigError, match="seed"):
        build_setup(cfg)


def test_bool_is_not_an_integer():
    cfg = lti_base()
    cfg["scenario"]["horizon"] = True
    with pytest.raises(ConfigError, match="scenario.horizon"):
        build_setup(cfg)


# ---------------------------------------------------------------------------
# sweep and certify blocks

def test_sweep_lambda_out_of_range():
    cfg = lti_base()
    cfg["sweep"] = {"T_i": [2.0], "lambda": [1.0]}
    with pytest.raises(ConfigError, match=r"^sweep: damping must lie strictly in \(0, 1\)"):
        build_setup(cfg)


def test_sweep_empty_grid_rejected():
    cfg = lti_base()
    cfg["sweep"] = {"T_i": [], "lambda": [0.5]}
    with pytest.raises(ConfigError, match="sweep"):
        build_setup(cfg)


def test_sweep_schedule_dimension_checked():
    cfg = lti_base()
    cfg["sweep"] = {"T_i": [2.0], "lambda": [0.5], "schedule": [[0, [0.5, 0.5]]]}
    with pytest.raises(ConfigError, match="^sweep: disturbance at step 0 must have dimension 1"):
        build_setup(cfg)


def test_valid_sweep_block_carried_through():
    cfg = lti_base()
    cfg["sweep"] = {"T_i": [2.0, 5.0], "lambda": [0.5],
                    "horizon": 300, "schedule": [[0, [0.4]]]}
    setup = build_setup(cfg)
    assert setup.sweep["T_i"] == [2.0, 5.0]
    assert setup.sweep["scenario"].horizon == 300
    assert setup.sweep["scenario"].schedule[0][1].tolist() == [0.4]
    assert setup.scenario.horizon == 50  # the run scenario keeps its own


@pytest.mark.parametrize("block, name, value", [
    ("sweep", "mu", 1.0), ("sweep", "mu", "exact"), ("sweep", "mu", "estimate"),
    ("sweep", "L", 1.0), ("sweep", "L", "exact"), ("sweep", "L", "estimate"),
    ("sweep", "box", {"lower": [-1.0], "upper": [1.0]}),
    ("sweep", "samples", 2000), ("certify", "samples", 2000),
], ids=["sweep.mu-number", "sweep.mu-exact", "sweep.mu-estimate", "sweep.L-number",
        "sweep.L-exact", "sweep.L-estimate", "sweep.box", "sweep.samples", "certify.samples"])
def test_removed_certificate_keys_are_config_errors(tmp_path, capsys, block, name, value):
    # sweep and certify share one exact (mu, L) over certify.box; an old
    # config that sets them another way fails, naming the key, and is
    # never read as something else
    cfg = lti_base()
    cfg["sweep"] = {"T_i": [2.0], "lambda": [0.5]}
    cfg["certify"] = {}
    cfg[block][name] = value
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"config error: {block}.{name}: (mu, L) are exact, from the plant's "
                   "Jacobian over certify.box, and sweep and certify share them; "
                   "remove this key\n")
    assert not (tmp_path / "out").exists()


def test_config_without_optional_blocks():
    cfg = lti_base()
    setup = build_setup(cfg)
    assert setup.sweep is None and setup.certify_box is None
    assert setup.raw is cfg


def test_deep_copy_independence():
    cfg = lti_base()
    frozen = copy.deepcopy(cfg)
    build_setup(cfg)
    # building must not mutate the caller's document
    assert cfg == frozen
