"""CLI behavior: commands, artifacts, and exit codes (all in-process)."""

import csv
import json

import numpy as np
import pytest

from dpic import Box, Metric, SimulationError, preset_config
from dpic.cli import EXIT_CERTIFICATION, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# preset listing

def test_preset_list(capsys):
    assert main(["preset", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "four-tank" in out and "lti-demo" in out


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_artifacts(tmp_path, capsys):
    assert main(["simulate", "--preset", "lti-demo",
                 "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "converged" in out
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        header = fh.readline().strip()
    assert header == "k,t,x1,u1,e1,eta1,constraint_margin,vi_residual"
    rows = read_rows(tmp_path / "trajectory.csv")
    assert len(rows) == 400
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["horizon"] == 400
    assert summary["controller"]["lambda"] == 0.5
    assert len(summary["segments"]) == 2
    # second segment drives the loop into saturation: input pinned at the
    # boundary, so the stationary point sits on the constraint
    assert summary["segments"][1]["tracking_error"] > 0.1
    assert summary["final"]["constraint_margin"] == pytest.approx(0.0, abs=1e-9)


def test_trajectory_residual_round_trip(tmp_path):
    """Recomputing the logged residual from the CSV reproduces it."""
    main(["simulate", "--preset", "lti-demo", "--out", str(tmp_path)])
    cfg = preset_config("lti-demo")
    box = Box(cfg["constraint"]["lower"], cfg["constraint"]["upper"])
    metric = Metric.identity(1)
    alpha = 1.0 / cfg["controller"]["T_i"]  # T_s / T_i with T_s = 1
    worst = 0.0
    for row in read_rows(tmp_path / "trajectory.csv"):
        eta = np.array([float(row["eta1"])])
        e = np.array([float(row["e1"])])
        proj = box.project(metric, eta - alpha * e).point
        direct = metric.norm(eta - proj)
        worst = max(worst, abs(direct - float(row["vi_residual"])))
    assert worst <= 1e-9


def test_simulate_four_tank_header(tmp_path):
    cfg = preset_config("four-tank")
    cfg["scenario"]["horizon"] = 30
    cfg["scenario"]["schedule"] = [[0, [10.0, 10.0]]]
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        header = fh.readline().strip()
    assert header == ("k,t,x1,x2,x3,x4,u1,u2,e1,e2,eta1,eta2,"
                      "constraint_margin,vi_residual")
    rows = read_rows(tmp_path / "trajectory.csv")
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[1]["t"]) == 10.0  # tank sampling period


def test_seed_override(tmp_path):
    main(["simulate", "--preset", "lti-demo", "--seed", "7",
          "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["seed"] == 7


def test_simulate_does_not_depend_on_the_seed(tmp_path):
    # the normal-cone residuals are exact; --seed only seeds sampled certificates
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main(["simulate", "--preset", "four-tank", "--seed", seed,
                     "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary.pop("seed") == int(seed)
        outputs.append(((out / "trajectory.csv").read_bytes(), summary))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_simulate_on_an_unbounded_gamma(tmp_path):
    cfg = preset_config("lti-demo")
    cfg["constraint"] = {"type": "box", "lower": [-1.0], "upper": [None]}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    # nonnegative to rounding, +inf where -e points along the open direction
    for seg in summary["segments"]:
        assert seg["normal_cone_residual"] >= -1e-9


def test_out_directory_created(tmp_path):
    nested = tmp_path / "a" / "b"
    assert main(["simulate", "--preset", "lti-demo",
                 "--out", str(nested)]) == EXIT_OK
    assert (nested / "summary.json").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("below", [(), ("x",)], ids=["the-file", "inside-the-file"])
def test_out_path_through_a_file_exits_2(tmp_path, capsys, command, below):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker.joinpath(*below)
    assert main([command, "--preset", "lti-demo", "--out", str(out)]) == EXIT_CONFIG
    assert "--out" in capsys.readouterr().err
    assert blocker.read_text() == ""


# ---------------------------------------------------------------------------
# configuration errors (exit 2)

def test_invalid_lambda_exit_code(tmp_path, capsys):
    cfg = preset_config("lti-demo")
    cfg["controller"]["lambda"] = 1.5
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "controller.lambda" in capsys.readouterr().err


def test_config_and_preset_are_exclusive(tmp_path, capsys):
    path = write_config(tmp_path, preset_config("lti-demo"))
    assert main(["simulate", "--config", path, "--preset", "lti-demo",
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "exactly one" in capsys.readouterr().err
    assert main(["simulate", "--out", str(tmp_path)]) == EXIT_CONFIG


def test_missing_config_file(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def test_unknown_preset_name(tmp_path, capsys):
    assert main(["simulate", "--preset", "nope",
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown preset" in capsys.readouterr().err


def test_sweep_requires_sweep_block(tmp_path, capsys):
    cfg = preset_config("lti-demo")
    del cfg["sweep"]
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "sweep" in capsys.readouterr().err


def test_late_config_faults_exit_2(tmp_path, capsys):
    cfg = preset_config("lti-demo")
    cfg["sweep"]["horizon"] = 100
    cfg["sweep"]["schedule"] = [[0, [0.5]], [150, [0.2]]]  # starts past the horizon
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "sweep" in capsys.readouterr().err
    cfg = preset_config("lti-demo")
    cfg["constraint"] = {"type": "box", "lower": [-1.0], "upper": [None]}
    del cfg["certify"]  # no box to sample an unbounded Gamma in
    path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", path]) == EXIT_CONFIG
    assert "certify.box" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, key, path, value", [
    ("simulate", "scenario.x0", ("scenario", "x0"), [NAN]),
    ("simulate", "scenario.schedule[1][1]", ("scenario", "schedule", 1, 1), [INF]),
    ("simulate", "controller.eta0", ("controller", "eta0"), [-INF]),
    ("simulate", "controller.u0", ("controller", "u0"), [NAN]),
    ("sweep", "sweep.box.upper", ("sweep", "box", "upper"), ["inf"]),
    ("certify", "certify.box.lower", ("certify", "box", "lower"), [-INF]),
])
def test_non_finite_config_vectors_exit_2(tmp_path, capsys, command, key, path, value):
    # json reads NaN, Infinity and -Infinity, and the string "inf" converts to
    # a float; on this unbounded Gamma a sweep box reaching to inf once
    # surfaced as "certify.box: Gamma is unbounded"
    cfg = preset_config("lti-demo")
    cfg["constraint"] = {"type": "box", "lower": [-1.0], "upper": [None]}
    cfg["sweep"].update(mu="estimate", L="estimate", box={"lower": [-1.0], "upper": [1.0]})
    cfg["certify"]["box"] = {"lower": [-1.0], "upper": [1.0]}
    if key == "controller.eta0":
        del cfg["controller"]["u0"]
    target = cfg
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    extra = [] if command == "certify" else ["--out", str(tmp_path)]
    assert main([command, "--config", write_config(tmp_path, cfg)] + extra) == EXIT_CONFIG
    assert f"{key}: expected a nonempty flat list of finite numbers" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# numerical failures (exit 3)

def test_numerical_value_error_exit_3(tmp_path, capsys):
    cfg = preset_config("four-tank")
    # negative pump commands are admissible, and part of the sampling box
    # maps to them, where the tank's equilibrium map raises ValueError
    cfg["constraint"]["sets"][0]["lower"] = [-50.0, -50.0]
    cfg["certify"]["box"] = {"lower": [40.0, 100.0], "upper": [60.0, 120.0]}
    path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", path]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err and "nonnegative pump flows" in err


def test_certify_single_point_set_names_the_flat_coordinate(tmp_path, capsys):
    cfg = preset_config("lti-demo")
    cfg["constraint"] = {"type": "box", "lower": [0.0], "upper": [0.0]}
    path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", path]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "the set has zero width along coordinate 0" in err


def test_simulation_failure_exit_code(tmp_path, capsys, monkeypatch):
    import dpic.cli as cli_mod

    def boom(scenario):
        raise SimulationError("step 17: controller input is inconsistent")

    monkeypatch.setattr(cli_mod, "simulate", boom)
    assert main(["simulate", "--preset", "lti-demo",
                 "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep

def test_sweep_lti_demo(tmp_path, capsys):
    assert main(["sweep", "--preset", "lti-demo",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert "T_i_star" in capsys.readouterr().out
    rows = read_rows(tmp_path / "sweep.csv")
    assert len(rows) == 15  # 5 T_i values x 3 damping values
    assert all(row["converged"] == "true" for row in rows)
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["T_i_star"] == pytest.approx(0.5)  # T_s L^2 / (2 mu)
    assert summary["converged_points"] == 15
    assert summary["certificates"] == {"mu": 1.0, "L": 1.0}
    # every tested damping converged at every T_i on this easy plant
    assert all(v == pytest.approx(0.95)
               for v in summary["empirical_lambda_star"].values())


def test_sweep_estimates_certificates_at_the_final_sweep_disturbance(tmp_path):
    # gain_sweep solves at the sweep's final w, not the run schedule's first
    cfg = preset_config("lti-demo")
    cfg["sweep"].update({"T_i": [5.0], "lambda": [0.5], "mu": "estimate", "L": "estimate",
                         "samples": 50, "box": {"lower": [-1.0], "upper": [1.0]},
                         "horizon": 300, "schedule": [[0, [0.5]], [100, [0.8]]]})
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["certificates"]["w"] == [0.8]
    assert summary["certificates"]["mu_hat"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# certify

def test_certify_lti_demo(capsys):
    assert main(["certify", "--preset", "lti-demo"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "mu_hat" in out and "L_hat" in out
    assert "T_i_star = 0.5" in out
    assert "static loop gain test: ok" in out


def test_certify_reports_exact_zero_contraction(capsys):
    # lti-demo has mu = L = 1; the sampled pair is off by an ulp, and the
    # square root must not turn that rounding into c_fb ~ 1.5e-8
    assert main(["certify", "--preset", "lti-demo"]) == EXIT_OK
    assert "c_fb at alpha=1: 0\n" in capsys.readouterr().out


def test_certify_failure_exit_code(tmp_path, capsys):
    cfg = preset_config("lti-demo")
    cfg["controller"]["K"] = [[-1.0]]  # integrates the error the wrong way
    path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", path]) == EXIT_CERTIFICATION
    out = capsys.readouterr().out
    assert "empirical monotonicity failed" in out
    assert "static loop gain test: FAILED" in out


# ---------------------------------------------------------------------------
# a ball in Gamma

def ball_gamma_config(members=None):
    """lti-demo under Gamma = [-1, 1] ∩ [-0.5, 2] = [-0.5, 1], with a ball."""
    cfg = preset_config("lti-demo")
    cfg["constraint"] = {"type": "intersection", "sets": members or [
        {"type": "ball", "center": [0.0], "radius": 1.0},
        {"type": "box", "lower": [-0.5], "upper": [2.0]}]}
    return cfg


def test_certify_samples_a_ball_gamma_within_its_box(tmp_path):
    cfg = ball_gamma_config()
    cfg["certify"]["box"] = {"lower": [-2.0], "upper": [0.5]}
    assert main(["certify", "--config", write_config(tmp_path, cfg)]) == EXIT_OK


def test_sweep_estimates_and_projects_on_a_ball_gamma(tmp_path):
    cfg = ball_gamma_config()
    cfg["sweep"].update({"T_i": [5.0], "lambda": [0.5], "mu": "estimate", "L": "estimate",
                         "samples": 50, "box": {"lower": [-1.0], "upper": [1.0]},
                         "horizon": 300, "schedule": [[0, [0.5]], [100, [2.0]]]})
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
    rows = read_rows(tmp_path / "sweep.csv")
    assert rows[0]["converged"] == "true"


@pytest.mark.parametrize("second", [
    {"type": "ball", "center": [0.5], "radius": 1.0},
    {"type": "linear_preimage", "K": [[2.0]],
     "inner": {"type": "ball", "center": [0.0], "radius": 1.0}},
])
def test_gamma_beyond_one_ball_is_a_config_error(tmp_path, capsys, second):
    cfg = ball_gamma_config([{"type": "ball", "center": [0.0], "radius": 1.0}, second])
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "constraint: an intersection projects with at most one" in capsys.readouterr().err
