"""CLI behavior: commands, artifacts, and exit codes (all in-process)."""

import csv
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import dpic
from dpic import Box, Metric, SimulationError, build_setup, preset_config
from dpic.cli import EXIT_CERTIFICATION, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from rate_oracle import linearized_loop_radius


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
    # finite although Gamma is unbounded along -e: both segments settle at
    # zero error, and the residual reads |e| there
    for seg in summary["segments"]:
        assert 0.0 <= seg["normal_cone_residual"] <= 1e-12
        assert seg["normal_cone_residual"] == seg["tracking_error"]


def test_a_huge_finite_error_keeps_the_summary_strict_json(tmp_path):
    # |e| of 7.7e187 squares past the float range; its norms still read finite
    cfg = preset_config("lti-demo")
    cfg["scenario"]["x0"] = [1e308]
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == EXIT_OK

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert summary["final"]["tracking_error"] == 7.7451838296986366e+187


def test_out_directory_created(tmp_path):
    nested = tmp_path / "a" / "b"
    assert main(["simulate", "--preset", "lti-demo",
                 "--out", str(nested)]) == EXIT_OK
    assert (nested / "summary.json").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("below", [(), ("x",), ("artifact",)],
                         ids=["the-file", "inside-the-file", "an-artifact-name"])
def test_out_path_through_a_file_exits_2(tmp_path, capsys, command, below):
    if below == ("artifact",):
        # --out is a directory, but a directory takes the name of an artifact
        artifact = {"simulate": "trajectory.csv", "sweep": "sweep_summary.json"}[command]
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
    else:
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker.joinpath(*below)
    assert main([command, "--preset", "lti-demo", "--out", str(out)]) == EXIT_CONFIG
    assert "--out" in capsys.readouterr().err
    if below != ("artifact",):
        assert blocker.read_text() == ""


@pytest.mark.parametrize("command, table, summary", [
    ("simulate", "trajectory.csv", "summary.json"),
    ("sweep", "sweep.csv", "sweep_summary.json"),
])
def test_failed_summary_write_removes_the_table(tmp_path, capsys, command, table, summary):
    # the table is written first; a directory takes the summary's name
    (tmp_path / summary).mkdir()
    assert main([command, "--preset", "lti-demo", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "--out" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [summary]


def reference_trajectory_csv(path, record):
    """trajectory.csv as csv.writer writes it with format(v, ".17g") per value."""
    header = (["k", "t"] + [f"x{i+1}" for i in range(record.x.shape[1])]
              + [f"u{i+1}" for i in range(record.u.shape[1])]
              + [f"e{i+1}" for i in range(record.e.shape[1])]
              + [f"eta{i+1}" for i in range(record.eta.shape[1])]
              + ["constraint_margin", "vi_residual"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(record.k)):
            values = ([record.t[k]] + list(record.x[k]) + list(record.u[k])
                      + list(record.e[k]) + list(record.eta[k])
                      + [record.constraint_margin[k], record.vi_residual[k]])
            writer.writerow([str(int(record.k[k]))]
                            + [format(float(v), ".17g") for v in values])


def test_trajectory_writer_matches_the_csv_reference(tmp_path):
    from dpic.cli import _write_trajectory
    from dpic.simulation import SimRecord

    odd = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, -2.5e-310])
    rng = np.random.default_rng(0)
    H = 6
    cells = rng.permutation(np.resize(odd, H * 10)).reshape(H, 10)
    record = SimRecord(0.1, np.arange(H), cells[:, :3], cells[:, 3:5], cells[:, 5:7],
                       cells[:, 7:9], cells[:, 9], odd[:H])
    _write_trajectory(tmp_path / "fast.csv", record)
    reference_trajectory_csv(tmp_path / "slow.csv", record)
    data = (tmp_path / "fast.csv").read_bytes()
    assert data == (tmp_path / "slow.csv").read_bytes()
    for token in (b"nan", b",inf", b"-inf", b",-0\r\n", b"4.9406564584124654e-324", b"1e+300"):
        assert token in data


# ---------------------------------------------------------------------------
# configuration errors (exit 2)

def test_invalid_lambda_exit_code(tmp_path, capsys):
    cfg = preset_config("lti-demo")
    cfg["controller"]["lambda"] = 1.5
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error: controller: damping must lie strictly in (0, 1)" in capsys.readouterr().err


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


@pytest.mark.parametrize("constraint", [
    None,
    {"type": "box", "lower": [0.0, 0.0], "upper": [None, None]},
], ids=["preset-gamma", "unbounded-gamma"])
def test_a_four_tank_certify_needs_a_box(tmp_path, capsys, constraint):
    # a four-tank Jacobian varies with eta.  The corners of the preset
    # Gamma's bounding box leave the pump domain (min eta_1 = 0 and max
    # eta_2 map to a negative u), so a bounded Gamma does not stand in for
    # the box either
    cfg = preset_config("four-tank")
    if constraint is not None:
        cfg["constraint"] = constraint
    del cfg["certify"]
    assert main(["certify", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: certify.box: the plant's Jacobian varies"), err


@pytest.mark.parametrize("preset, command, box", [
    ("four-tank", "certify", {"lower": [100.0, 100.0, 100.0], "upper": [185.0, 185.0, 185.0]}),
    ("four-tank", "sweep", {"lower": [100.0], "upper": [185.0]}),
    ("four-tank", "certify", {"lower": [500.0, 500.0], "upper": [600.0, 600.0]}),
    ("four-tank", "sweep", {"lower": [500.0, 500.0], "upper": [600.0, 600.0]}),
    ("lti-demo", "sweep", {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}),
    ("lti-demo", "sweep", {"lower": [5.0], "upper": [6.0]}),
], ids=["certify-3-entries", "sweep-1-entry", "certify-disjoint", "sweep-disjoint",
        "lti-sweep-2-entries", "lti-sweep-disjoint"])
def test_a_bad_certificate_box_exits_2(tmp_path, capsys, preset, command, box):
    # a certify.box of the wrong dimension, or one that misses Gamma, is a
    # fault of the config, found before any Jacobian is taken or any sweep
    # point runs; so it is on an LTI plant, whose pair needs no box
    cfg = preset_config(preset)
    cfg["certify"]["box"] = box
    extra = [] if command == "certify" else ["--out", str(tmp_path / "out")]
    assert main([command, "--config", write_config(tmp_path, cfg)] + extra) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: certify.box: "), err
    assert ("dimension" in err) == (len(box["lower"]) != len(cfg["controller"]["K"][0]))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("box", [{"lower": "junk"}, [0.0, 1.0], {"lower": [1.0], "upper": [0.0]}])
def test_a_malformed_certify_box_exits_2(tmp_path, capsys, box):
    # the box is read and checked although an LTI plant's pair does not use it
    cfg = preset_config("lti-demo")
    cfg["certify"]["box"] = box
    assert main(["sweep", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: certify.box"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("members", [
    [{"type": "box", "lower": [-1.0], "upper": [0.0]},
     {"type": "box", "lower": [0.5], "upper": [1.0]}],
    [{"type": "box", "lower": [-1.0], "upper": [0.0]},
     {"type": "halfspace", "a": [-1.0], "b": -0.5}],
])
def test_an_empty_constraint_exits_2(tmp_path, capsys, members):
    # an intersection is not checked for emptiness when it is built; the
    # controller's initial projection finds it empty, as a polyhedron's
    # constructor does for the same rows
    cfg = preset_config("lti-demo")
    cfg["constraint"] = {"type": "intersection", "sets": members}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: constraint:"), err


@pytest.mark.parametrize("bound", ["inf", "-inf"])
def test_a_box_with_an_infinite_empty_side_exits_2(tmp_path, capsys, bound):
    # lower <= upper holds, but the box is empty; it must not run unconstrained
    cfg = preset_config("lti-demo")
    cfg["constraint"] = {"type": "box", "lower": [bound], "upper": [bound]}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: constraint:") and "box is empty" in err, err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, key, path, value", [
    ("simulate", "scenario.x0", ("scenario", "x0"), [NAN]),
    ("simulate", "scenario.schedule[1][1]", ("scenario", "schedule", 1, 1), [INF]),
    ("simulate", "controller.eta0", ("controller", "eta0"), [-INF]),
    ("simulate", "controller.u0", ("controller", "u0"), [NAN]),
    ("sweep", "certify.box.upper", ("certify", "box", "upper"), ["inf"]),
    ("certify", "certify.box.lower", ("certify", "box", "lower"), [-INF]),
])
def test_non_finite_config_vectors_exit_2(tmp_path, capsys, command, key, path, value):
    # json reads NaN, Infinity and -Infinity, and the string "inf" converts to
    # a float; on this unbounded Gamma a box reaching to inf once surfaced
    # as "certify.box: Gamma is unbounded".  The object that takes
    # a vector rejects it, and the message names its block
    message = {
        "scenario.x0": "scenario: x0 must be finite",
        "scenario.schedule[1][1]": "scenario: disturbance at step 200 must be finite",
        "controller.eta0": "controller: eta0 must be finite",
        "controller.u0": "controller: u0 must be finite",
        "certify.box.upper": "certify.box: a certificate box must be bounded",
        "certify.box.lower": "certify.box: a certificate box must be bounded",
    }[key]
    cfg = preset_config("lti-demo")
    cfg["constraint"] = {"type": "box", "lower": [-1.0], "upper": [None]}
    cfg["certify"]["box"] = {"lower": [-1.0], "upper": [1.0]}
    if key == "controller.eta0":
        del cfg["controller"]["u0"]
    target = cfg
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    extra = [] if command == "certify" else ["--out", str(tmp_path)]
    assert main([command, "--config", write_config(tmp_path, cfg)] + extra) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


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


@pytest.mark.parametrize("gain, commands", [
    (1e160, ["sweep", "certify"]),  # L ** 2 overflows in T_i* and in certify's step size
    (1e-200, ["certify"]),  # L ** 2 underflows to 0 under certify's mu / L ** 2
])
def test_a_certificate_that_over_or_underflows_exits_3(tmp_path, capsys, gain, commands):
    cfg = preset_config("lti-demo")
    cfg["controller"]["K"] = [[gain]]
    path = write_config(tmp_path, cfg)
    for command in commands:
        out = ["--out", str(tmp_path / command)] if command == "sweep" else []
        assert main([command, "--config", path, *out]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: ")


def test_a_sweep_takes_a_derived_mu_an_ulp_above_L(tmp_path):
    # with G K = c I the operator's Jacobian is c I, so mu = L = c in exact
    # arithmetic; exact_mu_L reads mu and L off W (c I) W^{-1} by two
    # routines, and under some metrics mu comes out an ulp above L.  certify
    # accepted such a pair, and the sweep once rejected it as a numerical failure
    from dpic.cli import _exact_certificates

    rng = np.random.default_rng(5)
    for _ in range(2000):
        c = rng.uniform(0.1, 1.0)
        Q = rng.standard_normal((3, 3))
        P = Q @ Q.T + 0.1 * np.eye(3)
        cfg = {
            # G = (I - 0.5 I)^{-1} = 2 I and K = (c / 2) I, both exact
            "plant": {"type": "lti", "A": (0.5 * np.eye(3)).tolist(), "B": np.eye(3).tolist(),
                      "C": np.eye(3).tolist(), "B_w": np.zeros((3, 3)).tolist(),
                      "D_w": (-np.eye(3)).tolist()},
            "metric": (0.5 * (P + P.T)).tolist(),
            "constraint": {"type": "box", "lower": [-1.0] * 3, "upper": [1.0] * 3},
            "controller": {"K": (0.5 * c * np.eye(3)).tolist(), "T_i": 5.0, "lambda": 0.5},
            "scenario": {"horizon": 50, "x0": [0.0] * 3, "schedule": [[0, [0.01] * 3]]},
            "sweep": {"T_i": [5.0], "lambda": [0.5]},
        }
        setup = build_setup(cfg)
        mu, L = _exact_certificates(setup)
        if mu > L:
            break
    else:
        pytest.fail("no metric put mu above L")
    path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", path]) == EXIT_OK
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["certificates"] == {"mu": mu, "L": L, "source": "exact"}


def test_certify_an_lti_plant_needs_no_box(tmp_path, capsys):
    # an LTI Jacobian is constant, so Gamma's extent does not matter: an
    # unbounded Gamma and a single point get lti-demo's exact pair
    for upper in ([None], [0.0]):
        cfg = preset_config("lti-demo")
        cfg["constraint"] = {"type": "box", "lower": [0.0], "upper": upper}
        assert main(["certify", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mu = 1\nL = 1\n" in out and "T_i_star = 0.5 s" in out


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
    assert summary["certificates"] == {"mu": 1.0, "L": 1.0, "source": "exact"}
    # every tested damping converged at every T_i on this easy plant
    assert all(v == pytest.approx(0.95)
               for v in summary["empirical_lambda_star"].values())
    # the reference is feasible, so each run settles at an interior point
    # and decays at the spectral radius of the linearized loop
    setup = build_setup(preset_config("lti-demo"))
    for row in rows:
        rho = linearized_loop_radius(setup.plant, setup.controller.gain,
                                     float(row["T_i"]), float(row["lambda"]))
        assert float(row["decay_rate"]) == pytest.approx(rho, abs=1e-3), row


def test_a_one_step_run_has_not_converged(tmp_path):
    # one step leaves a vi residual of 0.25 and a tracking error of 0.5
    cfg = preset_config("lti-demo")
    cfg["scenario"].update(horizon=1, schedule=[[0, [0.5]]])
    cfg["sweep"]["horizon"] = 1
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["final"]["vi_residual"] == 0.25 and summary["converged"] is False
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["converged_points"] == 0 and summary["total_points"] == 15
    assert all(row["decay_rate"] == "nan" for row in read_rows(tmp_path / "sweep.csv"))


def test_sweep_estimates_certificates_at_the_final_sweep_disturbance(tmp_path):
    # the pair comes from the plant's Jacobian, which takes no w: a sweep
    # that ends at another w than the run schedule gets the same exact pair
    cfg = preset_config("lti-demo")
    cfg["sweep"].update({"T_i": [5.0], "lambda": [0.5],
                         "horizon": 300, "schedule": [[0, [0.5]], [100, [0.8]]]})
    cfg["certify"]["box"] = {"lower": [-1.0], "upper": [1.0]}
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["certificates"] == {"mu": 1.0, "L": 1.0, "source": "exact"}
    assert summary["T_i_star"] == 0.5


def test_an_lti_sweep_estimates_without_a_box(tmp_path):
    # an LTI Jacobian is constant, so the exact pair needs no box, as in certify
    cfg = preset_config("lti-demo")
    cfg["sweep"].update({"T_i": [5.0], "lambda": [0.5]})
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["certificates"] == {"mu": 1.0, "L": 1.0, "source": "exact"}


def test_an_lti_plant_without_a_disturbance_runs_from_a_config(tmp_path, capsys):
    # without B_w and D_w the plant has n_w = 0, and a schedule entry reads [k, []]
    cfg = preset_config("lti-demo")
    del cfg["plant"]["B_w"], cfg["plant"]["D_w"]
    cfg["scenario"].update({"x0": [0.5], "schedule": [[0, []], [200, []]]})
    cfg["sweep"].update({"T_i": [5.0], "lambda": [0.5], "schedule": [[0, []]]})
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "sim")]) == EXIT_OK
    summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
    assert [seg["w"] for seg in summary["segments"]] == [[], []]
    assert summary["converged"]
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "sweep")]) == EXIT_OK
    assert main(["certify", "--config", path]) == EXIT_OK
    capsys.readouterr()
    cfg["scenario"]["schedule"][1][1] = [1.0]
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "bad")]) == EXIT_CONFIG
    assert "disturbance at step 200 must have dimension 0" in capsys.readouterr().err


def test_a_four_tank_sweep_estimate_needs_a_box(tmp_path, capsys):
    cfg = preset_config("four-tank")
    del cfg["certify"]["box"]
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: certify.box: the plant's Jacobian varies"), err
    assert not (tmp_path / "sweep.csv").exists()


def test_a_non_monotone_sweep_exits_4_as_certify_does(tmp_path, capsys):
    # K = -1 integrates the error the wrong way, so mu = -1; the sweep shares
    # certify's pair and its verdict, and runs no grid point
    cfg = preset_config("lti-demo")
    cfg["controller"]["K"] = [[-1.0]]
    path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", path]) == EXIT_CERTIFICATION
    assert "monotonicity failed: mu <= 0\n" in capsys.readouterr().out
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_CERTIFICATION
    assert capsys.readouterr().err == "monotonicity failed: mu <= 0\n"
    assert not (tmp_path / "out").exists()


def ci_ball_config():
    """The ball ∩ box config that CI runs from the installed command."""
    cfg = ball_gamma_config()
    cfg["certify"]["box"] = {"lower": [-2.0], "upper": [0.5]}
    return cfg


@pytest.mark.parametrize("name", ["four-tank", "lti-demo", "ci-ball"])
def test_sweep_and_certify_share_one_pair(tmp_path, capsys, name):
    from dpic.cli import _exact_certificates

    cfg = ci_ball_config() if name == "ci-ball" else preset_config(name)
    if name == "four-tank":
        cfg["sweep"].update({"T_i": [30.0], "lambda": [0.5]})
    path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", path]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()[:2]
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    setup = build_setup(cfg)
    mu, L = _exact_certificates(setup)
    assert summary["certificates"] == {"mu": mu, "L": L, "source": "exact"}
    assert printed == [f"mu = {mu:.6g}", f"L = {L:.6g}"]
    assert summary["T_i_star"] == setup.plant.T_s * L ** 2 / (2.0 * mu)
    if name != "four-tank":  # lti-demo's plant: mu = L = 1, T_i* = 0.5 s
        assert (mu, L, summary["T_i_star"]) == (1.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# certify

def test_certify_lti_demo(capsys):
    assert main(["certify", "--preset", "lti-demo"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "mu = 1\nL = 1\nsource: exact, from the plant's Jacobian\n" in out
    assert "T_i_star = 0.5" in out
    assert "static loop gain test: ok" in out


def test_certify_four_tank_output(capsys):
    assert main(["certify", "--preset", "four-tank"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "mu = 0.101937\n"
        "L = 0.188583\n"
        "source: exact, from the plant's Jacobian\n"
        "step window (0, 5.73265); c_fb at alpha=2.86633: 0.841318\n"
        "T_i_star = 1.74439 s (T_s = 10 s, controller T_i = 15 s)\n")


def test_certify_reports_exact_zero_contraction(capsys):
    # lti-demo has mu = L = 1, and the square root must not turn a rounding
    # error in the radicand into c_fb ~ 1.5e-8
    assert main(["certify", "--preset", "lti-demo"]) == EXIT_OK
    assert "c_fb at alpha=1: 0\n" in capsys.readouterr().out


def test_certify_failure_exit_code(tmp_path, capsys):
    cfg = preset_config("lti-demo")
    cfg["controller"]["K"] = [[-1.0]]  # integrates the error the wrong way
    path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", path]) == EXIT_CERTIFICATION
    out = capsys.readouterr().out
    assert "monotonicity failed: mu <= 0\n" in out
    assert "static loop gain test: FAILED\n" in out


def test_certify_names_a_loop_gain_singular_to_rounding(tmp_path, capsys):
    # one state feeding two errors: the 2x2 loop gain has rank 1
    cfg = preset_config("lti-demo")
    cfg["plant"].update({"B": [[1.0, 0.0]], "C": [[1.0], [0.0]], "D": [[0.0, 0.0], [0.0, 0.0]],
                         "D_w": [[-1.0], [0.0]]})
    cfg["constraint"] = {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
    cfg["controller"].update({"K": [[1.0, 0.0], [0.0, 1.0]], "u0": [0.0, 0.0]})
    path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", path]) == EXIT_CERTIFICATION
    assert ("static loop gain test: FAILED (loop gain singular to rounding)\n"
            in capsys.readouterr().out)


def test_simulate_and_certify_load_no_scipy(tmp_path):
    # in a fresh interpreter that fails every scipy import: import dpic,
    # simulate both presets and a 4-input LTI run under a 12-row polytope and
    # a coupled metric, sweep lti-demo and four-tank (on one grid point), certify
    # both presets, and simulate, sweep and certify under a ball ∩ box Gamma
    rng = np.random.default_rng(3)
    normals = rng.standard_normal((12, 4))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    cfg = {
        "plant": {"type": "lti", "A": (0.5 * np.eye(4)).tolist(), "B": (0.5 * np.eye(4)).tolist(),
                  "C": np.eye(4).tolist(), "D": np.zeros((4, 4)).tolist(),
                  "B_w": np.zeros((4, 4)).tolist(), "D_w": (-np.eye(4)).tolist(), "T_s": 1.0},
        "metric": [[2.0, 0.3, 0.0, 0.1], [0.3, 1.0, 0.2, 0.0],
                   [0.0, 0.2, 1.5, 0.4], [0.1, 0.0, 0.4, 1.0]],
        "constraint": {"type": "polyhedron", "A": normals.tolist(), "b": [1.0] * 12},
        "controller": {"K": np.eye(4).tolist(), "T_i": 2.0, "lambda": 0.5, "u0": [0.0] * 4},
        "scenario": {"horizon": 200, "x0": [0.0] * 4,
                     "schedule": [[0, [0.2, -0.1, 0.1, 0.3]], [100, [2.0, 1.5, -2.5, 1.0]]]},
    }
    path = write_config(tmp_path, cfg)
    tank = preset_config("four-tank")
    tank["sweep"].update({"T_i": [30.0], "lambda": [0.5]})
    tank_path = write_config(tmp_path, tank, "tank.json")
    ball_path = write_config(tmp_path, ball_gamma_sweep_config(), "ball.json")
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        import dpic
        from dpic.cli import main
        runs = [["simulate", "--preset", "four-tank", "--out", {str(tmp_path / "a")!r}],
                ["simulate", "--preset", "lti-demo", "--out", {str(tmp_path / "b")!r}],
                ["simulate", "--config", {path!r}, "--out", {str(tmp_path / "c")!r}],
                ["sweep", "--preset", "lti-demo", "--out", {str(tmp_path / "d")!r}],
                ["sweep", "--config", {tank_path!r}, "--out", {str(tmp_path / "e")!r}],
                ["certify", "--preset", "lti-demo"],
                ["certify", "--preset", "four-tank"],
                ["simulate", "--config", {ball_path!r}, "--out", {str(tmp_path / "f")!r}],
                ["sweep", "--config", {ball_path!r}, "--out", {str(tmp_path / "g")!r}],
                ["certify", "--config", {ball_path!r}]]
        print([main(argv) for argv in runs])
    """)
    src = os.path.dirname(os.path.dirname(dpic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True).stdout.splitlines()[-1]
    assert out == "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0]"
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert summary["segments"][1]["tracking_error"] > 0.1  # the polytope binds
    summary = json.loads((tmp_path / "f" / "summary.json").read_text())
    assert summary["segments"][1]["tracking_error"] > 0.1  # the ball binds at u = 1


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


@pytest.mark.parametrize("lower, code", [(0.4, EXIT_OK), (0.6, EXIT_CONFIG)])
def test_a_certify_box_meets_a_ball_gamma_in_eta(tmp_path, capsys, lower, code):
    # Gamma = {eta : 2 eta in [-1, 1] ∩ [-0.5, 2]} = [-0.25, 0.5], the
    # preimage of a ball beside the box's rows, all in eta
    cfg = ball_gamma_config()
    cfg["controller"]["K"] = [[2.0]]
    cfg["certify"]["box"] = {"lower": [lower], "upper": [1.0]}
    assert main(["certify", "--config", write_config(tmp_path, cfg)]) == code
    assert ("certify.box: box does not meet Gamma" in capsys.readouterr().err) == (code != EXIT_OK)


def ball_gamma_sweep_config():
    """ball_gamma_config() with a certify box and one sweep point that ends
    at a disturbance that drives the input onto the ball."""
    cfg = ball_gamma_config()
    cfg["certify"]["box"] = {"lower": [-1.0], "upper": [1.0]}
    cfg["sweep"].update({"T_i": [5.0], "lambda": [0.5],
                         "horizon": 300, "schedule": [[0, [0.5]], [100, [2.0]]]})
    return cfg


def test_sweep_estimates_and_projects_on_a_ball_gamma(tmp_path):
    path = write_config(tmp_path, ball_gamma_sweep_config())
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
