"""Command line interface.

    dpic simulate --preset four-tank --out results/
    dpic sweep    --config run.json --out results/
    dpic certify  --preset lti-demo
    dpic preset list

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure,
4 certification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .config import DEFAULT_SAMPLES, ConfigError, RunSetup, build_setup, load_config
from .metric import Metric
from .plants import LTIPlant, NumericalError, davison_check
from .presets import PRESET_DESCRIPTIONS, preset_config, preset_names
from .sets import Intersection, ProjectionError
from .simulation import (
    Scenario,
    SimulationError,
    change_of_coordinates,
    classify_convergence,
    gain_sweep,
    simulate,
)
from .vi import FBParams, contraction_constants, estimate_mu_L, low_gain_threshold, step_window

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CERTIFICATION = 4

_FLOAT_FMT = ".17g"  # full double precision round trip


def _fmt(value: float) -> str:
    return format(float(value), _FLOAT_FMT)


def _load_setup(args) -> RunSetup:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("config", "give exactly one of --config or --preset")
    if args.config:
        cfg = load_config(args.config)
    else:
        try:
            cfg = preset_config(args.preset)
        except KeyError as exc:
            raise ConfigError("preset", str(exc.args[0])) from exc
    if args.seed is not None:
        cfg["seed"] = args.seed
    return build_setup(cfg)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--out", f"cannot create the output directory: {exc}") from exc
    return out


def _controller_echo(setup: RunSetup) -> dict:
    ctrl = setup.controller
    return {
        "K": ctrl.gain.tolist(),
        "T_s": ctrl.T_s,
        "T_i": ctrl.T_i,
        "lambda": ctrl.damping,
        "eta0": ctrl.eta.tolist(),
    }


def _write_trajectory(path: Path, record, n: int, m: int, p: int) -> None:
    header = (["k", "t"]
              + [f"x{i+1}" for i in range(n)]
              + [f"u{i+1}" for i in range(m)]
              + [f"e{i+1}" for i in range(p)]
              + [f"eta{i+1}" for i in range(p)]
              + ["constraint_margin", "vi_residual"])
    t = record.t
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(record.x.shape[0]):
            row = ([str(int(record.k[k])), _fmt(t[k])]
                   + [_fmt(v) for v in record.x[k]]
                   + [_fmt(v) for v in record.u[k]]
                   + [_fmt(v) for v in record.e[k]]
                   + [_fmt(v) for v in record.eta[k]]
                   + [_fmt(record.constraint_margin[k]), _fmt(record.vi_residual[k])])
            writer.writerow(row)


def cmd_simulate(args) -> int:
    setup = _load_setup(args)
    out = _out_dir(args)
    record = simulate(setup.scenario)
    xi = change_of_coordinates(record, setup.plant, setup.scenario)
    converged = classify_convergence(record, xi, setup.metric)
    plant = setup.plant
    _write_trajectory(out / "trajectory.csv", record, plant.n,
                      setup.controller.gain.shape[0], setup.controller.gain.shape[1])
    summary = {
        "seed": setup.seed,
        "horizon": setup.scenario.horizon,
        "plant": setup.raw.get("plant"),
        "controller": _controller_echo(setup),
        "converged": bool(converged),
        "final": {
            "tracking_error": float(np.linalg.norm(record.e[-1])),
            "vi_residual": float(record.vi_residual[-1]),
            "constraint_margin": float(record.constraint_margin[-1]),
            "state_deviation": float(np.linalg.norm(xi[-1])),
        },
        "segments": [
            {
                "start": seg.start,
                "end": seg.end,
                "w": seg.w.tolist(),
                "tracking_error": seg.tracking_error,
                "vi_residual": seg.vi_residual,
                "normal_cone_residual": seg.normal_cone_residual,
            }
            for seg in record.segments
        ],
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out / 'trajectory.csv'} ({record.x.shape[0]} steps) "
          f"and {out / 'summary.json'}")
    print(f"converged: {converged}; final vi residual {record.vi_residual[-1]:.3e}; "
          f"final tracking error {np.linalg.norm(record.e[-1]):.3e}")
    return EXIT_OK


def _resolve_certificates(setup: RunSetup, block: dict, w: np.ndarray) -> tuple[float, float, dict]:
    """(mu, L, echo) estimated for a sweep or certify block at disturbance w."""
    ctrl = setup.controller
    region = ctrl.gamma
    if block.get("box") is not None:
        region = Intersection([ctrl.gamma, block["box"]])
    lower, upper = region.bounding_box()
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ConfigError("certify.box", "Gamma is unbounded; give a box to sample in")
    mu, L = estimate_mu_L(lambda eta: setup.plant.pi(ctrl.gain @ eta, w),
                          region, ctrl.metric,
                          samples=block["samples"], seed=setup.seed)
    echo = {"mu_hat": mu, "L_hat": L, "samples": block["samples"],
            "seed": setup.seed, "w": w.tolist()}
    return mu, L, echo


def cmd_sweep(args) -> int:
    setup = _load_setup(args)
    if setup.sweep is None:
        raise ConfigError("sweep", "config has no sweep block")
    out = _out_dir(args)
    spec = setup.sweep
    if spec["estimate"]:
        # estimated where gain_sweep solves: at the sweep's final disturbance
        mu, L, cert_echo = _resolve_certificates(setup, spec, spec["scenario"].schedule[-1][1])
    else:
        mu, L = spec["mu"], spec["L"]
        cert_echo = {"mu": mu, "L": L}
    report = gain_sweep(spec["scenario"], spec["T_i"], spec["lambda"], mu, L)
    with (out / "sweep.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T_i", "lambda", "converged", "decay_rate",
                         "final_vi_residual"])
        for p in report.points:
            writer.writerow([_fmt(p.T_i), _fmt(p.damping), str(p.converged).lower(),
                             _fmt(p.decay_rate), _fmt(p.final_vi_residual)])
    summary = {
        "seed": setup.seed,
        "T_i_star": report.T_i_star,
        "certificates": cert_echo,
        "grid": {"T_i": spec["T_i"], "lambda": spec["lambda"]},
        "converged_points": sum(p.converged for p in report.points),
        "total_points": len(report.points),
        "empirical_lambda_star": {
            _fmt(T_i): report.empirical_damping_star(T_i) for T_i in spec["T_i"]
        },
    }
    (out / "sweep_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out / 'sweep.csv'} ({len(report.points)} points) "
          f"and {out / 'sweep_summary.json'}")
    print(f"T_i_star = {report.T_i_star:.6g} s; "
          f"{summary['converged_points']}/{summary['total_points']} points converged")
    return EXIT_OK


def cmd_certify(args) -> int:
    setup = _load_setup(args)
    block = setup.certify if setup.certify is not None else {"samples": DEFAULT_SAMPLES}
    mu, L, _ = _resolve_certificates(setup, block, setup.scenario.schedule[0][1])
    ctrl = setup.controller
    plant = setup.plant
    print(f"mu_hat  = {mu:.6g}")
    print(f"L_hat   = {L:.6g}")
    ok = mu > 0.0
    if ok:
        params = FBParams.certified(mu, L)
        c_fb, _ = contraction_constants(params)
        print(f"step window (0, {step_window(mu, L):.6g}); "
              f"c_fb at alpha={params.alpha:.6g}: {c_fb:.6g}")
        print(f"T_i_star = {low_gain_threshold(plant.T_s, mu, L):.6g} s "
              f"(T_s = {plant.T_s:g} s, controller T_i = {ctrl.T_i:g} s)")
    else:
        print("empirical monotonicity failed: mu_hat <= 0")
    if isinstance(plant, LTIPlant):
        dav_ok, _ = davison_check(plant, ctrl.gain)
        print(f"static loop gain test: {'ok' if dav_ok else 'FAILED'}")
        ok = ok and dav_ok
    return EXIT_OK if ok else EXIT_CERTIFICATION


def cmd_preset(args) -> int:
    if args.action != "list":
        raise ConfigError("preset", f"unknown preset action {args.action!r}")
    for name in preset_names():
        print(f"{name}: {PRESET_DESCRIPTIONS[name]}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpic",
        description="Damped projected integral control: simulation, sweeps, certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_out: bool):
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        p.add_argument("--preset", metavar="NAME",
                       help="built-in configuration (see 'dpic preset list')")
        p.add_argument("--seed", type=int, metavar="U64",
                       help="override the configured sampling seed")
        if with_out:
            p.add_argument("--out", metavar="DIR", default="out",
                           help="output directory (default: ./out)")

    p_sim = sub.add_parser("simulate", help="run the closed loop and write trajectory.csv")
    add_common(p_sim, with_out=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="grid over (T_i, lambda) and write sweep.csv")
    add_common(p_sweep, with_out=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cert = sub.add_parser("certify", help="empirical monotonicity and gain certificates")
    add_common(p_cert, with_out=False)
    p_cert.set_defaults(func=cmd_certify)

    p_preset = sub.add_parser("preset", help="inspect built-in configurations")
    p_preset.add_argument("action", choices=["list"])
    p_preset.set_defaults(func=cmd_preset)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, NumericalError, ProjectionError, RuntimeError,
            ValueError) as exc:
        # the config builders raise ConfigError, so a ValueError reaching this
        # point comes from the numerics of the run
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
