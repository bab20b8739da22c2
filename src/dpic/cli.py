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

from .config import ConfigError, RunSetup, build_setup, load_config
from .metric import _apply, _norm
from .plants import STATIC_GAIN_TOL, LTIPlant, _static_gain_margin, davison_check
from .presets import PRESET_DESCRIPTIONS, preset_config, preset_names
from .sets import Intersection, ProjectionError
from .simulation import (_STEP_ERRORS, change_of_coordinates, classify_convergence, gain_sweep,
                         simulate)
from .vi import contraction_constants, exact_mu_L, low_gain_threshold, step_window

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CERTIFICATION = 4

_FLOAT_FMT = ".17g"  # full double precision round trip
_NOT_MONOTONE = "monotonicity failed: mu <= 0"  # certify's verdict, which a sweep shares


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


def _controller_echo(setup: RunSetup) -> dict:
    ctrl = setup.controller
    return {
        "K": ctrl.gain.tolist(),
        "T_s": ctrl.T_s,
        "T_i": ctrl.T_i,
        "lambda": ctrl.damping,
        "eta0": ctrl.eta.tolist(),
    }


def _write_artifacts(table: Path, write_table, summary_path: Path, summary: dict) -> None:
    """Write the table, then the summary beside it; a table written before the
    summary failed is removed."""
    write_table(table)
    try:
        summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    except OSError:
        table.unlink(missing_ok=True)
        raise


def _write_trajectory(path: Path, record) -> None:
    blocks = {"x": record.x, "u": record.u, "e": record.e, "eta": record.eta}
    header = (["k", "t"] + [f"{name}{i+1}" for name, a in blocks.items() for i in range(a.shape[1])]
              + ["constraint_margin", "vi_residual"])
    cols = np.column_stack([record.k, record.t, *blocks.values(),
                            record.constraint_margin, record.vi_residual])
    # "%.17g" spells every double as format(v, _FLOAT_FMT) does; k is exact.
    # Blocks of 256 rows take one % each, so no list of the whole table is held.
    line = "%d," + ",".join(["%.17g"] * (len(header) - 1)) + "\r\n"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for block in np.array_split(cols, range(256, len(cols), 256)):
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def cmd_simulate(args) -> int:
    setup = _load_setup(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = simulate(setup.scenario)
    xi = change_of_coordinates(record, setup.scenario)
    converged = classify_convergence(record, xi, setup.metric)
    summary = {
        "seed": setup.seed,
        "horizon": setup.scenario.horizon,
        "plant": setup.raw.get("plant"),
        "controller": _controller_echo(setup),
        "converged": bool(converged),
        "final": {
            "tracking_error": float(_norm(record.e[-1])),
            "vi_residual": float(record.vi_residual[-1]),
            "constraint_margin": float(record.constraint_margin[-1]),
            "state_deviation": float(_norm(xi[-1])),
        },
        # the SegmentSummary fields in their order: start, end, w, tracking_error, ...
        "segments": [{**vars(seg), "w": seg.w.tolist()} for seg in record.segments],
    }
    _write_artifacts(out / "trajectory.csv", lambda path: _write_trajectory(path, record),
                     out / "summary.json", summary)
    print(f"wrote {out / 'trajectory.csv'} ({record.x.shape[0]} steps) "
          f"and {out / 'summary.json'}")
    print(f"converged: {converged}; final vi residual {record.vi_residual[-1]:.3e}; "
          f"final tracking error {summary['final']['tracking_error']:.3e}")
    return EXIT_OK


def _exact_certificates(setup: RunSetup) -> tuple[float, float]:
    """(mu, L) of eta -> pi(K eta, w) from the plant's Jacobian, for any w,
    which sweep and certify share.

    A given certify.box must match Gamma's dimension and meet Gamma, which
    one projection onto Gamma ∩ box decides.  An LTI plant's Jacobian is
    constant and needs no box; a four-tank one varies with eta and needs
    the box, since the corners of Gamma's bounding box may leave the pump
    domain where Gamma does not.
    """
    plant, ctrl, box, key = setup.plant, setup.controller, setup.certify_box, "certify.box"
    if box is not None:
        if box.dim != ctrl.gamma.dim:
            raise ConfigError(key, f"box has dimension {box.dim}, Gamma {ctrl.gamma.dim}")
        try:
            Intersection([ctrl.gamma, box]).project(ctrl.metric, ctrl.eta)
        except ProjectionError as exc:
            raise ConfigError(key, "box does not meet Gamma") from exc
    if isinstance(plant, LTIPlant):
        box = None
    elif box is None:
        raise ConfigError(key, "the plant's Jacobian varies with eta; give a box "
                               "inside the pump domain to certify over")
    return exact_mu_L(lambda eta: plant.pi_jacobian(_apply(ctrl.gain, eta)) @ ctrl.gain,
                      ctrl.metric, box)


def _write_sweep(path: Path, points) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T_i", "lambda", "converged", "decay_rate", "final_vi_residual"])
        for p in points:
            writer.writerow([_fmt(p.T_i), _fmt(p.damping), str(p.converged).lower(),
                             _fmt(p.decay_rate), _fmt(p.final_vi_residual)])


def cmd_sweep(args) -> int:
    setup = _load_setup(args)
    if setup.sweep is None:
        raise ConfigError("sweep", "config has no sweep block")
    mu, L = _exact_certificates(setup)
    if not mu > 0.0:  # no threshold to report, so no grid point runs
        print(_NOT_MONOTONE, file=sys.stderr)
        return EXIT_CERTIFICATION
    T_i_star = low_gain_threshold(setup.plant.T_s, mu, L)  # checks the pair before any run
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = setup.sweep
    report = gain_sweep(spec["scenario"], spec["T_i"], spec["lambda"])
    summary = {
        "seed": setup.seed,
        "T_i_star": T_i_star,
        "certificates": {"mu": mu, "L": L, "source": "exact"},
        "grid": {"T_i": spec["T_i"], "lambda": spec["lambda"]},
        "converged_points": sum(p.converged for p in report.points),
        "total_points": len(report.points),
        "empirical_lambda_star": {
            _fmt(T_i): report.empirical_damping_star(T_i) for T_i in spec["T_i"]
        },
    }
    _write_artifacts(out / "sweep.csv", lambda path: _write_sweep(path, report.points),
                     out / "sweep_summary.json", summary)
    print(f"wrote {out / 'sweep.csv'} ({len(report.points)} points) "
          f"and {out / 'sweep_summary.json'}")
    print(f"T_i_star = {T_i_star:.6g} s; "
          f"{summary['converged_points']}/{summary['total_points']} points converged")
    return EXIT_OK


def cmd_certify(args) -> int:
    setup = _load_setup(args)
    mu, L = _exact_certificates(setup)
    ctrl = setup.controller
    plant = setup.plant
    print(f"mu = {mu:.6g}")
    print(f"L = {L:.6g}")
    print("source: exact, from the plant's Jacobian")
    ok = mu > 0.0
    if ok:
        alpha = mu / L ** 2  # the window's midpoint, where c_fb is least
        c_fb, _ = contraction_constants(alpha, 0.5, mu, L)
        print(f"step window (0, {step_window(mu, L):.6g}); "
              f"c_fb at alpha={alpha:.6g}: {c_fb:.6g}")
        print(f"T_i_star = {low_gain_threshold(plant.T_s, mu, L):.6g} s "
              f"(T_s = {plant.T_s:g} s, controller T_i = {ctrl.T_i:g} s)")
    else:
        print(_NOT_MONOTONE)
    if isinstance(plant, LTIPlant):
        dav_ok, _ = davison_check(plant, ctrl.gain)
        verdict = "ok" if dav_ok else "FAILED"
        if abs(_static_gain_margin(plant.dc_gain() @ ctrl.gain)) <= STATIC_GAIN_TOL:
            verdict += " (loop gain singular to rounding)"
        print(f"static loop gain test: {verdict}")
        ok = ok and dav_ok
    return EXIT_OK if ok else EXIT_CERTIFICATION


def cmd_preset(args) -> int:
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
                       help="override the configured seed, which the summaries "
                            "echo and no output depends on")
        if with_out:
            p.add_argument("--out", metavar="DIR", default="out",
                           help="output directory (default: ./out)")

    p_sim = sub.add_parser("simulate", help="run the closed loop and write trajectory.csv")
    add_common(p_sim, with_out=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="grid over (T_i, lambda) and write sweep.csv")
    add_common(p_sweep, with_out=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cert = sub.add_parser("certify", help="exact monotonicity and gain certificates")
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
    except OSError as exc:  # load_config reports its own, so this is making or writing --out
        print(f"config error: --out: cannot write the output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _STEP_ERRORS as exc:
        # the config builders raise ConfigError, so what reaches this point
        # comes from the numerics of the run
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
