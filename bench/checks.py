"""Output checks drawn from the paper's guarantees, not from recorded numbers.

Each check returns a list of failure messages; an empty list is a pass.
Thresholds are properties every correct implementation has, so a change
that moves results in the last bits, or moves the certified threshold
T_i*, still passes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

MARGIN_TOL = 1e-9      # u_k stays in C up to the membership tolerance
TRACKING_TOL = 1e-6    # zero steady-state error on a feasible segment
VI_TOL = 1e-6          # the integrator settles on the VI solution
FEASIBILITY_GAP = 1e-6  # a segment's equilibrium input must sit clearly in or out of C


def equilibrium_input(plant, w) -> np.ndarray:
    """Input at which the steady-state error pi(u, w) vanishes, ignoring C."""
    w = np.asarray(w, dtype=float)
    if hasattr(plant, "flow_gain"):
        # four-tank: pi(u, w) = (flow_gain u)^2 / (2 g) - w componentwise
        return np.linalg.solve(plant.flow_gain, np.sqrt(2.0 * plant.g * w))
    # LTI: pi(u, w) = dc_gain u + disturbance_dc_gain w
    return np.linalg.solve(plant.dc_gain(), -plant.disturbance_dc_gain() @ w)


def feasible_segments(setup) -> list[bool]:
    """Per schedule entry: is the unconstrained equilibrium input inside C?"""
    flags = []
    for start, w in setup.scenario.schedule:
        margin = setup.constraint.margin(equilibrium_input(setup.plant, w))
        if abs(margin) < FEASIBILITY_GAP:
            raise ValueError(f"segment at step {start} has its equilibrium on the "
                             "boundary of C; feasibility is ambiguous")
        flags.append(margin > 0.0)
    return flags


def check_simulate(rc: int, out: Path, feasible: list[bool]) -> list[str]:
    if rc != 0:
        return [f"simulate exited {rc}"]
    errors = []
    with (out / "trajectory.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    margins = np.array([float(r["constraint_margin"]) for r in rows])
    if margins.size == 0 or not np.all(margins >= -MARGIN_TOL):
        errors.append(f"constraint margin {margins.min():.3e} < -{MARGIN_TOL:g}")
    summary = json.loads((out / "summary.json").read_text())
    segments = summary["segments"]
    if len(segments) != len(feasible):
        return errors + [f"{len(segments)} segments reported, {len(feasible)} scheduled"]
    for seg, ok in zip(segments, feasible):
        where = f"segment [{seg['start']}, {seg['end']})"
        if ok and not seg["tracking_error"] <= TRACKING_TOL:
            errors.append(f"{where}: feasible but final tracking error "
                          f"{seg['tracking_error']:.3e} > {TRACKING_TOL:g}")
        if not seg["vi_residual"] <= VI_TOL:
            errors.append(f"{where}: final vi residual {seg['vi_residual']:.3e} > {VI_TOL:g}")
    return errors


def check_sweep(rc: int, out: Path, grid_points: int) -> list[str]:
    """Low-gain guarantee: T_i >= 1.5 T_i* with damping <= 0.5 converges."""
    if rc != 0:
        return [f"sweep exited {rc}"]
    summary = json.loads((out / "sweep_summary.json").read_text())
    T_i_star = float(summary["T_i_star"])
    with (out / "sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    errors = []
    if len(rows) != grid_points:
        errors.append(f"{len(rows)} grid points reported, {grid_points} requested")
    certified = [r for r in rows
                 if float(r["T_i"]) >= 1.5 * T_i_star - 1e-12
                 and float(r["lambda"]) <= 0.5 + 1e-12]
    if not certified:
        errors.append(f"no grid point lies in the certified region (T_i* = {T_i_star:.4g})")
    for r in certified:
        if not (r["converged"] == "true" and float(r["decay_rate"]) < 1.0):
            errors.append(f"certified point T_i={r['T_i']} lambda={r['lambda']} "
                          f"converged={r['converged']} rate={r['decay_rate']}")
    return errors
