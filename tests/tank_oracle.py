"""The four-tank RK4 on arrays, the reference FourTankPlant.step rounds as.

Each row's level rates take the matrix-vector products of an unbatched
step on (..., 4, 1) column stacks:

    h' = O sqrt(2 g max(h, 0)) + I u

with the outflow matrix O and the inflow matrix I built from the plant's
areas and split ratios.  FourTankPlant.step runs the same substeps in
Python floats; it must match this bit for bit, the signs of zeros too,
and raise NumericalError wherever this does.
"""

import numpy as np

from dpic import NumericalError


def oracle_step(plant, x, u) -> np.ndarray:
    """FourTankPlant.step(x, u) on arrays; x and u broadcast over their batch axes."""
    h = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if not (np.isfinite(h).all() and np.isfinite(u).all()):
        raise NumericalError("tank step received non-finite values")
    h = oracle_levels(plant, h, u)
    if not np.isfinite(h).all():
        raise NumericalError("tank step diverged to a non-finite state")
    return h


def oracle_levels(plant, x, u) -> np.ndarray:
    """The levels of oracle_step without its checks.  From finite x and u, a
    row on which oracle_step raises ends with a non-finite level, and every
    other row ends as oracle_step returns it."""
    areas = plant.tank_areas
    a = plant.outlet_areas
    g1, g2 = plant.split_ratios
    outflow = np.array([
        [-a[0] / areas[0], 0.0, a[2] / areas[0], 0.0],
        [0.0, -a[1] / areas[1], 0.0, a[3] / areas[1]],
        [0.0, 0.0, -a[2] / areas[2], 0.0],
        [0.0, 0.0, 0.0, -a[3] / areas[3]],
    ])
    inflow_gain = np.array([
        [g1 / areas[0], 0.0],
        [0.0, g2 / areas[1]],
        [0.0, (1.0 - g2) / areas[2]],
        [(1.0 - g1) / areas[3], 0.0],
    ])
    h = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)

    def rate(h, inflow):
        # sqrt argument clamped at zero so transient undershoot cannot produce NaN
        v = np.sqrt(2.0 * plant.g * np.maximum(h, 0.0))
        return outflow @ v + inflow

    # column vectors: each row's rates take the matrix-vector product of
    # an unbatched step; the pump term is constant over the substeps
    h = h[..., None]
    inflow = inflow_gain @ u[..., None]
    dt = plant.T_s / plant.substeps
    for _ in range(plant.substeps):
        k1 = rate(h, inflow)
        k2 = rate(h + 0.5 * dt * k1, inflow)
        k3 = rate(h + 0.5 * dt * k2, inflow)
        k4 = rate(h + dt * k3, inflow)
        h = h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        h = np.maximum(h, 0.0)  # levels cannot go negative
    return h[..., 0]
