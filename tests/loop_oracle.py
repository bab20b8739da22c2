"""Per-step reference of the lockstep closed loop.

Each step computes everything inside the step, as the loop once did: the
input u = K eta, the error e, the u-in-C guard and the constraint margin
of every row, the damped projected update, the natural residual
from the state increment, and the plant step.  dpic.simulation._lockstep
computes the margin, the residual and the guard from the record after the
loop instead; its records must equal this one's bit for bit.  A failing
batched step is retried row by row; a caller may collect those retries,
so that a shape error in the batched update cannot hide behind them.
"""

from __future__ import annotations

import numpy as np

from dpic.controller import _damped_projected_update
from dpic.metric import _apply
from dpic.plants import NumericalError
from dpic.simulation import (
    _STEP_ERRORS,
    ConstraintViolationError,
    SimRecord,
    SimulationError,
    _step_failure,
)


def oracle_lockstep(scenario, alpha, damping,
                    retries: list | None = None) -> list[SimRecord | SimulationError]:
    """The scenario once per (alpha, damping) row, with the checks inside
    each step; every row starts from the scenario's controller state.  Each
    step whose batch is retried row by row appends (step, exception) to
    retries, if given."""
    plant, base = scenario.plant, scenario.controller
    alpha, damping = (np.array(v, dtype=float)[:, None] for v in (alpha, damping))
    G, H = len(alpha), scenario.horizon
    m, p = base.gain.shape
    xs = np.empty((G, H, plant.n))
    us = np.empty((G, H, m))
    es = np.empty((G, H, p))
    etas = np.empty((G, H, p))
    margins = np.empty((G, H))
    residuals = np.empty((G, H))
    x = np.tile(scenario.x0, (G, 1))
    eta = np.tile(base.eta, (G, 1))

    def advance(k, rows):
        # the w of the last schedule entry that has started by step k
        w = [v for start, v in scenario.schedule if start <= k][-1]
        x_k, eta_k = x[rows], eta[rows]
        u = _apply(base.gain, eta_k)
        e = plant.output(x_k, u, w)
        if not np.isfinite(e).all():
            raise NumericalError("state or error is not finite")
        member, margin = base.constraint._contains(u), base.constraint.margin(u)
        if not member.all():
            raise ConstraintViolationError(
                f"step {k}: projected controller emitted u outside C")
        eta_next = _damped_projected_update(base.gamma, base.metric, eta_k, e,
                                            alpha[rows], damping[rows])
        residual = base.metric.norm(eta_next - eta_k) / damping[rows, 0]
        x_next = plant.step(x_k, u, w)
        xs[rows, k], us[rows, k], es[rows, k], etas[rows, k] = x_k, u, e, eta_k
        margins[rows, k], residuals[rows, k] = margin, residual
        x[rows], eta[rows] = x_next, eta_next

    failures: list[SimulationError | None] = [None] * G
    live = list(range(G))
    for k in range(H):
        try:
            advance(k, slice(None) if len(live) == G else live)
        except _STEP_ERRORS as exc:
            if len(live) == 1:
                failures[live[0]] = _step_failure(k, exc)
            else:
                if retries is not None:
                    retries.append((k, exc))
                for g in live:
                    try:
                        advance(k, [g])
                    except _STEP_ERRORS as row_exc:
                        failures[g] = _step_failure(k, row_exc)
            live = [g for g in live if failures[g] is None]
            if not live:
                break
    steps = np.arange(H)
    return [failures[g] if failures[g] is not None else
            SimRecord(plant.T_s, steps, xs[g], us[g], es[g], etas[g],
                      margins[g], residuals[g])
            for g in range(G)]
