"""Exact local decay rate of a projected integral loop around an LTI plant.

At an equilibrium where Gamma is inactive, the damped projected update is
eta+ = eta - damping * alpha * e with alpha = T_s / T_i, so the deviation
z = (x, eta) from the equilibrium obeys the linear map

    z+ = [[A, B K], [-damping alpha C, I - damping alpha D K]] z.

Its spectral radius is the geometric rate at which the loop settles there
(Davison, IEEE TAC 21(1), 1976).
"""

import numpy as np


def linearized_loop_radius(plant, K, T_i: float, damping: float) -> float:
    K = np.atleast_2d(np.asarray(K, dtype=float))
    step = damping * plant.T_s / T_i
    p = K.shape[1]
    loop = np.block([[plant.A, plant.B @ K],
                     [-step * plant.C, np.eye(p) - step * plant.D @ K]])
    return float(np.max(np.abs(np.linalg.eigvals(loop))))
