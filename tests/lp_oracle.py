"""HiGHS linear programs as oracles for the sets' numpy engines."""

import numpy as np
from scipy.optimize import linprog


def rows_support(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """max c.v over {v : A v <= b} by one linear program.

    The LP runs on the unit direction and the value is scaled back: HiGHS
    gives up (status 4) on objectives near 1e-12.  Unboundedness is only as
    sharp as HiGHS' dual feasibility tolerance, about 1e-7: a direction
    tilted toward a direction of recession by less than that reads as
    bounded.  The rows of Box([-inf, 0], [1, inf]) give 1.0 along (1, 1e-8),
    where the exact support is inf.  Raises ValueError on an empty set.
    """
    scale = float(np.linalg.norm(c))
    if scale == 0.0:
        return 0.0
    res = linprog(-c / scale, A_ub=A, b_ub=b, bounds=(None, None), method="highs")
    if res.status == 0:
        return -scale * res.fun
    if res.status == 3:
        return np.inf
    if res.status == 2:
        raise ValueError("support function of an empty set requested")
    raise ValueError(f"support LP failed with status {res.status}: {res.message}")


def rows_maximizer(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    """A point of {v : A v <= b} maximizing c.v, as HiGHS finds it, or None
    where HiGHS returns none (an unbounded or empty set, or a failure)."""
    res = linprog(-c, A_ub=A, b_ub=b, bounds=(None, None), method="highs")
    return res.x if res.status == 0 else None
