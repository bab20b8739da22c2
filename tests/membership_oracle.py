"""Per-class membership and margin formulas, kept as a reference.

Each polyhedral set class once answered contains and margin with its own
formula: a box compares against its bounds coordinate by coordinate, a
halfspace and a polyhedron take their own row product, an intersection asks
its members, a linear preimage maps into its inner set.  The library now
answers every polyhedral set from its cached halfspace rows, a preimage from
its rows A K; these are the formulas it must agree with bit for bit on the
tests' sets.  The one exception is an
intersection of general rows: a BLAS matrix-vector product may round a row
of the stacked matrix other than the same row of its member alone, so there
the agreement is to the error bound of the two dot products.
"""

import numpy as np

from dpic import Box, Halfspace, Intersection, LinearPreimage, Polyhedron
from dpic.metric import _apply
from dpic.sets import MEMBERSHIP_TOL


def oracle_contains(s, x) -> bool:
    """Membership, to within MEMBERSHIP_TOL, of one point by the formula of
    the set's own class."""
    x, tol = np.asarray(x, dtype=float), MEMBERSHIP_TOL
    if isinstance(s, Box):
        return bool(np.all(x >= s.lower - tol) and np.all(x <= s.upper + tol))
    if isinstance(s, Halfspace):
        return bool(s.a @ x <= s.b + tol)
    if isinstance(s, Polyhedron):
        return bool(np.all(s.A @ x <= s.b + tol))
    if isinstance(s, Intersection):
        return all(oracle_contains(m, x) for m in s.sets)
    if isinstance(s, LinearPreimage):
        return oracle_contains(s.inner, s.K @ x)
    raise TypeError(f"no oracle for {type(s).__name__}")


def oracle_margin(s, x):
    """Margin of one point or of each row of a batch, by the class formula."""
    x = np.asarray(x, dtype=float)
    if isinstance(s, Box):
        values = np.min(np.concatenate([x - s.lower, s.upper - x], axis=-1), axis=-1)
    elif isinstance(s, Halfspace):
        values = (s.b - _apply(s.a[None, :], x)[..., 0]) / np.linalg.norm(s.a)
    elif isinstance(s, Polyhedron):
        values = np.min((s.b - _apply(s.A, x)) / np.linalg.norm(s.A, axis=1), axis=-1)
    elif isinstance(s, Intersection):
        values = np.minimum.reduce([oracle_margin(m, x) for m in s.sets])
    elif isinstance(s, LinearPreimage):
        values = oracle_margin(s.inner, _apply(s.K, x))
    else:
        raise TypeError(f"no oracle for {type(s).__name__}")
    return float(values) if x.ndim == 1 else values
