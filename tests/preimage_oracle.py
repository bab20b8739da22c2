"""The change-of-variables projection onto a linear preimage, as a reference
for the library's projection in the preimage's own space.

{x : K x in inner} under the metric P is, with u = K x, the set inner under
the metric K^{-T} P K^{-1}: project K x there and map the point back by
K^{-1}.  For a ball-based inner set this runs the library's ball engine in
the inner space, whose answers the KKT tests check on their own.
"""

import numpy as np

from dpic import Metric


def change_of_variables_project(K, inner, metric, x):
    """Projection of x onto {x : K x in inner} in the metric norm, in the inner space."""
    Kinv = np.linalg.inv(K)
    res = inner.project(Metric(Kinv.T @ metric.P @ Kinv), K @ np.asarray(x, dtype=float))
    return Kinv @ res.point
