"""Convex constraint sets with projections in a weighted metric.

Every set is built whole: its constructor copies its inputs into one read-only
description, halfspace rows {v : A v <= b} with their Euclidean row norms, met
with ellipsoids {v : |M v - d| <= r}.  A box, halfspace or polyhedron gives rows
and a ball one ellipsoid with M = I; an intersection stacks its members' parts (a
member intersection's own, so nesting changes no bit), and a linear preimage
{x : K x in C} maps C's once, rows A K and ellipsoids M K.  Membership to within
MEMBERSHIP_TOL and margin (each one row product, then |M x - d| per ellipsoid),
the normals of the tight constraints, the bounding box and the projection all
read it, a linear preimage's included.  A point in a batch gets the answer it
gets alone.

Every projection is exact, by one of two engines that read the set's own rows:
rows alone by a least-distance program whose scaled dual a numpy Lawson-Hanson NNLS
solves, and one ellipsoid with any rows by one root find for its multiplier, whose
trials run the first engine on factors of one eigendecomposition; an intersection
refuses a second ellipsoid.  A projection starts from the caller's warm start, the
active rows of an earlier result with their blocks, and keeps that point only where
the KKT conditions hold with WARM_MARGIN to spare: a hint, never a bit.  Once built,
a set adds two memos that pick no path: _factors, its row factors in the last metric,
and _bbox.  A point v for x is kept only if a_i.v - b_i <= 1e-12 (|b_i| + |a_i| (|x| +
|v|)) on each row, |x| and |v| by hypot.  Other norms take metric._norm, finite where
squares overflow or underflow; the per-step verdicts (_contains, curved trials) take
_row_norms, as inf reads outside, skipping a 3 us guard.

The normal-cone residual is one more NNLS, on the tight normals.  Bounding
boxes come exact along each axis of an ellipsoid and, by weak duality, one
NNLS per side gives a bound enclosing the rows (exact on boxes); a side whose
dual y misses A^T y = +-e_i by more than 1e-12 reads inf.  Margin, and the
membership test _contains that the loop runs, take a (..., dim) array of points
as well as a single point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .metric import Metric, _apply, _norm, _points, _row_norms, _vec

__all__ = [
    "MEMBERSHIP_TOL",
    "ProjectionError",
    "ProjectionResult",
    "ConvexSet",
    "Box",
    "Halfspace",
    "Ball",
    "Polyhedron",
    "Intersection",
    "LinearPreimage",
    "normal_cone_residual",
    "sample_points",
]

MEMBERSHIP_TOL = 1e-9
# relative KKT margin a warm start must clear to skip the NNLS solve
WARM_MARGIN = 1e-9


class ProjectionError(RuntimeError):
    """Projection failed: the set is empty."""


@dataclass(frozen=True)
class ProjectionResult:
    """Projected point, the root find's steps for an ellipsoid's multiplier (0 where none
    ran), residual 0 (both engines are exact) and the warm start of the next projection."""

    point: np.ndarray
    iterations: int = 0
    residual: float = 0.0
    warm: tuple | None = field(default=None, repr=False)


def _read_only(*arrays) -> tuple[np.ndarray, ...]:
    """Read-only float copies of arrays, in C order."""
    copies = tuple(np.array(a, dtype=float, order="C") for a in arrays)
    for a in copies:
        a.flags.writeable = False
    return copies


class ConvexSet:
    """Base type: nonempty closed convex subset of R^dim."""

    dim: int
    _factors = None  # (metric, *_row_factors(metric)) of the last metric projected in

    @cached_property
    def _parts(self) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
        """(ellipsoids ((M, M^{-1}, d, r), ...), A, b, row norms), fixed by _describe: the
        set is {v : A v <= b} met with each {v : |M v - d| <= r}.  Every operation reads it."""
        raise NotImplementedError(f"{type(self).__name__} has no description")

    def _describe(self, ellipsoids, A, b, norms) -> None:
        """Fix _parts from read-only copies of its parts, and beside it _upper, the
        b + MEMBERSHIP_TOL that _contains reads."""
        self._parts = (tuple(_read_only(M, Minv, d) + (r,) for M, Minv, d, r in ellipsoids),
                       *_read_only(A, b, norms))
        self._upper = _read_only(self._parts[2] + MEMBERSHIP_TOL)[0]

    def contains(self, x) -> bool:
        """Whether x satisfies every defining inequality to within MEMBERSHIP_TOL."""
        return bool(self._contains(_vec(x, self.dim)))

    def _contains(self, x: np.ndarray):
        """Membership of a point, or of each row of a (..., dim) array: one
        product with the rows gives A x <= b + MEMBERSHIP_TOL, then each
        ellipsoid |M x - d| <= r + MEMBERSHIP_TOL.  _apply rounds each row as
        if it were alone, so a row's answer is its point's."""
        ellipsoids, A, b, _ = self._parts
        if not (b.size or ellipsoids):  # the whole space: NaN is no member
            return ~np.any(np.isnan(x), axis=-1)
        if x.shape[:-1] == (1,):  # the loop's one row, as a point: no broadcast, no reduction
            member = np.array([all((_apply(A, x[0]) <= self._upper).tolist())])
        else:
            member = (_apply(A, x) <= self._upper).all(axis=-1)
        for M, _, d, r in ellipsoids:
            member &= _row_norms(_apply(M, x) - d) <= r + MEMBERSHIP_TOL
        return member

    def margin(self, x):
        """Smallest slack over the defining inequalities, negative outside.

        Linear rows are normalized by their Euclidean row norm so the value
        reads as a distance-like margin to the nearest boundary; an ellipsoid
        gives r - |M x - d|.  For a (..., dim) batch, the array of the rows'
        margins.  The whole space reads +inf at finite points and NaN
        elsewhere, as a box with only infinite bounds does.
        """
        x = _points(x, self.dim)
        ellipsoids, A, b, norms = self._parts
        if not (b.size or ellipsoids):
            margin = np.min(np.inf - np.abs(x), axis=-1)
        else:
            margin = ((b - _apply(A, x)) / norms).min(axis=-1) if b.size else np.inf
            for M, _, d, r in ellipsoids:
                margin = np.minimum(margin, r - _norm(_apply(M, x) - d))
        return float(margin) if x.ndim == 1 else margin

    def project(self, metric: Metric, x, warm=None) -> ProjectionResult:
        """Exact projection of a finite x in the metric norm from warm, that of an earlier
        result on this set: _project_rows with no ellipsoid, _project_curved with one."""
        if metric.dim != self.dim:
            raise ValueError("metric dimension does not match set dimension")
        x = _vec(x, self.dim)
        if not all(map(math.isfinite, x.tolist())):
            raise ValueError(f"point to project must be finite; got {x}")
        if self._parts[0]:
            return _project_curved(self, metric, x, warm)
        return _project_rows(self, self._row_factors(metric), x, warm)

    def _active_normals(self, x: np.ndarray) -> np.ndarray:
        """Outward normals, one per row, of the constraints tight at x: the
        rows whose normalized slack is within MEMBERSHIP_TOL, then M^T (M x - d)
        of each ellipsoid whose slack is."""
        ellipsoids, A, b, norms = self._parts
        normals = [A[(b - A @ x) / norms <= MEMBERSHIP_TOL]]
        for M, _, d, r in ellipsoids:
            out = M @ x - d
            if r - _norm(out) <= MEMBERSHIP_TOL:
                normals.append((M.T @ out)[None, :])
        return np.vstack(normals)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (lower, upper) enclosing the set; entries may be inf.

        Each ellipsoid {v : |M v - d| <= r} spans (M^{-1} d)_i +- r |row i of
        M^{-1}| along axis i, exactly.  On the rows (A, b), y >= 0 with
        A^T y = +-e_i, one NNLS, gives +-v_i <= y.b by weak duality (Boyd &
        Vandenberghe, Convex Optimization, 2004, sec. 5.2); a nonzero residual
        puts +-e_i outside the rows' cone, and the rows are unbounded along
        it.  NNLS reads 0 once its columns span the rows, and a y that misses
        +-e_i by delta = |A^T y -+ e_i|_inf bounds +-v_i only to within
        delta |v|_1, far off on a far set: y is kept where delta <= 1e-12, and
        elsewhere that side reads inf too.  Exact on boxes, enclosing
        elsewhere.  Raises ValueError if the rows are empty, or if an
        ellipsoid's interval misses the others' by more than MEMBERSHIP_TOL
        along an axis.
        """
        lower, upper = self._bbox
        return lower.copy(), upper.copy()

    @cached_property
    def _bbox(self):
        ellipsoids, A, b, _ = self._parts
        top = np.full((2, self.dim), np.inf)  # max of v_i and of -v_i over the set
        for M, Minv, d, r in ellipsoids:
            for i, row in enumerate(Minv):
                mid, reach = row @ d, r * _norm(row)
                top[:, i] = np.minimum(top[:, i], [mid + reach, reach - mid])
        if b.size:
            Polyhedron(A, b)  # rejects an empty set
            for i, e in enumerate(np.eye(self.dim)):
                for side, c in enumerate((e, -e)):
                    y, residual = _nnls(A.T, c)
                    if residual == 0.0 and np.abs(A.T @ y - c).max() <= 1e-12:
                        top[side, i] = min(top[side, i], y @ b)
        if ellipsoids and np.any(top[0] + top[1] < -MEMBERSHIP_TOL):
            raise ValueError("the set is empty: an ellipsoid misses its other constraints")
        return -top[1], top[0]

    def _row_factors(self, metric: Metric):
        """The factors _project_rows takes of the set's own rows in metric P = L L^T.

        -L^{-1} A^T, L the Cholesky factor, P^{-1} A^T, the Gram matrix A P^{-1} A^T
        (_project_curved forms these three in its own metrics), the rows and b and
        |b| over the row norms |a_i|, and the NNLS target (0, ..., 0, 1), kept for the
        last metric used; the entry holds that metric itself, so no other metric reads it.
        """
        if self._factors is None or self._factors[0] is not metric:
            _, A, b, _ = self._parts
            Pinv_AT, norms = metric.solve(A.T), _norm(A)
            self._factors = (metric, -np.linalg.solve(metric._chol, A.T), Pinv_AT,
                             A @ Pinv_AT, A / norms[:, None], b / norms, np.abs(b) / norms,
                             np.r_[np.zeros(self.dim), 1.0])
        return self._factors[1:]


class Box(ConvexSet):
    """Axis-aligned box; infinite bounds are allowed."""

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("box bounds must not be NaN")
        if np.any(lower > upper):
            raise ValueError("box is empty: a lower bound exceeds its upper bound")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise ValueError("box is empty: a lower bound of +inf or an upper bound of -inf")
        self.lower, self.upper = _read_only(lower, upper)
        self.dim = int(lower.size)
        # e_0, -e_0, e_1, -e_1, ... over the finite bounds; 0.0 - v, not -v,
        # keeps zeros +0.0, as x - lower's slack is at x = +0.0 on a zero bound
        eye = np.eye(self.dim)
        rows = np.stack([eye, 0.0 - eye], axis=1).reshape(-1, self.dim)
        rhs = np.stack([self.upper, 0.0 - self.lower], axis=1).ravel()
        finite = np.isfinite(rhs)
        self._describe((), rows[finite], rhs[finite], np.ones(np.count_nonzero(finite)))


class Halfspace(ConvexSet):
    """{x : a.x <= b} with a != 0."""

    def __init__(self, normal, offset):
        a = np.atleast_1d(np.asarray(normal, dtype=float))
        norm = _norm(a) if a.ndim == 1 else 0.0
        if not (np.all(np.isfinite(a)) and norm > 0.0):
            raise ValueError("halfspace normal must be a finite nonzero vector")
        self.b = float(offset)
        if not math.isfinite(self.b):
            raise ValueError("halfspace offset must be finite")
        (self.a,) = _read_only(a)
        self.dim = int(a.size)
        self._describe((), a[None, :], [self.b], [norm])


class Ball(ConvexSet):
    """Euclidean ball {x : |x - center| <= radius}: one ellipsoid, M = I."""

    def __init__(self, center, radius):
        c = np.atleast_1d(np.asarray(center, dtype=float))
        r = float(radius)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("ball center must be a finite vector")
        if not (r > 0.0 and np.isfinite(r)):
            raise ValueError("ball radius must be positive and finite")
        (self.center,) = _read_only(c)
        self.radius = r
        self.dim = int(c.size)
        eye = np.eye(self.dim)
        self._describe([(eye, eye, c, r)], np.empty((0, self.dim)), [], [])

    project = ConvexSet.project  # in the class's own namespace, where per-class tracing looks


class Polyhedron(ConvexSet):
    """{x : A x <= b}; construction rejects the set as empty exactly where the
    origin's projection fails."""

    def __init__(self, A, b):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
            raise ValueError("polyhedron rows and offsets have mismatched shapes")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("polyhedron data must be finite")
        norms = _norm(A)
        if np.any(norms == 0.0):
            raise ValueError("polyhedron has a zero row")
        self.A, self.b = _read_only(A, b)
        self.dim = int(A.shape[1])
        self._describe((), A, b, norms)
        try:
            _project_rows(self, self._row_factors(Metric.identity(self.dim)), np.zeros(self.dim))
        except ProjectionError:
            raise ValueError("polyhedron is empty") from None


class Intersection(ConvexSet):
    """Intersection of convex sets of a common dimension: its members' ellipsoids,
    one at most, and rows stacked in order.  A member intersection stacks its
    own members' parts, so a nested intersection has the parts of its flat form."""

    def __init__(self, sets):
        self.sets = tuple(sets)
        if not self.sets:
            raise ValueError("intersection needs at least one set")
        if len({s.dim for s in self.sets}) != 1:
            raise ValueError("intersection components have mismatched dimensions")
        self.dim = self.sets[0].dim
        ellipsoids, A, b, norms = zip(*(s._parts for s in self.sets))
        if len(ellipsoids := sum(ellipsoids, ())) > 1:  # which no projection engine takes
            raise ValueError("an intersection projects with at most one non-polyhedral member")
        self._describe(ellipsoids, np.vstack(A), np.concatenate(b), np.concatenate(norms))

    project = ConvexSet.project


class LinearPreimage(ConvexSet):
    """{x : K x in inner} for a square invertible K.

    Its description maps the inner one once: rows A as A K, with the inner
    row norms, and an ellipsoid |M u - d| <= r as |M K x - d| <= r.
    """

    def __init__(self, K, inner: ConvexSet):
        K = np.atleast_2d(np.array(K, dtype=float))  # a copy BLAS reads as it is, as in LTIPlant
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError("map K must be square (non-square maps are not supported)")
        if K.shape[0] != inner.dim:
            raise ValueError("map K does not match the dimension of the set it maps into")
        if not np.all(np.isfinite(K)):
            raise ValueError("map K must be finite")
        if np.linalg.cond(K) > 1e12:
            raise ValueError("map K is singular or near-singular")
        K.flags.writeable = False
        self.K, self.inner, self.dim = K, inner, int(K.shape[1])
        ellipsoids, A, b, norms = inner._parts
        self._describe([(M @ K, np.linalg.inv(K) @ Minv, d, r) for M, Minv, d, r in ellipsoids],
                       A @ K, b, norms)

    project = ConvexSet.project


# ---------------------------------------------------------------------------
# projection engines

def _nnls(E: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, float]:
    """(u, |E u - f|) with u >= 0 minimizing |E u - f|, by Lawson and Hanson's
    active-set method (Solving Least Squares Problems, 1974, ch. 23).

    A column enters where the gradient E^T (f - E u) is largest, unless it is
    dependent on the entered ones to rounding (their 0.01 test) or would enter
    with a nonpositive coefficient; a coefficient that the least-squares step
    drives to zero leaves.  As in scipy.optimize.nnls, 3 n inner steps at most,
    and the residual is reported as 0 once the entered columns span E's rows;
    also once they fit f to 10 eps |f|, where the gradient is rounding noise
    that would cycle columns in and out.
    """
    rows, cols = E.shape
    u, S, steps = np.zeros(cols), [], 0
    floor = 10.0 * np.finfo(float).eps * float(_norm(f))
    while len(S) < min(rows, cols):
        r = f - E @ u
        if S and _norm(r) <= floor:
            return u, 0.0
        w = E.T @ r
        w[S] = 0.0
        while True:
            j = int(np.argmax(w))
            if w[j] <= 0.0:
                return u, float(_norm(r))
            Q, R = np.linalg.qr(E[:, S + [j]])
            inside = float(_norm(R[:-1, -1]))
            if inside + 0.01 * abs(R[-1, -1]) > inside:
                z = np.linalg.solve(R, Q.T @ f)
                if z[-1] > 0.0:
                    break
            w[j] = 0.0
        S.append(j)
        while True:
            steps += 1
            if steps > 3 * cols:
                raise RuntimeError("NNLS reached its 3n iteration limit")
            if z.min() > 0.0:
                break
            # step from u toward z until the first coefficient reaches zero
            v, out = u[S], z <= 0.0
            ratio = v[out] / (v[out] - z[out])
            v += ratio.min() * (z - v)
            v[np.flatnonzero(out)[ratio.argmin()]] = 0.0
            S = [i for i, vi in zip(S, v) if vi > 0.0]
            u[:] = 0.0
            u[S] = v[v > 0.0]
            Q, R = np.linalg.qr(E[:, S])
            z = np.linalg.solve(R, Q.T @ f)
        u[:] = 0.0
        u[S] = z
    return u, 0.0 if len(S) == rows else float(_norm(E @ u - f))


def _project_rows(set_: ConvexSet, factors: tuple, x: np.ndarray, warm=None) -> ProjectionResult:
    """Exact projection onto the set's own rows {v : A v <= b} in the norm of a
    metric P, given by the rows' factors in P (the tuple _row_factors returns).

    With P = L L^T, L any square root, and z = L^T (v - x) this is the least-distance program
    min |z| s.t. G z >= h, G = -A L^{-T}, h = A x - b, which NNLS solves through its dual
    (Lawson & Hanson 1974, ch. 23) with each row of G and h over the norm of G's row, then h
    over its largest entry: a positive scaling of a constraint, then of z, which moves no
    active row and keeps b from rounding away in an h that dwarfs G.  The point is the
    equality-constrained projection onto the active rows, from the raw rows.  It is kept if a_i.v - b_i
    <= 1e-12 s_i on every row, s_i = |b_i| + |a_i| (|x| + |v|) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 3): the polish
    cancels a far x down to a near v, so it rounds with |x| too.  Where
    rounding leaves active the wrong one of two nearly tight rows, a miss
    under 1e-8 s_i is projected again from the point, under the same |x|;
    any other miss finds the set empty.

    The warm start, (S, Gram matrix, Gram block, P^{-1} A_S^T) of the rows S an earlier
    NNLS left active, is tried first (online active-set QP keeps one per trajectory:
    Ferreau, Bock & Diehl, IJRNC 18(8), 2008), its blocks cut again for another Gram
    matrix, and kept only if its point passes the rule, every multiplier is above WARM_MARGIN
    times the largest and every other row is short of its bound by WARM_MARGIN s_i: then
    NNLS leaves the same rows active and the polish gives the same bits.  The result carries
    the warm start kept, or the last NNLS solve's; products take ndarray.dot, @'s gemv
    without its set-up.
    """
    _, A, b, _ = set_._parts
    h = A.dot(x) - b  # has the sign of A x - b, as a float difference does
    if all(h <= 0.0):  # True with no rows
        return ProjectionResult(x.copy(), warm=warm)
    neg_whitened, Pinv_AT, gram, unit_A, unit_b, unit_abs_b, target = factors
    # hypot, not sqrt(x.x), which overflows past |x| ~ 1e154 and passes every row
    x_norm = math.hypot(*x.tolist()) or math.ulp(0.0)  # never 0, so no row reads 0 / 0

    def cut(S):  # the warm start of rows S; one row divides by its Gram entry, as solve rounds
        return S, gram, gram[S[0], S[0]] if S.size == 1 else gram[S[:, None], S], Pinv_AT[:, S]

    def polish(blocks):  # (point, multipliers, (A point - b) / s) of the projection onto rows S
        S, _, gram_S, Pinv_AT_S = blocks
        lam = h[S] / gram_S if S.size == 1 else np.linalg.solve(gram_S, h[S])
        v = x - Pinv_AT_S.dot(lam)
        v_norm = math.hypot(*v.tolist())
        return v, lam, (unit_A.dot(v) - unit_b) / (unit_abs_b + (x_norm + v_norm))

    if warm is not None:
        if warm[1] is not gram:
            warm = cut(warm[0])
        try:
            point, lam, miss = polish(warm)
        except np.linalg.LinAlgError:
            pass
        else:
            # every entry is compared, so a NaN anywhere rejects, as ndarray max / min do
            lam, miss = lam.tolist(), miss.tolist()
            floor = WARM_MARGIN * max(lam)
            if all(m <= 1e-12 for m in miss) and all(v > floor for v in lam):
                for i in warm[0].tolist():
                    miss[i] = -math.inf
                if all(m < -WARM_MARGIN for m in miss):
                    return ProjectionResult(point, warm=warm)
    norms = _norm(neg_whitened.T)  # of G's rows, which scale the dual
    unit_G = neg_whitened / norms
    for _ in range(2):  # a near miss gets a second pass, from its polished point
        unit_h = h / norms
        u = _nnls(np.concatenate([unit_G, (unit_h / unit_h.max())[None, :]]), target)[0]
        S = (u > 0.0).nonzero()[0]
        try:
            point, _, miss = polish(blocks := cut(S))
        except np.linalg.LinAlgError:
            break
        if miss.max() <= 1e-12:
            return ProjectionResult(point, warm=blocks if S.size else None)
        if not miss.max() <= 1e-8:
            break
        x, h = point, A.dot(point) - b
    raise ProjectionError("least-distance projection found no feasible point; "
                          "the set may be empty")


def _project_curved(set_: ConvexSet, metric: Metric, x, warm=None) -> ProjectionResult:
    """Exact projection onto a set of one ellipsoid E = {v : |M v - d| <= r}, given as
    (M, M^{-1}, d, r), and its own rows {v : A v <= b}, maybe none; a ball is E with M = I.

    With c = M^{-1} d, S = M^{-T} P M^{-1} = Q diag(lam) Q^T and E's multiplier nu >= 0,
    v(nu) projects c + M^{-1} y, (S + nu I) y = M^{-T} P (x - c), onto the rows in the
    metric P + nu M^T M = L L^T, L = M^T Q diag(s)^{-1/2}, s = 1/(lam + nu) (More, Optim.
    Methods Softw. 2, 1993): with B = Q^T M^{-T} A^T formed once, their row factors are
    -s^{1/2} B, M^{-1} Q s B and B^T s B, s scaling B's rows.  |M (v(nu) - c)| does not
    increase with nu (Boyd & Vandenberghe, Convex Optimization, 2004, ch. 5), so one
    bracketed root gives nu.  As nu grows v(nu) tends to p, the projection of c onto
    the rows in the metric M^T M (s = 1): the set is empty when |M (p - c)| > r and the
    point p when = r.  False position with the Illinois rule (Dowell & Jarratt, BIT 11,
    1971) finds the root of 1/r - 1/|M (v(nu) - c)|, nearly linear in nu (Hebden 1973;
    More & Sorensen, SIAM J. Sci. Stat. Comput. 4(3), 1983).  Each A.size guard keeps
    a lone ellipsoid from forming or projecting on empty rows.
    """
    ((M, Minv, d, r),), A, _, _ = set_._parts
    c, P = Minv @ d, metric.P

    def onto_rows(factors, v):  # the rows' projection of v from the last one's warm start
        nonlocal warm
        result = _project_rows(set_, factors, v, warm)
        warm = result.warm
        return result.point

    point = onto_rows(set_._row_factors(metric), x) if A.size else x
    if (y_norm := float(_norm(M @ (point - c)))) <= r:
        return ProjectionResult(point, warm=warm)
    evals, evecs = np.linalg.eigh(Minv.T @ P @ Minv)
    coef = evecs.T @ (rhs := Minv.T @ (P @ (x - c)))
    nearest = c  # p, which is c itself with no rows
    if A.size:
        B, unit = evecs.T @ (Minv.T @ A.T), set_._row_factors(metric)[3:]

        def rows(s):  # the rows' factors in P + nu M^T M, s = 1/(lam + nu)
            sB = s[:, None] * B
            return (-np.sqrt(s)[:, None] * B, Minv @ (evecs @ sB), B.T @ sB, *unit)

        nearest = onto_rows(rows(np.ones(x.size)), c)
        dist = float(_row_norms(M @ (nearest - c)))
        if dist > r + MEMBERSHIP_TOL:
            raise ProjectionError("the ball misses the other members; the intersection is empty")
        if dist >= r:
            return ProjectionResult(nearest, warm=warm)

    def trial(nu):  # (1/r - 1/|M (v(nu) - c)|, v(nu)); a v(nu) on the center reads as inside
        v = c + Minv @ (evecs @ (coef / (evals + nu)))
        if A.size:
            v = onto_rows(rows(1.0 / (evals + nu)), v)
        dist = float(_row_norms(M @ (v - c)))
        return (1.0 / r - 1.0 / dist if dist > 0.0 else -1.0 / r), v

    # with no rows, |y| <= |M^{-T} P (x - c)| / (lmin + nu) < r already at the first hi
    hi = max(float(_norm(rhs)) / r, float(evals[-1]))
    while (high := trial(hi))[0] > 0.0:
        if hi * np.finfo(float).eps > evals[-1]:
            return ProjectionResult(nearest, warm=warm)  # S + nu I rounds to nu I: p is the point
        hi *= 2.0
    g_lo, tol = 1.0 / r - 1.0 / y_norm, 1e-13 * (1.0 + hi)
    ends, last = [[0.0, g_lo, point], [hi, *high]], None  # (nu, g, v) outside, then inside
    for k in range(200):
        (lo, g_lo, _), (hi, g_hi, v_hi) = ends
        if g_hi == 0.0 or hi - lo <= tol:
            return ProjectionResult(v_hi, k, warm=warm)
        nu = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        g, v = trial(nu)
        j = int(g <= 0.0)  # the end that nu replaces
        if j == last:  # the Illinois rule: an end kept twice running has its value halved
            ends[1 - j][1] /= 2.0
        ends[j], last = [nu, g, v], j
    raise RuntimeError("the ball's multiplier was not found in 200 steps")


# ---------------------------------------------------------------------------
# sampling and normal-cone diagnostics

def sample_points(set_: ConvexSet, count: int, rng=None) -> np.ndarray:
    """Uniform rejection samples from a bounded set, drawn in its bounding box.

    Raises ValueError for unbounded sets; intersect with a finite Box to
    supply a bounded superset in that case.  RuntimeError once 1000 * count
    draws leave fewer than count points.
    """
    if count <= 0:
        raise ValueError("sample count must be positive")
    rng = np.random.default_rng(rng)
    lower, upper = set_.bounding_box()
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError(
            "cannot sample from an unbounded set; intersect with a bounded Box first")
    # the bounds of a flat set may cross by rounding; both mean no volume
    flat = np.flatnonzero(upper - lower <= 0.0)
    if flat.size:
        raise ValueError(f"cannot sample: the set has zero width along coordinate {flat[0]}")
    points: list[np.ndarray] = []
    attempts = 0
    batch = max(4 * count, 64)
    while len(points) < count:
        draws = rng.uniform(lower, upper, size=(batch, set_.dim))
        points.extend(draws[set_._contains(draws)][:count - len(points)])
        attempts += batch
        if attempts > 1000 * count:
            raise RuntimeError("rejection sampling failed; the set may have negligible volume")
    return np.array(points)


def normal_cone_residual(set_: ConvexSet, metric: Metric, xbar, direction) -> float:
    """P-distance from direction d to the normal cone of the set at xbar.

    r = min over lambda >= 0 of |d - P^{-1} N^T lambda|_P, N the outward
    normals of the constraints tight at xbar (Facchinei & Pang, Finite-
    Dimensional Variational Inequalities, 2003, ch. 6): one NNLS on the
    whitened columns L^{-1} N^T against L^T d, with P = L L^T.  Zero when d
    lies in the cone (xbar then solves the variational inequality whose
    operator value at xbar is -d), |d|_P at an interior point, and finite on
    an unbounded set too.
    """
    xbar = _vec(xbar, set_.dim)
    if not set_.contains(xbar):
        raise ValueError("xbar is not a member of the set")
    normals = set_._active_normals(xbar)
    return _nnls(np.linalg.solve(metric._chol, normals.T),
                 metric.whiten(_vec(direction, set_.dim)))[1]
