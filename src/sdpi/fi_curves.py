"""F_I curves for discrete channels.

Closed forms for the erasure channel and the BSC (via Mrs. Gerber's lemma),
a deterministic Lagrangian solver for the concavified curve of a general
kernel (Witsenhausen-Wyner lower convex envelopes), and a structural checker.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .channels import DMCKernel, _alphabet_size, dmc_capacity
from .contraction import eta_kl_dmc
from .core_prob import (LOG2, Ccurve, binary_entropy, binary_entropy_inv, mi_joint,
                        simplex_lattice, xlogx)
from .errors import DomainError


def fi_erasure(t: float, alpha: float, alphabet_size: int) -> float:
    if not 0 <= t < math.inf:
        raise DomainError("t must be finite" if t == math.inf else "t must be nonnegative")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")
    return (1.0 - alpha) * min(t, math.log(_alphabet_size(alphabet_size)))


def mrs_gerber(x: float, delta: float) -> float:
    """h_b(delta * h_b^{-1}(x)); convex and nondecreasing in x."""
    if not 0.0 <= x <= LOG2 + 1e-12:
        raise DomainError("x must lie in [0, log 2]")
    if not 0.0 <= delta <= 0.5:
        raise DomainError("delta must lie in [0, 1/2]")
    p = binary_entropy_inv(min(x, LOG2))
    return binary_entropy(delta * (1.0 - p) + p * (1.0 - delta))


def fi_bsc(t: float, delta: float) -> float:
    """Exact F_I curve of the binary symmetric channel."""
    if not 0 <= t < math.inf:
        raise DomainError("t must be finite" if t == math.inf else "t must be nonnegative")
    if not 0.0 <= delta <= 0.5:
        raise DomainError("delta must lie in [0, 1/2]")
    if t == 0.0:
        return 0.0
    residual = max(LOG2 - t, 0.0)
    return max(LOG2 - mrs_gerber(residual, delta), 0.0)


# ---------------------------------------------------------------------------
# general kernels: Lagrangian envelope solver
# ---------------------------------------------------------------------------

# input marginals of the envelope solver: the finest simplex lattice with at most
# this many points (resolution 1000 for |X| = 2, 43 for 3, 16 for 4, 1 from 45),
# plus the uniform marginal where the lattice misses it
_LATTICE_POINTS = 1001


@functools.lru_cache(maxsize=8)
def _interior_lattice(nx: int) -> tuple[int, np.ndarray]:
    """Resolution n and the non-vertex lattice points k/n, k in N^nx, sum k = n,
    with the uniform marginal appended when n is not a multiple of nx."""
    n = 1
    while nx > 1 and math.comb(n + nx, nx - 1) <= _LATTICE_POINTS:
        n += 1
    if n < 2:
        points = np.zeros((0, nx))
    else:
        k = simplex_lattice(n, nx)
        points = k[k.max(axis=1) < n] / n
        if n % nx:
            points = np.vstack([points, np.full(nx, 1.0 / nx)])
    points.setflags(write=False)
    return n, points


def _trivial_coupling(nx: int) -> np.ndarray:
    """The joint pmf of a constant W with a uniform X: `_best_split`'s answer when
    no coupling has a positive Lagrangian."""
    coupling = np.full((1, nx), 1.0 / nx)
    return coupling / coupling.sum()


def _best_split(points: np.ndarray, f: np.ndarray, f_vertices: np.ndarray) -> np.ndarray:
    """Joint pmf on W x X maximising I(W;Y) - lam I(W;X): the largest gap between
    phi = H(PK) - lam H(P) (`f` at `points`, `f_vertices` at the vertices) and
    its lower convex envelope on the lattice.

    A simplex holds the points inside it with their barycentric coordinates and
    gaps above its chord plane.  A point above a chord is a coupling (W ranges
    over the vertices, weighted by its coordinates) whose Lagrangian is its gap.
    The point furthest below the chord splits the simplex into one child per
    vertex it replaces; no later chord falls below by more than that depth.

    Each round splits every live simplex at once.  The points are kept sorted
    by simplex, so simplex i is the segment of `coords` and `gap` where `seg`
    is i, starting at `starts[i]`, with its vertices in `verts[i]`.  A round
    reads the next `seg` and `starts` off the children's stably sorted keys,
    looks for the first top point only in the segment that beats `best`, and
    ends the loop when no simplex splits.  A split simplex loses its lowest
    point, so the loop ends within len(points) rounds.
    """
    nx = len(f_vertices)
    best, coupling = 0.0, None
    coords, gap = points, f - points @ f_vertices
    seg = np.zeros(len(points), dtype=np.intp)
    starts, verts = np.zeros(min(len(points), 1), dtype=np.intp), np.eye(nx)[None]
    while len(starts):
        tops, lows = np.maximum.reduceat(gap, starts), np.minimum.reduceat(gap, starts)
        k = int(np.argmax(tops))
        if tops[k] > best:
            lo, hi = starts[k], starts[k + 1] if k + 1 < len(starts) else len(gap)
            best, coupling = tops[k], coords[lo + np.argmax(gap[lo:hi])][:, None] * verts[k]
        depth = -lows
        # a facet of the envelope (nothing below the chord beyond rounding), or pruned
        split = (depth > 1e-13) & (tops + depth > best)
        if not split.any():
            break
        # the first point of each segment reaching its min, as argmin
        low = np.minimum.reduceat(np.where(gap == lows[seg], np.arange(len(gap)), len(gap)),
                                  starts)[split]
        c, verts, depth = coords[low], verts[split], depth[split]
        parent = np.cumsum(split) - 1
        rest = split[seg]
        rest[low] = False
        keep = np.flatnonzero(rest)
        coords, gap, seg = coords[keep], gap[keep], parent[seg[keep]]
        # a point joins the child replacing the vertex j that minimises b_j / c_j;
        # there b'_j = b_j / c_j, b'_k = b_k - c_k b'_j, and the chord drops by b'_j depth
        cp = c[seg]
        ratio = np.full(coords.shape, np.inf)
        np.divide(coords, cp, out=ratio, where=cp > 0)
        child = np.argmin(ratio, axis=1)
        at_child = np.arange(0, ratio.size, nx) + child  # flat index of (i, child[i])
        share = np.take(ratio, at_child)
        coords -= share[:, None] * cp
        np.put(coords, at_child, share)
        gap += share * depth[seg]
        # the children, keyed parent * nx + j, are the next round's segments; child j
        # has the parent's vertices with vertex j moved to the split point c @ verts
        key = seg * nx + child
        order = np.argsort(key, kind="stable")
        coords, gap, key = coords[order], gap[order], key[order]
        # each run of equal sorted keys is one child: its first index is its start
        first = np.empty(len(key), dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts, seg = np.flatnonzero(first), np.cumsum(first) - 1
        p, j = np.divmod(key[starts], nx)
        apex = np.matmul(c[:, None], verts)[:, 0]
        verts = verts[p]
        verts[np.arange(len(starts)), j] = apex[p]
    if coupling is None:
        return _trivial_coupling(nx)
    coupling = np.maximum(coupling, 0.0)
    return coupling / coupling.sum()


def _upper_concave_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    pts = sorted(set(points))
    hull: list[tuple[float, float]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) >= (p[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(p)
    # drop trailing points that would make the hull decrease
    out = [hull[0]]
    for p in hull[1:]:
        if p[1] >= out[-1][1] - 1e-15:
            out.append((p[0], max(p[1], out[-1][1])))
    return out


def _solve_in_runs(solve, lambdas) -> list:
    """`solve(lam)` at every multiplier of the increasing `lambdas`, in bisection
    order over their indices: both ends first, then the middle of each index
    interval whose end pairs differ.  An interval whose end pairs are equal gives
    that pair to every multiplier inside it, unsolved.

    Exact: for a fixed coupling the Lagrangian is affine in lambda, so its max
    over couplings M(lambda) is convex, and a coupling attaining M at both ends
    of an interval attains it throughout; any other maximiser there lies on the
    same line, so it has the same (I_WX, I_WY)."""
    pairs = [None] * len(lambdas)
    for i in {0, len(lambdas) - 1}:
        pairs[i] = solve(lambdas[i])
    # a stack, not a recursive closure: that would be a reference cycle holding
    # `solve` and the lattice entropies until the garbage collector runs
    todo = [(0, len(lambdas) - 1)]
    while todo:
        lo, hi = todo.pop()
        if hi - lo < 2:
            continue
        if pairs[lo] == pairs[hi]:
            pairs[lo + 1:hi] = [pairs[lo]] * (hi - lo - 1)
        else:
            mid = (lo + hi) // 2
            pairs[mid] = solve(lambdas[mid])
            todo += [(mid, hi), (lo, mid)]
    return pairs


def fi_dmc_envelope(K: DMCKernel, t_grid, solver_params: dict | None = None) -> Ccurve:
    """Certified lower bound on the concavified F_I curve of a kernel.

    The Lagrangians I(W;Y) - lambda I(W;X) at `n_lambdas` (64, an integer >= 1)
    multipliers and up to `refinements` (96, an integer >= 0) bisections are
    maximized by `_best_split`; other `solver_params` keys are ignored.  The
    first pass takes its multipliers (0 and a geometric grid up to 1) in
    bisection order, and one inside a run of equal (I_WX, I_WY) pairs takes the
    run's pair without a search (`_solve_in_runs`: exact, as the maximum
    Lagrangian is convex in lambda); `n_lambdas` in the meta still counts
    every multiplier.  The
    upper concave hull of the achieved (I_WX, I_WY) pairs, each re-evaluated
    exactly, anchored at the origin and capped at the lower end of the capacity
    bracket (`dmc_capacity`), is the curve; the meta records both ends.

    No multiplier from 1 on is searched (I(W;Y) <= I(W;X)), nor one above the
    upper end of `eta_kl_dmc`'s bracket: phi = H(PK) - lambda H(P) has second
    derivative lambda sum v^2/P - sum (vK)^2/PK along v, so it is strictly
    convex on the simplex exactly when lambda > eta_KL, the slope of F_I at 0.
    Then every lattice point is a vertex of the lower hull, and both take the
    trivial coupling the search would return.  The bracket is computed once
    per kernel, and not at all for one with no interior lattice point.  t must
    be finite and nonnegative.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not np.all(np.diff(t_grid) > 0):
        raise DomainError("t_grid must be increasing")
    if not np.all(t_grid >= 0):
        raise DomainError("t must be nonnegative")
    if not np.all(np.isfinite(t_grid)):
        raise DomainError("t must be finite")
    params = {"n_lambdas": 64, "refinements": 96, **(solver_params or {})}
    n_lambdas, refinements = params["n_lambdas"], params["refinements"]
    if not (isinstance(n_lambdas, numbers.Integral) and n_lambdas >= 1):
        raise DomainError(f"n_lambdas must be an integer >= 1, not {n_lambdas!r}")
    if not (isinstance(refinements, numbers.Integral) and refinements >= 0):
        raise DomainError(f"refinements must be an integer >= 0, not {refinements!r}")
    Km = K.matrix
    nx = Km.shape[0]
    resolution, points = _interior_lattice(nx)
    h_x, h_y, h_rows = (-xlogx(a).sum(axis=1) for a in (points, points @ Km, Km))
    eta_upper = eta_kl_dmc(K).bracket[1] if len(points) else math.inf

    def solve(lam: float) -> tuple[float, float]:
        # I(W;Y) <= I(W;X), so from lam = 1 on the trivial coupling is optimal
        if lam >= 1.0:
            return 0.0, 0.0
        # above eta_KL phi is strictly convex: `_best_split`'s trivial answer
        if lam > eta_upper:
            q = _trivial_coupling(nx)
        else:
            q = _best_split(points, h_y - lam * h_x, h_rows)
        return mi_joint(q), mi_joint(q @ Km)

    lambdas = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, n_lambdas - 1)])
    solved = list(zip(lambdas, _solve_in_runs(solve, lambdas)))
    # adaptive refinement: bisect multipliers whose tangent points are far
    # apart in I_WX, otherwise the hull sags between them
    for _ in range(refinements):
        solved.sort(key=lambda s: s[0])
        # a persistent gap on a vanishing multiplier interval is a genuine
        # discontinuity of the tangent map; stop splitting it
        gaps = [(abs(solved[i][1][0] - solved[i + 1][1][0]), i)
                for i in range(len(solved) - 1)
                if solved[i + 1][0] - solved[i][0] >= 1e-3]
        if not gaps:
            break
        gap, i = max(gaps)
        if gap < 0.02:
            break
        solved.append((0.5 * (solved[i][0] + solved[i + 1][0]),
                       solve(0.5 * (solved[i][0] + solved[i + 1][0]))))
    pairs: list[tuple[float, float]] = [(0.0, 0.0)] + [s[1] for s in solved]

    cap = dmc_capacity(K)
    hx, hy = np.array(_upper_concave_hull(pairs)).T
    vals = np.interp(t_grid, hx, hy, left=0.0, right=hy[-1])
    vals = np.maximum(np.minimum(vals, np.minimum(t_grid, cap.value)), 0.0)
    meta = {"capacity": cap.value, "capacity_upper": cap.bracket[1],
            "capacity_steps": cap.iterations,
            "lattice_resolution": resolution,
            "n_lambdas": len(solved), "no_improve_restarts": 0}
    return Ccurve(tuple(zip(t_grid.tolist(), vals.tolist())), meta)


def fi_properties_check(curve: Ccurve) -> dict:
    """Structural checks a data-processing curve must satisfy, to within 1e-6.

    Verifies F(0)=0, monotonicity, F(t) <= t, nonincreasing ratio F(t)/t and
    subadditivity on grid pairs.  Returns {"passed": bool, "failures": [...]},
    each failure naming the check and the offending pair.
    """
    tol = 1e-6
    if len(curve.points) < 3:
        raise DomainError("need at least 3 curve points")
    ts, vs = curve.arguments, curve.values
    failures = []
    t0, v0 = min(curve.points, key=lambda p: abs(p[0]))
    if abs(t0) < tol and abs(v0) > tol:
        failures.append(("zero_at_zero", (t0, v0)))
    for (t, v), (t_next, v_next) in zip(curve.points, curve.points[1:]):
        if v_next < v - tol:
            failures.append(("nondecreasing", (t, t_next)))
    for t, v in curve.points:
        if v > t + tol:
            failures.append(("below_diagonal", (t, v)))
    ratio_prev = None
    for t, v in curve.points:
        if t <= tol:
            continue
        r = v / t
        if ratio_prev is not None and r > ratio_prev + tol:
            failures.append(("ratio_nonincreasing", (t, r)))
        ratio_prev = r
    # subadditivity on grid pairs (i <= j, row-major) whose sum lands back on the
    # grid, keys rounded to 9 decimals; the keys are nondecreasing, and where two
    # grid points share one the last stands for it
    keys = np.round(ts, 9)
    i, j = np.triu_indices(len(ts))
    sums = np.round(ts[i] + ts[j], 9)
    at = np.maximum(np.searchsorted(keys, sums, side="right") - 1, 0)
    bad = (keys[at] == sums) & (vs[at] > vs[i] + vs[j] + tol)
    failures += [("subadditive", (curve.points[a][0], curve.points[b][0]))
                 for a, b in zip(i[bad].tolist(), j[bad].tolist())]
    return {"passed": not failures, "failures": failures}
