"""F_I curves for discrete channels.

Closed forms for the erasure channel and the BSC (via Mrs. Gerber's lemma),
a deterministic Lagrangian solver for the concavified curve of a general
kernel (Witsenhausen-Wyner lower convex envelopes), and a structural checker.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .channels import DMCKernel, _alphabet_size, dmc_capacity
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
    by simplex, so a simplex is a segment of `coords` and `gap` starting at
    `starts`, with its vertices in `verts`.  A split simplex loses its lowest
    point, so the loop ends within len(points) rounds.
    """
    nx = len(f_vertices)
    best, coupling = 0.0, np.full((1, nx), 1.0 / nx)
    coords, gap = points, f - points @ f_vertices
    starts, verts = np.zeros(min(len(points), 1), dtype=np.intp), np.eye(nx)[None]
    while len(starts):
        seg = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(gap)))
        tops, lows = np.maximum.reduceat(gap, starts), np.minimum.reduceat(gap, starts)
        # the first point of each segment reaching its max and its min, as argmax/argmin
        pos = np.arange(len(gap))
        top = np.minimum.reduceat(np.where(gap == tops[seg], pos, len(gap)), starts)
        low = np.minimum.reduceat(np.where(gap == lows[seg], pos, len(gap)), starts)
        k = int(np.argmax(tops))
        if tops[k] > best:
            best, coupling = tops[k], coords[top[k]][:, None] * verts[k]
        depth = -lows
        # a facet of the envelope (nothing below the chord beyond rounding), or pruned
        split = (depth > 1e-13) & (tops + depth > best)
        c, verts, depth = coords[low[split]], verts[split], depth[split]
        parent = np.cumsum(split) - 1
        rest = split[seg]
        rest[low] = False
        coords, gap, seg = coords[rest], gap[rest], parent[seg[rest]]
        # a point joins the child replacing the vertex j that minimises b_j / c_j;
        # there b'_j = b_j / c_j, b'_k = b_k - c_k b'_j, and the chord drops by b'_j depth
        cp = c[seg]
        ratio = np.where(cp > 0, coords / np.where(cp > 0, cp, 1.0), np.inf)
        child = np.argmin(ratio, axis=1)
        share = ratio[np.arange(len(child)), child]
        coords = coords - share[:, None] * cp
        coords[np.arange(len(child)), child] = share
        gap = gap + share * depth[seg]
        # the children, keyed parent * nx + j, are the next round's segments; child j
        # has the parent's vertices with vertex j moved to the split point c @ verts
        key = seg * nx + child
        order = np.argsort(key, kind="stable")
        coords, gap = coords[order], gap[order]
        keys, starts = np.unique(key[order], return_index=True)
        p, j = np.divmod(keys, nx)
        apex = np.matmul(c[:, None], verts)[:, 0]
        verts = verts[p]
        verts[np.arange(len(keys)), j] = apex[p]
    coupling = np.maximum(coupling, 0.0)
    return coupling / coupling.sum()


# a second difference of phi above this on the |X| = 2 lattice line: far beyond
# the ~1e-14 rounding of `_best_split`'s gaps, which then stay about half of it below 0
_CONVEX_MARGIN = 1e-10


def _convex_on_line(f: np.ndarray, f_vertices: np.ndarray) -> bool:
    """Whether |X| = 2 and phi is strictly convex on the lattice line (`f` at
    p_1 = k/n ascending, between e_2 and e_1): then every lattice point is a
    vertex of the lower hull, no lattice coupling has a positive Lagrangian, and
    `_best_split` would split to every point only to return the trivial coupling."""
    if len(f_vertices) != 2:
        return False
    line = np.concatenate([f_vertices[1:], f, f_vertices[:1]])
    return bool(np.all(np.diff(line, 2) > _CONVEX_MARGIN))


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


def fi_dmc_envelope(K: DMCKernel, t_grid, solver_params: dict | None = None) -> Ccurve:
    """Certified lower bound on the concavified F_I curve of a kernel.

    The Lagrangians I(W;Y) - lambda I(W;X) at `n_lambdas` (64) multipliers and
    up to `refinements` (96) bisections are maximized by `_best_split`; the
    upper concave hull of the achieved (I_WX, I_WY) pairs, each re-evaluated
    exactly, anchored at the origin and capped at the lower end of the capacity
    bracket (`dmc_capacity`), is the curve; the meta records both ends.

    No multiplier from 1 on is searched (I(W;Y) <= I(W;X)), nor, for |X| = 2,
    one where `_convex_on_line` proves phi convex on the lattice (lambda above
    eta_KL, the slope of F_I at 0): both take the trivial coupling the search
    would return.  t must be finite and nonnegative.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not np.all(np.diff(t_grid) > 0):
        raise DomainError("t_grid must be increasing")
    if not np.all(t_grid >= 0):
        raise DomainError("t must be nonnegative")
    if not np.all(np.isfinite(t_grid)):
        raise DomainError("t must be finite")
    params = {"n_lambdas": 64, "refinements": 96, **(solver_params or {})}
    Km = K.matrix
    resolution, points = _interior_lattice(Km.shape[0])
    h_x, h_y, h_rows = (-xlogx(a).sum(axis=1) for a in (points, points @ Km, Km))

    def solve(lam: float) -> tuple[float, float]:
        # I(W;Y) <= I(W;X), so from lam = 1 on the trivial coupling is optimal
        if lam >= 1.0:
            return 0.0, 0.0
        f = h_y - lam * h_x
        # above the slope of F_I at 0 (eta_KL) phi is convex: `_best_split`'s trivial answer
        q = np.full((1, 2), 0.5) if _convex_on_line(f, h_rows) else _best_split(points, f, h_rows)
        return mi_joint(q), mi_joint(q @ Km)

    lambdas = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, params["n_lambdas"] - 1)])
    solved = [(lam, solve(lam)) for lam in lambdas]
    # adaptive refinement: bisect multipliers whose tangent points are far
    # apart in I_WX, otherwise the hull sags between them
    for _ in range(params["refinements"]):
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
    ts = curve.arguments
    vs = curve.values
    if len(ts) < 3:
        raise DomainError("need at least 3 curve points")
    failures = []
    i0 = int(np.argmin(np.abs(ts)))
    if abs(ts[i0]) < tol and abs(vs[i0]) > tol:
        failures.append(("zero_at_zero", (float(ts[i0]), float(vs[i0]))))
    for i in range(len(ts) - 1):
        if vs[i + 1] < vs[i] - tol:
            failures.append(("nondecreasing", (float(ts[i]), float(ts[i + 1]))))
    for t, v in zip(ts, vs):
        if v > t + tol:
            failures.append(("below_diagonal", (float(t), float(v))))
    ratio_prev = None
    for t, v in zip(ts, vs):
        if t <= tol:
            continue
        r = v / t
        if ratio_prev is not None and r > ratio_prev + tol:
            failures.append(("ratio_nonincreasing", (float(t), float(r))))
        ratio_prev = r
    # subadditivity on grid pairs whose sum lands back on the grid
    lookup = {round(t, 9): v for t, v in zip(ts, vs)}
    for i in range(len(ts)):
        for j in range(i, len(ts)):
            key = round(ts[i] + ts[j], 9)
            if key in lookup and lookup[key] > vs[i] + vs[j] + tol:
                failures.append(("subadditive", (float(ts[i]), float(ts[j]))))
    return {"passed": not failures, "failures": failures}
