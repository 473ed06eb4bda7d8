"""F_I curves for discrete channels.

Closed forms for the erasure channel and the BSC (via Mrs. Gerber's lemma),
a Lagrangian alternating-maximization optimizer for the concavified curve of
a general kernel, and a structural property checker.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import DMCKernel, dmc_capacity
from .core_prob import LOG2, Ccurve, binary_entropy, binary_entropy_inv, mi_joint
from .errors import DomainError


def fi_erasure(t: float, alpha: float, alphabet_size: int) -> float:
    if not t >= 0:
        raise DomainError("t must be nonnegative")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")
    if alphabet_size < 2:
        raise DomainError("alphabet_size must be >= 2")
    return (1.0 - alpha) * min(t, math.log(alphabet_size))


def _star(p: float, q: float) -> float:
    return p * (1.0 - q) + q * (1.0 - p)


def mrs_gerber(x: float, delta: float) -> float:
    """h_b(delta * h_b^{-1}(x)); convex and nondecreasing in x."""
    if not 0.0 <= x <= LOG2 + 1e-12:
        raise DomainError("x must lie in [0, log 2]")
    if not 0.0 <= delta <= 0.5:
        raise DomainError("delta must lie in [0, 1/2]")
    p = binary_entropy_inv(min(x, LOG2))
    return binary_entropy(_star(delta, p))


def fi_bsc(t: float, delta: float) -> float:
    """Exact F_I curve of the binary symmetric channel."""
    if not t >= 0:
        raise DomainError("t must be nonnegative")
    if not 0.0 <= delta <= 0.5:
        raise DomainError("delta must lie in [0, 1/2]")
    if t == 0.0:
        return 0.0
    residual = max(LOG2 - t, 0.0)
    return max(LOG2 - mrs_gerber(residual, delta), 0.0)


def fi_fixed_marginal_bsc(x: float, p: float, delta: float) -> float:
    """F_I curve of the BSC at a fixed input marginal Bernoulli(p)."""
    if not 0.0 <= p <= 0.5:
        raise DomainError("p must lie in [0, 1/2]")
    if not 0.0 <= delta <= 0.5:
        raise DomainError("delta must lie in [0, 1/2]")
    hp = binary_entropy(p)
    if not 0 <= x <= hp + 1e-12:
        raise DomainError("x must lie in [0, h_b(p)]")
    x = min(x, hp)
    return binary_entropy(_star(p, delta)) - mrs_gerber(hp - x, delta)


# ---------------------------------------------------------------------------
# general kernels: Lagrangian envelope optimizer
# ---------------------------------------------------------------------------

def _objective(q: np.ndarray, K: np.ndarray, lam: float):
    qwy = q @ K
    i_wx = mi_joint(q)
    i_wy = mi_joint(qwy)
    return i_wy - lam * i_wx, i_wx, i_wy


def _gradient(q: np.ndarray, K: np.ndarray, lam: float) -> np.ndarray:
    eps = 1e-300
    qw = np.maximum(q.sum(axis=1, keepdims=True), eps)
    qx = np.maximum(q.sum(axis=0, keepdims=True), eps)
    qwy = q @ K
    py = np.maximum(qwy.sum(axis=0, keepdims=True), eps)
    py_given_w = np.maximum(qwy / qw, eps)
    g_y = np.log(py_given_w / py) @ K.T
    g_x = np.log(np.maximum(q, eps) / (qw * qx))
    return g_y - lam * g_x


def _maximize_lagrangian(K: np.ndarray, lam: float, q0: np.ndarray,
                         iters: int = 400) -> tuple:
    """Exponentiated-gradient ascent on the joint simplex."""
    q = q0.copy()
    best, _, _ = _objective(q, K, lam)
    step = 0.5
    for _ in range(iters):
        g = _gradient(q, K, lam)
        g = g - g.max()
        cand = q * np.exp(step * g)
        cand /= cand.sum()
        val, _, _ = _objective(cand, K, lam)
        if val > best + 1e-12:
            q, best = cand, val
            step = min(step * 1.2, 4.0)
        else:
            # keep previous iterate on negligible improvement
            step *= 0.5
            if step < 1e-9:
                break
    _, i_wx, i_wy = _objective(q, K, lam)
    return i_wx, i_wy


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

    A sweep of Lagrangians I(W;Y) - lambda I(W;X) is maximized over joint
    distributions on W x X by exponentiated-gradient ascent with random
    restarts; the upper concave hull of the achieved (I_WX, I_WY) pairs,
    anchored at the origin and capped at capacity, is the returned curve.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not np.all(np.diff(t_grid) > 0):
        raise DomainError("t_grid must be increasing")
    params = dict(restarts=32, n_lambdas=64, iters=400, seed=0, w_size=None)
    params.update(solver_params or {})
    nx = K.matrix.shape[0]
    nw = params["w_size"] or nx
    rng = np.random.default_rng(params["seed"])

    no_improve = 0

    def solve(lam: float) -> tuple[float, float]:
        nonlocal no_improve
        best_pair = None
        for _ in range(params["restarts"]):
            q0 = rng.dirichlet(np.ones(nw * nx)).reshape(nw, nx)
            i_wx, i_wy = _maximize_lagrangian(K.matrix, lam, q0, params["iters"])
            if best_pair is None or i_wy - lam * i_wx > best_pair[1] - lam * best_pair[0]:
                best_pair = (i_wx, i_wy)
            else:
                no_improve += 1
        return best_pair

    lambdas = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, params["n_lambdas"] - 1)])
    solved = [(lam, solve(lam)) for lam in lambdas]
    # adaptive refinement: bisect multipliers whose tangent points are far
    # apart in I_WX, otherwise the hull sags between them
    for _ in range(params.get("refinements", 96)):
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
    hull = _upper_concave_hull(pairs)
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    vals = np.interp(t_grid, hx, hy, left=0.0, right=hy[-1])
    vals = np.minimum(vals, np.minimum(t_grid, cap))
    vals = np.maximum(vals, 0.0)
    meta = {"capacity": cap, "w_size": nw, "restarts": params["restarts"],
            "no_improve_restarts": no_improve, "seed": params["seed"]}
    return Ccurve(tuple(zip(t_grid.tolist(), vals.tolist())), meta)


def fi_properties_check(curve: Ccurve, tol: float = 1e-6) -> dict:
    """Structural checks a data-processing curve must satisfy.

    Verifies F(0)=0, monotonicity, F(t) <= t, nonincreasing ratio F(t)/t and
    subadditivity on grid pairs.  Returns {"passed": bool, "failures": [...]},
    each failure naming the check and the offending pair.
    """
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
