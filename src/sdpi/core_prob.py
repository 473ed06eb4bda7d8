"""Foundational probability objects, special functions and distances.

Everything here is a pure function of immutable inputs.  Distributions come
in two flavors: finitely supported (`DiscretePMF`) and density-on-a-grid
(`GridDensity`).  All information quantities use natural logarithms.  The
simplex lattice has one enumerator, `simplex_lattice` (the brute-force oracle
walks the W-orbits of its couplings instead).  The output entropy of
a finite input plus additive noise, and the exact rule for piecewise-linear
noise densities, live with the noise laws in `channels`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ShapeError

LOG2 = math.log(2.0)

_ATOM_MATCH_TOL = 1e-9
_WEIGHT_SUM_TOL = 1e-12
_GRID_INTEGRAL_TOL = 1e-8


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class _Moments:
    """Moments of a distribution kind, all read from its `masses()`."""

    def mean(self) -> float:
        x, m = self.masses()
        return float(m @ x)

    def var(self) -> float:
        x, m = self.masses()
        return float(m @ (x - self.mean()) ** 2)

    def abs_moment(self, p: float) -> float:
        x, m = self.masses()
        return float(m @ np.abs(x) ** p)


@dataclass(frozen=True)
class DiscretePMF(_Moments):
    """Finitely supported real-valued distribution (sorted atoms + weights)."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 1 or weights.ndim != 1 or atoms.size != weights.size:
            raise ShapeError("atoms and weights must be 1-d arrays of equal length")
        if atoms.size == 0:
            raise DomainError("empty support")
        if not np.all(np.isfinite(atoms)):
            raise DomainError("atoms must be finite")
        if not np.all(np.diff(atoms) > 0):
            raise DomainError("atoms must be strictly increasing")
        if not np.all(weights >= 0):
            raise DomainError("weights must be nonnegative")
        if not abs(weights.sum() - 1.0) <= _WEIGHT_SUM_TOL:
            raise DomainError(f"weights sum to {weights.sum()!r}, not 1")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def from_pairs(pairs) -> "DiscretePMF":
        """Build from unsorted (atom, weight) pairs, merging atoms as `_merge_atoms`."""
        pairs = sorted(pairs)
        a, w = np.array(pairs, dtype=float).reshape(len(pairs), 2).T
        atoms, idx = _merge_atoms(a)
        weights = np.zeros(len(atoms))
        np.add.at(weights, idx, w)
        return DiscretePMF(atoms, weights)

    def cdf(self, x) -> np.ndarray:
        """Right-continuous CDF evaluated at x (scalar or array)."""
        x = np.asarray(x, dtype=float)
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(self.atoms, x, side="right")
        out = np.where(idx > 0, cum[np.minimum(idx, len(cum)) - 1], 0.0)
        return out if out.ndim else float(out)

    def masses(self) -> tuple[np.ndarray, np.ndarray]:
        """(points, masses): the atoms and their weights."""
        return self.atoms, self.weights

    def cdf_points(self) -> np.ndarray:
        """The atoms and their left limits, where the CDF takes all its values."""
        return np.concatenate([self.atoms,
                               self.atoms - 1e-12 * np.maximum(1.0, np.abs(self.atoms))])

    @staticmethod
    def from_csv(text: str) -> "DiscretePMF":
        return DiscretePMF.from_pairs(csv_rows(text, "atom,weight", 2).tolist())


@dataclass(frozen=True)
class GridDensity(_Moments):
    """Density sampled on a uniform grid; trapezoid integral is 1."""

    x_min: float
    x_max: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not 0 < self.step < math.inf:
            raise DomainError("step must be positive")
        n_cells = (self.x_max - self.x_min) / self.step
        if not (math.isfinite(n_cells) and abs(n_cells - round(n_cells)) <= 1e-9):
            raise DomainError("grid span is not a whole number of cells")
        if values.ndim != 1 or values.size != round(n_cells) + 1:
            raise ShapeError("values length does not match the grid")
        if not np.all(values >= 0):
            raise DomainError("density values must be nonnegative")
        integral = float(np.trapezoid(values, dx=self.step))
        if not abs(integral - 1.0) <= _GRID_INTEGRAL_TOL:
            raise DomainError(f"trapezoid integral is {integral!r}, not 1")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @staticmethod
    def from_function(f, x_min: float, x_max: float, step: float) -> "GridDensity":
        """f sampled on the grid, clipped at 0 and renormalized to integrate to 1."""
        n = int(round((x_max - x_min) / step))
        x = x_min + step * np.arange(n + 1)
        v = np.maximum(np.asarray(f(x), dtype=float), 0.0)
        z = np.trapezoid(v, dx=step)
        if not z > 0:
            raise DomainError("function integrates to zero on the grid")
        return GridDensity(x_min, x_min + n * step, step, v / z)

    @property
    def grid(self) -> np.ndarray:
        n = int(round((self.x_max - self.x_min) / self.step))
        return self.x_min + self.step * np.arange(n + 1)

    @property
    def node_weights(self) -> np.ndarray:
        """Trapezoid weights of the grid nodes."""
        w = np.full_like(self.values, self.step)
        w[0] = w[-1] = 0.5 * self.step
        return w

    def masses(self) -> tuple[np.ndarray, np.ndarray]:
        """(points, masses): the grid nodes and their trapezoid masses."""
        return self.grid, self.values * self.node_weights

    def cdf_points(self) -> np.ndarray:
        """The grid nodes, between which the CDF is linear."""
        return self.grid

    def cdf_values(self) -> np.ndarray:
        """Trapezoid cumulative integral at the grid nodes (starts at 0)."""
        v = self.values
        inc = 0.5 * (v[:-1] + v[1:]) * self.step
        return np.concatenate([[0.0], np.cumsum(inc)])

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        c = self.cdf_values()
        out = np.interp(x, self.grid, c, left=0.0, right=c[-1])
        return out if out.ndim else float(out)

    def max_density(self) -> float:
        return float(self.values.max())

    def quantile(self, u) -> np.ndarray:
        """Inverse of the renormalized trapezoid CDF."""
        c = self.cdf_values()
        c = c / c[-1]
        # make strictly increasing for interp
        c = np.maximum.accumulate(c + 1e-15 * np.arange(len(c)))
        return np.interp(u, c, self.grid)

    @staticmethod
    def from_csv(text: str) -> "GridDensity":
        x, v = csv_rows(text, "x,value", 2).T
        if len(x) < 2:
            raise ShapeError("a grid density needs at least two nodes")
        steps = np.diff(x)
        # np.median's bits without its first-call import of numpy.ma
        s = np.sort(steps)
        m = len(s) // 2
        step = float(s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2.0)
        # written so that a nan step (a nan node) fails it too
        if not np.all(np.abs(steps - step) <= 1e-9 * max(1.0, abs(step))):
            raise ShapeError("grid nodes are not uniformly spaced")
        return GridDensity(float(x[0]), float(x[-1]), step, v)


Distribution = DiscretePMF | GridDensity


def _merge_atoms(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points of sorted atoms a and each atom's point index: an atom within
    _ATOM_MATCH_TOL of its predecessor shares its point.  A nan gap starts a
    point, so non-finite atoms stay for the constructor to reject."""
    new = np.concatenate([[True], ~(np.diff(a) <= _ATOM_MATCH_TOL)])[:len(a)]
    return a[new], np.cumsum(new) - 1


def csv_lines(text: str) -> list[str]:
    """The lines of a CSV text that are neither blank nor `#` comments."""
    return [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]


def csv_rows(text: str, header: str | None, width: int | None) -> np.ndarray:
    """The numeric rows of a CSV text as a 2-d float array, skipping blank
    lines, `#` comments and a first line equal to `header`.  No rows, ragged or
    non-numeric rows, or rows not `width` wide (if given) raise ShapeError."""
    lines = csv_lines(text)
    if lines and header and lines[0].strip().lower() == header:
        lines = lines[1:]
    try:
        rows = [[float(c) for c in ln.split(",")] for ln in lines]
    except ValueError as e:
        raise ShapeError(f"non-numeric CSV row: {e}") from None
    widths = {len(r) for r in rows}
    if len(widths) != 1 or (width and widths != {width}):
        raise ShapeError("CSV rows are missing, ragged or of the wrong width")
    return np.array(rows)


def csv_text(header: str, xs, ys) -> str:
    """`header` and one `x,y` row per point, each number as its exact repr."""
    return f"{header}\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in zip(xs, ys))


@dataclass(frozen=True)
class Ccurve:
    """The result record: a sampled curve with strictly increasing arguments
    and finite values, the constants and solver statistics behind it (`meta`)
    and provenance notes."""

    points: tuple
    meta: dict = field(default_factory=dict)
    notes: tuple = ()

    def __post_init__(self):
        ts = np.array([p[0] for p in self.points], dtype=float)
        vs = np.array([p[1] for p in self.points], dtype=float)
        if not np.all(np.diff(ts) > 0):
            raise DomainError("curve arguments must be strictly increasing")
        if not np.all(np.isfinite(vs)):
            raise DomainError("curve values must be finite")
        object.__setattr__(self, "points", tuple((float(t), float(v)) for t, v in self.points))

    @property
    def arguments(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    @property
    def values(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])


# ---------------------------------------------------------------------------
# one-dimensional searches
# ---------------------------------------------------------------------------

class ThresholdReport(NamedTuple):
    """A solver's value plus the evidence: iterations and final bracket."""

    value: float
    iterations: int
    bracket: tuple[float, float]


def bisect(cond, lo: float, hi: float, tol: float = 0.0) -> ThresholdReport:
    """Smallest x in [lo, hi] with cond(x) True, for cond monotone in x.

    cond should be False at lo and True at hi.  Halves the bracket until it is
    at most tol wide or its midpoint no longer splits it (the bracket is then
    two adjacent floats).  The record's value is the bracket's upper end.
    """
    it = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if cond(mid):
            hi = mid
        else:
            lo = mid
        it += 1
    return ThresholdReport(hi, it, (lo, hi))


def bisect_up(cond, lo: float, tol: float, hi_max: float) -> ThresholdReport | None:
    """Smallest x >= lo > 0 with cond(x) True, for cond monotone in x: hi
    doubles from lo until cond(hi) holds, then `bisect` runs on [lo, hi] to tol
    and its record is returned.  Returns None once hi passes hi_max."""
    hi = lo
    while not cond(hi):
        hi *= 2.0
        if not hi <= hi_max:
            return None
    return bisect(cond, lo, hi, tol)


def simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule for samples y (odd length) spaced h apart."""
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def binary_entropy(p: float) -> float:
    """Binary entropy h_b(p) in nats, with the 0*log(1/0)=0 convention."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log(p) - (1.0 - p) * math.log1p(-p))


def binary_entropy_inv(h: float) -> float:
    """Inverse of h_b restricted to [0, 1/2], by bisection to 1e-12."""
    if not 0.0 <= h <= LOG2 + 1e-15:
        raise DomainError(f"h={h} outside [0, log 2]")
    h = min(h, LOG2)
    if h == 0.0:
        return 0.0
    _, _, (lo, hi) = bisect(lambda p: binary_entropy(p) >= h, 0.0, 0.5, 1e-13)
    return 0.5 * (lo + hi)


# The one error-function rule: Cephes' erf/erfc (ndtr.c, S. L. Moshier), the
# rational approximations of W. J. Cody, Math. Comp. 23 (1969), with Cephes'
# coefficients, Horner order and branches, erf odd in x, and e^{-x^2} from
# libm's exp (math.exp), so each value is the compiled Cephes one bit for bit.
# It runs as scalar Python; an array goes through the same code element by
# element, which only gd_lower's once-per-gamma table (2,001 points) does.
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
# Cephes' underflow cut: erfc is 0 (or 2) once a^2 > MAXLOG, where libm's exp
# would still return a subnormal
_MAXLOG = 7.09782712893383996843E2


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule from the leading coefficient."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """Horner's rule with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc(a: float) -> float:
    x = abs(a)
    if not x >= 1.0:  # |a| < 1, or nan
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        y = z * _polevl(x, _ERFC_P) / _p1evl(x, _ERFC_Q)
    else:
        y = z * _polevl(x, _ERFC_R) / _p1evl(x, _ERFC_S)
    return 2.0 - y if a < 0 else y


def _erf(x: float) -> float:
    if x < 0.0:  # odd in x
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _elementwise(f, x) -> float | np.ndarray:
    """f on a float, or on each element of an array, through the same scalar code."""
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return f(float(x))


def erf(x) -> float | np.ndarray:
    """The error function (2/sqrt(pi)) int_0^x e^{-s^2} ds."""
    return _elementwise(_erf, x)


def erfc(x) -> float | np.ndarray:
    """The complementary error function 1 - erf(x), without its cancellation."""
    return _elementwise(_erfc, x)


_SQRT2 = math.sqrt(2.0)


def q_function(x) -> float | np.ndarray:
    """Gaussian complementary CDF Q(x) = P[N(0,1) > x]."""
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
    return 0.5 * erfc(x / _SQRT2)


def v_window(x) -> float | np.ndarray:
    """The spectral window v(x) = 2(1-cos x)/x^2, with v(0)=1 by the series."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("x must be finite")
    # 2(1-cos x)/x^2 loses ~8 digits to cancellation below x ~ 1e-2; the
    # three-term series is exact to <1e-16 relative there
    small = np.abs(x) < 1e-2
    xs = np.where(small, 1.0, x)
    out = np.where(small,
                   1.0 - x * x / 12.0 + x ** 4 / 360.0,
                   2.0 * (1.0 - np.cos(xs)) / (xs * xs))
    return out if out.ndim else float(out)


def v_hat(omega) -> float | np.ndarray:
    """Fourier transform of v_window: a triangle 2*pi*(1-|w|)^+."""
    omega = np.asarray(omega, dtype=float)
    out = 2.0 * math.pi * np.maximum(1.0 - np.abs(omega), 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the simplex lattice
# ---------------------------------------------------------------------------

def simplex_lattice(n: int, parts: int) -> np.ndarray:
    """The compositions of n into `parts` nonnegative parts (the 1/n simplex
    lattice scaled by n), one int32 row each, in lexicographic order."""
    # the rows of the first parts - 1 parts summing to at most n, grown a column
    # at a time; the last part is the slack n - sum
    lead = np.zeros((1, 0), dtype=np.int32)
    used = np.zeros(1, dtype=np.int32)
    for _ in range(parts - 1):
        counts = n + 1 - used
        start = np.repeat(np.cumsum(counts, dtype=np.int32) - counts, counts)
        part = np.arange(len(start), dtype=np.int32) - start
        lead = np.column_stack([np.repeat(lead, counts, axis=0), part])
        used = np.repeat(used, counts) + part
    return np.column_stack([lead, n - used])


# ---------------------------------------------------------------------------
# entropy and mutual information
# ---------------------------------------------------------------------------

def xlogx(v: np.ndarray) -> np.ndarray:
    """Elementwise v log v for v >= 0 with the convention 0 log 0 = 0, so a zero
    or underflowing v gives no warning; a scalar v gives a numpy float.  On one
    temporary, argument untouched: log of v (1 where v is 0), times v."""
    out = np.where(v > 0, v, 1.0)
    np.log(out, out=out)
    out *= v
    return out if out.ndim else out[()]


def mi_joint(q: np.ndarray):
    """Mutual information between the row and column index of a joint pmf q, a
    float for a 2-d q; for a stack of joints (..., rows, columns), one value per
    joint, each the same bit for bit whatever the others (zero rows and columns
    change nothing but the order of the final sum)."""
    outer = q.sum(axis=-1, keepdims=True) * q.sum(axis=-2, keepdims=True)
    # a subnormal row weight times a column weight can underflow to 0; the term
    # of such an entry is below 1e-320.  A skipped entry reads log 1 = 0
    ratio = np.divide(q, outer, out=np.ones_like(q), where=(q > 0) & (outer > 0))
    val = (q * np.log(ratio)).sum(axis=(-2, -1))
    return float(max(val, 0.0)) if q.ndim == 2 else np.maximum(val, 0.0)


@functools.lru_cache(maxsize=8)
def gauss_hermite(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-node Gauss-Hermite rule for the standard normal: read-only
    (nodes, weights) with E f(N(0, 1)) ~ sum_j weights[j] f(nodes[j]), the
    atoms of `gaussian_sdpi.gauss_hermite_input`.  Built on first use, so an
    import runs no eigen-solve and loads no numpy.polynomial."""
    nodes, weights = np.polynomial.hermite.hermgauss(m)
    nodes, weights = math.sqrt(2.0) * nodes, weights / math.sqrt(math.pi)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@functools.lru_cache(maxsize=8)
def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-node Gauss-Legendre rule on [-1, 1], read-only (nodes, weights), exact
    to degree 2m - 1, built on first use without numpy.polynomial: the Jacobi
    matrix's eigenvalues (Golub and Welsch, Math. Comp. 23, 1969) after two Newton
    steps on P_m, and weights 2/((1 - x^2) P_m'(x)^2) by the three-term recurrence
    (within 1e-14 relative for m = 32; the eigenvectors' are 8e-14 off), each
    averaged with its mirror image."""
    k = np.arange(1.0, m)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    for _ in range(2):
        p, q = x, np.ones_like(x)  # P_n(x), P_{n-1}(x) from n = 1
        for n in range(1, m):
            p, q = ((2 * n + 1) * x * p - n * q) / (n + 1), p
        s = (1.0 - x) * (1.0 + x)
        dp = m * (q - x * p) / s  # P_m'(x)
        x = x - p / dp
    half = 1.0 / (s * dp * dp)
    nodes, weights = 0.5 * (x - x[::-1]), half + half[::-1]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# ---------------------------------------------------------------------------
# distances and divergences
# ---------------------------------------------------------------------------

def _align_atoms(P: DiscretePMF, Q: DiscretePMF):
    """Union support, merged as `_merge_atoms`, with each input's weights on it."""
    atoms, _ = _merge_atoms(np.sort(np.concatenate([P.atoms, Q.atoms])))

    def project(D):
        # an atom's point is the last one at or below it
        w = np.zeros(len(atoms))
        np.add.at(w, np.searchsorted(atoms, D.atoms, side="right") - 1, D.weights)
        return w

    return atoms, project(P), project(Q)


def _require_same_grid(P: GridDensity, Q: GridDensity):
    if (abs(P.x_min - Q.x_min) > 1e-9 or abs(P.x_max - Q.x_max) > 1e-9
            or abs(P.step - Q.step) > 1e-12):
        raise ShapeError("grid densities are not aligned")


def tv_distance(P: Distribution, Q: Distribution) -> float:
    """Total variation: half the L1 distance of weights / densities."""
    if isinstance(P, DiscretePMF) and isinstance(Q, DiscretePMF):
        _, p, q = _align_atoms(P, Q)
        return float(0.5 * np.abs(p - q).sum())
    if isinstance(P, GridDensity) and isinstance(Q, GridDensity):
        _require_same_grid(P, Q)
        return float(0.5 * np.trapezoid(np.abs(P.values - Q.values), dx=P.step))
    raise ShapeError("tv_distance requires same-kind inputs")


def ks_distance(P: Distribution, Q: Distribution) -> float:
    """Kolmogorov-Smirnov distance: sup-norm of the CDF difference.

    Evaluated at all grid nodes, atoms and their left limits, so jumps of
    atomic CDFs are captured on both sides.
    """
    x = np.unique(np.concatenate([P.cdf_points(), Q.cdf_points()]))
    return float(np.max(np.abs(np.asarray(P.cdf(x)) - np.asarray(Q.cdf(x)))))


def levy_concentration(P: Distribution, delta: float) -> float:
    """Levy concentration: sup over centers x of P[x - delta, x + delta]."""
    if not delta >= 0:
        raise DomainError("delta must be nonnegative")
    if isinstance(P, DiscretePMF):
        # the sup is attained with the window's left edge at an atom
        hi = np.searchsorted(P.atoms, P.atoms + 2.0 * delta + _ATOM_MATCH_TOL, side="left")
        cum = np.concatenate([[0.0], np.cumsum(P.weights)])
        lo = np.arange(len(P.atoms))
        return float(np.max(cum[hi] - cum[lo]))
    # the window mass is piecewise linear in the centre, with its breakpoints
    # where an edge meets a node: windows [x_i, x_i + 2 delta], [x_i - 2 delta, x_i]
    x, c = P.grid, P.cdf_values()
    return float(max(np.max(P.cdf(x + 2.0 * delta) - c), np.max(c - P.cdf(x - 2.0 * delta))))


_CF_CHUNK = 512
# chirp-z path: the largest chirp phase alpha m^2 / 2 (radians), the longest
# FFT, and the most elements in one batch of tiles
_CZ_PHASE = 32.0
_CZ_MAX_FFT = 2 ** 14
_CZ_BATCH = 2 ** 18


def _progression(w: np.ndarray) -> tuple[float, float] | None:
    """(w_0, dw) when the 1-d w, of two or more terms, is w_0 + k dw to
    within four ulp of max|w|; None otherwise (a nan or inf term included)."""
    if len(w) < 2 or not np.all(np.isfinite(w)):
        return None
    w0, dw = float(w[0]), float(w[-1] - w[0]) / (len(w) - 1)
    off = np.abs(w - (w0 + dw * np.arange(len(w))))
    return (w0, dw) if np.all(off <= 4.0 * np.spacing(np.max(np.abs(w)))) else None


def _chirp_z(x: np.ndarray, mass: np.ndarray, dx: float, w0: float, dw: float,
             n: int) -> np.ndarray:
    """sum_j mass_j exp(i w_k x_j) for w_k = w0 + k dw (k < n), on nodes
    x_j = x_0 + j dx, by Bluestein's chirp-z transform.

    The (frequency, node) plane is cut into tiles of at most b x b, where
    alpha b^2 / 2 <= _CZ_PHASE (alpha = dw dx) and 2b <= _CZ_MAX_FFT.  A tile
    from frequency w_s and node x_t is
        exp(i k dw x_t) sum_j [mass_j exp(i w_s x_j)] exp(i alpha k j),
    and kj = (k^2 + j^2 - (k - j)^2) / 2 turns the sum into one convolution
    with the chirp exp(-i alpha m^2 / 2): FFTs of one power-of-two length
    L <= _CZ_MAX_FFT, batched over at most _CZ_BATCH elements of tiles.
    """
    alpha = dw * dx
    b = _CZ_MAX_FFT // 2
    if alpha:
        b = max(1, min(b, int(math.sqrt(2.0 * _CZ_PHASE / abs(alpha)))))
    bk, bj = min(b, n), min(b, len(x))
    n_k, n_j = -(-n // bk), -(-len(x) // bj)
    L = 1 << (bk + bj - 2).bit_length()  # a power of two >= bk + bj - 1
    k, j = np.arange(bk), np.arange(bj)
    chirp_k, chirp_j = np.exp(0.5j * alpha * (k * k)), np.exp(0.5j * alpha * (j * j))
    # exp(-i alpha m^2 / 2) for m = 0 .. bk - 1, then m = -(bj - 1) .. -1 wrapped
    kernel = np.zeros(L, dtype=complex)
    kernel[:bk] = chirp_k.conj()
    kernel[L - bj + 1:] = chirp_j[:0:-1].conj()
    kernel = np.fft.fft(kernel)  # numpy loads its fft module here, on first use
    shift = np.exp(1j * dw * k * x[::bj, None])  # exp(i k dw x_t), one row per node tile
    w_s = w0 + (dw * bk) * np.arange(n_k)
    out = np.empty((n_k, bk), dtype=complex)
    rows = max(1, _CZ_BATCH // (n_j * L))
    for s in range(0, n_k, rows):
        ws = w_s[s:s + rows, None]
        a = np.zeros((len(ws), n_j * bj), dtype=complex)
        a[:, :len(x)] = mass * np.exp(1j * ws * x)
        c = np.fft.ifft(np.fft.fft(a.reshape(-1, n_j, bj) * chirp_j, L) * kernel)
        out[s:s + rows] = chirp_k * (c[..., :bk] * shift).sum(axis=1)
    return out.ravel()[:n]


def char_fn(P: Distribution, omega) -> complex | np.ndarray:
    """Characteristic function E[exp(i w X)] by atom sum or trapezoid.

    Two paths, by what the arguments are:
    - a `GridDensity` P and a flattened omega of two or more terms in
      arithmetic progression (`_progression`): the chirp-z transform
      `_chirp_z`.  Every chirp phase is at most _CZ_PHASE radians, so each
      chirp factor is good to about _CZ_PHASE 2^-53, and the FFT round trip
      adds about log2(L) 2^-53 per unit of mass: about 1e-14 in all.  Both
      paths also round each phase w x_j, by up to 2^-53 max|w x|.  Against
      the direct sum: at most 6e-15 on the golden Q and criterion 8's
      Gaussian grids, 2.2e-14 on a 601-node grid noise at w = 2,048, and
      within 1.3 max(1e-14, 2^-53 max|w x|) on random grids and progressions;
    - anything else (atoms, a single frequency, an omega that is not a
      progression): the direct sum over atoms or nodes, in blocks of
      _CF_CHUNK frequencies, so the working array never exceeds _CF_CHUNK x
      (number of atoms or grid nodes).
    """
    omega = np.asarray(omega, dtype=float)
    w = omega.reshape(-1, 1)
    x, mass = P.masses()
    lattice = _progression(w[:, 0]) if isinstance(P, GridDensity) else None
    if lattice is not None:
        out = _chirp_z(x, mass, P.step, *lattice, len(w))
    else:
        out = np.empty(len(w), dtype=complex)
        for i in range(0, len(w), _CF_CHUNK):
            out[i:i + _CF_CHUNK] = (mass * np.exp(1j * w[i:i + _CF_CHUNK] * x)).sum(axis=1)
    return out.reshape(omega.shape) if omega.ndim else complex(out[0])


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def convolve(P: Distribution, Z: GridDensity) -> GridDensity:
    """Density of X + Z on the enlarged grid, renormalized to integrate to 1.

    Atomic P: direct sum of shifted noise densities; off-grid atoms are split
    linearly between the two neighboring offsets (mass- and mean-preserving).
    Grid P: full discrete convolution (equal steps required).  The grid covers
    the whole support of the sum, so no mass is lost.
    """
    step = Z.step
    if isinstance(P, DiscretePMF):
        a_min, a_max = float(P.atoms[0]), float(P.atoms[-1])
        x_min = math.floor((a_min + Z.x_min) / step) * step
        n = int(math.ceil((a_max + Z.x_max - x_min) / step)) + 1
        vals = np.zeros(n + 1)
        nz = len(Z.values)
        for a, wt in zip(P.atoms, P.weights):
            off = (a + Z.x_min - x_min) / step
            i0 = int(math.floor(off))
            frac = off - i0
            vals[i0:i0 + nz] += wt * (1.0 - frac) * Z.values
            vals[i0 + 1:i0 + 1 + nz] += wt * frac * Z.values
        out_min = x_min
    else:
        if abs(P.step - step) > 1e-12:
            raise ShapeError("noise grid step must match the input grid step")
        vals = np.convolve(P.values, Z.values) * step
        out_min = P.x_min + Z.x_min
        n = len(vals) - 1

    z = np.trapezoid(vals, dx=step)
    return GridDensity(out_min, float(out_min + step * n), step, vals / z)


def tv_after_noise(P: Distribution, Q: Distribution, Z: GridDensity) -> float:
    """d_TV(P * P_Z, Q * P_Z) on a common grid with the noise step.

    Both convolutions are interpolated onto one grid covering their union,
    renormalized there, and compared by the trapezoid rule.
    """
    step = Z.step
    pc, qc = convolve(P, Z), convolve(Q, Z)
    lo = min(pc.x_min, qc.x_min)
    hi = max(pc.x_max, qc.x_max)
    grid = np.arange(round(lo / step), round(hi / step) + 1) * step

    def on_grid(d):
        v = np.interp(grid, d.grid, d.values, left=0.0, right=0.0)
        return v / np.trapezoid(v, dx=step)

    return float(0.5 * np.trapezoid(np.abs(on_grid(pc) - on_grid(qc)), dx=step))

