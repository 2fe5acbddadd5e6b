"""Polynomial space curves: derivatives, torsion, normalization, finite type.

Curves are stored as exact polynomial coefficient data so that every
derivative is evaluated in closed form (no finite differencing).  Smooth
non-polynomial curves enter only through user-supplied truncated Taylor
polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

# residual threshold (relative to column norm scale) for the rank scan
RANK_TOL = 1e-9

# number of grid points used for C^k-norm suprema
SUP_GRID = 4097
SUP_SAFETY = 1.01

# sample count of CurveSpec.velocity_sup
SPEED_SAMPLES = 512

# relative size below which a Euclid remainder counts as zero (square-free part)
GCD_TOL = 1e-10

# a polynomial counts as divisible by t^k when its coefficients below t^k
# are at most this, relative to its largest coefficient (and to 1)
DIVISIBILITY_TOL = 1e-7

# absolute error each integral of ik_recursion must reach
IK_TOL = 1e-8


class SingularFrameError(ValueError):
    """Frame matrix is numerically singular."""

    def __init__(self, message, det=None):
        super().__init__(message)
        self.det = det


class NotFiniteTypeError(ValueError):
    """No nonsingular derivative frame, or no t^{a_k} factor, at tau."""


def _derivative_coeffs(c, order):
    """Coefficients (low to high) of the order-th derivative of the polynomial c."""
    c = np.asarray(c, dtype=float)
    dc = npoly.polyder(c, order) if order else c
    return dc if dc.size else np.zeros(1)


def _compose_affine(coeffs, shift, scale):
    """Coefficients of p(scale*t + shift) given coefficients of p (low->high)."""
    out = np.zeros(1)
    for c in reversed(coeffs):
        out = npoly.polymul(out, [shift, scale])
        out[0] += c
    return out


def shift_subtract(curve, tau, h=1.0):
    """The polynomial curve t -> gamma(h t + tau) - gamma(tau)."""
    if not (math.isfinite(tau) and math.isfinite(h)):
        raise ValueError(f"tau and h must be finite, got tau={tau}, h={h}")
    comps = [_compose_affine(np.asarray(c, dtype=float), float(tau), float(h))
             for c in curve.coeffs]
    for cc in comps:
        cc[0] = 0.0  # exact subtraction of gamma(tau)
    return CurveSpec(d=curve.d, coeffs=tuple(comps), label=curve.label)


class ExponentTuple(tuple):
    """Strictly increasing positive-integer exponents (a_1, ..., a_d)."""

    __slots__ = ()  # immutable, like the tuple itself

    def __new__(cls, values):
        vals = tuple(int(v) for v in values)
        if len(vals) < 1 or any(v <= 0 for v in vals):
            raise ValueError("exponents must be positive integers")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("exponents must be strictly increasing")
        return super().__new__(cls, vals)

    @property
    def d(self):
        return len(self)

    @property
    def total(self):
        return sum(self)

    def is_nondegenerate(self):
        return self == tuple(range(1, self.d + 1))


def nondegenerate_tuple(d):
    return ExponentTuple(range(1, d + 1))


@dataclass(frozen=True)
class CurveSpec:
    """A d-dimensional polynomial curve on [0, 1].

    Each component is a polynomial given by coefficients in increasing
    degree.  ``a`` optionally records the monomial-type exponent tuple the
    curve is associated with (for curves of the form t^{a_i} * phi_i(t)).
    """

    d: int
    coeffs: tuple
    a: ExponentTuple | None = None
    label: str = ""

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("dimension must be >= 2")
        if len(self.coeffs) != self.d:
            raise ValueError("need one coefficient list per component")
        # an empty component is the zero polynomial
        tidy = tuple(tuple(float(c) for c in comp) or (0.0,) for comp in self.coeffs)
        if not all(map(math.isfinite, sum(tidy, ()))):
            raise ValueError(f"curve coefficients must be finite, got {tidy}")
        object.__setattr__(self, "coeffs", tidy)

    def component_arrays(self):
        n = max(len(c) for c in self.coeffs)
        mat = np.zeros((self.d, n))
        for i, c in enumerate(self.coeffs):
            mat[i, : len(c)] = c
        return mat

    def point(self, t):
        return self.derivative(t, 0)

    def derivative(self, t, order):
        """order-th derivative vector at t (order 0 is the point itself)."""
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ValueError(f"t must be finite, got {t[~np.isfinite(t)].flat[0]}")
        return np.stack([npoly.polyval(t, _derivative_coeffs(c, order))
                         for c in self.coeffs], axis=-1)

    def velocity_sup(self):
        """Max of |gamma'| over SPEED_SAMPLES samples of [0, 1]; computed once."""
        return self._unit_velocity_sup

    # Per-curve data, cached in the instance __dict__ (the dataclass is
    # frozen, so the coefficients cannot change under the cache; equality
    # and hashing see only the fields).

    @cached_property
    def _unit_velocity_sup(self):
        ts = np.linspace(0.0, 1.0, SPEED_SAMPLES)
        return float(np.max(np.linalg.norm(self.derivative(ts, 1), axis=-1)))

    @cached_property
    def torsion_coeffs(self):
        """torsion_poly(self), read-only."""
        out = torsion_poly(self)
        out.setflags(write=False)
        return out

    @cached_property
    def torsion_roots(self):
        """Sorted distinct real roots of the torsion polynomial, any multiplicity."""
        return real_roots(self.torsion_coeffs)

    # -- serialization (exact decimal round-trip via repr of float64) ------

    def to_text(self):
        lines = [f"dimension = {self.d}"]
        for i, c in enumerate(self.coeffs):
            lines.append(f"component_{i + 1} = " + " ".join(repr(v) for v in c))
        if self.a is not None:
            lines.append("tuple = " + " ".join(str(v) for v in self.a))
        if self.label:
            lines.append(f"label = {self.label}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        d = None
        comps = {}
        a = None
        label = ""
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed curve line: {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key == "dimension":
                d = int(val)
            elif key.startswith("component_"):
                comps[int(key.split("_")[1])] = tuple(float(v) for v in val.split())
            elif key == "tuple":
                a = ExponentTuple(val.split())
            elif key == "label":
                label = val
            else:
                raise ValueError(f"unknown curve key: {key}")
        if d is None or len(comps) != d:
            raise ValueError("curve file must declare dimension and all components")
        coeffs = tuple(comps[i + 1] for i in range(d))
        return cls(d=d, coeffs=coeffs, a=a, label=label)


def monomial_model(a):
    """The monomial model curve (t^{a_1}/a_1!, ..., t^{a_d}/a_d!)."""
    a = ExponentTuple(a)
    coeffs = []
    for ai in a:
        c = [0.0] * (ai + 1)
        c[ai] = 1.0 / math.factorial(ai)
        coeffs.append(tuple(c))
    return CurveSpec(d=a.d, coeffs=tuple(coeffs), a=a,
                     label=f"monomial-model-{'-'.join(map(str, a))}")


def model_curve(d):
    """The model curve (t, t^2/2!, ..., t^d/d!)."""
    return replace(monomial_model(range(1, d + 1)), label="model")


# ---------------------------------------------------------------------------
# derivative frames, torsion, minors
# ---------------------------------------------------------------------------


def _det_poly(mat):
    """Cofactor expansion along the first row of a square matrix whose
    entries are polynomial coefficient arrays (low to high)."""
    if len(mat) == 1:
        return mat[0][0]
    acc = np.zeros(1)
    for k, lead in enumerate(mat[0]):
        if np.all(lead == 0.0):
            continue
        minor = _det_poly([row[:k] + row[k + 1 :] for row in mat[1:]])
        acc = npoly.polyadd(acc, ((-1.0) ** k) * npoly.polymul(lead, minor))
    return acc


def det_exact(mat):
    """Cofactor-expansion determinant for small dense matrices."""
    m = np.asarray(mat, dtype=float)
    return float(_det_poly([[m[i, j : j + 1] for j in range(m.shape[1])]
                            for i in range(m.shape[0])])[0])


def derivative_matrix(curve, t, orders=None):
    """Matrix whose columns are gamma^{(k)}(t) for the requested orders."""
    if orders is None:
        orders = range(1, curve.d + 1)
    return np.stack([curve.derivative(t, k) for k in orders], axis=-1)


def torsion_poly(curve):
    """Coefficients (low to high) of det(gamma', ..., gamma^(d)) as a polynomial.

    Exact up to rounding of the coefficient products; each curve keeps its
    own copy as `torsion_coeffs`, which `torsion` evaluates.
    """
    return _det_poly([[_derivative_coeffs(c, order)
                       for order in range(1, curve.d + 1)]
                      for c in curve.coeffs])


def torsion(curve, t):
    """det(gamma'(t), ..., gamma^(d)(t)); nonvanishing means nondegenerate."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError(f"t must be finite, got {t[~np.isfinite(t)].flat[0]}")
    vals = npoly.polyval(t, curve.torsion_coeffs)
    return float(vals) if np.ndim(vals) == 0 else vals


def _squarefree(p, tol=GCD_TOL):
    """p / gcd(p, p') by Euclid's algorithm on max-normalized coefficients
    (low to high), and whether the two multiply back to p to rounding.

    A remainder coefficient at most `tol` counts as zero, so roots closer
    than about sqrt(tol) merge; distinct ones then miss that product.
    """
    a = p / np.max(np.abs(p))
    b = npoly.polyder(a)
    while True:
        b = np.trim_zeros(np.where(np.abs(b) > tol, b, 0.0), "b")
        if b.size == 0:
            q = npoly.polydiv(p, a)[0]
            miss = np.max(np.abs(npoly.polysub(npoly.polymul(q, a), p)))
            return q, miss <= 16 * p.size * np.finfo(float).eps * np.max(np.abs(p))
        b = b / np.max(np.abs(b))
        a, b = b, npoly.polydiv(a, b)[1]


def real_roots(coeffs):
    """Sorted distinct real roots of a polynomial (coefficients low to high).

    Roots come from the square-free part, whose roots are simple: polyroots
    moves a root of multiplicity m off the real axis by about eps^(1/m),
    which an imaginary-part filter on p itself would drop.  Where it merged
    distinct roots (see _squarefree), p's own roots take their place.
    Top coefficients at most eps * max|p| are dropped first: they are
    rounding residue, and a tiny or subnormal one would put the root-finder
    out of range.
    """
    p = np.asarray(coeffs, dtype=float)
    big = np.flatnonzero(np.abs(p) > np.finfo(float).eps * np.max(np.abs(p), initial=0.0))
    if big.size == 0 or big[-1] == 0:
        return ()
    p = p[: big[-1] + 1]
    q, exact = _squarefree(p)
    roots = npoly.polyroots(q)
    if not exact:
        merged = np.abs(npoly.polyval(roots, p)) > (
            4 * p.size * np.finfo(float).eps * npoly.polyval(np.abs(roots), np.abs(p)))
        own = npoly.polyroots(p)
        nearest = np.argmin(np.abs(own[:, None] - roots[None, :]), axis=1)
        roots = np.concatenate([roots[~merged], own[merged[nearest]]])
    # + 0.0 turns a root -0.0 into 0.0
    return tuple(sorted({float(r.real) + 0.0 for r in roots if abs(r.imag) < 1e-9}))


def minor_determinant(curve, rows, t):
    """Determinant of selected rows against leading derivative columns;
    ValueError unless t is finite."""
    rows = sorted(rows)
    k = len(rows)
    if any(r < 1 or r > curve.d for r in rows):
        raise ValueError("row indices must lie in 1..d")
    full = derivative_matrix(curve, float(t))
    sub = full[np.array(rows) - 1][:, :k]
    return det_exact(sub)


@dataclass(frozen=True)
class FrameMatrix:
    """Derivative frame M with the exponent tuple of its columns."""

    matrix: np.ndarray
    a: ExponentTuple

    @property
    def det(self):
        return det_exact(self.matrix)

    def is_singular(self):
        scale = max(1.0, float(np.max(np.abs(self.matrix))))
        return abs(self.det) <= RANK_TOL * scale ** self.a.d


def frame_matrix(curve, tau, a=None):
    """The derivatives of orders a at tau as columns; ValueError unless tau
    is finite."""
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    a = a or curve.a or nondegenerate_tuple(curve.d)
    return FrameMatrix(matrix=derivative_matrix(curve, float(tau), orders=list(a)), a=a)


def beta_alpha(alpha, d):
    """Admissibility exponent: (j+1)*alpha + (d-j-1)(d-j)/2 on its bracket."""
    if not (0.0 < alpha <= d):
        raise ValueError(f"alpha must lie in (0, {d}], got {alpha}")
    j = d - int(math.ceil(alpha))
    return (j + 1) * alpha + (d - j - 1) * (d - j) / 2.0


def sigma_exponent(a, alpha):
    """Dyadic block decay scale (sum a_i - d(d+1)/2)/beta(alpha) + 1."""
    a = ExponentTuple(a)
    d = a.d
    return (a.total - d * (d + 1) / 2.0) / beta_alpha(alpha, d) + 1.0


def pushforward_exponent(a, alpha):
    """h-exponent d(d+1)/2 - beta(alpha) - sum a of the pushforward constant."""
    a = ExponentTuple(a)
    d = a.d
    return d * (d + 1) / 2.0 - beta_alpha(alpha, d) - a.total


def diagonal_scaling(h, a):
    """Diagonal matrix diag(h^{a_1}, ..., h^{a_d})."""
    return np.diag([float(h) ** ai for ai in a])


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def normalize_curve(curve, tau, h, a=None):
    """Normalized curve [M D_h]^{-1} (gamma(h t + tau) - gamma(tau)).

    The result satisfies the exact phase identity
    x . (gamma(h t + tau) - gamma(tau)) = (D_h M^t x) . result(t).
    """
    if h == 0:
        raise ValueError("h must be nonzero")
    lo, hi = sorted((tau, tau + h))
    if lo < -1e-12 or hi > 1.0 + 1e-12:
        raise ValueError(f"[tau, tau+h]* = [{lo}, {hi}] must be contained in [0, 1]")
    a = a or curve.a or nondegenerate_tuple(curve.d)
    frame = frame_matrix(curve, tau, a)
    if frame.is_singular():
        raise SingularFrameError(
            f"frame at tau={tau} for tuple {tuple(a)} is singular", det=frame.det
        )
    return CurveSpec(
        d=curve.d,
        coeffs=tuple(tuple(row) for row in _normal_form(curve, frame, tau, h)),
        a=a,
        label=f"{curve.label or 'curve'}@tau={tau},h={h}",
    )


def _normal_form(curve, frame, tau, h):
    """Coefficient rows of [M D_h]^{-1} (gamma(h t + tau) - gamma(tau)), M the
    frame at tau: the k-th row is t^{a_k} phi_k(t) for a curve of type a."""
    shifted = shift_subtract(curve, tau, h).component_arrays()
    return np.linalg.solve(frame.matrix @ diagonal_scaling(h, frame.a), shifted)


def _monomial_factor(c, k):
    """phi with c = t^k phi (coefficients low to high), up to DIVISIBILITY_TOL;
    None when t^k does not divide c."""
    c = np.asarray(c, dtype=float)
    scale = max(1.0, np.max(np.abs(c), initial=0.0))
    if np.max(np.abs(c[:k]), initial=0.0) > DIVISIBILITY_TOL * scale:
        return None
    return c[k:] if c.size > k else np.zeros(1)


def _ck_deviation(coeff_diffs, max_order, grid):
    worst = 0.0
    for dc in coeff_diffs:
        c = np.asarray(dc, dtype=float)
        for k in range(max_order + 1):
            ck = _derivative_coeffs(c, k)
            worst = max(worst, float(np.max(np.abs(npoly.polyval(grid, ck)))))
    return worst * SUP_SAFETY


def class_distance(curve, model="plain"):
    """Deviation from the model class, C^{d+1} on gamma or C^{a_d+1} on phi_i.

    ``model`` is either "plain" (distance to the nondegenerate model curve)
    or an ExponentTuple/sequence (distance within the monomial-type class).
    Sup norms are taken over a uniform grid of SUP_GRID points with a
    safety factor; this is a documented approximation of the true sup.
    """
    grid = np.linspace(0.0, 1.0, SUP_GRID)
    if model == "plain":
        diffs = [npoly.polysub(c, r)
                 for c, r in zip(curve.coeffs, model_curve(curve.d).coeffs)]
        return _ck_deviation(diffs, curve.d + 1, grid)

    a = ExponentTuple(model)
    diffs = []
    for c, ai in zip(curve.coeffs, a, strict=True):
        phi = _monomial_factor(c, ai)
        if phi is None:
            return math.inf
        diffs.append(npoly.polysub(phi, [1.0 / math.factorial(ai)]))
    return _ck_deviation(diffs, a[-1] + 1, grid)


# ---------------------------------------------------------------------------
# finite type detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteTypeData:
    a: ExponentTuple
    phi_coeffs: tuple  # polynomial coefficients of each phi_k (low->high)

    def phi(self, k, t):
        return npoly.polyval(np.asarray(t, dtype=float), np.asarray(self.phi_coeffs[k]))


def detect_finite_type(curve, tau):
    """Greedy minimal-tuple scan: smallest orders with independent derivatives.

    The scan stops at the curve's degree, past which every derivative is 0.
    Returns the tuple and polynomial evaluators for the normalized
    factors phi_k with phi_k(0) = 1/a_k!.
    """
    degree = max(len(c) for c in curve.coeffs) - 1
    orders = ExponentTuple(range(1, max(degree, 1) + 1))
    chosen = []
    basis = []
    scale = 0.0
    for order, v in zip(orders, frame_matrix(curve, tau, orders).matrix.T):
        scale = max(scale, float(np.linalg.norm(v)), 1e-300)
        resid = v.copy()
        for b in basis:
            resid = resid - (resid @ b) * b
        if np.linalg.norm(resid) > RANK_TOL * scale:
            chosen.append(order)
            basis.append(resid / np.linalg.norm(resid))
            if len(chosen) == curve.d:
                break
    if len(chosen) < curve.d:
        raise NotFiniteTypeError(
            f"no nonsingular frame at tau={tau} up to the curve's degree {degree}")
    a = ExponentTuple(chosen)
    phis = []
    for k, row in enumerate(_normal_form(curve, frame_matrix(curve, tau, a), tau, 1.0)):
        phi = _monomial_factor(row, a[k])
        if phi is None:
            raise NotFiniteTypeError(
                f"component {k + 1} not divisible by t^{a[k]} at tau={tau}")
        phis.append(tuple(phi))
    return FiniteTypeData(a=a, phi_coeffs=tuple(phis))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def affine_weight(curve, alpha, t):
    """|torsion(t)|^{1/beta(alpha)}; the affine arclength density at alpha=d."""
    b = beta_alpha(alpha, curve.d)
    tor = torsion(curve, t)
    return np.abs(tor) ** (1.0 / b)


def weight_scaling_check(curve, tau, h, a, alpha):
    """Max relative error of the weight rescaling identity on a t-grid.

    Checks |det M|^{1/beta} |h|^{sigma-1} w_{normalized}(t) = w(h t + tau)
    at 257 points of [1e-3, 1].
    """
    a = ExponentTuple(a)
    t_grid = np.linspace(1e-3, 1.0, 257)
    b = beta_alpha(alpha, curve.d)
    sig = sigma_exponent(a, alpha)
    norm = normalize_curve(curve, tau, h, a)
    det_m = abs(frame_matrix(curve, tau, a).det)
    lhs = det_m ** (1.0 / b) * abs(h) ** (sig - 1.0) * affine_weight(norm, alpha, t_grid)
    rhs = affine_weight(curve, alpha, h * t_grid + tau)
    denom = np.maximum(np.abs(rhs), 1e-300)
    return float(np.max(np.abs(lhs - rhs) / denom))


# ---------------------------------------------------------------------------
# sum map and the nested-integral Jacobian oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobianProbe:
    """Ordered sample 0 < t_1 < ... < t_n <= 1 with an optional subtuple."""

    ts: tuple
    b: ExponentTuple | None = None

    def __post_init__(self):
        ts = tuple(float(t) for t in self.ts)
        if not (ts and 0 <= ts[0] and ts[-1] <= 1):  # NaN ends fail too
            raise ValueError(f"sample points must lie in (0, 1], got {ts}")
        object.__setattr__(self, "ts", ts)

    def strictly_ordered(self):
        return all(t2 > t1 for t1, t2 in zip(self.ts, self.ts[1:]))


def gamma_sum_map(curve, probe):
    """Sum map Gamma(t) = sum gamma(t_i) and its Jacobian determinant."""
    ts = np.asarray(probe.ts, dtype=float)
    point = curve.point(ts).sum(axis=0)
    jac = curve.derivative(ts, 1).T
    if jac.shape[0] != jac.shape[1]:
        raise ValueError("probe length must equal curve dimension for the sum map")
    return point, det_exact(jac)


def jacobian_constant(d):
    """Lower-bound constant c_d with |det(gamma'(t_i))| >= c_d prod (t_j - t_i)."""
    return 0.5 / math.prod(math.factorial(i - 1) for i in range(1, d + 1))


def jacobian_lower_bound(b, ts):
    """Model lower bound: C * prod |torsion_model(t_i)|^{1/n} * prod (t_j - t_i).

    The implementation constant is 1 / (2 * prod (i-1)!), the same constant
    that enters the separated-support bilinear estimate.
    """
    b = ExponentTuple(b)
    n = len(ts)
    if n != b.d:
        raise ValueError("tuple length must match probe length")
    c_impl = jacobian_constant(n)
    model = monomial_model(b)
    tor = np.abs(torsion(model, np.asarray(ts, dtype=float)))
    vander = math.prod(
        ts[j] - ts[i] for i in range(n) for j in range(i + 1, n)
    ) if n > 1 else 1.0
    return c_impl * float(np.prod(tor ** (1.0 / n))) * float(vander)


class QuadratureToleranceError(RuntimeError):
    """An integral of ik_recursion missed IK_TOL, by QUADPACK's estimate."""


def _phi_minors(curve, b):
    """Coefficients (low to high) of the leading minors Phi_1, ..., Phi_n of
    the rescaled derivative matrix.

    Phi_{i,j}(t) = t^{j-b_i} d^j/dt^j (component_i)(t), a polynomial since
    component_i is divisible by t^{b_i}; each leading minor Phi_k is then
    an exact polynomial.
    """
    n = b.d
    entries = []
    for i in range(n):
        row = []
        for j in range(1, n + 1):
            dc = _derivative_coeffs(curve.coeffs[i], j)
            ec = (np.concatenate([np.zeros(j - b[i]), dc]) if j >= b[i]
                  else _monomial_factor(dc, b[i] - j))
            if ec is None:
                raise ValueError(f"component {i + 1} is not of monomial type {b[i]}")
            row.append(ec)
        entries.append(row)
    return [_det_poly([row[:k] for row in entries[:k]]) for k in range(1, n + 1)]


def ik_recursion(curve, probe):
    """Nested-integral evaluation of the sum-map Jacobian determinant.

    Builds the sequence I_1, ..., I_n from the rescaled leading minors and
    iterated integrals; I_n equals det dGamma/dt on the ordered simplex.
    Each integral is QUADPACK's (scipy.integrate.quad) to absolute error
    IK_TOL.  The integrand divides by Phi_1, ..., Phi_{n-1}, so a root of
    one in [t_1, t_n] is a ValueError naming it.
    """
    # imported here, not with the module: loading scipy.integrate would add
    # to every import of the package, and so to the start-up of every run
    from scipy.integrate import quad

    b = probe.b or curve.a
    if b is None:
        raise ValueError("probe or curve must carry an exponent tuple")
    b = ExponentTuple(b)
    ts = probe.ts
    n = len(ts)
    if n < 2:
        raise ValueError("recursion needs n >= 2 sample points")
    if not probe.strictly_ordered():
        return 0.0
    bvals = (0,) + b  # b_0 = 0
    minors = _phi_minors(curve, b)
    for k, minor in enumerate(minors[:-1], start=1):
        roots = [r for r in real_roots(minor) if ts[0] <= r <= ts[-1]]
        if roots or not np.any(minor):
            raise ValueError(f"Phi_{k} vanishes at t = {roots[0] if roots else ts[0]} "
                             f"in [{ts[0]}, {ts[-1]}]; the I_k integrand divides by it")

    def phi(k, t):  # Phi_k, with Phi_0 = Phi_{-1} = 1
        return float(npoly.polyval(t, minors[k - 1])) if k > 0 else 1.0

    def prefactor(k, t):
        # t^{b_{n-k+1} - b_{n-k} - 1} * Phi_{n-k-1} Phi_{n-k+1} / Phi_{n-k}^2
        expo = bvals[n - k + 1] - bvals[n - k] - 1
        num = phi(n - k - 1, t) * phi(n - k + 1, t)
        den = phi(n - k, t) ** 2
        return (t ** expo) * num / den

    def integral(f, lo, hi):
        value, err, _, *warning = quad(f, lo, hi, epsabs=IK_TOL, epsrel=0.0, full_output=1)
        if err > IK_TOL or warning:
            raise QuadratureToleranceError("; ".join([
                f"integral over [{lo}, {hi}]: error estimate {err:.3e}, tol {IK_TOL}",
                *warning]))
        return value

    def eval_ik(k, args):
        pref = math.prod(prefactor(k, t) for t in args)
        if k == 1:
            return pref
        def integrand(depth_args, level):
            # nested integral over s_i in (args[i], args[i+1])
            if level == k - 1:
                return eval_ik(k - 1, tuple(depth_args))
            return integral(
                lambda s: integrand(depth_args + [s], level + 1),
                args[level], args[level + 1])
        inner = integrand([], 0)
        return pref * inner

    return eval_ik(n, ts)
