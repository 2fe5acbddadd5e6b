"""Discrete α-regular measures: constructors, audits, rescaling, mollification.

A measure is a finite weighted point cloud carrying a claimed regularity
certificate (alpha, C_mu).  Ball conditions are checked over an explicit
audit protocol with an honest discretization floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np
from scipy.spatial import KDTree, cKDTree

from .curves import ExponentTuple, diagonal_scaling, pushforward_exponent

# atom count guard for grid constructors
MAX_ATOMS = 10_000_000

# audit protocol constants
AUDIT_CENTERS = 512
AUDIT_SLACK = 1.1
AUDIT_FLOOR_FACTOR = 4.0

# atoms per tile of the mollifier sum: a tile's two 64 x 1024 float arrays
# (512 KiB each) stay in L2 through the six passes each lambda makes over
# them, where 64 x 4096 (2 MiB each) went out to memory; the per-axis sum
# forms its kernel table in blocks of the same 64 x 1024 entries
MOLLIFY_CHUNK = 1024

# rectangle-to-cube covering factor entering rescale certificates
def covering_constant(d):
    return 2.0 ** d


def unit_ball_volume(d):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point cloud with a claimed (alpha, C_mu) certificate."""

    atoms: np.ndarray
    weights: np.ndarray
    alpha: float
    c_mu: float
    resolution: float
    generator: str = ""
    # per-atom cell scale (coarsest axis); None means isotropic `resolution`
    local_resolution: np.ndarray | None = None

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        if atoms.shape[0] != weights.shape[0]:
            raise ValueError("atom/weight length mismatch")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if not np.all(np.isfinite(atoms)) or not np.all(np.isfinite(weights)):
            raise ValueError("atoms and weights must be finite")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if self.local_resolution is not None:
            lr = np.asarray(self.local_resolution, dtype=float)
            if lr.shape[0] != atoms.shape[0]:
                raise ValueError("local_resolution length mismatch")
            object.__setattr__(self, "local_resolution", lr)

    @property
    def d(self):
        return self.atoms.shape[1]

    @property
    def n(self):
        return self.atoms.shape[0]

    def restrict(self, mask):
        """The same measure on the atoms where mask is true."""
        lr = self.local_resolution
        return replace(self, atoms=self.atoms[mask], weights=self.weights[mask],
                       local_resolution=None if lr is None else lr[mask])

    def total_mass(self):
        return float(np.sum(self.weights))

    def tree(self):
        return cKDTree(self.atoms)

    def ball_mass(self, center, radius):
        center = np.asarray(center, dtype=float)[None]
        return float(_ball_masses(self.tree(), self.weights, center, [radius])[0, 0])

    def diameter(self):
        lo = self.atoms.min(axis=0)
        hi = self.atoms.max(axis=0)
        return float(np.linalg.norm(hi - lo))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _product(*axes):
    """Points of the tensor product of 1-D axes in C order, one row each."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _tensor_axes(points):
    """The per-coordinate axes whose C-order product is `points`, if it
    is one with at least two axes of more than one point; else None."""
    axes = [np.unique(c) for c in points.T]
    sizes = [a.size for a in axes]
    if (sum(s > 1 for s in sizes) < 2 or math.prod(sizes) != points.shape[0]
            or not np.array_equal(points, _product(*axes))):
        return None
    return axes


def graded_level_structure(d, box, resolution, grading_levels):
    """Tensor levels of a Lebesgue grid on [lo, hi]^d, graded toward 0.

    Returns a list of (axes, keep_mask, cell_side): level l covers the box
    scaled by 2^{-l} with resolution^d cells; all but the last level keep
    only cells outside the next finer box.  Graded grids need a resolution
    divisible by 4, so the finer box's edges are cell edges and the union
    is an exact partition (else they cut through cell centres).  A plain
    box (grading_levels = 0) is one level that keeps every cell.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2 per axis")
    if grading_levels < 0:
        raise ValueError(f"grading_levels must be >= 0, got {grading_levels}")
    lo, hi = float(box[0]), float(box[1])
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"box must be finite with lo < hi, got ({lo}, {hi})")
    if grading_levels:
        if abs(lo + hi) > 1e-12:
            raise ValueError("graded grids require an origin-centered box")
        if resolution % 4:
            raise ValueError("graded grids require a resolution divisible by 4")
        lo = -hi  # a box centred within 1e-12 is graded as (-hi, hi)
    full = resolution ** d
    if full + grading_levels * (full - (resolution // 2) ** d) > MAX_ATOMS:
        raise ValueError("atom count overflow")
    out = []
    for level in range(grading_levels + 1):
        s = 2.0 ** (-level)
        edges = np.linspace(lo * s, hi * s, resolution + 1)
        axes = (0.5 * (edges[:-1] + edges[1:]),) * d
        keep = np.ones((resolution,) * d, dtype=bool)
        if level < grading_levels:
            rad = np.max(np.abs(_product(*axes)), axis=1)
            keep = (rad > hi * s / 2.0).reshape(keep.shape)
        out.append((axes, keep, (hi * s - lo * s) / resolution))
    return out


def make_lebesgue(d, box=None, resolution=64, grading_levels=0):
    """Uniform (optionally origin-graded) grid measure, alpha = d.

    Weight of each atom is its cell volume, so the cloud is exactly the
    restriction of Lebesgue measure to the box at the grid's resolution.
    With ``grading_levels`` > 0 the box must be centered at the origin and
    cells are refined dyadically toward it (still an exact partition).
    Atoms are the levels of graded_level_structure in order, each level's
    kept cells in C order.
    """
    lo, hi = (-1.0, 1.0) if box is None else (float(box[0]), float(box[1]))
    levels = graded_level_structure(d, (lo, hi), resolution, grading_levels)
    return DiscreteMeasure(
        atoms=np.concatenate([_product(*axes)[keep.ravel()]
                              for axes, keep, _ in levels]),
        weights=np.concatenate([np.full(np.count_nonzero(keep), cell ** d)
                                for _, keep, cell in levels]),
        alpha=float(d),
        c_mu=unit_ball_volume(d) * 1.1,
        resolution=levels[-1][2],
        generator=f"lebesgue(d={d}, box=({lo},{hi}), resolution={resolution}, "
                  f"grading={grading_levels})",
    )


def _signed_power_integral(a, b, p):
    """Exact integral of |u|^p over [a, b] for p > -1."""
    def prim(u):
        return math.copysign(abs(u) ** (p + 1.0), u) / (p + 1.0)
    return prim(b) - prim(a)


def _graded_symmetric_edges(extent, resolution, grading_levels):
    """Partition of [-extent, extent] refined geometrically toward 0: the
    uniform edges and, once per grading level, the two edges next to 0
    halved again."""
    resolution += resolution % 2
    edges = np.linspace(-extent, extent, resolution + 1)
    # linspace can put the middle edge at +-1e-17 instead of 0
    edges[resolution // 2] = 0.0
    near = edges[[resolution // 2 - 1, resolution // 2 + 1], None]
    return np.unique(np.append(edges, near / 2.0 ** np.arange(1, grading_levels + 1)))


def make_appendix_a(d, alpha, j, extent=1.0, resolution=32, grading_levels=0):
    """Singular slice measure: point mass in x_1..x_j times |x_{j+1}|^p density.

    p = alpha - d + j on the bracket d-j-1 < alpha <= d-j.  The density is
    integrated exactly per cell; the first live axis may be graded toward
    its singularity at 0.  extent must be finite and positive.
    """
    if not 0.0 < extent < math.inf:
        raise ValueError(f"extent must be finite and > 0, got {extent}")
    if not (0 <= j < d):
        raise ValueError("j must satisfy 0 <= j < d")
    if not (d - j - 1 < alpha <= d - j):
        raise ValueError(f"alpha={alpha} outside bracket ({d - j - 1}, {d - j}]")
    p = alpha - d + j
    if not p > -1.0:  # alpha a hair above d - j - 1
        raise ValueError(f"alpha={alpha} is too close to {d - j - 1}: "
                         f"p = alpha - d + j rounds to {p}")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    live = d - j
    sing_edges = _graded_symmetric_edges(extent, resolution, grading_levels)
    sing_centers = 0.5 * (sing_edges[:-1] + sing_edges[1:])
    sing_weights = np.array([
        _signed_power_integral(a, b, p)
        for a, b in zip(sing_edges[:-1], sing_edges[1:])
    ])
    flat_edges = np.linspace(-extent, extent, resolution + 1)
    flat_centers = 0.5 * (flat_edges[:-1] + flat_edges[1:])
    flat_cell = 2.0 * extent / resolution
    flat_cells = np.full(flat_centers.size, flat_cell)
    sing_cells = np.diff(sing_edges)

    # per axis (centres, masses, widths); each of the j point-mass axes is
    # the single point 0, of unit mass and no width
    point = (np.zeros(1), np.ones(1), np.zeros(1))
    centers, masses, widths = zip(
        *([point] * j + [(sing_centers, sing_weights, sing_cells)]
          + [(flat_centers, flat_cells, flat_cells)] * (live - 1)))
    if math.prod(c.size for c in centers) > MAX_ATOMS:
        raise ValueError("atom count overflow")

    # worst ball mass: square of side 2 rho around the singular axis (p <= 0)
    c_mu = 2.0 ** live / (p + 1.0)
    res = float(np.min(sing_cells))
    return DiscreteMeasure(
        atoms=_product(*centers),
        weights=np.prod(_product(*masses), axis=1),
        alpha=float(alpha),
        c_mu=c_mu,
        resolution=min(res, flat_cell),
        generator=f"appendix_a(d={d}, alpha={alpha}, j={j}, extent={extent}, "
                  f"resolution={resolution}, grading={grading_levels})",
        local_resolution=np.max(_product(*widths), axis=1),
    )


def make_cantor(d, ratio, depth):
    """Self-similar product measure with alpha = d*log2/log(1/ratio)."""
    if not (0.0 < ratio < 0.5):
        raise ValueError("ratio must lie in (0, 1/2)")
    if not 0 <= depth <= 20:
        raise ValueError("depth must lie in 0..20")
    if depth == 0:
        atoms = np.full((1, d), 0.5)
        alpha = d * math.log(2.0) / math.log(1.0 / ratio)
        # degenerate single-atom case: certificate only above the floor
        floor = AUDIT_FLOOR_FACTOR * 1.0
        return DiscreteMeasure(
            atoms=atoms, weights=np.ones(1), alpha=alpha,
            c_mu=floor ** (-alpha), resolution=1.0,
            generator=f"cantor(d={d}, ratio={ratio}, depth=0) [degenerate]",
        )
    if (2 ** depth) ** d > MAX_ATOMS:
        raise ValueError("atom count overflow")
    starts = np.array([0.0])
    length = 1.0
    for _ in range(depth):
        starts = np.concatenate([starts, starts + length * (1.0 - ratio)])
        length *= ratio
    # the upper half mirrors the lower one, so centers1 is exactly
    # symmetric about 1/2 and grid factors can be formed for half its rows
    lower = np.sort(starts + length / 2.0)[: 2 ** (depth - 1)]
    centers1 = np.concatenate([lower, 1.0 - lower[::-1]])
    alpha1 = math.log(2.0) / math.log(1.0 / ratio)
    atoms = _product(*([centers1] * d))
    weights = np.full(atoms.shape[0], 2.0 ** (-depth * d))
    alpha = d * alpha1
    c_mu = (2.0 * ratio ** (-alpha1)) ** d
    return DiscreteMeasure(
        atoms=atoms, weights=weights, alpha=alpha, c_mu=c_mu,
        resolution=length,
        generator=f"cantor(d={d}, ratio={ratio}, depth={depth})",
    )


# ---------------------------------------------------------------------------
# log-log slopes and the regularity audit
# ---------------------------------------------------------------------------


def fit_line(xs, ys):
    """Least-squares slope, intercept, and slope standard error in log2 of
    one y per x at two distinct x or more, each x and y finite and > 0."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"log-log fit needs one y per x, got {x.size} x and {y.size} y")
    bad = ~((x > 0) & (x < math.inf) & (y > 0) & (y < math.inf))
    if np.any(bad):
        raise ValueError(f"log-log fit needs finite values > 0; at x = "
                         f"{float(x[bad][0])} it got y = {float(y[bad][0])}")
    x, y = np.log2(x), np.log2(y)
    if np.unique(x).size < 2:
        raise ValueError(f"log-log fit needs two distinct x, got {xs}")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(x.size - 2, 1)
    varx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / varx)
    return float(slope), float(intercept), stderr


def _ball_masses(tree, weights, centers, radii):
    """Masses sum(weights of atoms within distance rho of c), shape
    (centres, radii): one weighted cumulative count of the atom tree against
    each centre gives that centre's mass at every radius in one traversal."""
    radii = np.asarray(radii, dtype=float)
    bad = radii[~((radii >= 0.0) & (radii < math.inf))]
    if bad.size:
        raise ValueError(f"ball radius must be finite and >= 0, got {bad[0]}")
    # each centre's tree is a KDTree (the cKDTree subclass): bench/tracing.py
    # puts a counting proxy in place of measures.cKDTree, and count_neighbors
    # takes only a real tree as its argument
    return np.array([tree.count_neighbors(KDTree(c[None]), radii,
                                          weights=(weights, None))
                     for c in centers])


@dataclass(frozen=True)
class AuditReport:
    c_est: float
    exponent_fit: float
    passed: bool
    worst_center: np.ndarray
    worst_radius: float
    floor: float


def regularity_audit(mu, n_centers=AUDIT_CENTERS, seed=0):
    """Estimate sup mu(B(x, rho))/rho^alpha over atoms and dyadic radii.

    The discretization floor is per center: radii below 4x the local atom
    spacing (nearest-neighbor distance) are ignored there, so graded clouds
    are audited honestly at every scale they actually resolve.  Passes iff
    the estimate is <= C_mu * AUDIT_SLACK.
    """
    if mu.n == 0:
        raise ValueError(f"regularity_audit needs atoms; {mu.generator!r} has none")
    if n_centers < 1:
        raise ValueError(f"n_centers must be >= 1, got {n_centers}")
    rng = np.random.default_rng(seed)
    idx = (slice(None) if mu.n <= n_centers
           else rng.choice(mu.n, size=n_centers, replace=False))
    centers = mu.atoms[idx]
    tree = mu.tree()
    if mu.local_resolution is not None:
        nn = mu.local_resolution[idx]
    elif mu.n > 1:
        nn = np.maximum(tree.query(centers, k=2)[0][:, 1], 1e-300)
    else:
        nn = np.full(centers.shape[0], mu.resolution)
    floors = AUDIT_FLOOR_FACTOR * nn
    floor = float(np.min(floors))
    diam = max(mu.diameter(), floor * 2.0)
    radii = []
    r = diam
    while r >= floor:
        radii.append(r)
        r /= 2.0
    table = _ball_masses(tree, mu.weights, centers, radii)
    worst = -1.0
    worst_center = centers[0]
    worst_radius = radii[0]
    fit_r, fit_m = [], []
    for j, rho in enumerate(radii):
        valid = floors <= rho
        if not np.any(valid):
            continue
        live = centers[valid]
        masses = table[valid, j]
        ratios = masses / rho ** mu.alpha
        k = int(np.argmax(ratios))
        if rho <= diam / 4.0:
            # saturation near the diameter would bias the exponent fit
            fit_r.append(rho)
            fit_m.append(max(float(np.max(masses)), 1e-300))
        if ratios[k] > worst:
            worst = float(ratios[k])
            worst_center = live[k]
            worst_radius = rho
    fit = fit_line(fit_r, fit_m)[0] if len(fit_r) > 1 else float("nan")
    return AuditReport(
        c_est=worst,
        exponent_fit=fit,
        passed=worst <= mu.c_mu * AUDIT_SLACK,
        worst_center=np.asarray(worst_center),
        worst_radius=float(worst_radius),
        floor=floor,
    )


# ---------------------------------------------------------------------------
# pushforward and rescaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PushforwardSpec:
    """Anisotropic rescale y = D_h A x with the certified constant update."""

    a: ExponentTuple
    h: float
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if not (0.0 < abs(self.h) <= 1.0):
            raise ValueError("h must satisfy 0 < |h| <= 1")
        object.__setattr__(self, "a", ExponentTuple(self.a))
        m = np.eye(self.a.d) if self.matrix is None else np.asarray(self.matrix, dtype=float)
        if not np.all(np.isfinite(m)):
            raise ValueError(f"matrix A must be finite, got {m.tolist()}")
        if abs(np.linalg.det(m)) < 1e-300:
            raise ValueError("matrix A must be nonsingular")
        object.__setattr__(self, "matrix", m)

    def linear_map(self):
        return diagonal_scaling(self.h, self.a) @ self.matrix


def rescaled_constant(c_mu, spec, alpha):
    """Certificate constant after pushforward, from the cube-covering count."""
    inv_norm = float(np.linalg.norm(np.linalg.inv(spec.matrix), 2))
    return (c_mu * inv_norm ** alpha
            * abs(spec.h) ** pushforward_exponent(spec.a, alpha)
            * covering_constant(spec.a.d))


def pushforward(mu, spec):
    """Image measure under y = D_h A x; weights (hence all integrals) unchanged.

    The defining identity is integral of F against the image equals the
    integral of F(D_h A x) against the original, which is exactly atom
    relabeling for a point cloud.
    """
    if spec.a.d != mu.d:
        raise ValueError("tuple dimension does not match measure dimension")
    lin = spec.linear_map()
    atoms = mu.atoms @ lin.T
    # conservative cell-scale update: the coarsest axis shrinks by at most
    # the operator norm, the scalar floor by the smallest singular value
    svals = np.linalg.svd(lin, compute_uv=False)
    smin, smax = float(np.min(svals)), float(np.max(svals))
    lr = None if mu.local_resolution is None else mu.local_resolution * smax
    return DiscreteMeasure(
        atoms=atoms,
        weights=mu.weights,
        alpha=mu.alpha,
        c_mu=rescaled_constant(mu.c_mu, spec, mu.alpha),
        resolution=mu.resolution * smin,
        generator=f"pushforward[h={spec.h}, a={spec.a}]({mu.generator})",
        local_resolution=lr,
    )


# ---------------------------------------------------------------------------
# mollified sup
# ---------------------------------------------------------------------------


def kernel_profile(r2, d):
    """Radial profile (1 + |x|^2)^{-(d+2)} as a function of |x|^2, formed in
    place: the float array r2 is overwritten with the profile and returned.

    One reciprocal of 1 + r2, then the integer power d + 2 by repeated
    squaring (most significant bit first), so no `pow` runs.
    """
    r2 += 1.0
    np.reciprocal(r2, out=r2)
    n = d + 2
    base = r2.copy() if n & (n - 1) else None
    for bit in bin(n)[3:]:
        r2 *= r2
        if bit == "1":
            r2 *= base
    return r2


def _tiled_sums(mu, lams, candidates):
    """sum_a w_a K(lam^2 |c - a|^2) per lambda and candidate c, over tiles of
    64 candidates x MOLLIFY_CHUNK atoms whose squared distances serve every lambda."""
    acc = np.zeros((len(lams), candidates.shape[0]))
    tiles = np.empty((2, min(candidates.shape[0], 64) * min(mu.n, MOLLIFY_CHUNK)))
    for start in range(0, candidates.shape[0], 64):
        cs, acs = candidates[start : start + 64], acc[:, start : start + 64]
        for a0 in range(0, mu.n, MOLLIFY_CHUNK):
            block = mu.atoms[a0 : a0 + MOLLIFY_CHUNK]
            r2, work = tiles[:, : cs.shape[0] * block.shape[0]].reshape(2, cs.shape[0], -1)
            np.subtract(cs[:, :1], block[None, :, 0], out=r2)
            r2 *= r2
            for k in range(1, mu.d):
                np.subtract(cs[:, k, None], block[None, :, k], out=work)
                work *= work
                r2 += work
            for i, lam in enumerate(lams):
                np.multiply(r2, lam * lam, out=work)
                acs[i] += kernel_profile(work, mu.d) @ mu.weights[a0 : a0 + MOLLIFY_CHUNK]
    return acc


def _kernel_sums(mu, lams, candidates):
    """_tiled_sums, summed per axis where the atoms are a product of axes of
    one weight w: with D_k the distinct (c_k - a_k)^2 (exact floats) over the
    candidates' distinct k-th coordinates c_k and axis k, and A_k[p, c_k] the
    count of a_k at D_k[p], the sum is w sum_{p, q, ...} A_0[p, c_0] A_1[q, c_1]
    ... K(lam^2 (D_0[p] + D_1[q] + ...)): the tiled sum's kernel values, in
    row blocks of at most 64 x MOLLIFY_CHUNK (or one row), contracted with the
    A_k by GEMMs.  That runs only if its output, one entry per tuple of
    distinct c_k, fits in 64 x MOLLIFY_CHUNK and its kernel values, count and
    output entries are fewer than candidates x atoms."""
    axes = _tensor_axes(mu.atoms)
    if axes is None or np.any(mu.weights != mu.weights[0]):
        return _tiled_sums(mu, lams, candidates)
    picks, dists, counts = [], [], []
    for axis, c in zip(axes, candidates.T):
        cs, pick = np.unique(c, return_inverse=True)
        dist, idx = np.unique(np.square(cs[:, None] - axis), return_inverse=True)
        cells = idx.reshape(cs.size, -1) * cs.size + np.arange(cs.size)[:, None]
        picks.append(pick)
        dists.append(dist)
        counts.append(np.bincount(cells.ravel(), minlength=dist.size * cs.size)
                      .reshape(dist.size, cs.size).astype(float))
    sizes, outs = [t.size for t in dists], [a.shape[1] for a in counts]
    formed = math.prod(sizes) + math.prod(outs) + sum(a.size for a in counts)
    if math.prod(outs) > 64 * MOLLIFY_CHUNK or formed >= candidates.shape[0] * mu.n:
        return _tiled_sums(mu, lams, candidates)
    rows = max(1, 64 * MOLLIFY_CHUNK // math.prod(sizes[1:]))
    acc, tile = np.zeros((len(lams), *outs)), np.empty(rows * math.prod(sizes[1:]))
    for p0 in range(0, sizes[0], rows):
        r2 = reduce(np.add.outer, dists[1:], dists[0][p0 : p0 + rows])
        work = tile[: r2.size].reshape(r2.shape)
        for i, lam in enumerate(lams):
            t = kernel_profile(np.multiply(r2, lam * lam, out=work), mu.d)
            for a in counts[1:]:
                t = np.tensordot(t, a, axes=(1, 0))
            acc[i] += np.tensordot(counts[0][p0 : p0 + rows], t, axes=(0, 0))
    return mu.weights[0] * acc[(slice(None), *picks)]


def _mollified_sups(mu, lams, candidates):
    """mollified_sup at every lambda, with one pass for all (_kernel_sums)."""
    bad = [lam for lam in lams if not 1.0 <= lam < math.inf]
    if bad:
        raise ValueError(f"lambda must be finite and >= 1, got {bad[0]}")
    if candidates is None:
        candidates = np.vstack([mu.atoms[::max(1, mu.n // 512)], np.zeros((1, mu.d))])
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    shape = candidates.shape
    if not (len(shape) == 2 and shape[0] >= 1 and shape[1] == mu.d
            and np.all(np.isfinite(candidates))):
        raise ValueError(f"candidates must be finite, of shape (k >= 1, {mu.d}); "
                         f"got shape {shape}")
    sums = _kernel_sums(mu, lams, candidates)
    return [float(np.max(a)) * lam ** mu.d for a, lam in zip(sums, lams)]


def mollified_sup(mu, lam, candidates=None):
    """Sup over candidate centers of the lambda-mollified measure.

    Evaluates sum_y lambda^d phi(lambda (x - y)) dmu(y) with the heavy-tail
    polynomial profile, per axis on a product of axes of one weight; the
    candidates default to every (n // 512)-th atom and the origin.
    """
    return _mollified_sups(mu, [lam], candidates)[0]


def mollified_slope(mu, lams, candidates=None):
    """Least-squares slope of log2 mollified_sup against log2 lambda, with
    every lambda's sup from one pass over the atoms."""
    lams = list(lams)
    if not mu.total_mass() > 0.0:
        raise ValueError(f"mollified_slope needs positive mass; {mu.generator!r} has none")
    vals = _mollified_sups(mu, lams, candidates)
    return fit_line(lams, vals)[0], vals
