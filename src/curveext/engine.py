"""Oscillatory extension-operator evaluation at desk scale.

Computes T f(x) = integral of exp(i lambda x.gamma(t)) f(t) dt over panels
of Gauss-Legendre nodes sized to the oscillation budget, one exp per
target block and node chunk of whole pieces, or factored per axis when
the targets are a tensor product, where the members of a test family
stack their amplitude-weighted axis-0 factors into one GEMM.  An axis
symmetric about c forms half its phase factors (the rest are
exp(2 i lam c g) times their conjugates); a grid centred on 0 forms half
its rows, as T f(-x) = conj T f(x), f real, so there members go in pairs
and a graded sweep reduces just those rows (_family_blocks).
Summation order is fixed (node chunks combined by compensated addition per
target), so results are byte-identical regardless of worker partitioning.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, combinations, product

import numpy as np
from numpy.polynomial import polynomial as npoly

from .curves import affine_weight, jacobian_constant, model_curve
from .measures import _tensor_axes

NODES_PER_WAVELENGTH = 10
PANEL_ORDER = 16
NODE_CHUNK = 8192
SCATTER_CHUNK = 256
PHASE_RESTART = 64
TARGET_BLOCK = 256
SELF_CHECK_STRIDE = 100
SELF_CHECK_TOL = 1e-6
GRADE_MIN_WIDTH = 1e-9
# nodes one rule may hold (256 MiB of nodes and weights)
MAX_NODES = 1 << 24

_GLX, _GLW = np.polynomial.legendre.leggauss(PANEL_ORDER)


class QuadratureBudgetError(RuntimeError):
    """Doubled-resolution self-check exceeded the declared tolerance."""


class SeparationError(ValueError):
    """Support separation precondition violated."""


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Real-valued function on [0,1] with closed-form or quadrature norms.

    kind is one of "indicator", "bump", "trig", supported on [lo, hi];
    the zero function is an indicator of an empty support.  A bump's
    coeffs (plo, phi) are the support of its profile
    exp(1 - 1/(1 - u^2)), u = 2 (t - plo) / (phi - plo) - 1; `restrict`
    keeps them while it narrows [lo, hi], so a restriction is always f
    times an indicator.
    A trig function's coeffs (a0, a1, b1, a2, b2, ...) give
    a0 + sum_k a_k cos(2 pi k t) + b_k sin(2 pi k t); it is evaluated as
    a0 + Re sum_k (a_k - i b_k) z^k, z = exp(2 pi i t), by Horner: one
    complex exp and `degree` complex multiply-adds per point.
    """

    kind: str
    lo: float
    hi: float
    coeffs: tuple = ()

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"test function ends must be finite, got "
                             f"[{self.lo}, {self.hi}]")

    @property
    def width(self):
        return max(self.hi - self.lo, 0.0)

    def bandwidth(self):
        """Oscillation scale of the amplitude itself, rad per unit t."""
        if self.kind == "indicator":
            return 0.0
        if self.kind == "bump":
            plo, phi = self.coeffs
            return 20.0 / max(abs(phi - plo), 1e-12)
        if self.kind == "trig":
            deg = len(self.coeffs) // 2
            return 2.0 * math.pi * deg
        raise ValueError(self.kind)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        mask = (t >= self.lo) & (t <= self.hi)
        if self.width == 0.0:
            return np.zeros_like(t)
        if self.kind == "indicator":
            return mask.astype(float)
        if self.kind == "bump":
            plo, phi = self.coeffs
            u = 2.0 * (t - plo) / (phi - plo) - 1.0
            out = np.zeros_like(t)
            inner = mask & (np.abs(u) < 1.0)
            out[inner] = np.exp(1.0 - 1.0 / (1.0 - u[inner] ** 2))
            return out
        if self.kind == "trig":
            poly = np.concatenate(([0.0], self._trig_terms()))
            out = self.coeffs[0] + npoly.polyval(np.exp(2j * math.pi * t), poly).real
            return np.where(mask, out, 0.0)
        raise ValueError(self.kind)

    def _trig_terms(self):
        """a_k - i b_k for k = 1 ... degree, complex."""
        ab = np.asarray(self.coeffs[1:], dtype=float)
        if ab.size % 2:  # a last a_k without its b_k
            ab = np.append(ab, 0.0)
        return ab[0::2] - 1j * ab[1::2]

    def lp_norm(self, p):
        check_exponent("p", p)
        if self.width == 0.0:
            return 0.0
        if self.kind == "indicator":
            if p == math.inf:
                return 1.0
            return self.width ** (1.0 / p)
        # bump and trig: dense panel quadrature on the support
        n = max(int(self.bandwidth() * self.width * 4), 256)
        edges = np.linspace(self.lo, self.hi, n // PANEL_ORDER + 2)
        ts, ws = _panel_nodes(edges[:-1], edges[1:])
        return _scaled_norm(np.abs(self(ts)), ws, p)


def indicator(lo, hi):
    return TestFunction("indicator", float(lo), float(hi))


def bump(lo, hi):
    return TestFunction("bump", float(lo), float(hi), coeffs=(float(lo), float(hi)))


def zero_function():
    return indicator(0.0, 0.0)


def trig_poly(seed, degree=64):
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    rng = np.random.default_rng(seed)
    coeffs = tuple(rng.standard_normal(2 * degree + 1) / math.sqrt(2 * degree + 1))
    return TestFunction("trig", 0.0, 1.0, coeffs=coeffs)


def restrict(f, lo, hi):
    """f times the indicator of [lo, hi]."""
    # lo and hi first, so that a NaN end is kept and TestFunction rejects it
    nlo, nhi = max(float(lo), f.lo), min(float(hi), f.hi)
    if nhi <= nlo:
        return zero_function()
    return TestFunction(f.kind, nlo, nhi, coeffs=f.coeffs)


def pullback(f, tau, h):
    """The reparametrized function s -> f(h s + tau).

    Exact for indicators and bumps (both are shape-invariant under affine
    reparametrization of their support and a bump's profile);
    trigonometric test functions do not stay in the family and are rejected.
    """
    if f.kind not in ("indicator", "bump"):
        raise ValueError(f"pullback not closed for kind {f.kind!r}")
    if not 0.0 < abs(h) < math.inf:
        raise ValueError(f"h must be finite and nonzero, got {h}")
    return TestFunction(f.kind, (f.lo - tau) / h, (f.hi - tau) / h,
                        coeffs=tuple((c - tau) / h for c in f.coeffs))


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------


def _panel_nodes(lo, hi):
    """Gauss-Legendre nodes and weights on the panels [lo_k, hi_k]."""
    mids = 0.5 * (lo + hi)
    halves = 0.5 * (hi - lo)
    ts = (mids[:, None] + halves[:, None] * _GLX).ravel()
    ws = (halves[:, None] * _GLW).ravel()
    return ts, ws


def _graded_cuts(lo, hi, grade_points):
    """lo, hi and the sorted cuts between them: each grade point inside,
    and geometric (ratio 2) cuts toward each graded segment end."""
    segs = sorted({lo, hi} | {float(p) for p in grade_points if lo < p < hi})
    cuts = set(segs)
    for a, b in zip(segs[:-1], segs[1:]):
        for endpoint, mirror in ((a, False), (b, True)):
            if any(abs(endpoint - p) < 1e-15 for p in grade_points):
                w = b - a
                while w / 2.0 > GRADE_MIN_WIDTH:
                    w /= 2.0
                    cuts.add(a + w if not mirror else b - w)
    return sorted(cuts)


@dataclass(frozen=True)
class QuadratureRule:
    """Panelized nodes/weights for support intervals and an oscillation
    budget; the first counts[0] nodes are piece 0's, the next piece 1's...
    panels holds the left and the right ends of the panels, in node order."""

    nodes: np.ndarray
    weights: np.ndarray
    omega: float
    counts: np.ndarray
    panels: tuple

    @property
    def n(self):
        return self.nodes.size


def _budget(nodes, omega):
    if nodes > MAX_NODES:
        raise QuadratureBudgetError(f"rule at omega={omega:.3e} needs {nodes} nodes, "
                                    f"over MAX_NODES={MAX_NODES}")


def _panel_rule(left, right, omega, counts):
    """The rule on the panels [left_k, right_k], in order."""
    ts, ws = _panel_nodes(left, right)
    return QuadratureRule(ts, ws, omega, counts, (left, right))


def _split_rule(rule, split):
    """`rule` with every panel cut in `split` equal panels: the self-check's
    finer rule, distinct from `rule` even on a support inside one panel."""
    _budget(int(rule.counts.max(initial=0)) * split, rule.omega)
    left, right = rule.panels
    left = left[:, None] + (right - left)[:, None] * (np.arange(split) / split)
    right = np.concatenate((left[:, 1:], right[:, None]), axis=1).ravel()
    return _panel_rule(left.ravel(), right, rule.omega, rule.counts * split)


def build_rules(pieces, omega, nodes_per_wavelength=NODES_PER_WAVELENGTH,
                grade_points=None):
    """One rule holding each piece's own rule, in piece order.

    Panel width keeps wavelengths-per-panel at PANEL_ORDER /
    nodes_per_wavelength; grade points (one tuple per piece) get
    geometrically refined panels (weight singularities).  Python lists each
    piece's segments; one numpy pass places all nodes.  omega is the
    largest piece's; omega must be finite and >= 0, nodes_per_wavelength
    finite and > 0.
    """
    if not 0.0 <= omega < math.inf:
        raise ValueError(f"omega must be finite and >= 0, got {omega}")
    if not 0.0 < nodes_per_wavelength < math.inf:
        raise ValueError("nodes_per_wavelength must be finite and > 0, "
                         f"got {nodes_per_wavelength}")
    segs, counts, omega_max = [], [], omega
    for k, f in enumerate(pieces):
        if f.hi <= f.lo:
            counts.append(0)
            continue
        omega_tot = omega + f.bandwidth()
        base = (2.0 * math.pi / max(omega_tot, 1e-9)) * PANEL_ORDER / nodes_per_wavelength
        base = min(base, f.hi - f.lo)
        cuts = (_graded_cuts(f.lo, f.hi, grade_points[k])
                if grade_points and grade_points[k] else (f.lo, f.hi))
        # each segment in equal panels at most base wide, graded panels
        # included in the budget, checked before any array is built
        panels = [max(1, math.ceil((b - a) / base)) for a, b in zip(cuts[:-1], cuts[1:])]
        _budget(sum(panels) * PANEL_ORDER, omega_tot)
        segs += zip(cuts[:-1], cuts[1:], panels)
        counts.append(sum(panels) * PANEL_ORDER)
        omega_max = max(omega_max, omega_tot)
    a, b, n = np.array(segs, dtype=float).reshape(-1, 3).T
    n = n.astype(int)
    ends = n.cumsum()
    # the points np.linspace(a, b, n + 1) forms: a + i (b - a) / n, then b
    left = (np.arange(n.sum()) - (ends - n).repeat(n)) * ((b - a) / n).repeat(n) + a.repeat(n)
    right = np.append(left[1:], b[-1:])
    right[ends - 1] = b
    return _panel_rule(left, right, omega_max, np.array(counts, dtype=int))


def build_rule(f, omega, nodes_per_wavelength=NODES_PER_WAVELENGTH, grade_points=()):
    """Rule over supp f resolving `omega` radians per unit t: the
    one-piece case of build_rules."""
    return build_rules([f], omega, nodes_per_wavelength, [tuple(grade_points)])


def weight_zeros(curve, lo=0.0, hi=1.0):
    """Real roots of the torsion polynomial in [lo, hi] (weight singularities)."""
    out = {float(np.clip(r, lo, hi)) for r in curve.torsion_roots
           if lo - 1e-12 <= r <= hi + 1e-12}
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# the evaluation core: one set-up and one self-check behind two front ends,
# scattered targets and tensor grids
# ---------------------------------------------------------------------------


def _rule(curve, pieces, lam, xmax, alpha, nodes_per_wavelength):
    """The rule for T up to |x| = xmax over all pieces (each a function or
    one restricted to a subinterval); ValueError unless lam is finite."""
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    # T at -lam is T at lam at -x: the same oscillation
    omega = abs(lam) * xmax * curve.velocity_sup()
    grades = None if alpha is None else [weight_zeros(curve, p.lo, p.hi) for p in pieces]
    return build_rules(pieces, omega, nodes_per_wavelength, grades)


def _amplitudes(fs, nodes, weights, aw, part):
    """f(t) times the weights [and aw, if any] over nodes[part], one real row
    per f in fs.  Trig members share one power table z^k, z = exp(2 pi i t),
    built by z^k = z^(k-1) z; each sums its own terms against it, so no row
    depends on the other members."""
    t = nodes[part]
    out, table = np.empty((len(fs), t.size)), None
    for row, f in zip(out, fs):
        if f.kind != "trig":
            row[:] = f(t)
            continue
        terms = f._trig_terms()
        if table is None or len(table) != terms.size:
            table = np.empty((terms.size, t.size), dtype=complex)
            table[:1] = np.exp(2j * math.pi * t)
            for k in range(1, terms.size):
                np.multiply(table[k - 1], table[0], out=table[k])
        row[:] = np.where((t >= f.lo) & (t <= f.hi), f.coeffs[0] + (terms @ table).real, 0.0)
    out *= weights[part]
    if aw is not None:
        out *= aw[part]
    return out


def _setup(curve, rule, alpha, f):
    """The rule's nodes' curve points (d, n) and f's complex amplitude over
    them: f(t) times the weights [and the affine weight, given alpha]."""
    amp = f(rule.nodes) * rule.weights
    if alpha is not None:
        amp *= affine_weight(curve, alpha, rule.nodes)
    return curve.point(rule.nodes).T.copy(), amp.astype(complex)


def _chunks(counts, cap):
    """[start, stop, offsets, pieces] per node chunk: whole consecutive pieces,
    at most cap nodes, or cap nodes of a larger piece (cap > 0); a piece
    without nodes is in no chunk.  One bisection step per chunk on the
    running sum of the counts (a list)."""
    ends = list(accumulate(counts))
    chunks, a = [], 0
    while ends and a < ends[-1]:
        k = bisect_right(ends, a)  # the piece holding node a
        # pieces k..last-1: those ending within a + cap, or piece k cut at it
        last = max(bisect_right(ends, a + cap, k), k + 1)
        b = min(ends[last - 1], a + cap)
        ks = [i for i in range(k, last) if counts[i]]
        chunks.append([a, b, [max(ends[i] - counts[i] - a, 0) for i in ks], ks])
        a = b
    return chunks


def _scatter(targets, gamma_nodes, amp, counts, lam, workers=1):
    """T at every target on each piece's nodes (counts[k] of them, in
    order): shape (len(counts), m).  Per target block and node chunk (one
    job), one exp of the phase sum_k x_k gamma_k and np.add.reduceat per
    piece; a piece's chunks add up by compensated addition, so no piece's
    value depends on another piece, on the worker count or on m."""
    m = targets.shape[0]
    # few targets take up to NODE_CHUNK nodes of whole pieces per job (a
    # one-target self-check is one job); a piece over NODE_CHUNK nodes is
    # still cut at the NODE_CHUNK boundaries, so no piece's sum changes
    cap = min(max(max(counts, default=0), SCATTER_CHUNK), NODE_CHUNK)
    cap = max(cap, NODE_CHUNK // max(min(m, TARGET_BLOCK), 1))
    chunks = _chunks(counts.tolist(), cap)
    jobs = [(i, c) for i in range(0, m, TARGET_BLOCK) for c in chunks]

    def run(job):
        i, (a, b, offsets, _) = job
        phase = sum(x[:, None] * g for x, g in zip(targets[i : i + TARGET_BLOCK].T,
                                                   gamma_nodes[:, a:b]))
        terms = np.exp(1j * lam * phase)
        terms *= amp[a:b]  # in place: a product array would raise the peak
        return np.add.reduceat(terms, offsets, axis=1).T

    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, jobs))
    else:
        parts = [run(job) for job in jobs]
    values = np.zeros((len(counts), m), dtype=complex)
    comp = np.zeros_like(values)
    for (i, (_, _, _, ks)), part in zip(jobs, parts):
        at = (ks, slice(i, i + TARGET_BLOCK))
        y = part - comp[at]
        t = values[at] + y
        comp[at] = (t - values[at]) - y
        values[at] = t
    return values


def _self_check(curve, rule, alpha, f, lam, points, got):
    """Recompute `got` (pieces x points), which `rule` gave, through the
    scattered kernel on `rule` with every panel split in two; disagreement
    beyond the absolute tolerance raises QuadratureBudgetError."""
    rule = _split_rule(rule, 2)  # frees a coarse rule the caller does not hold
    ref = _scatter(points, *_setup(curve, rule, alpha, f), rule.counts, lam)
    err = float(np.max(np.abs(got - ref), initial=0.0))
    if err > SELF_CHECK_TOL:
        # the rule that gave `got` has half the split rule's nodes, same omega
        raise QuadratureBudgetError(
            f"self-check error {err:.3e} at lambda={lam}, "
            f"nodes={rule.n // 2}, omega={rule.omega:.3e}"
        )


def extension_eval_pieces(curve, lam, targets, f, pieces, alpha=None, workers=1,
                          self_check=True,
                          nodes_per_wavelength=NODES_PER_WAVELENGTH):
    """T (f 1_I) at each target for each piece I: shape (len(pieces), m).

    `pieces` are f or restrict(f, ...) to subintervals.  Each gets the
    rule, target blocking and self-check extension_eval gives it alone.
    Scattered targets take f itself as amplitude, with one rule pass,
    curve points and amplitudes for all nodes and one phase pass per node
    chunk (see _scatter); targets that are a C-order
    tensor product take extension_eval_grid_family with the pieces as its
    members.  Since restrict keeps f 1_I for every kind, row k is
    byte-identical to extension_eval at pieces[k].  The self-check splits
    the panels of the rule that gave the values, rebuilt after the family.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.shape[1] != curve.d:
        raise ValueError("target dimension mismatch")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
    xmax = float(np.max(np.linalg.norm(targets, axis=1))) if targets.size else 0.0
    axes = _tensor_axes(targets)
    if axes is None:
        rule = _rule(curve, pieces, lam, xmax, alpha, nodes_per_wavelength)
        values = _scatter(targets, *_setup(curve, rule, alpha, f), rule.counts, lam,
                          workers)
    else:  # the family yields in chunk order, so rows are placed by index
        values = np.empty((len(pieces), targets.shape[0]), dtype=complex)
        for j, grid in extension_eval_grid_family(curve, lam, axes, pieces, alpha,
                                                  nodes_per_wavelength):
            values[j] = grid.ravel()
    if self_check and targets.shape[0] > 0:
        idx = np.arange(0, targets.shape[0], SELF_CHECK_STRIDE)
        _self_check(curve, rule if axes is None else
                    _rule(curve, pieces, lam, xmax, alpha, nodes_per_wavelength),
                    alpha, f, lam, targets[idx], values[:, idx])
    return values


def extension_eval(curve, lam, targets, f, alpha=None, workers=1,
                   self_check=True, nodes_per_wavelength=NODES_PER_WAVELENGTH):
    """T f at each target; optionally with the affine weight folded in.

    Deterministic for fixed inputs: node order and target blocking are
    fixed, so worker count never changes the result bytes.  Targets that
    are a C-order tensor product (a product measure's atoms) are
    contracted per axis, as on the grid, and `workers` has no effect.  A
    stride of targets is re-evaluated through the scattered kernel with
    every panel split in two; disagreement beyond the absolute tolerance
    raises QuadratureBudgetError.
    """
    return extension_eval_pieces(curve, lam, targets, f, [f], alpha, workers,
                                 self_check, nodes_per_wavelength)[0]


def _axis_factor(a, g, lam, centre=None):
    """exp(i lam a_k g) for every point a_k of one axis: shape (a.size, g.size).

    On a uniform axis (every a_k within 8 ulp of a_0 + k h) each block of
    PHASE_RESTART rows starts from a direct exp and steps by the recurrence
    U[k+1] = U[k] exp(i lam h g), whose step is U[0]^2 when the formed rows
    start half a step from 0 (2 a_0 == h exactly, as on an even axis
    centred on 0); otherwise every row is the direct exp.
    With a `centre` c (a + a[::-1] == 2c exactly) only the rows k >= n // 2,
    n = a.size, are formed; row k < n // 2 is exp(2 i lam c g) conj(row n-1-k).
    """
    half = 0 if centre is None else a.size // 2
    full = np.empty((a.size, g.size), dtype=complex)
    a, u = a[half:], full[half:]
    m = a.size
    h = (a[-1] - a[0]) / (m - 1) if m > 1 else 0.0
    drift = np.abs(a - (a[:1] + h * np.arange(m)))
    uniform = np.all(drift <= 8.0 * np.finfo(float).eps * np.max(np.abs(a), initial=0.0))
    block = PHASE_RESTART if uniform else 1
    np.exp(1j * lam * np.outer(a[::block], g), out=u[::block])
    if uniform:
        step = u[0] * u[0] if 2.0 * a[0] == h else np.exp(1j * lam * h * g)
        for k in range(1, m):
            if k % block:
                np.multiply(u[k - 1], step, out=u[k])
    np.conjugate(full[::-1][:half], out=full[:half])
    if centre:
        full[:half] *= np.exp(2j * lam * centre * g)
    return full


def _grid_planes(us, amps):
    """Yield (trailing index, T on the leading two axes per row of `amps`)
    over a tensor grid from its axis factors `us`: per trailing index, the
    rows times us[0], stacked, take one GEMM with us[1]."""
    rows, n = us[0].shape
    for idx in product(*(range(u.shape[0]) for u in us[2:])):
        a2 = amps
        for u, i in zip(us[2:], idx):
            a2 = a2 * u[i]
        yield idx, ((a2[:, None] * us[0]).reshape(-1, n) @ us[1].T).reshape(len(amps), rows, -1)


def _grid_values(us, amps):
    """Yield T on the tensor grid of the axis factors `us`, rows_k =
    us[k].shape[0] points on axis k, for each real amplitude row of `amps`,
    max(1, rows_1 // rows_0) rows at a time, so a batch's stack is no larger
    than us[1]; in d = 2 a view of the batch's GEMM product."""
    shape = tuple(u.shape[0] for u in us)
    per = max(1, shape[1] // shape[0])
    for r in range(0, len(amps), per):
        blocks = None
        for idx, planes in _grid_planes(us, amps[r : r + per]):
            if blocks is None:  # after the first GEMM has freed its operands
                blocks = np.empty((len(planes),) + shape, dtype=complex) if idx else planes
            if idx:
                blocks[(slice(None),) * 3 + idx] = planes
        yield from blocks


def _grid_xmax(axes):
    return math.sqrt(sum(float(np.max(np.abs(a), initial=0.0)) ** 2 for a in axes))


def _family_blocks(curve, lam, axes, fs, alpha, nodes_per_wavelength):
    """Yield (j, the rows of axis 0 that the kernel forms of T fs[j]): rows
    n // 2 ... n - 1, n = len(axes[0]), on a grid centred on 0 in every
    axis (T f(-x) = conj T f(x) gives the rest), else every row.

    Members with the same support and bandwidth share a rule; one pass
    builds all rules.  Chunks of whole groups, none larger than the largest
    group or SCATTER_CHUNK nodes, whichever is more, copy their nodes out of
    it and form their affine weight and every member's amplitude
    (_amplitudes), then the curve points and phase factors
    exp(i lam axis gamma_k), half of each on an axis symmetric about its
    centre; a group's members GEMM on its columns in batches (_grid_values).
    Chunks run smallest first, so the largest runs alone; members yield in
    that order.
    """
    if len(axes) != curve.d:
        raise ValueError("need one axis per coordinate")
    axes = [np.asarray(a, dtype=float) for a in axes]
    for k, a in enumerate(axes):
        if a.size == 0 or not np.all(np.isfinite(a)):
            raise ValueError(f"axis {k} must be non-empty and finite")
    groups = {}
    for j, f in enumerate(fs):
        groups.setdefault((f.lo, f.hi, f.bandwidth()), []).append(j)
    groups = list(groups.values())
    rule = _rule(curve, [fs[g[0]] for g in groups], lam, _grid_xmax(axes), alpha,
                 nodes_per_wavelength)
    # each axis's centre c, if a + a[::-1] == 2c exactly, else None; on a grid
    # centred on 0, axis 0 from its middle row on
    centres = [0.5 * (a[0] + a[-1]) if np.all(a + a[::-1] == a[0] + a[-1]) else None
               for a in axes]
    if all(c == 0.0 for c in centres):
        axes[0], centres[0] = axes[0][axes[0].size // 2:], None
    counts = rule.counts.tolist()
    for k in np.flatnonzero(rule.counts == 0):
        for j in groups[k]:
            yield j, np.zeros(tuple(a.size for a in axes), dtype=complex)
    parts = [(rule.nodes[a:b].copy(), rule.weights[a:b].copy(), offsets + [b - a], ks)
             for a, b, offsets, ks in _chunks(counts, max([SCATTER_CHUNK] + counts))]
    del rule  # chunks hold copies, so each is freed once it has run
    parts.sort(key=lambda part: -part[0].size)
    while parts:
        nodes, weights, bounds, ks = parts.pop()
        aw = None if alpha is None else affine_weight(curve, alpha, nodes)
        amps = [_amplitudes([fs[j] for j in groups[k]], nodes, weights, aw, slice(lo, hi))
                for k, lo, hi in zip(ks, bounds, bounds[1:])]
        gs = curve.point(nodes).T
        us = [_axis_factor(a, g, lam, c) for a, g, c in zip(axes, gs, centres)]
        for k, lo, hi, amp in zip(ks, bounds, bounds[1:], amps):
            yield from zip(groups[k], _grid_values([u[:, lo:hi] for u in us], amp))
        del nodes, weights, aw, amps, us  # before the next chunk builds its own


def extension_eval_grid_family(curve, lam, axes, fs, alpha=None,
                               nodes_per_wavelength=NODES_PER_WAVELENGTH):
    """Yield (j, T fs[j] on the tensor grid spanned by `axes`) for every j,
    in the order of _family_blocks, in a new array: the formed rows and, on
    a grid centred on 0, their mirror image T f(-x) = conj T f(x)."""
    for j, block in _family_blocks(curve, lam, axes, fs, alpha, nodes_per_wavelength):
        half = np.size(axes[0]) - block.shape[0]
        yield j, np.concatenate((np.flip(block)[:half].conj(), block))


def extension_eval_grid(curve, lam, axes, f, alpha=None, self_check=True,
                        nodes_per_wavelength=NODES_PER_WAVELENGTH):
    """T f on the tensor grid spanned by per-coordinate `axes`.

    Agrees with extension_eval at every grid point but factors the phase
    per axis, so the exp cost scales with the axis lengths rather than
    the full grid size.  Returns an array of shape (len(axes[0]), ...).
    The self-check recomputes the near and far corners and the centre.
    """
    (_, values), = extension_eval_grid_family(curve, lam, axes, [f], alpha,
                                              nodes_per_wavelength)
    if self_check and f.hi > f.lo:
        picks = ((0,) * values.ndim, tuple(s - 1 for s in values.shape),
                 tuple(s // 2 for s in values.shape))
        points = np.array([[float(a[i]) for a, i in zip(axes, ix)] for ix in picks])
        got = np.array([[values[ix] for ix in picks]])
        _self_check(curve, _rule(curve, [f], lam, _grid_xmax(axes), alpha,
                                 nodes_per_wavelength), alpha, f, lam, points, got)
    return values


def check_exponent(name, value, least=1.0):
    """Raise ValueError naming the input unless least <= value (so NaN
    fails and infinity passes)."""
    if not least <= value:
        raise ValueError(f"{name} must be >= {least:g}, got {value}")


def lq_norm(values, mu, q):
    """L^q norm of per-atom values against the measure's weights; atoms of
    weight 0 do not count, at q = infinity either."""
    values = np.asarray(values)
    if values.shape[0] != mu.n:
        raise ValueError("values not aligned with measure atoms")
    check_exponent("q", q)
    live = mu.weights > 0.0
    return _scaled_norm(np.abs(values[live]), mu.weights[live], q)


def _scaled_norm(mod, weights, q):
    """(sum weights mod^q)^(1/q), or max mod at q = infinity, as
    M (sum weights (mod / M)^q)^(1/q) with M = max mod, so that no power
    underflows or overflows (Blue, ACM TOMS 4(1), 1978); M when M is 0 or
    infinite."""
    top = float(np.max(mod, initial=0.0))
    if q == math.inf or not 0.0 < top < math.inf:
        return top
    return top * float(np.sum(weights * (mod / top) ** q)) ** (1.0 / q)


# ---------------------------------------------------------------------------
# multilinear L2
# ---------------------------------------------------------------------------


def support_separation(fs):
    return min((max(g.lo - f.hi, f.lo - g.hi) for f, g in combinations(fs, 2)),
               default=math.inf)


@dataclass(frozen=True)
class MultilinearResult:
    lhs: float
    bound: float
    separation: float
    box_r: float
    grid_step: float
    tail_fraction: float

    @property
    def ratio(self):
        return self.lhs / self.bound if self.bound > 0 else math.inf


def plancherel_bound(curve, fs, lam):
    """Certified bound on ||prod T_lam f_i||_{L^2(dx)} for d factors with
    pairwise separated supports (sep apart) on the model curve:
    (2 pi / lam)^{d/2} c_d^{-1/2} sep^{-(d^2 - d)/4} prod ||f_i||_2,
    with c_d the model curve's sum-map Jacobian constant, and 0 with a zero
    factor.  ValueError unless the curve is the model curve, lam is finite
    and > 0 and the bound is finite."""
    d = curve.d
    if len(fs) != d:
        raise ValueError("need exactly d factors")
    if curve.coeffs != model_curve(d).coeffs:
        raise ValueError(f"the Plancherel bound needs the model curve, got {curve.coeffs}")
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    sep = support_separation(fs)
    if all(f.width > 0 for f in fs) and sep <= 0:
        raise SeparationError("supports must be pairwise separated")
    norms = math.prod(f.lp_norm(2) for f in fs)
    if norms == 0.0:  # a zero factor; else every width, and so sep, is > 0
        return 0.0
    try:
        bound = ((2.0 * math.pi) ** (d / 2.0) * lam ** (-d / 2.0)
                 / math.sqrt(jacobian_constant(d))
                 * sep ** (-(d * d - d) / 4.0)
                 * norms)
    except OverflowError:
        bound = math.inf
    if bound == math.inf:
        raise ValueError(f"the Plancherel bound overflows at lambda={lam}")
    return bound


def _sum_map_mass(fs, lam, panels):
    """(2 pi / lam)^d times the integral of prod f_i(t_i)^2 / |J(t)|, with
    J = 2 c_d prod_{i<j} (t_j - t_i) the model curve's sum-map Jacobian, by
    Gauss-Legendre on `panels` equal panels per support."""
    d = len(fs)
    if (PANEL_ORDER * panels) ** d > MAX_NODES:
        raise QuadratureBudgetError(f"sum-map rule in d={d} over MAX_NODES={MAX_NODES}")
    edges = [np.linspace(f.lo, f.hi, panels + 1) for f in fs]
    ts, ws = zip(*(_panel_nodes(e[:-1], e[1:]) for e in edges))
    ts, ws = (np.meshgrid(*v, indexing="ij", sparse=True) for v in (ts, ws))
    dens = math.prod(w * f(t) ** 2 for f, t, w in zip(fs, ts, ws))
    for ti, tj in combinations(ts, 2):
        dens /= np.abs(tj - ti)
    return (2.0 * math.pi / lam) ** d * float(np.sum(dens)) / (2.0 * jacobian_constant(d))


def multilinear_l2(curve, fs, lam, box_r=20.0,
                   nodes_per_wavelength=NODES_PER_WAVELENGTH):
    """L2 norm of the product of the d extensions against its Plancherel bound.

    The sum map t -> gamma(t_1) + ... + gamma(t_d) is one-to-one on
    separated supports (Newton's identities), so by Plancherel the squared
    norm is _sum_map_mass, on 2 panels checked against 4.  T checks it on
    [-box_r, box_r]^d at (half) the Nyquist step of the product's spectrum:
    the box's mass may exceed it by SELF_CHECK_TOL at most, and
    tail_fraction = 1 - box mass / mass.  Each factor is self-checked at the
    grid corner, where |x| is largest.  ValueError unless box_r is finite
    and > 0; QuadratureBudgetError before a plane or an axis factor over
    MAX_NODES is formed."""
    if not 0.0 < box_r < math.inf:
        raise ValueError(f"box_r must be finite and > 0, got {box_r}")
    bound = plancherel_bound(curve, fs, lam)
    d = curve.d
    sep = support_separation(fs)
    diam_sum = 0.0
    for f in fs:  # a zero factor's arc is one point, of diameter 0
        pts = curve.point(np.linspace(f.lo, f.hi, 65))
        diam_sum += float(np.max(np.linalg.norm(pts - pts[0], axis=1)))
    omega_x = max(lam * diam_sum, 1e-9)
    step = math.pi / omega_x
    if bound == 0.0:  # a zero factor
        return MultilinearResult(0.0, bound, sep, box_r, step, 0.0)

    mass, fine = (_sum_map_mass(fs, lam, panels) for panels in (2, 4))
    if abs(mass - fine) > SELF_CHECK_TOL * mass:
        raise QuadratureBudgetError(f"sum-map mass {mass:.9e} on 2 panels, {fine:.9e} on 4")
    m = 2.0 * box_r / step  # inf near the float maximum, where ceil would raise
    m = math.ceil(m) if m <= MAX_NODES else m
    if m * m > MAX_NODES:  # a plane's entries, checked before the axes and rules
        raise QuadratureBudgetError(f"box of {m} points per axis over MAX_NODES={MAX_NODES}")
    axes = [(-box_r + step * (np.arange(m) + 0.5)) for _ in range(d)]
    rules = [_rule(curve, [f], lam, _grid_xmax(axes), None, nodes_per_wavelength)
             for f in fs]
    n = max(rule.n for rule in rules)
    if m * n > MAX_NODES:  # an axis factor's entries
        raise QuadratureBudgetError(f"axis factor of {m} x {n} over MAX_NODES={MAX_NODES}")
    factors = [_grid_planes([_axis_factor(a, g, lam) for a, g in zip(axes, gs)], amp[None])
               for gs, amp in (_setup(curve, rule, None, f) for f, rule in zip(fs, rules))]
    corner = np.array([[a[0] for a in axes]])
    total = 0.0
    for planes in zip(*factors):
        idx, prod = planes[0]
        if not any(idx):  # the first plane: its [0, 0] entry is the corner
            for f, rule, (_, plane) in zip(fs, rules, planes):
                _self_check(curve, rule, None, f, lam, corner, plane[0, :1, :1])
        for _, plane in planes[1:]:
            prod = prod * plane
        total += float(np.sum(np.abs(prod) ** 2))
    total *= step ** d
    if total > mass * (1.0 + SELF_CHECK_TOL):
        raise QuadratureBudgetError(f"box mass {total:.9e} exceeds the sum-map mass {mass:.9e}")
    return MultilinearResult(math.sqrt(mass), bound, sep, box_r, step, 1.0 - total / mass)

