"""Oscillatory extension-operator evaluation at desk scale.

Computes T f(x) = integral of exp(i lambda x.gamma(t)) f(t) dt over panels
of Gauss-Legendre nodes sized to the oscillation budget, one exp per
target block and node chunk of whole pieces, or factored per axis when
the targets are a tensor product; a grid that is its own mirror forms half
its rows and conjugates them, as T f(-x) = conj T f(x) for real f.
Summation order is fixed (node chunks combined by compensated addition per
target), so results are byte-identical regardless of worker partitioning.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np
from numpy.polynomial import polynomial as npoly

from .curves import affine_weight, jacobian_constant
from .measures import _product

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
        vals = np.abs(self(ts))
        if p == math.inf:
            return float(np.max(vals))
        return float(np.sum(ws * vals ** p)) ** (1.0 / p)


def indicator(lo, hi):
    return TestFunction("indicator", float(lo), float(hi))


def bump(lo, hi):
    return TestFunction("bump", float(lo), float(hi), coeffs=(float(lo), float(hi)))


def zero_function():
    return indicator(0.0, 0.0)


def trig_poly(seed, degree=64):
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
    budget; the first counts[0] nodes are piece 0's, the next piece 1's..."""

    nodes: np.ndarray
    weights: np.ndarray
    omega: float
    counts: np.ndarray

    @property
    def n(self):
        return self.nodes.size


def build_rules(pieces, omega, nodes_per_wavelength=NODES_PER_WAVELENGTH,
                grade_points=None, split=1):
    """One rule holding each piece's own rule, in piece order.

    Panel width keeps wavelengths-per-panel at PANEL_ORDER /
    nodes_per_wavelength; grade points (one tuple per piece) get
    geometrically refined panels (weight singularities).  `split` > 1 then
    halves (thirds, ...) every panel, graded ones included: the
    self-check's finer rule, which must differ from the coarse one even
    when the support is narrower than one panel.  Python lists each
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
        # the uniform panels alone, before any array is built; grading only adds
        nodes = math.ceil((f.hi - f.lo) / base) * split * PANEL_ORDER
        if nodes > MAX_NODES:
            raise QuadratureBudgetError(
                f"rule at omega={omega_tot:.3e} needs {nodes} nodes, "
                f"over MAX_NODES={MAX_NODES}")
        cuts = (_graded_cuts(f.lo, f.hi, grade_points[k])
                if grade_points and grade_points[k] else (f.lo, f.hi))
        # each segment in equal panels at most base wide
        panels = [max(1, math.ceil((b - a) / base)) for a, b in zip(cuts[:-1], cuts[1:])]
        segs += zip(cuts[:-1], cuts[1:], panels)
        counts.append(sum(panels) * split * PANEL_ORDER)
        omega_max = max(omega_max, omega_tot)
    a, b, n = np.array(segs, dtype=float).reshape(-1, 3).T
    n = n.astype(int)
    ends = n.cumsum()
    # the points np.linspace(a, b, n + 1) forms: a + i (b - a) / n, then b
    left = (np.arange(n.sum()) - (ends - n).repeat(n)) * ((b - a) / n).repeat(n) + a.repeat(n)
    right = np.append(left[1:], b[-1:])
    right[ends - 1] = b
    if split > 1:
        left = left[:, None] + (right - left)[:, None] * (np.arange(split) / split)
        right = np.concatenate((left[:, 1:], right[:, None]), axis=1).ravel()
        left = left.ravel()
    ts, ws = _panel_nodes(left, right)
    return QuadratureRule(ts, ws, omega_max, np.array(counts, dtype=int))


def build_rule(f, omega, nodes_per_wavelength=NODES_PER_WAVELENGTH,
               grade_points=(), split=1):
    """Rule over supp f resolving `omega` radians per unit t: the
    one-piece case of build_rules."""
    return build_rules([f], omega, nodes_per_wavelength, [tuple(grade_points)], split)


def weight_zeros(curve, lo=0.0, hi=1.0):
    """Real roots of the torsion polynomial in [lo, hi] (weight singularities)."""
    out = {float(np.clip(r, lo, hi)) for r in curve.torsion_roots
           if lo - 1e-12 <= r <= hi + 1e-12}
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# the evaluation core: one set-up and one self-check behind two front ends,
# scattered targets and tensor grids
# ---------------------------------------------------------------------------


def _rule(curve, pieces, lam, xmax, alpha, nodes_per_wavelength, split=1):
    """The rule for T up to |x| = xmax over all pieces (each a function or
    one restricted to a subinterval); ValueError unless lam is finite."""
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    # T at -lam is T at lam at -x: the same oscillation
    omega = abs(lam) * xmax * curve.velocity_sup()
    grades = None if alpha is None else [weight_zeros(curve, p.lo, p.hi) for p in pieces]
    return build_rules(pieces, omega, nodes_per_wavelength, grades, split)


def _amplitude(f, nodes, weights, aw):
    """f(t) w(t) [affine weight aw, if any] over the nodes, complex."""
    amp = f(nodes) * weights
    return (amp if aw is None else amp * aw).astype(complex)


def _amplitudes(fs, nodes, weights, aw, part):
    """_amplitude of each f in fs, one real row each.  Trig members share
    one power table z^k, z = exp(2 pi i t), built by z^k = z^(k-1) z; each
    sums its own terms against it, so no row depends on the other members."""
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


def _setup(curve, pieces, lam, xmax, alpha, nodes_per_wavelength, split=1):
    """_rule, its nodes' curve points (d, n), and amplitude(f), the
    _amplitude of any f over its nodes."""
    rule = _rule(curve, pieces, lam, xmax, alpha, nodes_per_wavelength, split)
    aw = None if alpha is None else affine_weight(curve, alpha, rule.nodes)
    return rule, curve.point(rule.nodes).T.copy(), partial(
        _amplitude, nodes=rule.nodes, weights=rule.weights, aw=aw)


def _chunks(counts, cap):
    """[start, stop, offsets, pieces] per node chunk: whole consecutive pieces,
    at most cap nodes, or cap nodes of a larger piece (cap > 0)."""
    chunks, stop = [], 0
    for k, n in enumerate(counts):
        for a in range(stop, stop + n, cap):
            b = min(a + cap, stop + n)
            if chunks and b - chunks[-1][0] <= cap:
                chunks[-1][1:] = b, chunks[-1][2] + [a - chunks[-1][0]], chunks[-1][3] + [k]
            else:
                chunks.append([a, b, [0], [k]])
        stop += n
    return chunks


def _scatter(targets, gamma_nodes, amp, counts, lam, workers=1):
    """T at every target on each piece's nodes (counts[k] of them, in
    order): shape (len(counts), m).  Per target block and node chunk, one
    exp of the phase sum_k x_k gamma_k and np.add.reduceat per piece; a
    piece's chunks add up by compensated addition, so no piece's value
    depends on another piece or on the worker count."""
    m = targets.shape[0]
    cap = min(max(max(counts, default=0), SCATTER_CHUNK), NODE_CHUNK)
    jobs = [(i, c) for i in range(0, m, TARGET_BLOCK) for c in _chunks(counts.tolist(), cap)]

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


def _tensor_axes(targets):
    """The per-coordinate axes whose C-order product is `targets`, if it
    is one with at least two axes of more than one point; else None."""
    axes = [np.unique(c) for c in targets.T]
    sizes = [a.size for a in axes]
    if (sum(s > 1 for s in sizes) < 2 or math.prod(sizes) != targets.shape[0]
            or not np.array_equal(targets, _product(*axes))):
        return None
    return axes


def _self_check(setup, f, lam, points, got):
    """Recompute `got` (pieces x points) with every panel split in two,
    through the scattered kernel.

    `setup(split=...)` rebuilds the rule that gave `got`; disagreement
    beyond the absolute tolerance raises QuadratureBudgetError.
    """
    fine, gamma_nodes, amplitude = setup(split=2)
    ref = _scatter(points, gamma_nodes, amplitude(f), fine.counts, lam)
    err = float(np.max(np.abs(got - ref), initial=0.0))
    if err > SELF_CHECK_TOL:
        # the rule that gave `got` has half the split rule's nodes, same omega
        raise QuadratureBudgetError(
            f"self-check error {err:.3e} at lambda={lam}, "
            f"nodes={fine.n // 2}, omega={fine.omega:.3e}"
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
    byte-identical to extension_eval at pieces[k].
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.shape[1] != curve.d:
        raise ValueError("target dimension mismatch")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
    xmax = float(np.max(np.linalg.norm(targets, axis=1))) if targets.size else 0.0
    setup = partial(_setup, curve, pieces, lam, xmax, alpha,
                    nodes_per_wavelength)
    axes = _tensor_axes(targets)
    if axes is None:
        rule, gamma_nodes, amplitude = setup()
        values = _scatter(targets, gamma_nodes, amplitude(f), rule.counts, lam, workers)
    else:  # the family yields in chunk order, so rows are placed by index
        values = np.empty((len(pieces), targets.shape[0]), dtype=complex)
        for j, grid in extension_eval_grid_family(curve, lam, axes, pieces, alpha,
                                                  nodes_per_wavelength):
            values[j] = grid.ravel()
    if self_check and targets.shape[0] > 0:
        idx = np.arange(0, targets.shape[0], SELF_CHECK_STRIDE)
        _self_check(setup, f, lam, targets[idx], values[:, idx])
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


def _axis_factor(a, g, lam, mirror=False):
    """exp(i lam a_k g) for every point a_k of one axis: shape (a.size, g.size).

    On a uniform axis (every a_k within 8 ulp of a_0 + k h) each block of
    PHASE_RESTART rows starts from a direct exp and steps by the recurrence
    U[k+1] = U[k] exp(i lam h g); otherwise every block is one row, which
    is the direct exp alone.  With `mirror` (a = -a[::-1]) the rows before
    a.size // 2 are the conjugates of their mirror rows.
    """
    half = a.size // 2 if mirror else 0
    full = np.empty((a.size, g.size), dtype=complex)
    a, u = a[half:], full[half:]
    m = a.size
    h = (a[-1] - a[0]) / (m - 1) if m > 1 else 0.0
    drift = np.abs(a - (a[:1] + h * np.arange(m)))
    uniform = np.all(drift <= 8.0 * np.finfo(float).eps * np.max(np.abs(a), initial=0.0))
    block = PHASE_RESTART if uniform else 1
    np.exp(1j * lam * np.outer(a[::block], g), out=u[::block])
    step = np.exp(1j * lam * h * g)
    for k in range(0, m, block):
        rows = u[k : k + block]
        rows[1:] = step
        np.cumprod(rows, axis=0, out=rows)
    np.conjugate(full[::-1][:half], out=full[:half])
    return full


def _grid_planes(us, amp):
    """Yield (trailing index, T on the leading two axes) over a tensor grid
    from its axis factors `us`: one GEMM per trailing index."""
    for idx in product(*(range(u.shape[0]) for u in us[2:])):
        a2 = amp
        for u, i in zip(us[2:], idx):
            a2 = a2 * u[i]
        yield idx, us[0] @ (us[1] * a2).T


def _grid_values(us, amp, shape):
    """T on the tensor grid of `shape` for one real amplitude from the axis
    factors `us`; if us[0] has only axis 0's last rows, T f(-x) = conj T f(x)."""
    half = shape[0] - us[0].shape[0]
    values = None
    for idx, plane in _grid_planes(us, amp):
        if values is None:  # after the first GEMM has freed its operands
            values = np.empty(shape, dtype=complex)
        values[(slice(half, None), slice(None)) + idx] = plane
    np.conjugate(values[(slice(None, None, -1),) * len(shape)][:half], out=values[:half])
    return values


def _grid_xmax(axes):
    return math.sqrt(sum(float(np.max(np.abs(a), initial=0.0)) ** 2 for a in axes))


def extension_eval_grid_family(curve, lam, axes, fs, alpha=None,
                               nodes_per_wavelength=NODES_PER_WAVELENGTH):
    """Yield (j, T fs[j] on the tensor grid spanned by `axes`) for every j.

    Members with the same support and bandwidth share a rule; one pass
    builds all rules.  Chunks of whole groups, none larger than the largest
    group, copy their nodes out of it and form their affine weight and
    every member's amplitude (_amplitudes), then the curve points and phase
    factors exp(i lam axis gamma_k); a member GEMMs on its group's columns.
    When every axis is its own mirror, the GEMMs fill only the rows from
    axes[0].size // 2 on (_grid_values).  Chunks run smallest first, so the
    largest runs alone; members yield in that order.
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
    shape = tuple(a.size for a in axes)
    mirror = all(np.array_equal(a, -a[::-1]) for a in axes)
    rule = _rule(curve, [fs[g[0]] for g in groups], lam, _grid_xmax(axes), alpha,
                 nodes_per_wavelength)
    counts = rule.counts.tolist()
    for k in np.flatnonzero(rule.counts == 0):
        for j in groups[k]:
            yield j, np.zeros(shape, dtype=complex)
    parts = [(rule.nodes[a:b].copy(), rule.weights[a:b].copy(), offsets + [b - a], ks)
             for a, b, offsets, ks in _chunks(counts, max([1] + counts))]
    del rule  # chunks hold copies, so each is freed once it has run
    parts.sort(key=lambda part: -part[0].size)
    while parts:
        nodes, weights, bounds, ks = parts.pop()
        aw = None if alpha is None else affine_weight(curve, alpha, nodes)
        amps = [_amplitudes([fs[j] for j in groups[k]], nodes, weights, aw, slice(lo, hi))
                for k, lo, hi in zip(ks, bounds, bounds[1:])]
        gs = curve.point(nodes).T
        us = [_axis_factor(axes[0][shape[0] // 2 if mirror else 0:], gs[0], lam)]
        us += [_axis_factor(a, g, lam, mirror) for a, g in zip(axes[1:], gs[1:])]
        for k, lo, hi, amp in zip(ks, bounds, bounds[1:], amps):
            for j, row in zip(groups[k], amp):
                yield j, _grid_values([u[:, lo:hi] for u in us], row, shape)
        del nodes, weights, aw, amps, us  # before the next chunk builds its own


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
        _self_check(partial(_setup, curve, [f], lam, _grid_xmax(axes), alpha,
                            nodes_per_wavelength), f, lam, points, got)
    return values


def check_exponent(name, value, least=1.0):
    """Raise ValueError naming the input unless least <= value (so NaN
    fails and infinity passes)."""
    if not least <= value:
        raise ValueError(f"{name} must be >= {least:g}, got {value}")


def lq_norm(values, mu, q):
    """L^q norm of per-atom values against the measure's weights."""
    values = np.asarray(values)
    if values.shape[0] != mu.n:
        raise ValueError("values not aligned with measure atoms")
    check_exponent("q", q)
    if q == math.inf:
        return float(np.max(np.abs(values), initial=0.0))
    return float(np.sum(mu.weights * np.abs(values) ** q)) ** (1.0 / q)


# ---------------------------------------------------------------------------
# multilinear L2
# ---------------------------------------------------------------------------


def support_separation(fs):
    vals = math.inf
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            gap = max(fs[j].lo - fs[i].hi, fs[i].lo - fs[j].hi)
            vals = min(vals, gap)
    return vals


@dataclass(frozen=True)
class MultilinearResult:
    lhs: float
    bound: float
    separation: float
    box_r: float
    grid_step: float
    tail_fraction: float
    f_l2: tuple

    @property
    def ratio(self):
        return self.lhs / self.bound if self.bound > 0 else math.inf


def plancherel_bound(curve, fs, lam):
    """Certified bound on ||prod T_lam f_i||_{L^2(dx)} for d factors with
    pairwise separated supports (sep apart):
    (2 pi / lam)^{d/2} c_d^{-1/2} sep^{-(d^2 - d)/4} prod ||f_i||_2,
    with c_d the sum-map Jacobian constant, and 0 with a zero factor.
    ValueError unless lam is finite and > 0 and the bound is finite."""
    d = curve.d
    if len(fs) != d:
        raise ValueError("need exactly d factors")
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


def multilinear_l2(curve, fs, lam, box_r=20.0, tail_target=0.01,
                   max_doublings=3, nodes_per_wavelength=NODES_PER_WAVELENGTH):
    """L2 norm of the product of the d extensions against its Plancherel bound.

    The product's spectrum lies in a ball of radius lam * sum of curve-arc
    diameters, so a grid at (half) the Nyquist step makes the Riemann sum
    exact up to box truncation; the truncation tail is estimated from the
    decay of concentric shell sums and the box doubled until it is below
    tail_target.  Per box, each factor is self-checked at the grid corner,
    where |x| is largest.  ValueError unless box_r is finite and positive
    and max_doublings >= 0.
    """
    if not 0.0 < box_r < math.inf:
        raise ValueError(f"box_r must be finite and > 0, got {box_r}")
    if max_doublings < 0:
        raise ValueError(f"max_doublings must be >= 0, got {max_doublings}")
    bound = plancherel_bound(curve, fs, lam)
    d = curve.d
    sep = support_separation(fs)
    diam_sum = 0.0
    for f in fs:
        if f.width > 0:
            pts = curve.point(np.linspace(f.lo, f.hi, 65))
            diam_sum += float(np.max(np.linalg.norm(pts - pts[0], axis=1)))
    omega_x = max(lam * diam_sum, 1e-9)
    step = math.pi / omega_x

    f_l2 = tuple(f.lp_norm(2) for f in fs)
    if any(v == 0.0 for v in f_l2):
        return MultilinearResult(0.0, bound, sep, box_r, step, 0.0, f_l2)

    for _ in range(max_doublings + 1):
        m = int(math.ceil(2.0 * box_r / step))
        axes = [(-box_r + step * (np.arange(m) + 0.5)) for _ in range(d)]
        total = 0.0
        outer = 0.0
        inner2 = 0.0
        # shell radii (infinity norm): the leading two axes, then the
        # trailing index of each plane
        r2d = np.maximum(np.abs(axes[0])[:, None], np.abs(axes[1])[None, :])
        setups = [partial(_setup, curve, [f], lam, _grid_xmax(axes), None,
                          nodes_per_wavelength) for f in fs]
        factors = []
        for f, setup in zip(fs, setups):
            _, gamma_nodes, amplitude = setup()
            factors.append(_grid_planes([_axis_factor(a, g, lam) for a, g
                                         in zip(axes, gamma_nodes)], amplitude(f)))
        corner = np.array([[a[0] for a in axes]])
        for planes in zip(*factors):
            idx, prod = planes[0]
            if not any(idx):  # the first plane: its [0, 0] entry is the corner
                for f, setup, (_, plane) in zip(fs, setups, planes):
                    _self_check(setup, f, lam, corner, plane[:1, :1])
            for _, plane in planes[1:]:
                prod = prod * plane
            dens = np.abs(prod) ** 2
            rad = np.maximum(r2d, max((abs(a[i]) for a, i in zip(axes[2:], idx)),
                                      default=0.0))
            total += float(np.sum(dens))
            outer += float(np.sum(dens[rad > box_r / 2.0]))
            inner2 += float(np.sum(dens[(rad > box_r / 4.0)
                                        & (rad <= box_r / 2.0)]))
        total *= step ** d
        outer *= step ** d
        inner2 *= step ** d
        q = outer / inner2 if inner2 > 0 else 1.0
        tail = outer * q / (1.0 - q) if q < 0.9 else math.inf
        tail_frac = 1.0 if math.isinf(tail) else tail / max(total + tail, 1e-300)
        if tail_frac <= tail_target:
            return MultilinearResult(
                math.sqrt(total), bound, sep, box_r, step, tail_frac, f_l2)
        box_r *= 2.0
    return MultilinearResult(
        math.sqrt(total), bound, sep, box_r / 2.0, step, tail_frac, f_l2)


# ---------------------------------------------------------------------------
# throughput benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchReport:
    n_nodes: int
    seconds: dict
    checksum: str


def throughput_benchmark(curve, lam, n_targets, worker_counts=(1, 2, 4), seed=0):
    """Timed batch evaluation; checksum must match across worker counts."""
    import hashlib
    import time

    rng = np.random.default_rng(seed)
    targets = rng.uniform(-1.0, 1.0, size=(n_targets, curve.d))
    f = indicator(0.0, 1.0)
    xmax = float(np.max(np.linalg.norm(targets, axis=1)))
    n_nodes = _rule(curve, [f], lam, xmax, None, NODES_PER_WAVELENGTH).n
    seconds = {}
    checksum = None
    for w in worker_counts:
        t0 = time.perf_counter()
        vals = extension_eval(curve, lam, targets, f, workers=w, self_check=False)
        seconds[w] = time.perf_counter() - t0
        digest = hashlib.sha256(vals.tobytes()).hexdigest()
        if checksum is None:
            checksum = digest
        elif digest != checksum:
            raise AssertionError("checksum mismatch across worker counts")
    return BenchReport(n_nodes, seconds, checksum)
