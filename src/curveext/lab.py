"""Experiment drivers for the extension-estimate laboratory.

Exponent-pair classification, operator-norm scaling sweeps against a
finite test family, Knapp sharpness probes, multilinear fractal-norm
checks, the rescaling identity audit, and the degenerate-curve dyadic
block pipeline.  Everything here is a driver: the numerics live in the
curve, measure, and engine modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine as eng
from . import measures as ms
from .curves import (
    ExponentTuple,
    beta_alpha,
    detect_finite_type,
    frame_matrix,
    nondegenerate_tuple,
    normalize_curve,
    pushforward_exponent,
    shift_subtract,
    sigma_exponent,
)
from .engine import (
    bump,
    extension_eval,
    indicator,
    lq_norm,
    trig_poly,
)
from .measures import fit_line

SLOPE_TOL = 0.07
KNAPP_SCALE = 0.1
FAMILY_POSITIONS = 16
FAMILY_WIDTHS = 6
FAMILY_BUMPS = 8
FAMILY_TRIG = 32
TRIG_DEGREE = 64
DEFAULT_RADIUS = 64.0
MOLLIFIER_CHAIN_CONSTANT = 8.0


# ---------------------------------------------------------------------------
# exponent pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentPair:
    """A Lebesgue pair (p, q) for dimension d and regularity alpha."""

    p: float
    q: float
    d: int
    alpha: float

    def __post_init__(self):
        eng.check_exponent("p", self.p)
        eng.check_exponent("q", self.q)

    @property
    def beta(self):
        return beta_alpha(self.alpha, self.d)

    @property
    def necessary(self):
        """The scaling obstruction: beta/q + 1/p <= 1."""
        return self.beta / self.q + 1.0 / self.p <= 1.0 + 1e-12

    @property
    def admissible(self):
        """All four constraints of the verified estimate range."""
        d, b = self.d, self.beta
        return (
            d / self.q <= 1.0 - 1.0 / self.p + 1e-12
            and self.q >= 2 * d - 1e-12
            and b / self.q + 1.0 / self.p < 1.0 - 1e-12
            and self.q > b + 1.0 + 1e-12
        )

    @property
    def status(self):
        if self.admissible:
            return "admissible"
        if self.necessary:
            return "necessary"
        return "excluded"


def admissible_region(d, alpha, steps=40):
    """Classify a (1/p, 1/q) grid; rows are (inv_p, inv_q, status)."""
    if steps < 1:
        raise ValueError(f"grid steps must be >= 1, got {steps}")
    rows = []
    for i in range(steps + 1):
        inv_p = i / steps
        p = math.inf if inv_p == 0 else 1.0 / inv_p
        for j in range(1, steps + 1):
            inv_q = j / steps
            pair = ExponentPair(p=p, q=1.0 / inv_q, d=d, alpha=alpha)
            rows.append((inv_p, inv_q, pair.status))
    return rows


# ---------------------------------------------------------------------------
# test families
# ---------------------------------------------------------------------------


def _knapp_width(d, lam):
    """The Knapp cap width lam^{-1/d}, for lam finite and > 0."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    return lam ** (-1.0 / d)


def knapp_interval(d, lam):
    """The cap [1 - lam^{-1/d}, 1] at frequency lam."""
    return 1.0 - _knapp_width(d, lam), 1.0


def knapp_family(d, lam, positions=FAMILY_POSITIONS, widths=FAMILY_WIDTHS):
    out = []
    w0 = _knapp_width(d, lam)
    for i in range(positions):
        tau = i / positions
        for k in range(widths):
            w = min(w0 * 2.0**k, 1.0 - tau)
            if w > 0:
                out.append((f"knapp[{i}/{positions},2^{k}]", indicator(tau, tau + w)))
    return out


def bump_family(d, lam, count=FAMILY_BUMPS):
    out = []
    w0 = _knapp_width(d, lam)
    for i in range(count):
        tau = i / count
        w = min(w0 * 4.0, 1.0 - tau)
        if w > 0:
            out.append((f"bump[{i}/{count}]", bump(tau, tau + w)))
    return out


def trig_family(seed, count=FAMILY_TRIG):
    return [
        (f"trig[{seed + j}]", trig_poly(seed + j, TRIG_DEGREE))
        for j in range(count)
    ]


def default_test_family(d, lam, seed=0):
    """The standard finite family used to estimate the operator norm from
    below: Knapp indicators across positions and dyadic widths, smooth
    bumps, and seeded random trigonometric polynomials."""
    return knapp_family(d, lam) + bump_family(d, lam) + trig_family(seed)


# ---------------------------------------------------------------------------
# graded evaluation grids
# ---------------------------------------------------------------------------


class GradedGrid:
    """Origin-graded dyadic Lebesgue grid with its tensor levels exposed.

    The measure is make_lebesgue with the same arguments, whose atoms are
    the levels' kept cells in order; keeping the per-level axes lets
    extension norms be evaluated with the separable grid kernel, which is
    what makes large-lambda sweeps affordable.  The atoms themselves are
    never built.
    """

    def __init__(self, d, half, resolution, levels):
        self.d = d
        self.half = float(half)
        self.levels = ms.graded_level_structure(d, (-self.half, self.half),
                                                resolution, levels)

    def family_lq(self, curve, lam, fs, q, alpha=None,
                  nodes_per_wavelength=eng.NODES_PER_WAVELENGTH):
        """L^q norm of T f against the grid's measure for each f in fs.

        Per level, members sharing a rule share its phase factors
        (extension_eval_grid_family); each member keeps only a running
        sum of w |T f|^q, or a running max at q = infinity.
        """
        eng.check_exponent("q", q)
        acc = [0.0] * len(fs)
        for axes, keep, cell in self.levels:
            for j, values in eng.extension_eval_grid_family(
                    curve, lam, axes, fs, alpha=alpha,
                    nodes_per_wavelength=nodes_per_wavelength):
                mod = np.abs(values[keep])
                acc[j] = (max(acc[j], float(np.max(mod, initial=0.0)))
                          if q == math.inf
                          else acc[j] + float(np.sum(cell ** self.d * mod ** q)))
                del values, mod  # before the next member is evaluated
        return [s if q == math.inf else s ** (1.0 / q) for s in acc]

    def extension_lq(self, curve, lam, f, q,
                     nodes_per_wavelength=eng.NODES_PER_WAVELENGTH):
        """L^q norm of T f against the grid's Lebesgue measure."""
        return self.family_lq(curve, lam, [f], q, None, nodes_per_wavelength)[0]


# ---------------------------------------------------------------------------
# scaling sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingReport:
    """Family-sup operator norm sweep and its fitted decay slope.

    The norms are suprema over a finite test family, so they bound the
    operator norm from below; "family-sup" is the honest label.
    """

    kind: str
    lam_grid: tuple
    sup_norms: tuple
    best_labels: tuple
    radius: float
    alpha: float
    slope: float
    stderr: float
    target_slope: float
    tol: float
    verdict: str

    def passed(self):
        return self.verdict == "PASS"


def family_sup(curve, lam, family, p, q, mu=None, grid=None, alpha=None,
               npw=eng.NODES_PER_WAVELENGTH, _norms=None):
    """Sup over the family of ||T f||_{L^q} / ||f||_p; returns (value, label).

    The L^q norm is taken on the graded grid when one is given, else
    against the measure mu.  A sweep passes `_norms`, a dict of the
    ||f||_p it has taken, so a member that recurs is normed once.
    """
    known = {} if _norms is None else _norms
    for _, f in family:
        if f not in known:
            known[f] = f.lp_norm(p)
    fps = [(name, f, known[f]) for name, f in family if known[f] != 0.0]
    if grid is not None:
        norms = grid.family_lq(curve, lam, [f for _, f, _ in fps], q,
                               alpha=alpha, nodes_per_wavelength=npw)
    else:
        norms = [lq_norm(extension_eval(curve, lam, mu.atoms, f, alpha=alpha,
                                        nodes_per_wavelength=npw), mu, q)
                 for _, f, _ in fps]
    best, label = 0.0, "none"
    for (name, _, fp), norm in zip(fps, norms):
        val = norm / fp
        if val > best:
            best, label = val, name
    return best, label


def scaling_experiment(curve, p, q, alpha, lam_grid, mu=None, grid=None,
                       radius=DEFAULT_RADIUS, seed=0, family_fn=None,
                       npw=eng.NODES_PER_WAVELENGTH):
    """Family-sup norm sweep over a geometric lambda ladder.

    Without a grid, norms are taken against mu restricted to the ball of
    the given radius; a grid's box must lie inside that ball.  Verdict is
    PASS when the fitted log2 slope is at most -alpha/q plus SLOPE_TOL,
    vacuous when the family never produces a nonzero norm.
    """
    eng.check_exponent("p", p)
    eng.check_exponent("q", q)
    lam_grid = tuple(float(l) for l in lam_grid)
    if len(lam_grid) < 6:
        raise ValueError("lambda ladder needs at least 6 points")
    if mu is None and grid is None:
        raise ValueError("scaling_experiment needs a measure mu or a grid")
    if family_fn is None:
        family_fn = lambda lam: default_test_family(curve.d, lam, seed=seed)
    if not radius > 0:  # NaN too: no atom would be kept
        raise ValueError(f"radius must be > 0, got {radius}")
    if grid is None:
        mu = mu.restrict(np.linalg.norm(mu.atoms, axis=1) <= radius)
    elif radius < math.sqrt(grid.d) * grid.half:  # a grid is not cut to a ball
        raise ValueError(f"radius must reach the grid's corners at "
                         f"{math.sqrt(grid.d) * grid.half}, got {radius}")
    sups, labels, norms = [], [], {}
    for lam in lam_grid:
        val, label = family_sup(curve, lam, family_fn(lam), p, q, mu=mu,
                                grid=grid, npw=npw, _norms=norms)
        sups.append(val)
        labels.append(label)
    target = -alpha / q
    if max(sups) == 0.0:
        slope, stderr, verdict = 0.0, 0.0, "vacuous"
    else:
        slope, _, stderr = fit_line(lam_grid, sups)
        verdict = "PASS" if slope <= target + SLOPE_TOL else "FAIL"
    return ScalingReport(
        kind="family-sup", lam_grid=lam_grid, sup_norms=tuple(sups),
        best_labels=tuple(labels), radius=radius if grid is None
        else grid.half, alpha=alpha, slope=slope, stderr=stderr,
        target_slope=target, tol=SLOPE_TOL, verdict=verdict)


# ---------------------------------------------------------------------------
# Knapp sharpness
# ---------------------------------------------------------------------------


def knapp_rectangle_mask(atoms, d, lam, c=KNAPP_SCALE):
    """Membership in the dual rectangle |x_i| <= c lam^{i/d - 1}, i = 1..d."""
    atoms = np.atleast_2d(atoms)
    mask = np.ones(atoms.shape[0], dtype=bool)
    for i in range(d):
        mask &= np.abs(atoms[:, i]) <= c * lam ** ((i + 1.0) / d - 1.0)
    return mask


def lebesgue_rectangle_mass(d, lam):
    """Exact Lebesgue volume of the dual rectangle at c = KNAPP_SCALE."""
    return math.prod(2.0 * KNAPP_SCALE * lam ** ((i + 1.0) / d - 1.0) for i in range(d))


@dataclass(frozen=True)
class SharpnessReport:
    lam_grid: tuple
    rect_masses: tuple
    mass_slope: float
    mass_target: float
    ratios: tuple
    ratio_slope: float
    lower_bound_ok: bool
    min_peak_fraction: float

    def mass_ok(self):
        return abs(self.mass_slope - self.mass_target) <= SLOPE_TOL


def sharpness_experiment(curve, mu, alpha, p, q, lam_grid, c=KNAPP_SCALE):
    """Knapp cap against the dual rectangle.

    Tracks the measure of the rectangle (predicted log2 slope
    -alpha + beta/d), checks |T f| stays above half its origin value on
    rectangle atoms, and fits the slope of the normalized lower-bound
    quotient ||T f||_{L^q(mu restricted to R)} lam^{alpha/q} / ||f||_p,
    whose prediction is (beta/q + 1/p - 1)/d.
    """
    eng.check_exponent("p", p)
    eng.check_exponent("q", q)
    if not 0.0 < c < math.inf:  # else the rectangles are empty
        raise ValueError(f"c must be finite and > 0, got {c}")
    d = curve.d
    beta = beta_alpha(alpha, d)
    masses, ratios, fracs = [], [], []
    for lam in lam_grid:
        f = indicator(*knapp_interval(d, lam))
        mask = knapp_rectangle_mask(mu.atoms, d, lam, c)
        rect = mu.restrict(mask)
        masses.append(rect.total_mass())
        # one evaluation: the origin (the peak) and the rectangle's atoms
        pts = np.vstack([np.zeros((1, d)), rect.atoms])
        vals = extension_eval(curve, lam, pts, f, alpha=alpha)
        peak, vals = float(np.abs(vals[0])), vals[1:]
        if rect.n and peak > 0:
            fracs.append(float(np.min(np.abs(vals))) / peak)
        rect_norm = lq_norm(vals, rect, q)
        ratios.append(rect_norm * lam ** (alpha / q) / f.lp_norm(p))
    return SharpnessReport(
        lam_grid=tuple(lam_grid), rect_masses=tuple(masses),
        mass_slope=fit_line(lam_grid, masses)[0], mass_target=-alpha + beta / d,
        ratios=tuple(ratios), ratio_slope=fit_line(lam_grid, ratios)[0],
        lower_bound_ok=all(frac >= 0.5 for frac in fracs),
        min_peak_fraction=min(fracs, default=0.0))


def quotient_slope_prediction(alpha, d, p, q):
    """Predicted slope of the normalized Knapp quotient: (beta/q + 1/p - 1)/d.

    Zero exactly on the scaling-critical line, negative strictly inside.
    """
    return (beta_alpha(alpha, d) / q + 1.0 / p - 1.0) / d


# ---------------------------------------------------------------------------
# multilinear fractal bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultilinearLqResult:
    lhs: float
    bound: float
    l2_plancherel: float
    mollified: float
    linf: float
    ratio: float


def multilinear_lq_check(curve, fs, mu, lam, q):
    """Product of extensions in L^q against a fractal measure.

    Chains Hoelder between q = 2 and q = infinity, the mollified-measure
    domination of the L^2(mu) mass by the L^2(dx) mass (chain constant 8,
    asserted rather than derived), and the certified Plancherel bound for
    the L^2(dx) factor.  Requires q >= 2.
    """
    eng.check_exponent("q", q, least=2.0)
    vals = np.ones(mu.n, dtype=complex)
    for f in fs:
        vals *= extension_eval(curve, lam, mu.atoms, f)
    lhs = lq_norm(vals, mu, q)
    plancherel = eng.plancherel_bound(curve, fs, lam)
    moll = ms.mollified_sup(mu, lam)
    l2mu = math.sqrt(MOLLIFIER_CHAIN_CONSTANT * moll) * plancherel
    linf = math.prod(f.lp_norm(1.0) for f in fs)
    theta = 2.0 / q
    bound = l2mu**theta * linf ** (1.0 - theta)
    return MultilinearLqResult(
        lhs=lhs, bound=bound, l2_plancherel=plancherel, mollified=moll,
        linf=linf, ratio=lhs / bound if bound > 0 else math.inf)


def multilinear_knapp_slope(curve, lam_grid):
    """Decay slope of ||prod T f_i||_{L^2(dx)} / prod ||f_i||_2 for a
    separated Knapp product.

    Caps of width lam^{-1/d} at separated positions; the certified bound
    scales like lam^{-d/2} in this normalization, and the Knapp example
    saturates that power.
    """
    d = curve.d
    taus = tuple((i + 0.6) / (d + 1) for i in range(d))
    vals = []
    for lam in lam_grid:
        w = _knapp_width(d, lam)
        fs = [indicator(t, t + w) for t in taus]
        res = eng.multilinear_l2(curve, fs, lam,
                                 box_r=max(16.0, 1.5 * math.sqrt(lam)))
        vals.append(res.lhs / math.prod(f.lp_norm(2.0) for f in fs))
    return fit_line(lam_grid, vals)[0], vals


# ---------------------------------------------------------------------------
# pushforward exponent probe
# ---------------------------------------------------------------------------


def pushforward_mass_exponent(mu, a, h_list, rho):
    """Mass of the rho-ball seen through the anisotropic dilation.

    For each h the probe is the mu-mass of the preimage of B(0, rho)
    under D_h; the predicted log2 growth exponent in h is
    d(d+1)/2 - beta - sum(a), matching the certified constant's scaling.
    Returns (fitted_exponent, predicted_exponent, masses).
    """
    a = ExponentTuple(a)
    masses = []
    for h in h_list:
        spec = ms.PushforwardSpec(a=a, h=float(h))
        img = mu.atoms @ spec.linear_map().T
        inside = np.linalg.norm(img, axis=1) <= rho
        masses.append(float(np.sum(mu.weights[inside])))
    fitted = fit_line(h_list, masses)[0]
    return fitted, pushforward_exponent(a, mu.alpha), masses


# ---------------------------------------------------------------------------
# rescaling identity audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RescalingCheck:
    lam: float
    h: float
    lhs: float
    rhs: float
    ratio: float
    h_exponent: float
    q_proxy: float


def rescaling_inequality_check(curve, tau, h, mu, alpha, p, q, lam, f):
    """One step of the localization-to-normalization chain.

    lhs is ||T f||_{L^q(mu)} for f supported in [tau, tau + h].  The
    chain rewrites it through the normalized curve and the pushforward
    measure: rhs = h^{1 - 1/p - beta/q} C^{1/q} Q ||f||_p with Q the
    transported quotient on the normalized side and C the h-free part of
    the certified pushforward constant.  The contract is ratio <= 1.
    """
    d = curve.d
    if not (tau <= f.lo and f.hi <= tau + h + 1e-12):
        raise ValueError("f must be supported in [tau, tau + h]")
    a = curve.a or nondegenerate_tuple(d)
    frame = frame_matrix(curve, tau, a)
    norm_curve = normalize_curve(curve, tau, h, a)
    f_h = eng.pullback(f, tau, h)

    vals = extension_eval(curve, lam, mu.atoms, f)
    lhs = lq_norm(vals, mu, q)

    spec = ms.PushforwardSpec(a=a, h=h, matrix=frame.matrix.T)
    nu = ms.pushforward(mu, spec)
    c_full = ms.rescaled_constant(mu.c_mu, spec, alpha)
    h_expo = pushforward_exponent(a, alpha)
    c_free = c_full / abs(h) ** h_expo
    # nu scaled into the unit regularity class; its norms carry the full
    # certified constant, including the h power
    nu_tilde = replace(nu, weights=nu.weights / c_full, alpha=alpha, c_mu=1.0)
    tvals = extension_eval(norm_curve, lam, nu_tilde.atoms, f_h)
    fp_h = f_h.lp_norm(p)
    q_proxy = lq_norm(tvals, nu_tilde, q) / fp_h if fp_h > 0 else 0.0

    exponent = 1.0 - 1.0 / p + h_expo / q
    rhs = (abs(h) ** exponent * c_free ** (1.0 / q)
           * q_proxy * f.lp_norm(p))
    ratio = 0.0 if lhs == 0.0 else lhs / rhs if rhs > 0.0 else math.inf
    return RescalingCheck(
        lam=lam, h=h, lhs=lhs, rhs=rhs, ratio=ratio,
        h_exponent=exponent, q_proxy=q_proxy)


def rescaling_exponent_scan(curve, tau, mu, alpha, p, q, lam, h_list):
    """Fitted h-slope of lhs/(Q ||f||_p) across h, vs 1 - 1/p - beta/q."""
    vals, target = [], None
    for h in h_list:
        f = indicator(tau, tau + h)
        chk = rescaling_inequality_check(curve, tau, h, mu, alpha, p, q, lam, f)
        target = chk.h_exponent
        denom = chk.q_proxy * f.lp_norm(p)
        vals.append(chk.lhs / denom if denom > 0 else math.nan)
    fitted = fit_line(h_list, vals)[0]
    return fitted, target, vals


# ---------------------------------------------------------------------------
# degenerate-curve dyadic pipeline
# ---------------------------------------------------------------------------


def block_decay_rate(a, alpha, p, q):
    """Predicted per-block log2 decay: sigma(a, alpha)(1 - beta/q - 1/p)."""
    a = ExponentTuple(a)
    beta = beta_alpha(alpha, a.d)
    return sigma_exponent(a, alpha) * (1.0 - beta / q - 1.0 / p)


@dataclass(frozen=True)
class BlockReport:
    lam: float
    block_norms: tuple
    rate: float
    target_rate: float
    aggregate: float

    def rate_ok(self, tol=0.1):
        return abs(self.rate - self.target_rate) <= tol


def _block_family(d, lam, j, widths=(1.0, 2.0, 4.0)):
    """In-block caps: the block-transported Knapp examples.

    Right-aligned and centered indicators at multiples of the lam^{-1/d}
    width, clipped to the block.  The full-block indicator is left out on
    purpose: its norm carries the bulk (non-cap) contribution, which does
    not track the per-block rate the dyadic bound is built from.
    """
    lo, hi = 2.0 ** (-j - 1), 2.0**-j
    fam = []
    w0 = _knapp_width(d, lam)
    for m in widths:
        w = min(m * w0, hi - lo)
        fam.append((f"cap[{j},right,{m}]", indicator(hi - w, hi)))
        mid = 0.5 * (lo + hi)
        fam.append((f"cap[{j},mid,{m}]", indicator(mid - w / 2, mid + w / 2)))
    return fam


def translate_curve(curve, tau):
    """The curve t -> gamma(t + tau) - gamma(tau), still polynomial."""
    return curve if tau == 0.0 else shift_subtract(curve, tau)


def finite_type_blocks(curve, grid, a, alpha, p, q, lam, n_blocks=7,
                       fit_blocks=5, npw=eng.NODES_PER_WAVELENGTH,
                       widths=(1.0, 2.0, 4.0)):
    """Weighted family-sup norms per dyadic block of the parameter interval.

    Block j carries f supported in [2^{-j-1}, 2^{-j}]; the fitted log2
    decay over the first fit_blocks blocks is compared against
    sigma (1 - beta/q - 1/p).  Aggregate is the triangle-inequality sum.
    """
    if not 2 <= fit_blocks <= n_blocks:
        raise ValueError(f"need 2 <= fit_blocks <= blocks, got {fit_blocks} and {n_blocks}")
    if not all(0.0 < w < math.inf for w in widths):
        raise ValueError(f"widths must be finite and > 0, got {widths}")
    norms = [family_sup(curve, lam, _block_family(curve.d, lam, j, widths), p, q,
                        grid=grid, alpha=alpha, npw=npw)[0] for j in range(n_blocks)]
    rate = -fit_line(2.0 ** np.arange(fit_blocks), norms[:fit_blocks])[0]
    return BlockReport(
        lam=lam, block_norms=tuple(norms), rate=rate,
        target_rate=block_decay_rate(a, alpha, p, q),
        aggregate=float(np.sum(norms)))


def finite_type_pipeline(curve, tau, grid, alpha, p, q, lam_grid,
                         n_blocks=7, fit_blocks=5,
                         npw=eng.NODES_PER_WAVELENGTH,
                         widths=(1.0, 2.0, 4.0)):
    """Dyadic block sweep over a lambda ladder for a degenerate curve.

    The curve is translated so the degenerate point sits at 0, its type
    is detected (raises when not finite type), the exponent pair must be
    admissible, and the block norms are measured per lambda.  Returns
    the per-lambda block reports plus the aggregate slope and its
    verdict against -alpha/q.
    """
    shifted = translate_curve(curve, tau)
    a = detect_finite_type(shifted, 0.0).a
    if not ExponentPair(p=p, q=q, d=curve.d, alpha=alpha).admissible:
        raise ValueError(f"(p, q) = ({p}, {q}) is not admissible")
    reports = [finite_type_blocks(shifted, grid, a, alpha, p, q, lam, n_blocks=n_blocks,
                                  fit_blocks=fit_blocks, npw=npw, widths=widths)
               for lam in lam_grid]
    slope = fit_line(lam_grid, [r.aggregate for r in reports])[0]
    target = -alpha / q
    verdict = "PASS" if slope <= target + SLOPE_TOL else "FAIL"
    return reports, slope, target, verdict
