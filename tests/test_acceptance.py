"""Quantitative acceptance suite for the full pipeline.

Each test prints a single ``[criterion N] PASS``/``FAIL`` line in addition to
its assertions, so a plain pytest run doubles as a checklist.  All thresholds
are desk-scale slope and ratio tolerances; nothing here depends on wall-clock
state.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from curveext import decomposition as dc
from curveext import engine as eng
from curveext import lab
from curveext import measures as ms
from curveext import curves as cv
from curveext.curves import CurveSpec, ExponentTuple, model_curve

import reference_outputs


def report(n, ok, detail=""):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. regularity exponent formula
# ---------------------------------------------------------------------------


def test_criterion_01_beta_formula():
    ok = all(cv.beta_alpha(float(d), d) == (d * d + d) / 2 for d in range(2, 7))
    for d in range(2, 7):
        for k in range(1, d):
            lo = cv.beta_alpha(k - 2e-14, d)
            hi = cv.beta_alpha(k + 2e-14, d)
            ok = ok and abs(hi - lo) <= 1e-12
    report(1, ok, "beta(d)=(d^2+d)/2 for d=2..6, continuity at integer alpha")


# ---------------------------------------------------------------------------
# 2. model-curve identities
# ---------------------------------------------------------------------------


def test_criterion_02_model_identities():
    ok = True
    for d in (2, 3):
        g = model_curve(d)
        ts = np.linspace(0.0, 1.0, 101)
        ok = ok and all(abs(cv.torsion(g, t) - 1.0) < 1e-12 for t in ts)
        ok = ok and cv.class_distance(cv.normalize_curve(g, 0.0, 0.5)) < 1e-10
    g = CurveSpec(d=3, coeffs=((0, 1, 0.3), (0, 0.2, 0.5, 0.1), (0, 0, 0, 0.4)))
    tau, h = 0.2, 0.3
    a = cv.nondegenerate_tuple(3)
    norm = cv.normalize_curve(g, tau, h, a)
    frame = cv.frame_matrix(g, tau, a)
    dh = cv.diagonal_scaling(h, a)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(3)
        t = rng.uniform(0.0, 1.0)
        lhs = x @ (g.point(h * t + tau) - g.point(tau))
        rhs = (dh @ frame.matrix.T @ x) @ norm.point(t)
        worst = max(worst, abs(lhs - rhs))
    ok = ok and worst < 1e-10
    report(2, ok, f"torsion=1, fixed point, phase identity worst={worst:.2e}")


# ---------------------------------------------------------------------------
# 3. normalization convergence
# ---------------------------------------------------------------------------


def test_criterion_03_normalization_convergence():
    quartics = {
        2: CurveSpec(d=2, coeffs=((0, 1, 0.2, 0.05, 0.02),
                                  (0, 0.1, 0.6, 0.3, 0.05))),
        3: CurveSpec(d=3, coeffs=((0, 1, 0.2, 0.05, 0.02),
                                  (0, 0.1, 0.6, 0.3, 0.05),
                                  (0, 0, 0.05, 0.9, 0.1))),
    }
    ok = True
    detail = []
    for d, g in quartics.items():
        hs = [2.0 ** (-k) for k in range(1, 9)]
        dists = [cv.class_distance(cv.normalize_curve(g, 0.1, h))
                 for h in hs]
        slope, _, _ = lab.fit_line(hs, dists)
        detail.append(f"d={d} slope={slope:.3f}")
        ok = ok and slope >= 0.95
    report(3, ok, ", ".join(detail) + " (need >= 0.95)")


# ---------------------------------------------------------------------------
# 4. measure rescaling exponents
# ---------------------------------------------------------------------------


def test_criterion_04_pushforward_exponents():
    a = (1, 2)
    hs = [0.5, 0.25, 0.125]
    rho = 0.1
    mu = ms.make_lebesgue(2, box=(-8.0, 8.0), resolution=1024)
    fitted, predicted, masses = lab.pushforward_mass_exponent(mu, a, hs, rho)
    ok = abs(fitted - (-3.0)) < 0.1 and predicted == -3.0
    for h, mass in zip(hs, masses):
        ref = math.pi * rho * rho * h ** (-3.0)
        ok = ok and abs(mass / ref - 1.0) < 0.05
    nu = ms.make_appendix_a(2, alpha=1.0, j=1, extent=1.0, resolution=2048)
    fitted2, predicted2, _ = lab.pushforward_mass_exponent(nu, a, hs, 0.01)
    ok = ok and abs(fitted2 - predicted2) < 0.1
    report(4, ok, f"lebesgue fit={fitted:.3f} vs -3; "
                  f"singular fit={fitted2:.3f} vs {predicted2:.3f}")


# ---------------------------------------------------------------------------
# 5. mollified measure growth
# ---------------------------------------------------------------------------


def test_criterion_05_mollified_sup_slopes():
    lams = [2.0 ** k for k in range(4, 11)]
    cases = []
    mu = ms.make_lebesgue(1, box=(-1.0, 1.0), resolution=8192)
    slope, _ = ms.mollified_slope(mu, lams)
    cases.append(("lebesgue", slope, 0.0))
    nu = ms.make_appendix_a(2, alpha=1.5, j=0, extent=0.25, resolution=1024,
                            grading_levels=8)
    col = np.abs(nu.atoms[:, 0]) == np.min(np.abs(nu.atoms[:, 0]))
    cand = nu.atoms[col][::128]
    slope, _ = ms.mollified_slope(nu, lams, candidates=cand)
    cases.append(("singular-line", slope, 2.0 - 1.5))
    ca = ms.make_cantor(1, ratio=1 / 3, depth=10)
    slope, _ = ms.mollified_slope(ca, lams)
    cases.append(("cantor", slope, 1.0 - ca.alpha))
    ok = all(abs(s - t) <= 0.07 for _, s, t in cases)
    report(5, ok, "; ".join(f"{n} {s:.3f} vs {t:.3f}" for n, s, t in cases))


# ---------------------------------------------------------------------------
# 6. multilinear L2 inequality and Knapp saturation
# ---------------------------------------------------------------------------


def _random_separated(rng, d, lam_exps, width_hi):
    lam = 2.0 ** rng.integers(lam_exps[0], lam_exps[1] + 1)
    fs = []
    for i in range(d):
        w = rng.uniform(0.01, width_hi)
        a = (i + rng.uniform(0.1, 0.4)) / d
        b = min(a + w, (i + 0.95) / d)
        fs.append(eng.bump(a, b) if rng.integers(2) else eng.indicator(a, b))
    return float(lam), fs


def test_criterion_06_multilinear_l2():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        lam, fs = _random_separated(rng, 2, (4, 9), 0.06)
        res = eng.multilinear_l2(model_curve(2), fs, lam, box_r=16.0)
        worst = max(worst, res.ratio)
    for _ in range(100):
        lam, fs = _random_separated(rng, 3, (4, 5), 0.05)
        res = eng.multilinear_l2(model_curve(3), fs, lam, box_r=6.0)
        worst = max(worst, res.ratio)
    ok = worst <= 1.0
    lams = [2.0 ** k for k in range(4, 9)]
    slope, _ = lab.multilinear_knapp_slope(model_curve(2), lams)
    ok = ok and abs(slope - (-1.0)) <= 0.1
    report(6, ok, f"worst ratio {worst:.3f} over 200 configs; "
                  f"knapp slope {slope:.3f} vs -1.0")


# ---------------------------------------------------------------------------
# 7. decomposition certificates
# ---------------------------------------------------------------------------


def test_criterion_07_certificates():
    ok = True
    checked = 0
    for d in (2, 3):
        g = model_curve(d)
        fam = dc.DyadicFamily.default(d)
        rng = np.random.default_rng(10 + d)
        for s in range(5):
            f = eng.trig_poly(100 * d + s, degree=24)
            lam = float(2.0 ** rng.integers(4, 8))
            targets = rng.uniform(-2.0, 2.0, (100, d))
            certs = dc.decompose_batch(f, fam, g, lam, targets)
            for cert in certs:
                good, _ = dc.verify_certificate(cert, fam, d)
                ok = ok and good
                checked += 1
    # separation is rechecked on integer index gaps, which is exact: two
    # intervals of a level are its length apart exactly when their indices
    # differ by 2 or more
    fam2 = dc.DyadicFamily.default(2)
    ivs, a = fam2.intervals(fam2.depth), fam2.lengths[-1]
    ok = ok and all((ivs[i].distance(ivs[j]) >= a) == (abs(i - j) >= 2)
                    for i in range(len(ivs)) for j in range(len(ivs)) if i != j)
    # tampering with the certified constants must be caught
    g = model_curve(2)
    f = eng.trig_poly(33, degree=24)
    cert = dc.decompose(f, fam2, g, 128.0, [1.5, -0.5])
    tampered = replace(cert, constants=tuple(c / 2 for c in cert.constants))
    bad, _ = dc.verify_certificate(tampered, fam2, 2)
    ok = ok and not bad
    report(7, ok, f"{checked} certificates verified, exact separation, "
                  "halved constant detected")


# ---------------------------------------------------------------------------
# 8. graded-norm scaling for the nondegenerate planar curve
# ---------------------------------------------------------------------------


def _criterion_08(p):
    grid = lab.GradedGrid(2, 16.0, 128, 8)
    lams = [2.0 ** k for k in range(5, 11)]
    return lab.scaling_experiment(model_curve(2), p, 8.0, 2.0, lams,
                                  grid=grid, seed=0, npw=6)


@pytest.mark.parametrize("p", [math.inf, 2.0])
def test_criterion_08_main_scaling(p):
    rep = _criterion_08(p)
    ok = rep.slope <= rep.target_slope + lab.SLOPE_TOL and rep.passed()
    report(8, ok, f"p={p} slope {rep.slope:.3f} vs target "
                  f"{rep.target_slope:.3f}+{lab.SLOPE_TOL}")
    reference_outputs.check(f"criterion-8/p={p}", rep)


# ---------------------------------------------------------------------------
# 9. sharpness of the singular-line example
# ---------------------------------------------------------------------------


def test_criterion_09_sharpness():
    lams = [2.0 ** k for k in range(4, 11)]
    mu = ms.make_appendix_a(2, alpha=1.0, j=1, extent=1.0, resolution=2048)
    g = model_curve(2)

    # exact closed-form cross-check for the Lebesgue case (alpha = d = 2)
    masses = [lab.lebesgue_rectangle_mass(2, lam) for lam in lams]
    leb_slope, _, _ = lab.fit_line(lams, masses)
    ok = abs(leb_slope - (-0.5)) < 1e-6

    edge = lab.sharpness_experiment(g, mu, 1.0, math.inf, 2.0, lams)
    ok = ok and edge.mass_ok() and abs(edge.ratio_slope) <= 0.1
    ok = ok and edge.lower_bound_ok
    interior = lab.sharpness_experiment(g, mu, 1.0, math.inf, 4.0, lams)
    ok = ok and interior.ratio_slope < -0.1
    pred = lab.quotient_slope_prediction(1.0, 2, math.inf, 4.0)
    ok = ok and abs(interior.ratio_slope - pred) <= lab.SLOPE_TOL
    report(9, ok, f"mass slope {edge.mass_slope:.3f} vs "
                  f"{edge.mass_target:.3f}; lebesgue {leb_slope:.4f}; "
                  f"edge ratio {edge.ratio_slope:.3f} flat; interior "
                  f"{interior.ratio_slope:.3f} vs {pred:.3f}")


# ---------------------------------------------------------------------------
# 10. finite-type dyadic pipeline
# ---------------------------------------------------------------------------


def _criterion_10():
    g = CurveSpec(d=2, coeffs=((0, 0, 1), (0, 0, 0, 1)))
    grid = lab.GradedGrid(2, 8.0, 128, 9)
    lams = [2.0 ** k for k in range(7, 13)]
    return lab.finite_type_pipeline(g, 0.0, grid, 2.0, 4.0, 8.0, lams, n_blocks=7,
                                    fit_blocks=5, npw=6)


def test_criterion_10_finite_type():
    out = _criterion_10()
    reports, slope, target, verdict = out
    top = reports[-1]
    ok = abs(top.rate - 0.625) <= 0.1
    ok = ok and slope <= target + lab.SLOPE_TOL and verdict == "PASS"
    report(10, ok, f"block rate {top.rate:.3f} vs 0.625+-0.1; "
                   f"aggregate {slope:.3f} <= {target:.3f}+{lab.SLOPE_TOL}")
    reference_outputs.check("criterion-10", out)


def stored_reports():
    """The reports of criteria 8 and 10 that reference_outputs.txt stores."""
    return {**{f"criterion-8/p={p}": _criterion_08(p) for p in (math.inf, 2.0)},
            "criterion-10": _criterion_10()}


# ---------------------------------------------------------------------------
# 11. nested-integral Jacobian oracle
# ---------------------------------------------------------------------------


def test_criterion_11_jacobian_recursion():
    ok = True
    rng = np.random.default_rng(4)
    # n = 2 on the model curve and its (1,3) monomial variant, 1e-4 relative
    for g, b in ((model_curve(2), (1, 2)), (cv.monomial_model((1, 3)), (1, 3))):
        for _ in range(20):
            t = np.sort(rng.uniform(0.1, 1.0, 2))
            if t[1] - t[0] < 1e-2:
                continue
            probe = cv.JacobianProbe(tuple(t), b=ExponentTuple(b))
            _, jac = cv.gamma_sum_map(g, probe)
            val = cv.ik_recursion(g, probe)
            ok = ok and abs(val - jac) <= 1e-4 * abs(jac)
    # n = 3 on the model curve, 1e-2 relative
    g3 = model_curve(3)
    for _ in range(10):
        t = np.sort(rng.uniform(0.1, 1.0, 3))
        if np.min(np.diff(t)) < 5e-2:
            continue
        probe = cv.JacobianProbe(tuple(t), b=ExponentTuple((1, 2, 3)))
        _, jac = cv.gamma_sum_map(g3, probe)
        val = cv.ik_recursion(g3, probe)
        ok = ok and abs(val - jac) <= 1e-2 * abs(jac)
    # lower bound with the implementation constant on 100 probes
    for _ in range(100):
        t = np.sort(rng.uniform(0.05, 1.0, 3))
        if np.min(np.diff(t)) < 1e-3:
            continue
        probe = cv.JacobianProbe(tuple(t), b=ExponentTuple((1, 2, 3)))
        _, jac = cv.gamma_sum_map(g3, probe)
        lb = cv.jacobian_lower_bound((1, 2, 3), tuple(t))
        ok = ok and abs(jac) >= lb - 1e-12
    report(11, ok, "recursion matches direct Jacobian; lower bound holds")


# ---------------------------------------------------------------------------
# 12. determinism
# ---------------------------------------------------------------------------


def test_criterion_12_determinism_throughput():
    g = model_curve(2)
    rng = np.random.default_rng(6)
    targets = rng.uniform(-4.0, 4.0, (257, 2))
    f = eng.trig_poly(5, degree=32)
    baseline = eng.extension_eval(g, 256.0, targets, f, workers=1)
    ok = all(
        eng.extension_eval(g, 256.0, targets, f, workers=w).tobytes()
        == baseline.tobytes()
        for w in (2, 3, 4)
    )
    report(12, ok, "byte-identical across workers 1, 2, 3 and 4")
