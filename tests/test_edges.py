"""Edge-value sweep of the public constructors and front ends.

Each call takes NaN, +-infinity, 0, -1, the smallest subnormal 5e-324, or
an empty sequence in one argument (0 and -1 for integer arguments), the
others valid and small.  It must return, raise ValueError, or raise
QuadratureBudgetError: never another exception, nor a RuntimeWarning
(an error under the test configuration).  The constructors are those of
test functions, test families, curves, measures, grids, dyadic families
and pushforward specs; the front ends are the evaluation kernels'
extension_eval, extension_eval_grid, build_rules and the multilinear L2
check, the curve's derivatives, torsion, affine weight, frame and normal
form, and the lab's experiments and predictions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveext import curves as cv
from curveext import decomposition as dc
from curveext import engine as eng
from curveext import lab
from curveext import measures as ms

EDGES = [math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324]
INTS = [0, -1]
EMPTY = [()]
C2 = cv.model_curve(2)
MU = ms.make_lebesgue(2, (-1.0, 1.0), 8)
CANTOR = ms.make_cantor(2, 1 / 3, 4)
GRID = lab.GradedGrid(2, 1.0, 8, 1)
F = eng.indicator(0.1, 0.4)
FS2 = (eng.indicator(0.0, 0.3), eng.indicator(0.6, 0.9))
LAMS = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]


def _one(lam):
    return [("f", F)]


# name -> (values, call with the value in one argument)
CALLS = {
    "indicator(lo)": (EDGES, lambda v: eng.indicator(v, 0.5)),
    "bump(hi)": (EDGES, lambda v: eng.bump(0.0, v)),
    "trig_poly(degree)": (INTS, lambda v: eng.trig_poly(0, v)),
    "indicator.lp_norm(p)": (EDGES, lambda v: eng.indicator(0.0, 0.5).lp_norm(v)),
    "bump.lp_norm(p)": (EDGES, lambda v: eng.bump(0.0, 0.5).lp_norm(v)),
    "trig.lp_norm(p)": (EDGES, lambda v: eng.trig_poly(0, 2).lp_norm(v)),
    "zero.lp_norm(p)": (EDGES, lambda v: eng.zero_function().lp_norm(v)),
    "restrict(lo)": (EDGES, lambda v: eng.restrict(F, v, 1.0)),
    "pullback(tau)": (EDGES, lambda v: eng.pullback(F, v, 0.5)),
    "pullback(h)": (EDGES, lambda v: eng.pullback(F, 0.0, v)),
    "extension_eval(lam)": (EDGES, lambda v: eng.extension_eval(C2, v, np.zeros((2, 2)), F)),
    "extension_eval(targets)": (EDGES, lambda v: eng.extension_eval(
        C2, 8.0, np.full((1, 2), v), F)),
    "extension_eval(no targets)": (EMPTY, lambda v: eng.extension_eval(
        C2, 8.0, np.reshape(v, (0, 2)), F)),
    "extension_eval(alpha)": (EDGES, lambda v: eng.extension_eval(
        C2, 8.0, np.zeros((1, 2)), F, alpha=v)),
    "extension_eval_grid(lam)": (EDGES, lambda v: eng.extension_eval_grid(
        C2, v, (np.zeros(2),) * 2, F)),
    "extension_eval_grid(axes)": (EDGES, lambda v: eng.extension_eval_grid(
        C2, 8.0, (np.full(2, v),) * 2, F)),
    "extension_eval_grid(empty axes)": (EMPTY, lambda v: eng.extension_eval_grid(
        C2, 8.0, (np.array(v),) * 2, F)),
    "build_rules(omega)": (EDGES, lambda v: eng.build_rules([F], v)),
    "plancherel_bound(lam)": (EDGES, lambda v: eng.plancherel_bound(C2, FS2, v)),
    "multilinear_l2(lam)": (EDGES, lambda v: eng.multilinear_l2(C2, FS2, v)),
    "CurveSpec(coeffs)": (EDGES, lambda v: cv.CurveSpec(2, ((0.0, 1.0), (0.0, 0.0, v)))),
    "CurveSpec(empty coeffs)": (EMPTY, lambda v: cv.CurveSpec(2, ((0.0, 1.0), v))),
    "model_curve(d)": (INTS, cv.model_curve),
    "ExponentTuple": (INTS, lambda v: cv.ExponentTuple((1, v))),
    "ExponentTuple(empty)": (EMPTY, cv.ExponentTuple),
    "shift_subtract(tau)": (EDGES, lambda v: cv.shift_subtract(C2, v)),
    "shift_subtract(h)": (EDGES, lambda v: cv.shift_subtract(C2, 0.5, v)),
    "frame_matrix(tau)": (EDGES, lambda v: cv.frame_matrix(C2, v)),
    "minor_determinant(t)": (EDGES, lambda v: cv.minor_determinant(C2, (1, 2), v)),
    "derivative(t)": (EDGES, lambda v: C2.derivative(v, 1)),
    "torsion(t)": (EDGES, lambda v: cv.torsion(C2, v)),
    "affine_weight(t)": (EDGES, lambda v: cv.affine_weight(C2, 2.0, v)),
    "jacobian_lower_bound(ts)": (EDGES, lambda v: cv.jacobian_lower_bound((1, 2), (v, 0.5))),
    "normalize_curve(tau)": (EDGES, lambda v: cv.normalize_curve(C2, v, 0.5)),
    "detect_finite_type(tau)": (EDGES, lambda v: cv.detect_finite_type(C2, v)),
    "beta_alpha(alpha)": (EDGES, lambda v: cv.beta_alpha(v, 2)),
    "JacobianProbe(ts)": (EDGES, lambda v: cv.JacobianProbe((v, 0.5))),
    "JacobianProbe(empty)": (EMPTY, cv.JacobianProbe),
    "ExponentPair(p)": (EDGES, lambda v: lab.ExponentPair(p=v, q=8.0, d=2, alpha=2.0)),
    "ExponentPair(alpha)": (EDGES, lambda v: lab.ExponentPair(p=4.0, q=8.0, d=2, alpha=v)),
    "admissible_region(alpha)": (EDGES, lambda v: lab.admissible_region(2, v, steps=4)),
    "admissible_region(steps)": (INTS, lambda v: lab.admissible_region(2, 2.0, steps=v)),
    "quotient_slope_prediction(q)": (EDGES, lambda v: lab.quotient_slope_prediction(
        2.0, 2, 4.0, v)),
    "block_decay_rate(q)": (EDGES, lambda v: lab.block_decay_rate((1, 2), 2.0, 4.0, v)),
    "knapp_interval(lam)": (EDGES, lambda v: lab.knapp_interval(2, v)),
    "knapp_family(lam)": (EDGES, lambda v: lab.knapp_family(2, v)),
    "bump_family(lam)": (EDGES, lambda v: lab.bump_family(2, v)),
    "default_test_family(lam)": (EDGES, lambda v: lab.default_test_family(2, v)),
    "GradedGrid(half)": (EDGES, lambda v: lab.GradedGrid(2, v, 8, 1)),
    "GradedGrid(resolution)": (INTS, lambda v: lab.GradedGrid(2, 1.0, v, 1)),
    "GradedGrid(levels)": (INTS, lambda v: lab.GradedGrid(2, 1.0, 8, v)),
    "GradedGrid.extension_lq(q)": (EDGES, lambda v: GRID.extension_lq(C2, 8.0, F, v)),
    "GradedGrid.extension_lq(lam)": (EDGES, lambda v: GRID.extension_lq(C2, v, F, 2.0)),
    "family_sup(p)": (EDGES, lambda v: lab.family_sup(C2, [(8.0, _one(8.0))], v, 2.0, grid=GRID)),
    "scaling_experiment(lam)": (EDGES, lambda v: lab.scaling_experiment(
        C2, 4.0, 8.0, 2.0, [v, *LAMS[1:]], grid=GRID, family_fn=_one)),
    "scaling_experiment(empty ladder)": (EMPTY, lambda v: lab.scaling_experiment(
        C2, 4.0, 8.0, 2.0, v, grid=GRID, family_fn=_one)),
    "scaling_experiment(npw)": (EDGES, lambda v: lab.scaling_experiment(
        C2, 4.0, 8.0, 2.0, LAMS, grid=GRID, npw=v, family_fn=_one)),
    "sharpness_experiment(lam)": (EDGES, lambda v: lab.sharpness_experiment(
        C2, MU, 2.0, 4.0, 8.0, [v, 8.0, 16.0])),
    "sharpness_experiment(empty ladder)": (EMPTY, lambda v: lab.sharpness_experiment(
        C2, MU, 2.0, 4.0, 8.0, v)),
    "sharpness_experiment(alpha)": (EDGES, lambda v: lab.sharpness_experiment(
        C2, MU, v, 4.0, 8.0, [4.0, 8.0, 16.0])),
    "finite_type_blocks(lam)": (EDGES, lambda v: lab.finite_type_blocks(
        C2, GRID, (1, 2), 2.0, 4.0, 8.0, v, n_blocks=2, fit_blocks=2)),
    "finite_type_blocks(widths)": (EDGES, lambda v: lab.finite_type_blocks(
        C2, GRID, (1, 2), 2.0, 4.0, 8.0, 8.0, n_blocks=2, fit_blocks=2, widths=(1.0, v))),
    "finite_type_blocks(empty widths)": (EMPTY, lambda v: lab.finite_type_blocks(
        C2, GRID, (1, 2), 2.0, 4.0, 8.0, 8.0, n_blocks=2, fit_blocks=2, widths=v)),
    "finite_type_pipeline(tau)": (EDGES, lambda v: lab.finite_type_pipeline(
        C2, v, GRID, 2.0, 4.0, 8.0, LAMS, n_blocks=2, fit_blocks=2)),
    "make_lebesgue(box)": (EDGES, lambda v: ms.make_lebesgue(2, (-1.0, v), 4)),
    "make_lebesgue(resolution)": (INTS, lambda v: ms.make_lebesgue(2, (-1.0, 1.0), v)),
    "make_lebesgue(grading_levels)": (INTS, lambda v: ms.make_lebesgue(2, (-1.0, 1.0), 4, v)),
    "make_appendix_a(alpha)": (EDGES, lambda v: ms.make_appendix_a(2, v, 1, resolution=8)),
    "make_appendix_a(extent)": (EDGES, lambda v: ms.make_appendix_a(
        2, 1.5, 0, extent=v, resolution=8)),
    "make_appendix_a(resolution)": (INTS, lambda v: ms.make_appendix_a(2, 1.5, 0, resolution=v)),
    "make_appendix_a(grading_levels)": (INTS, lambda v: ms.make_appendix_a(
        2, 1.5, 0, resolution=8, grading_levels=v)),
    "make_appendix_a(j)": (INTS, lambda v: ms.make_appendix_a(2, 1.5, v, resolution=8)),
    "make_cantor(ratio)": (EDGES, lambda v: ms.make_cantor(2, v, 2)),
    "make_cantor(depth)": (INTS, lambda v: ms.make_cantor(2, 0.3, v)),
    "fit_line": (EDGES, lambda v: ms.fit_line([1.0, 2.0, 4.0], [1.0, v, 3.0])),
    "fit_line(empty)": (EMPTY, lambda v: ms.fit_line(v, v)),
    "regularity_audit(n_centers)": (INTS, lambda v: ms.regularity_audit(MU, n_centers=v)),
    "DiscreteMeasure.ball_mass(radius)": (EDGES, lambda v: MU.ball_mass(np.zeros(2), v)),
    "mollified_sup(lam)": (EDGES, lambda v: ms.mollified_sup(MU, v)),
    "mollified_sup(candidates)": (EDGES, lambda v: ms.mollified_sup(
        MU, 16.0, candidates=[[v, 0.0]])),
    "mollified_sup(empty candidates)": (EMPTY, lambda v: ms.mollified_sup(
        MU, 16.0, candidates=np.reshape(v, (0, 2)))),
    "PushforwardSpec(h)": (EDGES, lambda v: ms.PushforwardSpec((1, 2), v)),
    "PushforwardSpec(matrix)": (EDGES, lambda v: ms.PushforwardSpec(
        (1, 2), 0.5, [[1.0, v], [0.0, 1.0]])),
    "DyadicFamily(lengths)": (EDGES, lambda v: dc.DyadicFamily((v,))),
    "DyadicFamily(empty)": (EMPTY, dc.DyadicFamily),
    "decompose_batch(lam)": (EDGES, lambda v: dc.decompose_batch(
        eng.trig_poly(0, 2), dc.DyadicFamily.default(2), C2, v, np.zeros((1, 2)))),
    "decompose_batch(targets)": (EDGES, lambda v: dc.decompose_batch(
        eng.trig_poly(0, 2), dc.DyadicFamily.default(2), C2, 16.0, np.full((1, 2), v))),
}


@pytest.mark.parametrize("name", CALLS)
@settings(derandomize=True, deadline=None, max_examples=20)
@given(data=st.data())
def test_edge_value_returns_or_raises_value_error(name, data):
    values, call = CALLS[name]
    value = data.draw(st.sampled_from(values), label="value")
    try:
        call(value)
    except (ValueError, eng.QuadratureBudgetError):
        pass


@pytest.mark.parametrize("call, message", [
    # each raised another exception, or (lp_norm(-1)) returned 2.0
    pytest.param(lambda: eng.trig_poly(0, 2).lp_norm(0), "p must be >= 1, got 0",
                 id="lp_norm-0"),
    pytest.param(lambda: eng.indicator(0.0, 0.5).lp_norm(-1), "p must be >= 1, got -1",
                 id="lp_norm-minus-1"),
    pytest.param(lambda: eng.pullback(F, 0.25, 0), "h must be finite and nonzero, got 0",
                 id="pullback-h-0"),
    *[pytest.param(lambda lam=lam, fn=fn: fn(2, lam),
                   f"lambda must be finite and > 0, got {lam}", id=f"{fn.__name__}-{lam}")
      for fn in (lab.knapp_family, lab.bump_family, lab.default_test_family)
      for lam in (0.0, -1.0)],
    pytest.param(lambda: lab.sharpness_experiment(C2, MU, 2.0, 4.0, 8.0, [0.0, 8.0, 16.0]),
                 "lambda must be finite and > 0, got 0.0", id="sharpness-lambda-0"),
    pytest.param(lambda: dc.DyadicFamily((math.inf,)),
                 "lengths must be finite numbers, got (inf,)", id="dyadic-inf"),
    *[pytest.param(lambda res=res: ms.make_appendix_a(2, 1.5, 0, resolution=res),
                   f"resolution must be >= 1, got {res}", id=f"appendix-a-resolution-{res}")
      for res in (0, -1)],
    pytest.param(lambda: ms.make_appendix_a(2, 5e-324, 1),
                 "alpha=5e-324 is too close to 0: p = alpha - d + j rounds to -1.0",
                 id="appendix-a-alpha-5e-324"),
    *[pytest.param(lambda v=v: ms.PushforwardSpec((1, 2), 0.5, [[1.0, v], [0.0, 1.0]]),
                   "matrix A must be finite", id=f"pushforward-matrix-{v}")
      for v in (math.nan, math.inf)],
    pytest.param(lambda: cv.JacobianProbe(()), "sample points must lie in (0, 1], got ()",
                 id="jacobian-probe-empty"),
    # ZeroDivisionError at 0 and infinity, "cannot convert float NaN to integer"
    *[pytest.param(lambda lam=lam: eng.multilinear_l2(C2, FS2, lam),
                   f"lambda must be finite and > 0, got {lam}", id=f"multilinear-lambda-{lam}")
      for lam in (0.0, math.inf, math.nan)],
    # OverflowError
    pytest.param(lambda: eng.multilinear_l2(C2, FS2, 5e-324),
                 "the Plancherel bound overflows at lambda=5e-324",
                 id="multilinear-lambda-5e-324"),
    # ZeroDivisionError at infinity, "cannot convert float NaN to integer"
    *[pytest.param(lambda omega=omega: eng.build_rules([F], omega),
                   f"omega must be finite and >= 0, got {omega}", id=f"build-rules-omega-{omega}")
      for omega in (math.inf, math.nan)],
    # a RuntimeWarning at infinity; a NaN frame, or "no nonsingular frame", at NaN
    *[pytest.param(lambda fn=fn, tau=tau: fn(C2, tau), f"tau must be finite, got {tau}",
                   id=f"{fn.__name__}-{tau}")
      for fn in (cv.frame_matrix, cv.detect_finite_type) for tau in (math.inf, math.nan)],
    pytest.param(lambda: cv.minor_determinant(C2, (1, 2), math.inf), "t must be finite, got inf",
                 id="minor-determinant-inf"),
    # a RuntimeWarning ("invalid value encountered in multiply") at infinity,
    # a NaN at NaN
    *[pytest.param(lambda call=call, t=t: call(t), f"t must be finite, got {t}",
                   id=f"{name}-{t}")
      for name, call in [("derivative", lambda t: C2.derivative([0.5, t], 1)),
                         ("torsion", lambda t: cv.torsion(C2, [0.5, t])),
                         ("affine-weight", lambda t: cv.affine_weight(C2, 2.0, t)),
                         ("jacobian-lower-bound",
                          lambda t: cv.jacobian_lower_bound((1, 2), (t, 0.5)))]
      for t in (math.inf, -math.inf, math.nan)],
    pytest.param(lambda: cv.normalize_curve(C2, math.inf, 0.5),
                 "[tau, tau+h]* = [inf, inf] must be contained in [0, 1]",
                 id="normalize-curve-tau-inf"),
    # a (2, 3) array gave 2.0307 from its first two columns, non-finite or
    # no candidates gave 0.0, and a (1, 1) array raised IndexError
    *[pytest.param(lambda fn=fn, c=c: fn(c), f"candidates must be finite, of shape "
                   f"(k >= 1, 2); got shape {np.shape(c)}", id=f"{name}-candidates-{cid}")
      for name, fn in [("mollified-sup", lambda c: ms.mollified_sup(CANTOR, 16.0, c)),
                       ("mollified-slope", lambda c: ms.mollified_slope(
                           CANTOR, [16.0, 32.0], c))]
      for cid, c in [("2x3", np.full((2, 3), 0.5)), ("nan", [[math.nan, 0.0]]),
                     ("inf", [[math.inf, 0.0]]), ("empty", np.zeros((0, 2))),
                     ("1x1", [[0.5]])]],
    # ZeroDivisionError
    pytest.param(lambda: lab.quotient_slope_prediction(2.0, 2, 4.0, 0), "q must be >= 1, got 0",
                 id="quotient-slope-q-0"),
    pytest.param(lambda: lab.block_decay_rate((1, 2), 2.0, 4.0, 0), "q must be >= 1, got 0",
                 id="block-decay-q-0"),
    # "negative dimensions are not allowed"
    pytest.param(lambda: eng.trig_poly(7, -3), "degree must be >= 0, got -3",
                 id="trig-poly-degree--3"),
])
def test_named_rejection(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert message in str(info.value)
