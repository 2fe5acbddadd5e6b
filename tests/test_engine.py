import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from curveext import engine as eng
from curveext import lab
from curveext import measures as ms
from curveext.curves import (
    CurveSpec,
    derivative_matrix,
    det_exact,
    diagonal_scaling,
    frame_matrix,
    model_curve,
    monomial_model,
    normalize_curve,
    torsion_poly,
)


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


def test_indicator_norms():
    f = eng.indicator(0.25, 0.75)
    assert f.lp_norm(1) == pytest.approx(0.5)
    assert f.lp_norm(2) == pytest.approx(math.sqrt(0.5))
    assert f.lp_norm(math.inf) == 1.0


def test_bump_vanishes_at_edges():
    f = eng.bump(0.2, 0.6)
    assert f(0.2) == 0.0
    assert f(0.6) == 0.0
    assert f(0.4) == pytest.approx(1.0)
    assert 0 < f.lp_norm(2) < f.lp_norm(math.inf) * math.sqrt(0.4)


def test_trig_poly_deterministic_and_restricted():
    f1 = eng.trig_poly(7, degree=8)
    f2 = eng.trig_poly(7, degree=8)
    ts = np.linspace(0, 1, 33)
    np.testing.assert_array_equal(f1(ts), f2(ts))
    r = eng.restrict(f1, 0.5, 0.75)
    assert r(0.4) == 0.0
    assert r(0.6) == f1(0.6)


def test_test_functions_equal_by_kind_support_and_coefficients():
    # a trig polynomial used to carry a label that made it unequal to itself
    f = eng.trig_poly(3)
    assert f == eng.TestFunction("trig", 0, 1, f.coeffs)
    assert eng.restrict(f, 0.25, 0.5) == eng.TestFunction("trig", 0.25, 0.5, f.coeffs)


def test_restrict_empty_intersection_is_zero():
    f = eng.restrict(eng.indicator(0.0, 0.25), 0.5, 1.0)
    assert f.width == 0.0
    assert f.lp_norm(2) == 0.0


def test_zero_function_is_an_empty_indicator():
    z = eng.zero_function()
    assert (z.kind, z.width, z.bandwidth(), z.lp_norm(1.0)) == ("indicator", 0.0, 0.0, 0.0)
    assert eng.pullback(z, 0.25, 0.5).lp_norm(2.0) == 0.0
    np.testing.assert_array_equal(z(np.linspace(0, 1, 5)), 0.0)


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_non_finite_ends_named(v):
    for build in (lambda: eng.indicator(v, 0.5), lambda: eng.indicator(0.25, v),
                  lambda: eng.bump(v, v)):
        with pytest.raises(ValueError, match="test function ends must be finite"):
            build()


def test_restrict_to_a_nan_end_named():
    # max/min dropped a NaN end, so f came back unrestricted
    for f in (eng.trig_poly(1, 4), eng.indicator(0.0, 1.0)):
        for ends in ((math.nan, 0.5), (0.25, math.nan)):
            with pytest.raises(ValueError, match="test function ends must be finite"):
                eng.restrict(f, *ends)
    # an infinite end still restricts to a half-line
    assert eng.restrict(eng.indicator(0.0, 1.0), -math.inf, 0.5) == eng.indicator(0.0, 0.5)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 130).flatmap(lambda n: st.lists(
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False), min_size=n, max_size=n)))
def test_trig_matches_cos_sin_oracle(coeffs):
    # odd and even lengths, degrees 0 to 64: an even tuple ends in an a_k
    # without its b_k.  Horner rounds by about degree * eps * sum |c_k|
    # (1.04e-13 for a_30 = b_30 = 2 against mpmath), so the tolerance is
    # 1e-13 per unit of that bound on |f|
    f = eng.TestFunction("trig", 0.0, 1.0, coeffs=tuple(coeffs))
    ts = np.linspace(-0.25, 1.25, 301)
    ref = np.full_like(ts, coeffs[0])
    for j, c in enumerate(coeffs[1:]):
        k = j // 2 + 1
        ref += c * (np.cos if j % 2 == 0 else np.sin)(2.0 * math.pi * k * ts)
    ref[(ts < 0.0) | (ts > 1.0)] = 0.0
    np.testing.assert_allclose(f(ts), ref, rtol=0,
                               atol=1e-13 * max(1.0, float(np.sum(np.abs(coeffs)))))
    assert f.bandwidth() == 2.0 * math.pi * (len(coeffs) // 2)


def test_restricted_bump_is_the_bump_on_the_subinterval():
    # restrict used to build a new full bump on [0, 0.5]: 1.0 at t = 0.25
    f = eng.bump(0.0, 1.0)
    r = eng.restrict(f, 0.0, 0.5)
    ts = np.linspace(-0.1, 1.1, 121)
    np.testing.assert_array_equal(r(ts), np.where(ts <= 0.5, f(ts), 0.0))
    assert r(0.25) == pytest.approx(0.7165313105737893, abs=1e-15)
    assert r.bandwidth() == f.bandwidth()
    # the profile moves with the support under pullback
    p = eng.pullback(r, 0.25, 0.5)
    np.testing.assert_allclose(p((ts - 0.25) / 0.5), r(ts), rtol=0, atol=1e-15)


def test_trig_lp_norm_against_dense_grid():
    f = eng.trig_poly(3, degree=4)
    ts = np.linspace(0, 1, 200001)
    ref = (np.trapezoid(np.abs(f(ts)) ** 2, ts)) ** 0.5
    assert f.lp_norm(2) == pytest.approx(ref, rel=1e-4)


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------


def test_rule_node_budget_scales_with_omega():
    f = eng.indicator(0.0, 1.0)
    r1 = eng.build_rule(f, 100.0)
    r2 = eng.build_rule(f, 200.0)
    assert r2.n >= 1.5 * r1.n


@pytest.mark.parametrize("split", [1, 2])
def test_rule_node_budget_counts_exactly(monkeypatch, split):
    # an ungraded rule's uniform panels are all of its panels
    f = eng.indicator(0.1, 0.9)
    n = eng.build_rule(f, 300.0, split=split).n
    monkeypatch.setattr(eng, "MAX_NODES", n)
    assert eng.build_rule(f, 300.0, split=split).n == n
    monkeypatch.setattr(eng, "MAX_NODES", n - 1)
    with pytest.raises(eng.QuadratureBudgetError, match=f"needs {n} nodes"):
        eng.build_rule(f, 300.0, split=split)


@pytest.mark.parametrize("npw", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_rule_needs_finite_positive_node_density(npw):
    # NaN failed converting to an integer, +-inf and 0 divided by zero, and
    # -1 surfaced only as a self-check error
    with pytest.raises(ValueError, match="nodes_per_wavelength must be finite and > 0"):
        eng.build_rules([eng.indicator(0.0, 1.0)], 100.0, npw)
    with pytest.raises(ValueError, match="nodes_per_wavelength"):
        eng.extension_eval(model_curve(2), 16.0, np.ones((3, 2)), eng.indicator(0.0, 1.0),
                           nodes_per_wavelength=npw)


def test_rule_over_node_budget_raises_before_building():
    # lambda = 1e9 at |x| <= sqrt 2 asked for 3.2e9 nodes (51 GB of nodes
    # and weights) and was still building after 120 s
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(eng.QuadratureBudgetError,
                           match=r"omega=2\.000e\+09 needs 3183098912 nodes"):
            eng.extension_eval(model_curve(2), 1e9, np.array([[1.0, 1.0]]),
                               eng.trig_poly(0, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20


def test_rule_weights_integrate_support():
    f = eng.indicator(0.1, 0.9)
    r = eng.build_rule(f, 50.0)
    assert float(np.sum(r.weights)) == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("split", [1, 2])
@pytest.mark.parametrize("graded", [False, True])
def test_build_rules_equals_per_piece_rules(split, graded):
    # torsion 6 t^2 - 0.9: one root, sqrt(0.15), inside many pieces and at
    # an end of two of them
    curve = CurveSpec(d=2, coeffs=((0, 1), (0, 0, -0.45, 0, 0.5)))
    root = curve.torsion_roots[-1]
    rng = np.random.default_rng(3 + split)
    pieces = [eng.zero_function(), eng.indicator(0.0, root), eng.bump(root, 1.0)]
    for k in range(80):
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
        pieces.append((eng.indicator(lo, hi), eng.bump(lo, hi),
                       eng.restrict(eng.trig_poly(k, 6), lo, hi),
                       eng.indicator(lo, lo))[k % 4])
    grade = [eng.weight_zeros(curve, p.lo, p.hi) if graded else () for p in pieces]
    if graded:
        assert sum(map(bool, grade)) > 20
    rule = eng.build_rules(pieces, 300.0, 6.0, grade, split)
    ones = [eng.build_rule(p, 300.0, 6.0, g, split) for p, g in zip(pieces, grade)]
    assert rule.counts.tolist() == [one.n for one in ones]
    assert rule.omega == max(one.omega for one in ones)
    ends = np.cumsum(rule.counts)
    for one, end in zip(ones, ends):
        assert rule.nodes[end - one.n : end].tobytes() == one.nodes.tobytes()
        assert rule.weights[end - one.n : end].tobytes() == one.weights.tobytes()


def test_torsion_poly_matches_pointwise():
    g = CurveSpec(d=3, coeffs=((0, 1, 0.3), (0, 0.2, 0.5, 0.1), (0, 0, 0.1, 0.4)))
    coeffs = torsion_poly(g)
    ts = np.linspace(0, 1, 7)
    np.testing.assert_allclose(
        np.polynomial.polynomial.polyval(ts, coeffs),
        [det_exact(derivative_matrix(g, t)) for t in ts], atol=1e-10
    )


def test_weight_zeros_found():
    g = monomial_model((2, 3))  # torsion = t^2/2
    assert eng.weight_zeros(g) == (0.0,)
    assert eng.weight_zeros(model_curve(2)) == ()
    assert eng.weight_zeros(CurveSpec(d=2, coeffs=((0, 0, 1), (0, 0, 0, 1)))) == (0.0,)


def test_weight_zeros_ignore_tiny_top_coefficient():
    # torsion 1 - 3t + 2t^2 + 1e-32 t^3: the top term is rounding residue,
    # which made the root-finder return (0.0,)
    g = CurveSpec(d=2, coeffs=((0, 1), (0, 0, 0.5, -0.5, 1 / 6, 5e-34)))
    assert eng.weight_zeros(g) == pytest.approx((0.5, 1.0), abs=1e-12)
    # with the roots lost, the ungraded weighted rule failed its self-check
    eng.extension_eval(g, 16.0, np.array([[0.7, -0.4]]), eng.indicator(0.0, 1.0),
                       alpha=2.0)


# gamma = (t, (t - 0.3)^4): torsion 12 (t - 0.3)^2, a double root that
# polyroots returns as 0.3 +- 4e-9 i
_DOUBLE_ROOT = CurveSpec(d=2, coeffs=((0, 1), (0.3**4, -4 * 0.3**3, 6 * 0.3**2, -4 * 0.3, 1)))


def test_weight_zeros_even_multiplicity():
    zeros = eng.weight_zeros(_DOUBLE_ROOT)
    assert len(zeros) == 1 and zeros[0] == pytest.approx(0.3, abs=1e-9)
    assert eng.weight_zeros(_DOUBLE_ROOT, 0.5, 1.0) == ()


def test_weighted_value_at_double_torsion_root():
    x = np.array([0.7, -0.4])
    got = eng.extension_eval(_DOUBLE_ROOT, 1.0, x[None, :], eng.indicator(0.0, 1.0),
                             alpha=2.0)[0]

    def part(fn):
        # weight |12 (t - 0.3)^2|^{1/3} (alpha = 2, beta = 3); split at the root
        def g(t):
            return fn(np.exp(1j * float(x @ _DOUBLE_ROOT.point(t)))
                      * abs(12.0 * (t - 0.3) ** 2) ** (1.0 / 3.0))
        return sum(quad(g, a, b, epsabs=1e-12, epsrel=0.0)[0] for a, b in ((0.0, 0.3), (0.3, 1.0)))

    assert abs(got - complex(part(np.real), part(np.imag))) < 1e-8


# ---------------------------------------------------------------------------
# extension evaluation
# ---------------------------------------------------------------------------


def test_zero_phase_gives_integral():
    g = model_curve(2)
    v = eng.extension_eval(g, 64.0, np.zeros((1, 2)), eng.indicator(0.0, 1.0))
    assert v[0] == pytest.approx(1.0, abs=1e-10)


def test_closed_form_sinc_profile():
    # x = (xi, 0), model curve: T = integral exp(i lam xi t) dt
    g = model_curve(2)
    lam = 128.0
    xis = np.array([0.3, 0.7, 1.2])
    targets = np.stack([xis, np.zeros_like(xis)], axis=1)
    v = eng.extension_eval(g, lam, targets, eng.indicator(0.0, 1.0))
    expected = np.abs(2.0 * np.sin(lam * xis / 2.0) / (lam * xis))
    np.testing.assert_allclose(np.abs(v), expected, atol=1e-8)


def test_small_x_lower_bound():
    g = model_curve(2)
    lam = 256.0
    targets = np.array([[0.1 / lam, 0.1 / lam]])
    v = eng.extension_eval(g, lam, targets, eng.indicator(0.0, 1.0))
    assert abs(v[0]) >= 0.5


def test_modulus_bounded_by_l1():
    g = model_curve(2)
    rng = np.random.default_rng(0)
    targets = rng.uniform(-5, 5, size=(50, 2))
    f = eng.bump(0.2, 0.9)
    v = eng.extension_eval(g, 64.0, targets, f)
    assert np.max(np.abs(v)) <= f.lp_norm(1) + 1e-9


def test_conjugate_symmetry():
    g = model_curve(2)
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, size=(10, 2))
    f = eng.trig_poly(5, degree=6)
    v1 = eng.extension_eval(g, 32.0, x, f)
    v2 = eng.extension_eval(g, 32.0, -x, f)
    np.testing.assert_allclose(v2, np.conj(v1), atol=1e-9)


def test_phase_identity_transport():
    # |T f(x)| for f on [tau, tau+h] equals |h| |T_normalized f_h(y)| at
    # y = D_h M^t x with f_h the unit-interval indicator
    g = model_curve(2)
    tau, h = 0.25, 0.5
    lam = 64.0
    a = None
    norm = normalize_curve(g, tau, h)
    frame = frame_matrix(g, tau)
    dh = diagonal_scaling(h, frame.a)
    rng = np.random.default_rng(2)
    x = rng.uniform(-3, 3, size=(20, 2))
    y = x @ (dh @ frame.matrix.T).T
    v1 = eng.extension_eval(g, lam, x, eng.indicator(tau, tau + h))
    v2 = h * eng.extension_eval(norm, lam, y, eng.indicator(0.0, 1.0))
    np.testing.assert_allclose(np.abs(v1), np.abs(v2), atol=1e-8)


@st.composite
def _polynomial_curves(draw):
    d = draw(st.integers(2, 3))
    deg = draw(st.integers(d, d + 2))
    coef = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    return CurveSpec(d=d, coeffs=tuple(
        tuple(draw(st.lists(coef, min_size=deg + 1, max_size=deg + 1)))
        for _ in range(d)))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_polynomial_curves(), st.integers(0, 2**32 - 1))
def test_conjugate_symmetry_random_curves(g, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(10, g.d))
    f = eng.trig_poly(seed % 1000, degree=6)
    v1 = eng.extension_eval(g, 32.0, x, f)
    v2 = eng.extension_eval(g, 32.0, -x, f)
    np.testing.assert_allclose(v2, np.conj(v1), atol=1e-9)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_polynomial_curves(), st.floats(0.0, 0.5), st.floats(0.1, 0.5),
       st.integers(0, 2**32 - 1))
def test_phase_identity_transport_random_curves(g, tau, h, seed):
    # the fixed-input identity below, on curves whose frame at tau is
    # well conditioned (a near-singular one has no usable normalization)
    frame = frame_matrix(g, tau)
    assume(np.linalg.cond(frame.matrix) < 1e4)
    norm = normalize_curve(g, tau, h)
    dh = diagonal_scaling(h, frame.a)
    x = np.random.default_rng(seed).uniform(-3, 3, size=(20, g.d))
    y = x @ (dh @ frame.matrix.T).T
    v1 = eng.extension_eval(g, 64.0, x, eng.indicator(tau, tau + h))
    v2 = h * eng.extension_eval(norm, 64.0, y, eng.indicator(0.0, 1.0))
    np.testing.assert_allclose(np.abs(v1), np.abs(v2), atol=1e-8)


def test_worker_count_byte_identical():
    g = model_curve(2)
    rng = np.random.default_rng(3)
    targets = rng.uniform(-4, 4, size=(700, 2))
    f = eng.trig_poly(11, degree=16)
    v1 = eng.extension_eval(g, 128.0, targets, f, workers=1)
    v4 = eng.extension_eval(g, 128.0, targets, f, workers=4)
    assert v1.tobytes() == v4.tobytes()


def test_nonfinite_targets_rejected():
    g = model_curve(2)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="targets"):
            eng.extension_eval(g, 16.0, np.array([[0.5, bad]]), eng.indicator(0.0, 1.0))


def test_empty_grid_axis_rejected():
    with pytest.raises(ValueError, match="axis 1"):
        eng.extension_eval_grid(model_curve(2), 16.0, [np.array([0.5]), np.zeros(0)],
                                eng.indicator(0.0, 1.0))


def test_self_check_raises_on_starved_budget():
    g = model_curve(2)
    targets = np.array([[3.0, 2.0]])
    with pytest.raises(eng.QuadratureBudgetError):
        eng.extension_eval(g, 512.0, targets, eng.indicator(0.0, 1.0),
                           nodes_per_wavelength=0.5)


def test_grid_self_check_covers_the_mirrored_corner(monkeypatch):
    # on mirror axes the near corner is the conjugate of the far one's
    # mirror value, formed by no GEMM: an error there must not pass
    grid_values = eng._grid_values

    def corrupted(us, amp, shape):
        values = grid_values(us, amp, shape)
        values[(0,) * len(shape)] += 1e-3
        return values

    monkeypatch.setattr(eng, "_grid_values", corrupted)
    axes = [_mirror_axis(6, 0.5), _mirror_axis(5, 0.25)]
    with pytest.raises(eng.QuadratureBudgetError):
        eng.extension_eval_grid(model_curve(2), 16.0, axes, eng.indicator(0.0, 1.0))


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("curve, f, alpha", [
    # support narrower than one panel at omega = 10: a rule at doubled
    # nodes-per-wavelength has the same 16 nodes as the coarse one
    (model_curve(2), eng.indicator(0.4, 0.41), None),
    # geometric panels toward the torsion root t = 0
    (monomial_model((2, 3)), eng.indicator(0.0, 0.5), 2.0),
])
def test_self_check_rule_splits_every_panel(monkeypatch, grid, curve, f, alpha):
    built = []
    build_rules = eng.build_rules

    def recording(*args, **kwargs):
        built.append(build_rules(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(eng, "build_rules", recording)
    x = 10.0 / curve.velocity_sup()
    if grid:
        eng.extension_eval_grid(curve, 1.0, [np.array([x]), np.array([0.0])], f,
                                alpha=alpha)
    else:
        eng.extension_eval(curve, 1.0, np.array([[x, 0.0]]), f, alpha=alpha)
    coarse, fine = built
    assert fine.n == 2 * coarse.n
    assert float(np.sum(fine.weights)) == pytest.approx(f.width, abs=1e-14)
    # every coarse panel is halved: its 16 nodes sit in the two fine panels
    for k in range(0, coarse.n, eng.PANEL_ORDER):
        lo, hi = fine.nodes[2 * k], fine.nodes[2 * k + 2 * eng.PANEL_ORDER - 1]
        assert lo < coarse.nodes[k] and coarse.nodes[k + eng.PANEL_ORDER - 1] < hi


@pytest.mark.parametrize("curve, alpha", [
    (model_curve(2), None),
    (monomial_model((2, 3)), 2.0),
    (model_curve(3), None),
    (model_curve(4), None),
])
def test_grid_matches_scattered(curve, alpha):
    # one tensor contraction serves every d: each trailing index is a plane
    axes = [np.linspace(-1.5 + 0.25 * k, 1.0, 4 + k) for k in range(curve.d)]
    f = eng.trig_poly(7, degree=8)
    vals = eng.extension_eval_grid(curve, 16.0, axes, f, alpha=alpha)
    assert vals.shape == tuple(a.size for a in axes)
    rng = np.random.default_rng(curve.d)
    picks = [tuple(int(rng.integers(a.size)) for a in axes) for _ in range(8)]
    pts = np.array([[a[i] for a, i in zip(axes, ix)] for ix in picks])
    ref = eng.extension_eval(curve, 16.0, pts, f, alpha=alpha)
    np.testing.assert_allclose([vals[ix] for ix in picks], ref, rtol=0, atol=1e-10)


def test_axis_factor_recurrence_matches_direct_exp():
    # 200 points: more than two restart blocks of the recurrence
    lam = 4096.0
    a = np.linspace(-16.0, 16.0, 200)
    g = np.random.default_rng(4).uniform(-1.0, 1.0, 5000)
    assert a.size > 2 * eng.PHASE_RESTART
    ref = np.exp(1j * lam * np.outer(a, g))
    tol = lam * np.max(np.abs(a)) * np.max(np.abs(g)) * 1e-15
    np.testing.assert_allclose(eng._axis_factor(a, g, lam), ref, rtol=0, atol=tol)


def test_axis_factor_nonuniform_axis_is_direct_exp():
    a = np.linspace(-3.0, 3.0, 150) ** 3
    g = np.random.default_rng(5).uniform(-1.0, 1.0, 700)
    got = eng._axis_factor(a, g, 300.0)
    assert got.tobytes() == np.exp(1j * 300.0 * np.outer(a, g)).tobytes()


def test_grid_matches_scattered_on_long_axis():
    # the leading axis spans more than one restart block of the recurrence
    g = model_curve(2)
    axes = [np.linspace(-2.0, 2.0, 150), np.linspace(-1.0, 1.5, 5)]
    f = eng.trig_poly(3, degree=8)
    vals = eng.extension_eval_grid(g, 64.0, axes, f)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    # reversed rows are no C-order product: the scattered kernel serves them
    ref = eng.extension_eval(g, 64.0, pts[::-1], f)[::-1].reshape(vals.shape)
    np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-10)


# tensor-product targets: the grid contraction behind extension_eval


_TENSOR_MEASURES = {
    "cantor2": lambda: ms.make_cantor(2, 1 / 3, 5),
    # a uniform axis: its factors come from the phase recurrence
    "lebesgue2": lambda: ms.make_lebesgue(2, resolution=16),
    "cantor3": lambda: ms.make_cantor(3, 1 / 3, 3),
    # a point-mass axis of one point, then two live axes
    "appendix_a3": lambda: ms.make_appendix_a(3, 1.5, 1),
}


@pytest.mark.parametrize("name", sorted(_TENSOR_MEASURES))
def test_tensor_targets_match_scattered(name):
    mu = _TENSOR_MEASURES[name]()
    curve = model_curve(mu.d)
    f = eng.trig_poly(5, degree=8)
    # shuffled rows are no C-order product, so they take the scattered kernel
    perm = np.random.default_rng(mu.d).permutation(mu.n)
    assert eng._tensor_axes(mu.atoms) is not None
    assert eng._tensor_axes(mu.atoms[perm]) is None
    got = eng.extension_eval(curve, 64.0, mu.atoms, f)
    ref = eng.extension_eval(curve, 64.0, mu.atoms[perm], f)
    np.testing.assert_allclose(got[perm], ref, rtol=0, atol=1e-12)


def test_tensor_targets_worker_count_byte_identical():
    mu = ms.make_cantor(2, 1 / 3, 5)
    f = eng.trig_poly(11, degree=16)
    v1 = eng.extension_eval(model_curve(2), 128.0, mu.atoms, f, workers=1)
    v4 = eng.extension_eval(model_curve(2), 128.0, mu.atoms, f, workers=4)
    assert v1.tobytes() == v4.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_scattered_pieces_rows_equal_single_evaluations(workers):
    # pieces over NODE_CHUNK, over SCATTER_CHUNK and below it, and empty
    # ones, over more than one target block
    curve = model_curve(2)
    f = eng.trig_poly(5, degree=8)
    targets = np.random.default_rng(2).uniform(-2.0, 2.0, (eng.TARGET_BLOCK + 30, 2))
    pieces = [f, eng.restrict(f, 0.5, 0.52), eng.zero_function(),
              eng.restrict(f, 0.1, 0.4), eng.restrict(f, 0.7, 0.7)]
    pieces += [eng.restrict(f, k / 64, (k + 1) / 64) for k in range(20)]
    lam = 2048.0
    rule = eng.build_rules(pieces, lam * 2.0 * math.sqrt(2.0) * curve.velocity_sup())
    assert rule.counts[0] > eng.NODE_CHUNK and eng.SCATTER_CHUNK < rule.counts[3]
    rows = eng.extension_eval_pieces(curve, lam, targets, f, pieces, workers=workers,
                                     self_check=False)
    for row, piece in zip(rows, pieces):
        one = eng.extension_eval(curve, lam, targets, piece, self_check=False)
        assert row.tobytes() == one.tobytes()


def test_pieces_peak_not_above_whole_support():
    # the certificates shape: the finest d = 3 table beside T f itself;
    # the phase chunks of the pieces stay below the whole-support rule's
    curve = model_curve(3)
    f = eng.trig_poly(300, degree=24)
    x = np.random.default_rng(0).uniform(-2.0, 2.0, (40, 3))
    x[0] = 2.0
    pieces = [eng.restrict(f, k / 256, (k + 1) / 256) for k in range(256)]

    def peak(run):
        run()  # caches filled outside the measurement
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole = peak(lambda: eng.extension_eval(curve, 128.0, x, f))
    table = peak(lambda: eng.extension_eval_pieces(curve, 128.0, x, f, pieces))
    assert table <= whole


@pytest.mark.parametrize("alpha", [None, 2.0])
def test_tensor_pieces_rows_equal_single_evaluations(alpha):
    curve = monomial_model((2, 3))
    targets = ms.make_lebesgue(2, resolution=12).atoms
    f = eng.trig_poly(2, degree=8)
    pieces = [f, eng.restrict(f, 0.0, 0.5), eng.restrict(f, 0.25, 0.75)]
    rows = eng.extension_eval_pieces(curve, 32.0, targets, f, pieces, alpha=alpha)
    for row, piece in zip(rows, pieces):
        one = eng.extension_eval(curve, 32.0, targets, piece, alpha=alpha)
        assert row.tobytes() == one.tobytes()


def test_tensor_pieces_rows_in_input_order():
    # the grid family yields A's group (rows 0 and 2) before B's (row 1),
    # so rows written in the order they come would put A in row 1
    mu = ms.make_cantor(2, 1 / 3, 4)
    curve = model_curve(2)
    f = eng.trig_poly(7, degree=8)
    a, b = eng.restrict(f, 0.0, 0.5), eng.restrict(f, 0.5, 1.0)
    pieces = [a, b, a, f]
    rows = eng.extension_eval_pieces(curve, 32.0, mu.atoms, f, pieces)
    for row, piece in zip(rows, pieces):
        one = eng.extension_eval(curve, 32.0, mu.atoms, piece)
        assert row.tobytes() == one.tobytes()


def test_tensor_targets_self_check_raises_on_starved_budget():
    targets = ms._product(np.array([3.0, 3.5]), np.array([2.0, 2.5]))
    assert eng._tensor_axes(targets) is not None
    with pytest.raises(eng.QuadratureBudgetError):
        eng.extension_eval(model_curve(2), 512.0, targets, eng.indicator(0.0, 1.0),
                           nodes_per_wavelength=0.5)


def _mixed_family():
    """8 trig members sharing one rule, with other groups between and after
    them: a Knapp cap, a bump, the zero function and a repeated member."""
    trig = [eng.trig_poly(seed, degree=16) for seed in range(8)]
    return (trig[:4] + [eng.indicator(0.3, 0.45)] + trig[4:]
            + [eng.bump(0.2, 0.7), eng.zero_function(), trig[2]])


# torsion 6 t^2 - 0.9 and 12 - 48 t: roots at 0.387 and 0.25, inside the
# trig and bump supports, so the weighted rules are graded there
@pytest.mark.parametrize("curve, axes", [
    (CurveSpec(d=2, coeffs=((0, 1), (0, 0, -0.45, 0, 0.5))),
     [np.linspace(-2.0, 2.0, 7), np.linspace(-1.0, 1.5, 5)]),
    (CurveSpec(d=3, coeffs=((0, 1), (0, 0, 1), (0, 0, 0, 1, -1))),
     [np.linspace(-2.0, 2.0, 4), np.linspace(-1.0, 1.5, 3),
      np.array([-0.5, 0.0, 0.25, 1.0, 3.0])]),
])
@pytest.mark.parametrize("weighted", [False, True])
def test_family_grid_equals_one_member_grids(monkeypatch, curve, axes, weighted):
    alpha = float(curve.d) if weighted else None
    fam = _mixed_family()
    if weighted:
        assert 0.0 < curve.torsion_roots[-1] < 0.7
    built = []
    build_rules = eng.build_rules

    def recording(*args, **kwargs):
        built.append(build_rules(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(eng, "build_rules", recording)
    got = dict(eng.extension_eval_grid_family(curve, 16.0, axes, fam, alpha=alpha))
    # one rule pass holding a piece per group: trig, the cap, the bump and
    # the empty support; the chunk walk keeps every group whole, and unweighted
    # the cap and the bump share the second chunk, the bump at an offset
    assert sorted(got) == list(range(len(fam))) and len(built) == 1
    counts = built[0].counts.tolist()
    assert len(counts) == 4 and counts[3] == 0
    chunks = eng._chunks(counts, max(counts))
    assert [k for c in chunks for k in c[3]] == [0, 1, 2]
    assert weighted or [c[2] for c in chunks] == [[0], [0, counts[1]]]
    for j, f in enumerate(fam):
        ref = eng.extension_eval_grid(curve, 16.0, axes, f, alpha=alpha,
                                      self_check=False)
        assert got[j].tobytes() == ref.tobytes()
    zero, again = len(fam) - 2, len(fam) - 1
    assert not np.any(got[zero]) and got[again].tobytes() == got[2].tobytes()


def _mirror_axis(m, step):
    """m points, exactly their own mirror: a = -a[::-1]."""
    upper = step * (np.arange(m // 2) + 1.0 - 0.5 * (m % 2 == 0))
    return np.concatenate((-upper[::-1], [0.0] * (m % 2), upper))


_MIRROR_CURVES = {2: CurveSpec(d=2, coeffs=((0, 1), (0, 0, -0.45, 0, 0.5))),
                  3: CurveSpec(d=3, coeffs=((0, 1), (0, 0, 1), (0, 0, 0, 1, -1)))}


# even and odd leading axes; "ulp" moves one point of the last axis by an
# ulp, so that axis is no mirror and the full grid is formed
@pytest.mark.parametrize("sizes, ulp", [
    ((6, 5), False), ((7, 4), False), ((5, 4, 3), False), ((4, 3, 6), False),
    ((6, 5), True), ((5, 4, 3), True),
])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("lam", [64.0, -64.0])
def test_family_grid_on_mirror_axes_matches_scattered(monkeypatch, sizes, ulp,
                                                      weighted, lam):
    curve = _MIRROR_CURVES[len(sizes)]
    alpha = float(curve.d) if weighted else None
    axes = [_mirror_axis(m, 0.4 + 0.1 * k) for k, m in enumerate(sizes)]
    assert all(np.array_equal(a, -a[::-1]) for a in axes)
    if ulp:
        axes[-1][0] = np.nextafter(axes[-1][0], -np.inf)
    formed = []
    axis_factor = eng._axis_factor

    def recording(a, g, lam, mirror=False):
        formed.append((a.size, mirror))
        return axis_factor(a, g, lam, mirror)

    monkeypatch.setattr(eng, "_axis_factor", recording)
    fam = _mixed_family()
    got = dict(eng.extension_eval_grid_family(curve, lam, axes, fam, alpha=alpha))
    # per chunk: axis 0 from its middle row on, the other axes mirrored
    m0 = sizes[0]
    want = ([(m0, False)] + [(m, False) for m in sizes[1:]] if ulp
            else [(m0 - m0 // 2, False)] + [(m, True) for m in sizes[1:]])
    assert formed[:len(sizes)] == want
    # shuffled rows are no C-order product: the scattered kernel serves them
    pts = ms._product(*axes)
    perm = np.random.default_rng(len(sizes)).permutation(len(pts))
    for j, f in enumerate(fam):
        ref = eng.extension_eval(curve, lam, pts[perm], f, alpha=alpha, self_check=False)
        np.testing.assert_allclose(got[j].ravel()[perm], ref, rtol=0, atol=1e-12)


def test_group_trig_amplitudes_match_horner():
    # one group of degree-64 members, one a coefficient short (its last
    # b_k is 0), beside an indicator; nodes on both sides of the support
    fs = [eng.restrict(eng.trig_poly(seed), 0.2, 0.7) for seed in range(8)]
    fs[3] = eng.TestFunction("trig", 0.2, 0.7, fs[3].coeffs[:-1])
    assert len({f.bandwidth() for f in fs}) == 1
    fs.insert(5, eng.indicator(0.2, 0.7))
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 1.0, 2288)
    weights, aw = rng.uniform(0.5, 1.5, (2, t.size))
    part = slice(100, 2200)
    got = eng._amplitudes(fs, t, weights, aw, part)
    assert got.shape == (len(fs), 2100) and got.dtype == float
    for row, f in zip(got, fs):
        ref = f(t[part]) * weights[part] * aw[part]
        np.testing.assert_allclose(row, ref, rtol=0, atol=1e-13)
        # a member's row does not depend on its group-mates
        alone = eng._amplitudes([f], t, weights, aw, part)[0]
        assert row.tobytes() == alone.tobytes()
        if f.kind != "trig":
            assert row.tobytes() == ref.tobytes()


def test_family_grid_of_no_members_is_empty():
    axes = [np.linspace(-1.0, 1.0, 3)] * 2
    assert list(eng.extension_eval_grid_family(model_curve(2), 16.0, axes, [])) == []
    assert lab.GradedGrid(2, 2.0, 8, 1).family_lq(model_curve(2), 16.0, [], 4.0) == []


@pytest.mark.parametrize("alpha", [None, 2.0])
def test_family_grid_zero_node_groups_are_zero(alpha):
    curve = model_curve(2)
    axes = [np.linspace(-1.0, 1.0, 3), np.linspace(0.0, 2.0, 4)]
    f = eng.trig_poly(5, degree=8)
    empty = [eng.zero_function(), eng.indicator(0.4, 0.4), eng.restrict(f, 0.6, 0.2)]
    for fam in (empty, [f] + empty):
        got = dict(eng.extension_eval_grid_family(curve, 16.0, axes, fam, alpha=alpha))
        assert sorted(got) == list(range(len(fam)))
        for j in range(len(fam) - len(empty), len(fam)):
            assert got[j].shape == (3, 4) and not np.any(got[j])


def test_family_peak_is_the_largest_groups():
    # the Knapp caps and bumps run in chunks before the trig group, whose
    # factors set the peak; the level's nodes must not stay alive beside them
    curve, lam = model_curve(2), 256.0
    axes = lab.GradedGrid(2, 4.0, 32, 3).levels[0][0]
    trig = [f for _, f in lab.trig_family(0, 8)]
    fam = ([f for _, f in lab.knapp_family(2, lam, 8, 3)]
           + [f for _, f in lab.bump_family(2, lam, 4)] + trig)

    def peak(fs):
        for _ in eng.extension_eval_grid_family(curve, lam, axes, fs, None, 6):
            pass  # caches filled outside the measurement
        tracemalloc.start()
        try:
            for _ in eng.extension_eval_grid_family(curve, lam, axes, fs, None, 6):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(fam) <= 1.02 * peak(trig)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_nonfinite_lambda_rejected(lam):
    # NaN failed inside the rule build ("cannot convert float NaN to
    # integer") and infinity with ZeroDivisionError
    curve, f = model_curve(2), eng.indicator(0.0, 1.0)
    calls = [
        lambda: eng.extension_eval(curve, lam, np.array([[0.5, 0.25]]), f),
        lambda: eng.extension_eval_grid(curve, lam, [np.array([0.5, 1.0])] * 2, f),
        lambda: lab.GradedGrid(2, 2.0, 8, 1).family_lq(curve, lam, [f], 4.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="lambda must be finite"):
            call()


@pytest.mark.parametrize("lam", [0.0, -16.0])
def test_zero_and_negative_lambda_stay_valid(lam):
    curve, f = model_curve(2), eng.indicator(0.1, 0.9)
    targets = np.array([[0.5, 0.25], [-1.0, 2.0]])
    vals = eng.extension_eval(curve, lam, targets, f)
    grid = eng.extension_eval_grid(curve, lam, [targets[:, 0], targets[:, 1]], f)
    assert np.all(np.isfinite(vals)) and abs(grid[0, 0] - vals[0]) < 1e-12
    # T at -lam is T at lam at -x, on the same rule (a negative lam used to
    # size its rule by a negative omega: one panel per support)
    np.testing.assert_array_equal(vals, eng.extension_eval(curve, -lam, -targets, f))
    if lam == 0.0:
        assert np.allclose(vals, 0.8, rtol=0, atol=1e-12)


def test_weighted_value_at_origin_is_weight_integral():
    # gamma = (t^2/2, t^3/6): torsion t^2/2, alpha=2 -> w = (t^2/2)^{1/3}
    g = monomial_model((2, 3))
    v = eng.extension_eval(g, 32.0, np.zeros((1, 2)), eng.indicator(0.0, 1.0),
                           alpha=2.0)
    expected = 2.0 ** (-1.0 / 3.0) * 3.0 / 5.0
    assert v[0].real == pytest.approx(expected, abs=1e-8)
    assert v[0].imag == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("value, least, ok", [
    (1.0, 1.0, True), (math.inf, 1.0, True), (math.inf, 2.0, True),
    (0.5, 1.0, False), (1.5, 2.0, False), (math.nan, 1.0, False),
    (-math.inf, 1.0, False)])
def test_check_exponent_fails_nan_and_passes_infinity(value, least, ok):
    if ok:
        eng.check_exponent("q", value, least=least)
    else:
        with pytest.raises(ValueError, match=f"q must be >= {least:g}, got"):
            eng.check_exponent("q", value, least=least)


def test_lq_norm_contracts():
    mu = ms.make_lebesgue(2, box=(0.0, 1.0), resolution=10)
    vals = np.ones(mu.n)
    assert eng.lq_norm(vals, mu, 4) == pytest.approx(1.0)
    assert eng.lq_norm(2 * vals, mu, math.inf) == 2.0
    empty = ms.DiscreteMeasure(atoms=np.zeros((0, 2)), weights=np.zeros(0),
                               alpha=2.0, c_mu=1.0, resolution=1.0)
    assert eng.lq_norm(np.zeros(0), empty, math.inf) == 0.0
    with pytest.raises(ValueError):
        eng.lq_norm(vals[:-1], mu, 2)
    # NaN passed every comparison and returned 1.0
    with pytest.raises(ValueError, match="q must"):
        eng.lq_norm(vals, mu, math.nan)


# ---------------------------------------------------------------------------
# multilinear L2
# ---------------------------------------------------------------------------


def test_multilinear_bilinear_example():
    g = model_curve(2)
    fs = [eng.indicator(0.0, 0.25), eng.indicator(0.75, 1.0)]
    res = eng.multilinear_l2(g, fs, 64.0, box_r=40.0)
    assert res.separation == pytest.approx(0.5)
    assert res.lhs > 0
    assert res.lhs <= res.bound
    assert res.tail_fraction <= 0.01


def test_multilinear_zero_factor():
    g = model_curve(2)
    fs = [eng.indicator(0.0, 0.25), eng.zero_function()]
    res = eng.multilinear_l2(g, fs, 64.0)
    assert res.lhs == 0.0
    # d = 3: the zero factor's gap of 0 used to overflow the bound's sep power
    fs3 = [eng.indicator(0.0, 0.2), eng.zero_function(), eng.indicator(0.6, 0.9)]
    assert eng.plancherel_bound(model_curve(3), fs3, 64.0) == 0.0


def test_multilinear_requires_separation():
    g = model_curve(2)
    fs = [eng.indicator(0.0, 0.6), eng.indicator(0.5, 1.0)]
    with pytest.raises(eng.SeparationError):
        eng.multilinear_l2(g, fs, 64.0)


def test_multilinear_trilinear_example():
    g = model_curve(3)
    fs = [eng.indicator(0.0, 0.2), eng.indicator(0.4, 0.6),
          eng.indicator(0.8, 1.0)]
    res = eng.multilinear_l2(g, fs, 16.0, box_r=16.0, tail_target=0.05,
                             max_doublings=1)
    assert res.lhs > 0
    assert res.lhs <= res.bound


def test_multilinear_any_d_matches_scattered_product():
    # d = 4 runs through the same grid contraction as d = 2, 3
    g = model_curve(4)
    fs = [eng.indicator(0.3 * k, 0.3 * k + 0.1) for k in range(4)]
    res = eng.multilinear_l2(g, fs, 4.0, box_r=4.0, tail_target=1.0,
                             max_doublings=0)
    m = int(math.ceil(2.0 * res.box_r / res.grid_step))
    axis = -res.box_r + res.grid_step * (np.arange(m) + 0.5)
    pts = np.stack(np.meshgrid(*[axis] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    pts = pts[::-1]  # no C-order product: the scattered kernel serves it
    prod = np.prod([eng.extension_eval(g, 4.0, pts, f) for f in fs], axis=0)
    lhs = math.sqrt(float(np.sum(np.abs(prod) ** 2)) * res.grid_step ** 4)
    assert res.lhs == pytest.approx(lhs, rel=1e-9)


def test_multilinear_starved_rule_fails_its_corner_check():
    # at 0.5 and 0.25 nodes per wavelength these returned lhs 0.01073 and
    # ratio 1.85 > 1, against 0.0070277 at the default 10, with no error
    g = model_curve(2)
    fs = [eng.indicator(0.1, 0.3), eng.indicator(0.6, 0.8)]
    res = eng.multilinear_l2(g, fs, 256.0, box_r=16.0, nodes_per_wavelength=10)
    assert res.lhs == pytest.approx(0.0070277, rel=1e-5)
    for npw in (0.5, 0.25):
        with pytest.raises(eng.QuadratureBudgetError, match="self-check error"):
            eng.multilinear_l2(g, fs, 256.0, box_r=16.0, nodes_per_wavelength=npw)


@pytest.mark.parametrize("kwargs, name", [
    (dict(box_r=0.0), "box_r"), (dict(box_r=-1.0), "box_r"),
    (dict(box_r=math.nan), "box_r"), (dict(box_r=math.inf), "box_r"),
    (dict(max_doublings=-1), "max_doublings")])
def test_multilinear_rejects_degenerate_box(kwargs, name):
    # box_r 0 and -1 returned lhs 0 (a pass), NaN and inf failed converting
    # to an integer, and max_doublings -1 ended in UnboundLocalError
    fs = [eng.indicator(0.0, 0.25), eng.indicator(0.75, 1.0)]
    with pytest.raises(ValueError, match=name):
        eng.multilinear_l2(model_curve(2), fs, 64.0, **kwargs)


def test_multilinear_lambda_decay():
    g = model_curve(2)
    fs = [eng.indicator(0.0, 0.25), eng.indicator(0.75, 1.0)]
    r1 = eng.multilinear_l2(g, fs, 32.0, box_r=40.0)
    r2 = eng.multilinear_l2(g, fs, 64.0, box_r=40.0)
    # lhs decays by roughly 2^{-d/2} per lambda doubling
    assert r2.lhs < r1.lhs


# ---------------------------------------------------------------------------
# benchmark plumbing
# ---------------------------------------------------------------------------


def test_benchmark_report_runs_small():
    g = model_curve(2)
    rep = eng.throughput_benchmark(g, 64.0, 300, worker_counts=(1, 2))
    assert rep.checksum
    assert set(rep.seconds) == {1, 2}
