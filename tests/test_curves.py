import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveext import curves as cv


# ---------------------------------------------------------------------------
# exponents and beta
# ---------------------------------------------------------------------------


def test_beta_closed_form_values():
    # hand-computed from the piecewise formula
    assert cv.beta_alpha(2.0, 2) == pytest.approx(3.0)
    assert cv.beta_alpha(1.0, 2) == pytest.approx(2.0)
    assert cv.beta_alpha(0.5, 2) == pytest.approx(1.0 + 0.0)  # j=1: 2*0.5 + 0
    assert cv.beta_alpha(3.0, 3) == pytest.approx(6.0)
    assert cv.beta_alpha(1.5, 3) == pytest.approx(2 * 1.5 + 1.0)  # j=1
    assert cv.beta_alpha(d := 4, d=d) == pytest.approx(d * (d + 1) / 2)


def test_beta_full_dimension_is_triangular_number():
    for d in range(2, 7):
        assert cv.beta_alpha(float(d), d) == pytest.approx(d * (d + 1) / 2)


def test_beta_rejects_out_of_range():
    with pytest.raises(ValueError):
        cv.beta_alpha(0.0, 2)
    with pytest.raises(ValueError):
        cv.beta_alpha(2.5, 2)


@given(st.integers(2, 6), st.floats(0.01, 1.0, exclude_min=True))
def test_beta_monotone_and_continuous(d, frac):
    alpha = frac * d
    b = cv.beta_alpha(alpha, d)
    b2 = cv.beta_alpha(min(alpha + 1e-6, d), d)
    assert b2 >= b - 1e-12
    # continuity at bracket endpoints
    for j in range(1, d):
        lo = cv.beta_alpha(float(j) + 1e-9, d)
        hi = cv.beta_alpha(float(j), d)
        assert lo == pytest.approx(hi, abs=1e-6)


def test_exponent_tuple_validation():
    with pytest.raises(ValueError):
        cv.ExponentTuple((2, 2))
    with pytest.raises(ValueError):
        cv.ExponentTuple((0, 1))
    assert cv.nondegenerate_tuple(3).is_nondegenerate()
    assert not cv.ExponentTuple((1, 3)).is_nondegenerate()


def test_exponent_tuple_is_a_tuple():
    a = cv.ExponentTuple([1.0, 2])
    assert a == (1, 2) and type(a[0]) is int
    assert isinstance(a, tuple) and hash(a) == hash((1, 2))
    assert (a.d, a.total) == (2, 3)
    back = pickle.loads(pickle.dumps(a))
    assert type(back) is cv.ExponentTuple and back == a
    with pytest.raises(AttributeError):
        a.values = (1, 2)  # immutable, as the frozen dataclass was
    with pytest.raises(ValueError, match="positive integers"):
        cv.ExponentTuple(())
    with pytest.raises(ValueError, match="strictly increasing"):
        cv.ExponentTuple((3, 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_coefficients_named(bad):
    # NaN coefficients used to be accepted and fail later, as "cannot
    # convert float NaN to integer" or a singular frame
    with pytest.raises(ValueError, match="curve coefficients must be finite"):
        cv.CurveSpec(d=2, coeffs=((0.0, 1.0), (0.0, 0.0, bad)))


@pytest.mark.parametrize("tau, h", [(math.nan, 1.0), (0.5, math.inf)])
def test_shift_subtract_names_a_non_finite_shift(tau, h):
    with pytest.raises(ValueError, match="tau and h must be finite"):
        cv.shift_subtract(cv.model_curve(2), tau, h)


def test_sigma_exponent_nondegenerate_is_one():
    for d in range(2, 6):
        a = cv.nondegenerate_tuple(d)
        assert cv.sigma_exponent(a, float(d)) == pytest.approx(1.0)


def test_sigma_exponent_oracle_value():
    # a=(2,3), d=2, alpha=2: (5-3)/3 + 1 = 5/3
    assert cv.sigma_exponent((2, 3), 2.0) == pytest.approx(5.0 / 3.0)


# ---------------------------------------------------------------------------
# curve evaluation, torsion, minors
# ---------------------------------------------------------------------------


def test_model_curve_point_and_derivatives():
    g = cv.model_curve(3)
    t = 0.5
    np.testing.assert_allclose(g.point(t), [t, t**2 / 2, t**3 / 6])
    np.testing.assert_allclose(g.derivative(t, 1), [1.0, t, t**2 / 2])
    np.testing.assert_allclose(g.derivative(t, 3), [0.0, 0.0, 1.0])


def test_model_curve_torsion_is_one():
    for d in range(2, 6):
        g = cv.model_curve(d)
        ts = np.linspace(0, 1, 11)
        np.testing.assert_allclose(cv.torsion(g, ts), np.ones_like(ts), atol=1e-12)


def test_torsion_oracle_degenerate_curve():
    # gamma = (t, t^3/6): torsion = det[[1, 0], [t^2/2, t]] = t
    g = cv.monomial_model((1, 3))
    ts = np.linspace(0, 1, 9)
    np.testing.assert_allclose(cv.torsion(g, ts), ts, atol=1e-12)


def test_torsion_oracle_helix_like_polynomial():
    # gamma = (t, t^2, t^3): det[[1,0,0],[2t,2,0],[3t^2,6t,6]] = 12
    g = cv.CurveSpec(d=3, coeffs=((0, 1), (0, 0, 1), (0, 0, 0, 1)))
    np.testing.assert_allclose(cv.torsion(g, np.array([0.0, 0.3, 1.0])), 12.0)


def _torsion_oracle(g, t):
    """Independent reference: cofactor determinant of the evaluated frame."""
    return cv.det_exact(cv.derivative_matrix(g, float(t)))


@st.composite
def _polynomial_curves(draw):
    d = draw(st.integers(2, 4))
    deg = draw(st.integers(d, d + 3))
    coef = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    comps = tuple(tuple(draw(st.lists(coef, min_size=deg + 1, max_size=deg + 1)))
                  for _ in range(d))
    return cv.CurveSpec(d=d, coeffs=comps)


@settings(deadline=None, max_examples=60)
@given(_polynomial_curves(), st.floats(0.0, 1.0))
def test_torsion_polynomial_matches_determinant(g, t):
    # Hadamard's bound on |det| sets the rounding scale of both evaluations
    scale = math.prod(max(1.0, float(np.linalg.norm(col)))
                      for col in cv.derivative_matrix(g, t).T)
    assert abs(cv.torsion(g, t) - _torsion_oracle(g, t)) <= 1e-12 * scale


def test_torsion_scalar_and_vector_forms():
    g = cv.CurveSpec(d=3, coeffs=((0, 1, 0.3), (0, 0.2, 0.5, 0.1), (0, 0, 0.1, 0.4)))
    assert type(cv.torsion(g, 0.25)) is float
    ts = np.linspace(0, 1, 7)
    np.testing.assert_array_equal(cv.torsion(g, ts), [cv.torsion(g, t) for t in ts])


def test_curve_data_cached_equals_uncached():
    g = cv.CurveSpec(d=2, coeffs=((0, 1), (0, 0, -0.45, 0, 0.5)))  # torsion 6t^2 - 0.9
    key = (hash(g), g)
    coeffs = g.torsion_coeffs
    assert g.torsion_coeffs is coeffs and not coeffs.flags.writeable
    np.testing.assert_array_equal(coeffs, cv.torsion_poly(g))
    assert g.torsion_roots == cv.real_roots(cv.torsion_poly(g))
    ts = np.linspace(0, 1, 9)
    np.testing.assert_allclose(cv.torsion(g, ts), [_torsion_oracle(g, t) for t in ts],
                               atol=1e-14)
    r = math.sqrt(0.15)
    assert g.torsion_roots == pytest.approx((-r, r), abs=1e-14)
    speeds = np.linalg.norm(g.derivative(np.linspace(0, 1, 512), 1), axis=-1)
    assert g.velocity_sup() == float(np.max(speeds))
    # caching leaves equality and hashing to the dataclass fields
    assert (hash(g), g) == key
    assert g == cv.CurveSpec(d=2, coeffs=g.coeffs)


def test_replaced_curve_gets_its_own_data():
    g = cv.model_curve(2)
    assert (g.torsion_roots, g.velocity_sup()) == ((), pytest.approx(math.sqrt(2.0)))
    h = dataclasses.replace(g, coeffs=((0, 1), (0, 0, 0, 1)))  # torsion 6t
    np.testing.assert_allclose(h.torsion_coeffs, [0.0, 6.0])
    assert h.torsion_roots == (0.0,)
    assert h.velocity_sup() == pytest.approx(math.sqrt(10.0))
    np.testing.assert_allclose(g.torsion_coeffs, [1.0])


@pytest.mark.parametrize("mult", [1, 2, 3, 4, 6])
def test_real_roots_any_multiplicity(mult):
    p = np.polynomial.polynomial.polyfromroots([0.3] * mult + [0.7, 0.1, 0.1])
    assert cv.real_roots(p) == pytest.approx((0.1, 0.3, 0.7), abs=1e-9)
    assert cv.real_roots(np.polynomial.polynomial.polyfromroots([0.3] * mult)) \
        == pytest.approx((0.3,), abs=1e-9)


def test_real_roots_keep_close_roots_apart():
    # Euclid's gcd at GCD_TOL merged 0.5 and 0.50001 into 0.500005 (and
    # moved 0.2 to 0.19999999992)
    true = (0.2, 0.5, 0.50001)
    got = cv.real_roots(np.polynomial.polynomial.polyfromroots(true))
    assert len(got) == 3
    assert max(abs(g - t) for g, t in zip(got, true)) <= 1e-9
    # a true double root next to a close pair: one root for the double
    got = cv.real_roots(np.polynomial.polynomial.polyfromroots((0.2, 0.2) + true[1:]))
    assert got == pytest.approx(true, abs=1e-9)
    assert cv.real_roots(np.polynomial.polynomial.polyfromroots([0.2, 0.5, 0.5])) \
        == pytest.approx((0.2, 0.5), abs=1e-12)


def test_real_roots_subnormal_top_coefficient():
    # torsion 1 - 3t + 2t^2 + 1e-322 t^3: dividing by the subnormal top
    # coefficient overflowed and polyroots raised LinAlgError
    g = cv.CurveSpec(d=2, coeffs=((0, 1), (0, 0, 0.5, -0.5, 1 / 6, 5e-324)))
    assert 0.0 < g.torsion_coeffs[-1] < np.finfo(float).tiny
    assert g.torsion_roots == pytest.approx((0.5, 1.0), abs=1e-12)


def test_real_roots_no_real_or_constant():
    assert cv.real_roots([1.0, 0.0, 1.0]) == ()
    assert cv.real_roots([3.0]) == ()
    assert cv.real_roots([0.0, 0.0]) == ()


def test_minor_determinant_oracle():
    g = cv.model_curve(3)
    # rows (1,2) against (gamma', gamma''): det[[1, 0], [t, 1]] = 1
    assert cv.minor_determinant(g, (1, 2), 0.7) == pytest.approx(1.0)
    # rows (2,3): det[[t, 1], [t^2/2, t]] = t^2/2
    assert cv.minor_determinant(g, (2, 3), 0.4) == pytest.approx(0.08)


def test_det_exact_matches_numpy():
    rng = np.random.default_rng(7)
    for n in range(1, 6):
        m = rng.standard_normal((n, n))
        assert cv.det_exact(m) == pytest.approx(np.linalg.det(m), rel=1e-9)


def _derivative_oracle(g, ts, k):
    """Per component, np.polyder/np.polyval on the highest-first coefficients."""
    return np.stack([np.polyval(np.polyder(c[::-1], k), ts) for c in g.coeffs],
                    axis=-1)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_polynomial_curves(), st.floats(-1.0, 2.0))
def test_derivative_matches_polyder_oracle(g, t):
    ts = np.array([t, 0.0, 0.5, 1.0])
    # up to one order past the degree, where the derivative is 0
    for k in range(max(len(c) for c in g.coeffs) + 1):
        want = _derivative_oracle(g, ts, k)
        np.testing.assert_allclose(g.derivative(ts, k), want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(g.derivative(t, k), want[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(g.point(ts), _derivative_oracle(g, ts, 0),
                               rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_curve_text_round_trip():
    g = cv.CurveSpec(d=2, coeffs=((0, 1, 0.25), (0, 0, 0.5)),
                     a=cv.ExponentTuple((1, 2)), label="demo")
    back = cv.CurveSpec.from_text(g.to_text())
    assert back.d == g.d
    assert back.coeffs == g.coeffs
    assert back.a == g.a
    assert back.label == "demo"


def test_curve_text_rejects_malformed():
    with pytest.raises(ValueError):
        cv.CurveSpec.from_text("dimension = 2\ncomponent_1 = 0 1\n")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_model_curve_is_fixed_point():
    # the model curve renormalizes to itself at tau=0 for any h
    g = cv.model_curve(3)
    for h in (1.0, 0.5, 0.125):
        norm = cv.normalize_curve(g, 0.0, h)
        dist = cv.class_distance(norm)
        assert dist < 1e-10


def test_normalize_phase_identity_exact():
    # x . (gamma(h t + tau) - gamma(tau)) == (D_h M^t x) . normalized(t)
    g = cv.CurveSpec(d=3, coeffs=((0, 1, 0.3), (0, 0.2, 0.5, 0.1), (0, 0, 0, 0.4)))
    tau, h = 0.2, 0.3
    a = cv.nondegenerate_tuple(3)
    norm = cv.normalize_curve(g, tau, h, a)
    frame = cv.frame_matrix(g, tau, a)
    dh = cv.diagonal_scaling(h, a)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(3)
        t = rng.uniform(0, 1)
        lhs = x @ (g.point(h * t + tau) - g.point(tau))
        rhs = (dh @ frame.matrix.T @ x) @ norm.point(t)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_normalization_linear_convergence_to_model():
    # distance to the model class decays at least linearly in h
    g = cv.CurveSpec(d=2, coeffs=((0, 1, 0.2, 0.05), (0, 0.1, 0.6, 0.3)))
    tau = 0.1
    hs = [2.0 ** (-k) for k in range(1, 7)]
    dists = [cv.class_distance(cv.normalize_curve(g, tau, h)) for h in hs]
    ratios = [dists[i] / dists[i + 1] for i in range(len(dists) - 1)]
    assert all(r > 1.9 for r in ratios)


def test_normalize_rejects_singular_frame():
    # gamma' and gamma'' are parallel at tau=0 for this curve
    g = cv.CurveSpec(d=2, coeffs=((0, 1, 0.5), (0, 2, 1.0)))
    with pytest.raises(cv.SingularFrameError):
        cv.normalize_curve(g, 0.0, 0.5)


def test_normalize_rejects_interval_escape():
    g = cv.model_curve(2)
    with pytest.raises(ValueError):
        cv.normalize_curve(g, 0.9, 0.5)


def test_normalize_monomial_type_tuple():
    # gamma = (t, t^3/6) at tau=0 with tuple (1,3) normalizes to its own model
    g = cv.monomial_model((1, 3))
    norm = cv.normalize_curve(g, 0.0, 0.5, cv.ExponentTuple((1, 3)))
    dist = cv.class_distance(norm, model=(1, 3))
    assert dist < 1e-10


# ---------------------------------------------------------------------------
# class distance
# ---------------------------------------------------------------------------


def test_class_distance_detects_perturbation_size():
    d1 = cv.class_distance(cv.model_curve(2))
    assert d1 < 1e-14
    g = cv.CurveSpec(d=2, coeffs=((0, 1), (0, 0, 0.5, 0.01)))
    d2 = cv.class_distance(g)
    # C^3 norm of 0.01 t^3 on [0,1] is 0.06 (third derivative)
    assert d2 == pytest.approx(0.06, rel=0.02)


def test_empty_component_is_the_zero_polynomial():
    g = cv.CurveSpec(d=2, coeffs=((0, 1), ()))
    assert g == cv.CurveSpec(d=2, coeffs=((0, 1), (0.0,)))
    # (t, 0) against (t, t^2/2): the second derivative 1 of the difference
    assert cv.class_distance(g) == pytest.approx(1.0 * cv.SUP_SAFETY)


def test_class_distance_monomial_infinite_when_low_terms_present():
    g = cv.CurveSpec(d=2, coeffs=((0, 1), (0, 0.5, 0, 1 / 6)))
    assert math.isinf(cv.class_distance(g, model=(1, 3)))


# ---------------------------------------------------------------------------
# finite type detection
# ---------------------------------------------------------------------------


def test_detect_finite_type_nondegenerate():
    data = cv.detect_finite_type(cv.model_curve(3), 0.3)
    assert data.a == (1, 2, 3)


def test_detect_finite_type_cusp_curve():
    # gamma = (t^2, t^3) at the origin has tuple (2, 3)
    g = cv.CurveSpec(d=2, coeffs=((0, 0, 1), (0, 0, 0, 1)), label="cusp")
    data = cv.detect_finite_type(g, 0.0)
    assert data.a == (2, 3)
    # phi_k(0) = 1/a_k! after frame normalization
    assert data.phi(0, 0.0) == pytest.approx(1.0 / 2.0)
    assert data.phi(1, 0.0) == pytest.approx(1.0 / 6.0)


def test_detect_finite_type_away_from_cusp_is_nondegenerate():
    g = cv.CurveSpec(d=2, coeffs=((0, 0, 1), (0, 0, 0, 1)))
    data = cv.detect_finite_type(g, 0.5)
    assert data.a == (1, 2)


def test_detect_finite_type_flat_curve_raises():
    # second component identically zero: never spans R^2
    g = cv.CurveSpec(d=2, coeffs=((0, 1), (0.0,)))
    with pytest.raises(cv.NotFiniteTypeError):
        cv.detect_finite_type(g, 0.0)


def test_phi_normalization_general_curve():
    g = cv.CurveSpec(d=2, coeffs=((0, 0, 3, 1), (0, 0, 0, 2, 0.5)), label="scaled")
    data = cv.detect_finite_type(g, 0.0)
    assert data.a == (2, 3)
    for k in range(2):
        assert data.phi(k, 0.0) == pytest.approx(1.0 / math.factorial(data.a[k]))


# ---------------------------------------------------------------------------
# weights and the weight rescaling identity
# ---------------------------------------------------------------------------


def test_affine_weight_model_curve_is_one():
    g = cv.model_curve(3)
    ts = np.linspace(0, 1, 5)
    np.testing.assert_allclose(cv.affine_weight(g, 3.0, ts), 1.0)


def test_affine_weight_oracle_value():
    # gamma=(t, t^3/6): torsion = t, alpha=2 -> beta=3 -> weight = t^{1/3}
    g = cv.monomial_model((1, 3))
    ts = np.array([0.125, 0.5, 1.0])
    np.testing.assert_allclose(cv.affine_weight(g, 2.0, ts), ts ** (1 / 3), atol=1e-12)


def test_weight_scaling_identity_nondegenerate():
    g = cv.CurveSpec(d=2, coeffs=((0, 1, 0.2), (0, 0.3, 0.7, 0.1)))
    err = cv.weight_scaling_check(g, 0.1, 0.4, (1, 2), alpha=2.0)
    assert err < 1e-10


def test_weight_scaling_identity_monomial_type():
    g = cv.monomial_model((1, 3))
    err = cv.weight_scaling_check(g, 0.0, 0.5, (1, 3), alpha=2.0)
    assert err < 1e-10


@settings(deadline=None, max_examples=25)
@given(st.floats(0.05, 0.45), st.floats(0.05, 0.5))
def test_weight_scaling_identity_property(tau, h):
    g = cv.CurveSpec(d=2, coeffs=((0, 1, 0.1, 0.05), (0, 0.2, 0.5, 0.2)))
    err = cv.weight_scaling_check(g, tau, h, (1, 2), alpha=1.5)
    assert err < 1e-8


# ---------------------------------------------------------------------------
# sum map and nested-integral recursion
# ---------------------------------------------------------------------------


def test_gamma_sum_map_oracle():
    g = cv.model_curve(2)
    probe = cv.JacobianProbe((0.2, 0.8))
    point, jac = cv.gamma_sum_map(g, probe)
    np.testing.assert_allclose(point, [1.0, 0.02 + 0.32])
    # det[[1, 1], [0.2, 0.8]] = 0.6
    assert jac == pytest.approx(0.6)


def test_ik_recursion_model_d2():
    g = cv.model_curve(2)
    probe = cv.JacobianProbe((0.25, 0.75), b=cv.ExponentTuple((1, 2)))
    val = cv.ik_recursion(g, probe)
    assert val == pytest.approx(0.5, abs=1e-10)  # t2 - t1


def test_ik_recursion_monomial_13():
    g = cv.monomial_model((1, 3))
    t1, t2 = 0.3, 0.9
    probe = cv.JacobianProbe((t1, t2), b=cv.ExponentTuple((1, 3)))
    val = cv.ik_recursion(g, probe)
    assert val == pytest.approx((t2**2 - t1**2) / 2, abs=1e-8)


def test_ik_recursion_model_d3():
    g = cv.model_curve(3)
    t = (0.2, 0.5, 0.9)
    probe = cv.JacobianProbe(t, b=cv.ExponentTuple((1, 2, 3)))
    val = cv.ik_recursion(g, probe)
    expected = (t[1] - t[0]) * (t[2] - t[0]) * (t[2] - t[1]) / 2
    assert val == pytest.approx(expected, abs=1e-7)


def test_ik_recursion_matches_sum_map_jacobian():
    # on the ordered simplex the recursion reproduces det dGamma/dt
    g = cv.model_curve(2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        t = np.sort(rng.uniform(0.1, 1.0, 2))
        probe = cv.JacobianProbe(tuple(t), b=cv.ExponentTuple((1, 2)))
        _, jac = cv.gamma_sum_map(g, probe)
        assert cv.ik_recursion(g, probe) == pytest.approx(jac, abs=1e-8)


@pytest.mark.parametrize("coeffs", [
    ((0, 1, 0.5), (0, 0, 0.5, 1)),
    ((0, 1, 0.3), (0, 0, 0.5, 0.2), (0, 0, 0, 1 / 6, 0.1)),
])
def test_ik_recursion_matches_jacobian_with_varying_minors(coeffs):
    # perturbed monomial curves: the leading minors Phi_k vary with t
    g = cv.CurveSpec(d=len(coeffs), coeffs=coeffs)
    b = cv.ExponentTuple(tuple(range(1, g.d + 1)))
    rng = np.random.default_rng(5)
    for _ in range(3):
        t = np.sort(rng.uniform(0.1, 1.0, g.d))
        probe = cv.JacobianProbe(tuple(t), b=b)
        _, jac = cv.gamma_sum_map(g, probe)
        assert cv.ik_recursion(g, probe) == pytest.approx(jac, abs=1e-8)


@pytest.mark.parametrize("coeffs, ts, message", [
    # Phi_1 = gamma_1' = 1 - 2t vanishes at 0.5 (this read "did not reach tol")
    (((0, 1, -1), (0, 0, 0.5)), (0.2, 0.8), "Phi_1 vanishes at t = 0.5 in [0.2, 0.8]"),
    # Phi_2 = 0 everywhere (an "invalid value" RuntimeWarning at 0 / 0)
    (((0, 1), (0.0,), (0, 0, 0, 1 / 6)), (0.2, 0.5, 0.8),
     "Phi_2 vanishes at t = 0.2 in [0.2, 0.8]"),
])
def test_ik_recursion_names_a_vanishing_minor(coeffs, ts, message):
    # the integrand divides by Phi_1, ..., Phi_{n-1}
    g = cv.CurveSpec(d=len(coeffs), coeffs=coeffs)
    probe = cv.JacobianProbe(ts, b=cv.ExponentTuple(range(1, g.d + 1)))
    with pytest.raises(ValueError) as info:
        cv.ik_recursion(g, probe)
    assert message in str(info.value)


def test_jacobian_lower_bound_holds_for_model():
    g = cv.model_curve(3)
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = np.sort(rng.uniform(0.05, 1.0, 3))
        if np.min(np.diff(t)) < 1e-3:
            continue
        probe = cv.JacobianProbe(tuple(t), b=cv.ExponentTuple((1, 2, 3)))
        _, jac = cv.gamma_sum_map(g, probe)
        lb = cv.jacobian_lower_bound((1, 2, 3), tuple(t))
        assert abs(jac) >= lb - 1e-12

