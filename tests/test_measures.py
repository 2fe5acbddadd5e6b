import math

import numpy as np
import pytest

from curveext import measures as ms
from curveext.curves import ExponentTuple


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_lebesgue_unit_square_mass():
    mu = ms.make_lebesgue(2, box=(0.0, 1.0), resolution=100)
    assert mu.total_mass() == pytest.approx(1.0)
    assert mu.alpha == 2.0
    assert mu.n == 10000


def test_lebesgue_graded_partition_is_exact():
    mu = ms.make_lebesgue(2, box=(-1.0, 1.0), resolution=16, grading_levels=3)
    assert mu.total_mass() == pytest.approx(4.0, rel=1e-12)
    # graded atoms concentrate near the origin
    near = np.max(np.abs(mu.atoms), axis=1) < 0.125
    assert np.sum(near) > 200


def test_lebesgue_overflow_guard():
    with pytest.raises(ValueError):
        ms.make_lebesgue(3, resolution=5000)


def test_appendix_a_line_measure():
    # d=2, alpha=1, j=1: delta(x1) tensor dx2
    mu = ms.make_appendix_a(2, alpha=1.0, j=1, extent=1.0, resolution=64)
    np.testing.assert_allclose(mu.atoms[:, 0], 0.0)
    assert mu.total_mass() == pytest.approx(2.0)
    # mass of a centered ball is 2*rho
    assert mu.ball_mass([0.0, 0.0], 0.5) == pytest.approx(1.0, rel=0.05)


def test_appendix_a_singular_density_mass():
    # d=2, alpha=1.5, j=0: integral of |x1|^{-1/2} over [-1,1]^2 = 4 * 2 = ...
    # exactly (2 * 2 * 1^{1/2}) * 2 = 8? integral |u|^{-1/2} du over [-1,1] is 4
    mu = ms.make_appendix_a(2, alpha=1.5, j=0, extent=1.0, resolution=64,
                            grading_levels=10)
    assert mu.total_mass() == pytest.approx(4.0 * 2.0, rel=1e-10)


@pytest.mark.parametrize("extent, res", [(1.0, 98), (0.1, 22)])
@pytest.mark.parametrize("grading", [0, 1])
def test_appendix_a_middle_edge_off_zero(extent, res, grading):
    # np.linspace(-extent, extent, res + 1)[res // 2] is -1.1e-16 and
    # 1.4e-17 here, not 0
    d, j, alpha = 2, 0, 1.5
    p = alpha - d + j
    mu = ms.make_appendix_a(d, alpha, j, extent=extent, resolution=res,
                            grading_levels=grading)
    exact = 2.0 * extent ** (p + 1) / (p + 1) * (2.0 * extent) ** (d - j - 1)
    assert mu.total_mass() == pytest.approx(exact, rel=1e-12)


def test_appendix_a_bracket_validation():
    with pytest.raises(ValueError):
        ms.make_appendix_a(2, alpha=1.5, j=1)  # needs 0 < alpha <= 1


@pytest.mark.parametrize("extent", [0.0, -1.0, math.nan, math.inf])
def test_appendix_a_rejects_degenerate_extent(extent):
    # extent 0 built a zero-diameter measure whose zero local resolution set
    # the audit floor to 0, so regularity_audit's radius loop never ended
    with pytest.raises(ValueError, match="extent must be finite and > 0"):
        ms.make_appendix_a(2, 1.0, 1, extent=extent)


@pytest.mark.parametrize("box, levels", [
    ((1.0, -1.0), 0), ((1.0, 1.0), 0), ((-math.inf, 1.0), 0), ((0.0, math.nan), 0),
    ((1.0, -1.0), 1), ((-math.inf, math.inf), 1)])
def test_lebesgue_rejects_degenerate_box(box, levels):
    # box (1, -1) used to build a measure of resolution -0.25
    with pytest.raises(ValueError, match="box must be finite with lo < hi"):
        ms.make_lebesgue(2, box=box, resolution=8, grading_levels=levels)


def test_lebesgue_rejects_negative_grading():
    # a graded grid of no levels: make_lebesgue failed concatenating nothing,
    # and the graded scaling path read "vacuous"
    with pytest.raises(ValueError, match="grading_levels must be >= 0"):
        ms.make_lebesgue(2, box=(-1.0, 1.0), resolution=8, grading_levels=-1)


def test_appendix_a_plane_slice_is_lebesgue():
    # d=3, alpha=2, j=1: |x2|^0 on a plane
    mu = ms.make_appendix_a(3, alpha=2.0, j=1, extent=1.0, resolution=16)
    np.testing.assert_allclose(mu.atoms[:, 0], 0.0)
    assert mu.total_mass() == pytest.approx(4.0, rel=1e-12)
    assert np.allclose(mu.weights, mu.weights[0])


def test_restrict_keeps_certificate_and_masks_arrays():
    mu = ms.make_appendix_a(2, 1.0, 1, extent=1.0, resolution=16,
                            grading_levels=2)
    mask = np.arange(mu.n) % 3 == 1
    sub = mu.restrict(mask)
    np.testing.assert_array_equal(sub.atoms, mu.atoms[mask])
    np.testing.assert_array_equal(sub.weights, mu.weights[mask])
    np.testing.assert_array_equal(sub.local_resolution,
                                  mu.local_resolution[mask])
    assert (sub.alpha, sub.c_mu, sub.resolution, sub.generator) == (
        mu.alpha, mu.c_mu, mu.resolution, mu.generator)


def test_cantor_basic():
    mu = ms.make_cantor(1, ratio=1 / 3, depth=6)
    assert mu.n == 64
    assert mu.total_mass() == pytest.approx(1.0)
    assert mu.alpha == pytest.approx(math.log(2) / math.log(3))


def test_cantor_half_dimension():
    mu = ms.make_cantor(1, ratio=0.25, depth=5)
    assert mu.alpha == pytest.approx(0.5)


def test_cantor_depth_zero_degenerate():
    mu = ms.make_cantor(1, ratio=1 / 3, depth=0)
    assert mu.n == 1
    assert "degenerate" in mu.generator


def test_cantor_ratio_validation():
    with pytest.raises(ValueError):
        ms.make_cantor(1, ratio=0.5, depth=3)


def test_cantor_negative_depth_rejected():
    # depth -1 silently built the one-atom depth-0 measure
    with pytest.raises(ValueError, match="depth"):
        ms.make_cantor(2, 1 / 3, -1)


# ---------------------------------------------------------------------------
# tensor layout against meshgrid oracles
# ---------------------------------------------------------------------------


def _mesh(*axes):
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.reshape(-1) for g in grids])


def _centers(lo, hi, n):
    edges = np.linspace(lo, hi, n + 1)
    return 0.5 * (edges[:-1] + edges[1:])


@pytest.mark.parametrize("d, box, res, levels", [
    (1, (-0.3, 1.7), 5, 0), (2, (-0.3, 1.7), 5, 0), (3, (0.0, 1.0), 3, 0),
    (2, (-2.0, 2.0), 8, 3), (3, (-1.0, 1.0), 4, 2)])
def test_lebesgue_matches_meshgrid_oracle(d, box, res, levels):
    atoms, weights = [], []
    for level in range(levels + 1):
        lo, hi = box[0] * 2.0 ** -level, box[1] * 2.0 ** -level
        pts = _mesh(*[_centers(lo, hi, res)] * d)
        if level < levels:
            pts = pts[np.max(np.abs(pts), axis=1) > hi / 2.0]
        atoms.append(pts)
        weights.append(np.full(len(pts), ((hi - lo) / res) ** d))
    mu = ms.make_lebesgue(d, box=box, resolution=res, grading_levels=levels)
    np.testing.assert_array_equal(mu.atoms, np.concatenate(atoms))
    np.testing.assert_array_equal(mu.weights, np.concatenate(weights))
    assert mu.resolution == (hi - lo) / res


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_cantor_matches_meshgrid_oracle(d, depth):
    ratio = 0.25  # dyadic, so the oracle's interval ends are exact
    intervals = [(0.0, 1.0)]
    for _ in range(depth):
        intervals = [piece for a, b in intervals for piece in
                     ((a, a + ratio * (b - a)), (b - ratio * (b - a), b))]
    centers = np.sort([a + 0.5 * (b - a) for a, b in intervals])
    mu = ms.make_cantor(d, ratio, depth)
    np.testing.assert_array_equal(mu.atoms, _mesh(*[centers] * d))
    np.testing.assert_array_equal(mu.weights, np.full(2 ** (depth * d),
                                                      2.0 ** (-depth * d)))


@pytest.mark.parametrize("ratio", [1 / 3, 0.3, 0.25])
def test_cantor_axis_exactly_symmetric(ratio):
    # exact symmetry about 1/2 lets the grid family form half of each axis
    for depth in range(1, 9):
        a = ms.make_cantor(1, ratio, depth).atoms[:, 0]
        assert np.all(a + a[::-1] == 1.0), depth
        assert np.all(np.diff(a) > 0)


def _graded_edges_by_insertion(extent, resolution, grading_levels):
    """Reference: the uniform edges, then per level the two cells next to
    0 split at their midpoint-toward-0, by list insertion."""
    resolution += resolution % 2
    edges = list(np.linspace(-extent, extent, resolution + 1))
    edges[resolution // 2] = 0.0
    for _ in range(grading_levels):
        zi = edges.index(0.0)
        left, right = edges[zi - 1], edges[zi + 1]
        edges.insert(zi, left / 2.0)
        edges.insert(edges.index(0.0) + 1, right / 2.0)
    return np.asarray(edges)


@pytest.mark.parametrize("extent", [1.0, 0.3, 7.5, 1e-3])
def test_graded_edges_match_insertion_reference(extent):
    for resolution in range(1, 40):
        for levels in range(0, 12):
            got = ms._graded_symmetric_edges(extent, resolution, levels)
            ref = _graded_edges_by_insertion(extent, resolution, levels)
            assert got.tobytes() == ref.tobytes(), (resolution, levels)


@pytest.mark.parametrize("d, j, alpha, grading", [
    (2, 0, 1.5, 2), (2, 1, 1.0, 0), (3, 0, 2.5, 0), (3, 1, 2.0, 2),
    (3, 1, 1.5, 0)])
def test_appendix_a_matches_meshgrid_oracle(d, j, alpha, grading):
    p = alpha - d + j
    edges = ms._graded_symmetric_edges(1.0, 9, grading)
    sing = 0.5 * (edges[:-1] + edges[1:])
    mass = np.array([ms._signed_power_integral(a, b, p)
                     for a, b in zip(edges[:-1], edges[1:])])
    flat = _centers(-1.0, 1.0, 9)
    cell = np.full(9, 2.0 / 9)
    live = d - j
    pts = _mesh(sing, *[flat] * (live - 1))
    mu = ms.make_appendix_a(d, alpha, j, extent=1.0, resolution=9,
                            grading_levels=grading)
    np.testing.assert_array_equal(mu.atoms[:, :j], 0.0)
    np.testing.assert_array_equal(mu.atoms[:, j:], pts)
    np.testing.assert_array_equal(
        mu.weights, np.prod(_mesh(mass, *[cell] * (live - 1)), axis=1))
    np.testing.assert_array_equal(
        mu.local_resolution,
        np.max(_mesh(np.diff(edges), *[cell] * (live - 1)), axis=1))


@pytest.mark.parametrize("d, res, levels", [(2, 7, 0), (3, 8, 2)])
def test_lebesgue_atom_guard_counts_exactly(monkeypatch, d, res, levels):
    n = res ** d + levels * (res ** d - (res // 2) ** d)
    monkeypatch.setattr(ms, "MAX_ATOMS", n)
    mu = ms.make_lebesgue(d, box=(-1.0, 1.0), resolution=res,
                          grading_levels=levels)
    assert mu.n == n
    monkeypatch.setattr(ms, "MAX_ATOMS", n - 1)
    with pytest.raises(ValueError, match="atom count overflow"):
        ms.make_lebesgue(d, box=(-1.0, 1.0), resolution=res,
                         grading_levels=levels)


@pytest.mark.parametrize("res, levels", [(6, 1), (6, 2), (14, 1), (10, 1)])
def test_graded_lebesgue_needs_resolution_divisible_by_4(res, levels):
    # these used to build silently: masses 3.222, 3.028 and 3.694 instead
    # of 4, and at resolution 10 a ring of cells both overlapping the finer
    # level and leaving a gap while the mass still read 4
    with pytest.raises(ValueError, match="divisible by 4"):
        ms.make_lebesgue(2, (-1.0, 1.0), res, levels)


@pytest.mark.parametrize("res, levels", [(8, 1), (12, 2)])
def test_graded_lebesgue_partitions_the_box(res, levels):
    mu = ms.make_lebesgue(2, (-1.0, 1.0), res, levels)
    assert abs(mu.total_mass() - 4.0) <= 1e-12
    assert mu.n == res ** 2 + levels * (res ** 2 - (res // 2) ** 2)


# ---------------------------------------------------------------------------
# regularity audit
# ---------------------------------------------------------------------------


def test_audit_lebesgue_passes():
    mu = ms.make_lebesgue(2, box=(0.0, 1.0), resolution=100)
    rep = ms.regularity_audit(mu)
    assert rep.passed
    # C_est near the ball area constant pi
    assert rep.c_est == pytest.approx(math.pi, rel=0.25)
    assert rep.exponent_fit == pytest.approx(2.0, abs=0.3)


def test_audit_detects_mislabeled_alpha_low():
    mu = ms.make_lebesgue(2, box=(-4.0, 4.0), resolution=200)
    bad = ms.DiscreteMeasure(
        atoms=mu.atoms, weights=mu.weights, alpha=1.5, c_mu=mu.c_mu,
        resolution=mu.resolution, generator="mislabeled",
    )
    assert not ms.regularity_audit(bad).passed


def test_audit_detects_mislabeled_alpha_high():
    mu = ms.make_lebesgue(2, box=(0.0, 1.0), resolution=100)
    bad = ms.DiscreteMeasure(
        atoms=mu.atoms, weights=mu.weights, alpha=2.5, c_mu=mu.c_mu,
        resolution=mu.resolution, generator="mislabeled",
    )
    assert not ms.regularity_audit(bad).passed


def test_audit_monotone_in_claimed_constant():
    mu = ms.make_lebesgue(2, box=(0.0, 1.0), resolution=64)
    rep = ms.regularity_audit(mu)
    starved = ms.DiscreteMeasure(
        atoms=mu.atoms, weights=mu.weights, alpha=mu.alpha,
        c_mu=rep.c_est / 2.0, resolution=mu.resolution,
    )
    assert not ms.regularity_audit(starved).passed


def test_audit_appendix_a_passes():
    mu = ms.make_appendix_a(2, alpha=1.5, j=0, resolution=64, grading_levels=8)
    rep = ms.regularity_audit(mu)
    assert rep.passed
    assert rep.exponent_fit == pytest.approx(1.5, abs=0.15)


def test_audit_cantor_passes():
    mu = ms.make_cantor(1, ratio=1 / 3, depth=9)
    rep = ms.regularity_audit(mu)
    assert rep.passed
    assert rep.exponent_fit == pytest.approx(mu.alpha, abs=0.15)


@pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
def test_ball_mass_rejects_bad_radius(radius):
    # on one atom, radius -1 gave mass 1.0 and NaN gave 0.0
    mu = ms.DiscreteMeasure(atoms=np.zeros((1, 2)), weights=np.ones(1),
                            alpha=1.0, c_mu=1.0, resolution=1.0)
    with pytest.raises(ValueError, match=f"radius must be finite and >= 0, got {radius}"):
        mu.ball_mass([0.0, 0.0], radius)


def test_audit_rejects_empty_measure():
    # was numpy's "zero-size array to reduction operation minimum"
    empty = ms.DiscreteMeasure(atoms=np.zeros((0, 2)), weights=np.zeros(0),
                               alpha=1.0, c_mu=1.0, resolution=1.0,
                               generator="empty")
    with pytest.raises(ValueError, match="'empty' has none"):
        ms.regularity_audit(empty)


def test_audit_rejects_no_centres():
    with pytest.raises(ValueError, match="n_centers must be >= 1, got 0"):
        ms.regularity_audit(ms.make_cantor(1, 1 / 3, 4), n_centers=0)


def _dense_masses(mu, centers, radii):
    dist = np.linalg.norm(mu.atoms[None] - centers[:, None], axis=2)
    return np.stack([(dist <= rho) @ mu.weights for rho in radii], axis=1)


# dyadic weights sum exactly in any order; Appendix-A weights are not
# dyadic, and the tree sums them in its own order (measured 7.1e-15)
@pytest.mark.parametrize("make, rtol", [
    (lambda: ms.make_cantor(1, 1 / 3, 8), 0.0),
    (lambda: ms.make_cantor(2, 1 / 3, 5), 0.0),
    (lambda: ms.make_cantor(3, 1 / 3, 3), 0.0),
    (lambda: ms.make_lebesgue(2, (-1.0, 1.0), 16, 2), 0.0),
    (lambda: ms.make_appendix_a(2, 1.5, 0, resolution=32, grading_levels=4), 1e-14),
    (lambda: ms.make_appendix_a(3, 2.5, 0, resolution=12, grading_levels=2), 1e-14),
    (lambda: ms.pushforward(ms.make_lebesgue(2, (-1.0, 1.0), 32),
                            ms.PushforwardSpec(ExponentTuple((1, 2)), 0.5)), 0.0),
], ids=["cantor1", "cantor2", "cantor3", "graded_lebesgue", "appendix_a2",
        "appendix_a3", "pushforward"])
def test_ball_masses_match_dense_oracle(make, rtol):
    mu = make()
    rng = np.random.default_rng(2)
    centers = np.vstack([mu.atoms[rng.choice(mu.n, 16, replace=False)],
                         np.zeros((1, mu.d)), rng.uniform(-1.0, 1.0, (4, mu.d))])
    radii = mu.diameter() * 2.0 ** -np.arange(12)
    got = ms._ball_masses(mu.tree(), mu.weights, centers, radii)
    np.testing.assert_allclose(got, _dense_masses(mu, centers, radii),
                               rtol=rtol, atol=0.0)
    assert mu.ball_mass(centers[0], radii[3]) == got[0, 3]


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------


def test_pushforward_identity_is_noop():
    mu = ms.make_lebesgue(2, box=(0.0, 1.0), resolution=32)
    spec = ms.PushforwardSpec(a=ExponentTuple((1, 2)), h=1.0)
    out = ms.pushforward(mu, spec)
    np.testing.assert_array_equal(out.atoms, mu.atoms)
    np.testing.assert_array_equal(out.weights, mu.weights)


def test_pushforward_defining_identity():
    # integral of F against the image equals integral of F(D_h A x)
    mu = ms.make_lebesgue(2, box=(0.0, 1.0), resolution=20)
    rng = np.random.default_rng(5)
    A = np.array([[1.0, 0.3], [0.0, 1.0]])
    spec = ms.PushforwardSpec(a=ExponentTuple((1, 2)), h=0.5, matrix=A)
    out = ms.pushforward(mu, spec)
    lin = spec.linear_map()
    for _ in range(100):
        c = rng.standard_normal(2)
        w = rng.uniform(0.5, 2.0, 2)
        def F(x):
            return np.exp(-np.sum(w * (x - c) ** 2, axis=-1))
        lhs = float(np.sum(out.weights * F(out.atoms)))
        rhs = float(np.sum(mu.weights * F(mu.atoms @ lin.T)))
        assert lhs == rhs  # identical atom relabeling, no tolerance needed


def test_pushforward_semigroup_on_atoms():
    mu = ms.make_lebesgue(2, box=(0.0, 1.0), resolution=16)
    a = ExponentTuple((1, 2))
    one = ms.pushforward(ms.pushforward(mu, ms.PushforwardSpec(a, 0.5)),
                         ms.PushforwardSpec(a, 0.25))
    two = ms.pushforward(mu, ms.PushforwardSpec(a, 0.125))
    np.testing.assert_allclose(one.atoms, two.atoms, atol=1e-15)
    np.testing.assert_array_equal(one.weights, two.weights)
    # certificates agree up to one covering factor
    assert one.c_mu / two.c_mu <= ms.covering_constant(2) + 1e-9
    assert two.c_mu / one.c_mu <= ms.covering_constant(2) + 1e-9


def test_rescaled_constant_exponent_lebesgue():
    # d=2, a=(1,2), alpha=2: exponent (3 - 3 - 3) = -3
    a = ExponentTuple((1, 2))
    c1 = ms.rescaled_constant(1.0, ms.PushforwardSpec(a, 0.5), 2.0)
    c2 = ms.rescaled_constant(1.0, ms.PushforwardSpec(a, 0.25), 2.0)
    assert c2 / c1 == pytest.approx(2.0 ** 3)


@pytest.mark.parametrize("make, h", [
    (lambda: ms.make_lebesgue(2, box=(-1.0, 1.0), resolution=128), 0.25),
    (lambda: ms.make_appendix_a(2, alpha=1.0, j=1, resolution=256), 0.5),
], ids=["lebesgue", "appendix_a"])
def test_pushforward_audit_passes_with_rescaled_constant(make, h):
    spec = ms.PushforwardSpec(ExponentTuple((1, 2)), h=h)
    out = ms.pushforward(make(), spec)
    assert ms.regularity_audit(out).passed


# ---------------------------------------------------------------------------
# mollified sup
# ---------------------------------------------------------------------------


def test_mollified_sup_lebesgue_flat():
    mu = ms.make_lebesgue(1, box=(-1.0, 1.0), resolution=4096)
    lams = [2.0 ** k for k in range(4, 11)]
    slope, _ = ms.mollified_slope(mu, lams)
    assert abs(slope) < 0.07


def test_mollified_sup_single_atom_grows_like_lambda_d():
    mu = ms.DiscreteMeasure(
        atoms=np.zeros((1, 2)), weights=np.ones(1), alpha=1.0, c_mu=1.0,
        resolution=1.0,
    )
    v1 = ms.mollified_sup(mu, 16.0, candidates=np.zeros((1, 2)))
    v2 = ms.mollified_sup(mu, 32.0, candidates=np.zeros((1, 2)))
    assert v2 / v1 == pytest.approx(4.0)


def test_mollified_sup_within_profile_bound():
    # sup bounded by C * C_mu * lambda^{d-alpha} with a generous profile C
    mu = ms.make_cantor(1, ratio=1 / 3, depth=9)
    for lam in (16.0, 64.0, 256.0):
        val = ms.mollified_sup(mu, lam)
        assert val <= 8.0 * mu.c_mu * lam ** (mu.d - mu.alpha)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_kernel_profile_matches_pow(d):
    r2 = np.concatenate([[0.0, 1e-300, 1e-16, 1.0], np.logspace(-12, 100, 449)])
    ref = (1.0 + r2) ** -(d + 2)
    work = r2.copy()
    got = ms.kernel_profile(work, d)
    assert got is work  # formed in place
    keep = ref > 1e-290
    assert keep[:4].all() and not keep.all()
    np.testing.assert_allclose(got[keep], ref[keep], rtol=2e-15, atol=0.0)
    assert np.all((got[~keep] >= 0.0) & (got[~keep] <= 1e-280))


def _pow_mollified_sup(mu, lam, cands=None):
    """One lambda's sup with the profile through `pow`, by default over
    every (n // 512)-th atom and the origin."""
    if cands is None:
        cands = np.vstack([mu.atoms[::max(1, mu.n // 512)], np.zeros((1, mu.d))])
    r2 = np.sum((cands[:, None] - mu.atoms[None]) ** 2, axis=2)
    return float(np.max((1.0 + lam * lam * r2) ** -(mu.d + 2.0) @ mu.weights)) * lam ** mu.d


@pytest.mark.parametrize("make", [
    lambda: ms.make_cantor(1, 1 / 3, 8),
    lambda: ms.make_cantor(2, 1 / 3, 5),
    lambda: ms.make_cantor(3, 1 / 3, 3),
    lambda: ms.make_lebesgue(2, (-1.0, 1.0), 16, 2),
    lambda: ms.make_appendix_a(2, 1.5, 0, resolution=32, grading_levels=4),
    lambda: ms.make_cantor(2, 1 / 3, 6),
    lambda: ms.make_lebesgue(2, (-1.0, 1.0), 64),
], ids=["cantor1", "cantor2", "cantor3", "graded_lebesgue", "appendix_a2", "cantor2_bench",
        "lebesgue2"])
def test_mollified_values_match_pow_oracle(make):
    mu = make()
    lams = [2.0 ** k for k in range(2, 8)]
    _, vals = ms.mollified_slope(mu, lams)
    np.testing.assert_allclose(vals, [_pow_mollified_sup(mu, lam) for lam in lams],
                               rtol=1e-14, atol=0.0)
    assert [ms.mollified_sup(mu, lam) for lam in lams] == vals


# tile edges: an atom chunk one short of MOLLIFY_CHUNK, and a last chunk
# of one atom; one candidate block of 1 or 64, and a last block of one
@pytest.mark.parametrize("n", [ms.MOLLIFY_CHUNK - 1, ms.MOLLIFY_CHUNK + 1])
@pytest.mark.parametrize("k", [1, 64, 65])
def test_mollified_tile_edges_match_pow_oracle(n, k):
    rng = np.random.default_rng(n + k)
    mu = ms.DiscreteMeasure(atoms=rng.uniform(-1.0, 1.0, (n, 2)),
                            weights=rng.uniform(0.0, 2.0 / n, n),
                            alpha=2.0, c_mu=1.0, resolution=1.0 / n)
    cands = mu.atoms[rng.choice(n, k, replace=False)]
    lams = [2.0 ** j for j in range(2, 8)]
    _, vals = ms.mollified_slope(mu, lams, cands)
    np.testing.assert_allclose(vals, [_pow_mollified_sup(mu, lam, cands) for lam in lams],
                               rtol=1e-14, atol=0.0)
    assert [ms.mollified_sup(mu, lam, cands) for lam in lams] == vals


def _kernel_values(monkeypatch, mu, lams, cands=None):
    """The number of kernel values mollified_slope forms per lambda."""
    sizes = []
    profile = ms.kernel_profile

    def counting(r2, d):
        sizes.append(r2.size)
        return profile(r2, d)

    monkeypatch.setattr(ms, "kernel_profile", counting)
    ms.mollified_slope(mu, lams, cands)
    return sum(sizes) / len(lams)


def test_product_measure_mollifies_per_axis(monkeypatch):
    # the bench shape: 873 distinct squared offsets on axis 0 and 406 on
    # axis 1, against 513 candidates x 4 096 atoms
    mu = ms.make_cantor(2, 1 / 3, 6)
    assert _kernel_values(monkeypatch, mu, [16.0, 64.0]) < 513 * mu.n


@pytest.mark.parametrize("case", ["product_weights", "off_lattice", "large_output"])
def test_tiled_mollifier_where_per_axis_forms_more(monkeypatch, case):
    # Appendix-A atoms are a product, their weights are not one value;
    # random candidates share no offsets; 300 candidates with 300 distinct
    # coordinates on each axis need an output table of 90 000 entries
    rng = np.random.default_rng(5)
    if case == "product_weights":
        mu = ms.make_appendix_a(2, 1.5, 0, resolution=32)
        cands = mu.atoms[::7]
        k = cands.shape[0]
    elif case == "off_lattice":
        mu = ms.make_cantor(2, 1 / 3, 6)
        cands = rng.uniform(0.0, 1.0, (100, 2))
        k = 100
    else:
        mu = ms.make_lebesgue(2, (-1.0, 1.0), 300)
        axis = np.unique(mu.atoms[:, 0])
        cands = np.stack([axis, axis[rng.permutation(300)]], axis=1)
        k = 300
    assert ms._tensor_axes(mu.atoms) is not None
    assert _kernel_values(monkeypatch, mu, [16.0, 64.0], cands) == k * mu.n


@pytest.mark.parametrize("lam", [math.nan, math.inf, 0.5])
def test_mollified_sup_rejects_bad_lambda(lam):
    # NaN returned 0.0; inf returned NaN with a RuntimeWarning
    with pytest.raises(ValueError, match=f"lambda must be finite and >= 1, got {lam}"):
        ms.mollified_sup(ms.make_cantor(1, 1 / 3, 4), lam)


@pytest.mark.parametrize("lams", [[16.0], [16.0, 16.0]])
def test_mollified_slope_needs_two_lambdas(lams):
    # one lambda gave a slope from a rank-deficient polyfit
    with pytest.raises(ValueError, match="log-log fit needs two distinct x"):
        ms.mollified_slope(ms.make_cantor(1, 1 / 3, 4), lams)


def test_mollified_slope_rejects_zero_mass():
    # took log2(0)
    mu = ms.DiscreteMeasure(atoms=np.zeros((2, 1)), weights=np.zeros(2),
                            alpha=1.0, c_mu=1.0, resolution=1.0, generator="zero")
    with pytest.raises(ValueError, match="'zero' has none"):
        ms.mollified_slope(mu, [16.0, 32.0])
