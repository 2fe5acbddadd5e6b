import math
import warnings

import numpy as np
import pytest

from curveext import engine as eng
from curveext import lab
from curveext import measures as ms
from curveext.curves import CurveSpec, model_curve


DEG_23 = CurveSpec(d=2, coeffs=((0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0)),
                   label="(t^2,t^3)")


# ---------------------------------------------------------------------------
# exponent pairs and the region
# ---------------------------------------------------------------------------


class TestExponentPair:
    def test_d3_full_regularity_node(self):
        # beta(3) = 6 at d=3, so q > 7 is the binding corner at p = inf
        pair = lab.ExponentPair(p=math.inf, q=8.0, d=3, alpha=3.0)
        assert pair.admissible and pair.status == "admissible"
        assert not lab.ExponentPair(p=math.inf, q=7.0, d=3, alpha=3.0).admissible

    def test_edge_line_is_necessary_only(self):
        # d=2, alpha=1: beta = 2, so (p, q) = (inf, 2) sits on beta/q + 1/p = 1
        pair = lab.ExponentPair(p=math.inf, q=2.0, d=2, alpha=1.0)
        assert pair.necessary and not pair.admissible
        assert pair.status == "necessary"

    def test_p_equal_one_excluded(self):
        pair = lab.ExponentPair(p=1.0, q=10.0, d=2, alpha=2.0)
        assert pair.status == "excluded"

    def test_region_monotone_in_alpha(self):
        grids = {}
        for alpha in (2.0, 1.5, 1.0):
            rows = lab.admissible_region(2, alpha, steps=20)
            grids[alpha] = {(a, b) for a, b, s in rows if s == "admissible"}
        assert grids[2.0] <= grids[1.5] <= grids[1.0]

    @pytest.mark.parametrize("p, q", [(math.nan, math.nan), (math.nan, 8.0),
                                      (math.inf, math.nan)])
    def test_nan_exponent_rejected(self, p, q):
        # NaN passed `p < 1 or q < 1` and the pair reported "excluded"
        with pytest.raises(ValueError, match="must be >= 1, got nan"):
            lab.ExponentPair(p=p, q=q, d=2, alpha=2.0)

    def test_region_beta_consistency(self):
        pair = lab.ExponentPair(p=4.0, q=8.0, d=2, alpha=2.0)
        from curveext.curves import beta_alpha
        assert pair.beta == beta_alpha(2.0, 2)


class TestFitLine:
    def test_exact_power_law(self):
        lams = [2.0**k for k in range(4, 10)]
        vals = [3.0 * l**-0.75 for l in lams]
        slope, intercept, stderr = lab.fit_line(lams, vals)
        assert abs(slope + 0.75) < 1e-12
        assert stderr < 1e-10

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            lab.fit_line([4.0], [1.0])

    def test_needs_two_distinct_x(self):
        # returned slope 0.396 and stderr 0.0 from a rank-deficient polyfit,
        # with a RankWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="two distinct x, got \\[2.0, 2.0\\]"):
                lab.fit_line([2.0, 2.0], [1.0, 3.0])

    def test_needs_one_y_per_x(self):
        # failed inside numpy's broadcast
        with pytest.raises(ValueError, match="one y per x, got 3 x and 2 y"):
            lab.fit_line([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_scaling_needs_two_distinct_lambdas(self):
        # verdict FAIL with slope -0.031 from a fit of one x
        mu = ms.make_lebesgue(2, (-1.0, 1.0), 8)
        with pytest.raises(ValueError, match="two distinct x"):
            lab.scaling_experiment(model_curve(2), 4.0, 8.0, 2.0, [16.0] * 6, mu=mu)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_degenerate_value_named_without_warning(self, bad):
        # log2 of 0 or of a negative value warned and the slope came back
        # -inf or NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"at x = 8.0 it got y = {bad}"):
                lab.fit_line([4.0, 8.0, 16.0], [1.0, bad, 0.25])
            with pytest.raises(ValueError, match=f"at x = {bad} it got y = 2.0"):
                lab.fit_line([4.0, bad, 16.0], [1.0, 2.0, 0.25])


# ---------------------------------------------------------------------------
# families and grids
# ---------------------------------------------------------------------------


class TestFamilies:
    def test_knapp_family_counts(self):
        fam = lab.knapp_family(2, 256.0)
        # 16 positions x 6 widths, some clipped away near t = 1
        assert 80 <= len(fam) <= 96
        for _, f in fam:
            assert 0.0 <= f.lo < f.hi <= 1.0

    def test_default_family_composition(self):
        fam = lab.default_test_family(2, 64.0, seed=5)
        kinds = {f.kind for _, f in fam}
        assert kinds == {"indicator", "bump", "trig"}
        assert sum(1 for _, f in fam if f.kind == "trig") == lab.FAMILY_TRIG

    def test_knapp_interval(self):
        lo, hi = lab.knapp_interval(2, 64.0)
        assert hi == 1.0 and abs((hi - lo) - 64.0**-0.5) < 1e-15


class TestGradedGrid:
    def test_measure_matches_constructor(self):
        grid = lab.GradedGrid(2, 4.0, 16, 3)
        ref = ms.make_lebesgue(2, (-4.0, 4.0), 16, 3)
        assert sum(int(keep.sum()) for _, keep, _ in grid.levels) == ref.n
        volume = sum(cell ** 2 * int(keep.sum()) for _, keep, cell in grid.levels)
        assert abs(volume - 64.0) < 1e-9

    def test_norm_agrees_with_direct_path(self):
        grid = lab.GradedGrid(2, 2.0, 8, 2)
        mu = ms.make_lebesgue(2, (-2.0, 2.0), 8, 2)
        c = model_curve(2)
        f = eng.indicator(0.2, 0.8)
        viagrid = grid.extension_lq(c, 32.0, f, 4.0)
        vals = eng.extension_eval(c, 32.0, mu.atoms, f)
        direct = eng.lq_norm(vals, mu, 4.0)
        assert abs(viagrid - direct) < 1e-10 * max(direct, 1.0)

    @pytest.mark.parametrize("args", [(2, 4.0, 16, 3), (3, 2.0, 8, 1)])
    def test_measure_is_the_levels_kept_cells_in_order(self, args):
        # extension_lq pairs the levels' kept grid values with these atoms
        grid = lab.GradedGrid(*args)
        d, half, res, levels = args
        mu = ms.make_lebesgue(d, (-half, half), res, levels)
        np.testing.assert_array_equal(mu.atoms, np.concatenate(
            [ms._product(*axes)[keep.ravel()] for axes, keep, _ in grid.levels]))
        np.testing.assert_array_equal(mu.weights, np.concatenate(
            [np.full(int(keep.sum()), cell ** grid.d)
             for _, keep, cell in grid.levels]))

    @pytest.mark.parametrize("q, weighted", [(4.0, False), (math.inf, False),
                                             (8.0, True)])
    def test_family_sup_matches_member_loop(self, q, weighted):
        grid = lab.GradedGrid(2, 2.0, 8, 2)
        curve = CurveSpec(d=2, coeffs=((0, 1), (0, 0, -0.45, 0, 0.5)))
        alpha = 2.0 if weighted else None
        fam = [(f"trig{s}", eng.trig_poly(s, degree=16)) for s in range(8)]
        fam[3:3] = [("cap", eng.indicator(0.3, 0.45)), ("zero", eng.zero_function())]
        fam += [("bump", eng.bump(0.2, 0.7)), ("again", fam[5][1])]
        val, label = lab.family_sup(curve, 16.0, fam, 2.0, q, grid=grid, alpha=alpha)
        best, ref = 0.0, "none"
        for name, f in fam:
            fp = f.lp_norm(2.0)
            if fp == 0.0:
                continue
            member = grid.family_lq(curve, 16.0, [f], q, alpha=alpha)[0] / fp
            if member > best:
                best, ref = member, name
        assert type(val) is float and (val, label) == (best, ref)

    def test_nan_q_rejected(self):
        # NaN passed `q < 1` and the norm came back NaN
        grid = lab.GradedGrid(2, 2.0, 8, 1)
        f = eng.indicator(0.0, 1.0)
        with pytest.raises(ValueError, match="q must be >= 1, got nan"):
            grid.family_lq(model_curve(2), 8.0, [f], math.nan)
        with pytest.raises(ValueError, match="q must be >= 1, got nan"):
            grid.extension_lq(model_curve(2), 8.0, f, math.nan)

    def test_sup_norm_mode(self):
        grid = lab.GradedGrid(2, 2.0, 8, 2)
        f = eng.indicator(0.0, 1.0)
        peak = grid.extension_lq(model_curve(2), 8.0, f, math.inf)
        assert 0 < peak <= f.lp_norm(1.0) + 1e-12


# ---------------------------------------------------------------------------
# scaling experiments
# ---------------------------------------------------------------------------


class TestScaling:
    def test_model_curve_passes(self):
        grid = lab.GradedGrid(2, 4.0, 64, 4)
        lams = [2.0**k for k in range(2, 8)]
        rep = lab.scaling_experiment(
            model_curve(2), math.inf, 8.0, 2.0, lams, grid=grid,
            family_fn=lambda lam: lab.knapp_family(2, lam, positions=4),
            npw=8)
        assert rep.kind == "family-sup"
        assert rep.verdict == "PASS"
        assert rep.slope <= rep.target_slope + rep.tol

    def test_zero_family_vacuous(self):
        grid = lab.GradedGrid(2, 2.0, 8, 1)
        lams = [2.0**k for k in range(2, 8)]
        rep = lab.scaling_experiment(
            model_curve(2), 2.0, 8.0, 2.0, lams, grid=grid,
            family_fn=lambda lam: [("zero", eng.zero_function())])
        assert rep.verdict == "vacuous"

    def test_q_infinity_flat(self):
        # ||T f||_inf is attained near x = 0 at ||f||_1, so the slope is 0,
        # matching the -alpha/q target at q = infinity
        grid = lab.GradedGrid(2, 2.0, 16, 2)
        lams = [2.0**k for k in range(2, 8)]
        rep = lab.scaling_experiment(
            model_curve(2), 1.0, math.inf, 2.0, lams, grid=grid,
            family_fn=lambda lam: [("full", eng.indicator(0.0, 1.0))])
        assert rep.target_slope == 0.0
        assert abs(rep.slope) <= rep.tol
        assert rep.verdict == "PASS"

    def test_sweep_norms_each_distinct_member_once(self, monkeypatch):
        # the trig members recur at every lambda (equal, not the same
        # objects, as a family_fn builds them), and some clipped Knapp caps
        # recur at several
        grid = lab.GradedGrid(2, 2.0, 8, 1)
        lams = [2.0**k for k in range(2, 8)]

        def family(lam):
            return (lab.knapp_family(2, lam, 2, 2)
                    + [(f"trig{s}", eng.trig_poly(s, degree=8)) for s in range(3)])

        calls = []
        lp_norm = eng.TestFunction.lp_norm

        def counting(f, p):
            calls.append(f)
            return lp_norm(f, p)

        monkeypatch.setattr(eng.TestFunction, "lp_norm", counting)
        args = (model_curve(2), 2.0, 8.0, 2.0, lams)
        distinct = {f for lam in lams for _, f in family(lam)}
        assert len(distinct) < 7 * len(lams)
        rep = lab.scaling_experiment(*args, grid=grid, family_fn=family)
        assert len(calls) == len(set(calls)) and set(calls) == distinct
        # the reuse lives in one call: a second sweep norms them all again
        again = lab.scaling_experiment(*args, grid=grid, family_fn=family)
        assert len(calls) == 2 * len(distinct)
        ref = [lab.family_sup(args[0], lam, family(lam), 2.0, 8.0, grid=grid)
               for lam in lams]
        assert rep.sup_norms == again.sup_norms == tuple(v for v, _ in ref)
        assert rep.best_labels == tuple(label for _, label in ref)

    def test_missing_measure_named(self):
        # used to fail with AttributeError on None.restrict
        with pytest.raises(ValueError, match="measure mu or a grid"):
            lab.scaling_experiment(model_curve(2), math.inf, 8.0, 2.0,
                                   [2.0**k for k in range(2, 8)])

    @pytest.mark.parametrize("p, q, name", [(math.nan, 8.0, "p"), (0.5, 8.0, "p"),
                                            (2.0, math.nan, "q")])
    def test_bad_exponent_rejected(self, p, q, name):
        # p = NaN gave slope NaN and p = 0.5 ran; q = NaN on a grid gave
        # NaN norms
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got"):
            lab.scaling_experiment(model_curve(2), p, q, 2.0,
                                   [2.0**k for k in range(2, 8)],
                                   grid=lab.GradedGrid(2, 2, 8, 1))

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_empty_ball_rejected(self, radius):
        # every atom fell outside the ball, so the sweep read "vacuous"
        mu = ms.make_lebesgue(2, box=(-2.0, 2.0), resolution=8)
        with pytest.raises(ValueError, match="radius must be > 0"):
            lab.scaling_experiment(model_curve(2), 2.0, 8.0, 2.0,
                                   [2.0**k for k in range(2, 8)], mu=mu, radius=radius)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_bad_radius_rejected_on_a_grid(self, radius):
        # the grid path ignored the radius, so NaN ran and passed
        with pytest.raises(ValueError, match="radius must be > 0"):
            lab.scaling_experiment(model_curve(2), 2.0, 8.0, 2.0,
                                   [2.0**k for k in range(2, 8)],
                                   grid=lab.GradedGrid(2, 2.0, 8, 1), radius=radius)

    def test_radius_inside_the_grid_rejected(self):
        # a grid cannot be cut to a ball: its corners lie at sqrt(2) * 2
        with pytest.raises(ValueError, match="reach the grid's corners"):
            lab.scaling_experiment(model_curve(2), 2.0, 8.0, 2.0,
                                   [2.0**k for k in range(2, 8)],
                                   grid=lab.GradedGrid(2, 2.0, 8, 1), radius=2.8)

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            lab.scaling_experiment(model_curve(2), 2.0, 8.0, 2.0,
                                   [4.0, 8.0], grid=lab.GradedGrid(2, 2, 8, 1))


# ---------------------------------------------------------------------------
# sharpness
# ---------------------------------------------------------------------------


def test_scaling_on_measure_restricts_to_radius():
    curve, p, q, radius = model_curve(2), 2.0, 8.0, 1.5
    mu = ms.make_lebesgue(2, box=(-2.0, 2.0), resolution=8)
    members = [("left", eng.indicator(0.0, 0.5)),
               ("right", eng.indicator(0.25, 1.0))]
    lams = [2.0**k for k in range(1, 7)]
    rep = lab.scaling_experiment(curve, p, q, 2.0, lams, mu=mu, radius=radius,
                                 family_fn=lambda lam: members)
    inside = np.linalg.norm(mu.atoms, axis=1) <= radius
    assert 0 < inside.sum() < mu.n
    ball = ms.DiscreteMeasure(atoms=mu.atoms[inside],
                              weights=mu.weights[inside], alpha=2.0,
                              c_mu=mu.c_mu, resolution=mu.resolution)
    for lam, sup, label in zip(lams, rep.sup_norms, rep.best_labels):
        norms = {name: eng.lq_norm(eng.extension_eval(curve, lam, ball.atoms, f),
                                   ball, q) / f.lp_norm(p)
                 for name, f in members}
        assert label == max(norms, key=norms.get)
        assert sup == pytest.approx(norms[label], rel=1e-12)
    assert rep.radius == radius


@pytest.fixture(scope="module")
def line_measure():
    return ms.make_appendix_a(2, 1.0, 1, extent=1.0, resolution=2048)


class TestSharpness:
    LAMS = [2.0**k for k in range(4, 11)]

    def test_edge_pair_flat(self, line_measure):
        rep = lab.sharpness_experiment(
            model_curve(2), line_measure, 1.0, math.inf, 2.0, self.LAMS)
        assert abs(rep.mass_slope - rep.mass_target) <= 0.07
        assert rep.lower_bound_ok and rep.min_peak_fraction >= 0.5
        assert abs(rep.ratio_slope) <= 0.1
        assert abs(lab.quotient_slope_prediction(1.0, 2, math.inf, 2.0)) < 1e-15

    def test_interior_pair_decays(self, line_measure):
        rep = lab.sharpness_experiment(
            model_curve(2), line_measure, 1.0, math.inf, 4.0, self.LAMS)
        assert rep.ratio_slope < -0.05
        pred = lab.quotient_slope_prediction(1.0, 2, math.inf, 4.0)
        assert abs(rep.ratio_slope - pred) <= 0.07

    @pytest.mark.parametrize("p", [math.nan, 0.5])
    def test_bad_p_rejected(self, p):
        # p = NaN gave NaN ratios and p = 0.5 ran
        mu = ms.make_lebesgue(2, resolution=8)
        with pytest.raises(ValueError, match="p must be >= 1, got"):
            lab.sharpness_experiment(model_curve(2), mu, 2.0, p, 4.0, self.LAMS)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_bad_c_rejected(self, c):
        # c <= 0 and NaN gave empty rectangles at every lambda
        mu = ms.make_lebesgue(2, resolution=8)
        with pytest.raises(ValueError, match="c must be finite and > 0"):
            lab.sharpness_experiment(model_curve(2), mu, 2.0, math.inf, 4.0,
                                     self.LAMS, c=c)

    def test_empty_rectangle_fails_loudly(self):
        # from lambda = 64 on the rectangle holds no atom of this grid; the
        # slopes came back NaN with no error
        mu = ms.make_lebesgue(2, (-1, 1), 64)
        with pytest.raises(ValueError, match="at x = 64.0 it got y = 0.0"):
            lab.sharpness_experiment(model_curve(2), mu, 2.0, math.inf, 8.0,
                                     [2.0**k for k in range(2, 9)])

    def test_peak_fraction_is_the_minimum_over_every_atom(self):
        mu, lams = ms.make_lebesgue(2, resolution=512), self.LAMS[:6]
        rep = lab.sharpness_experiment(model_curve(2), mu, 2.0, math.inf, 4.0, lams)
        fracs = []
        for lam in lams:
            f = eng.indicator(*lab.knapp_interval(2, lam))
            rect = mu.restrict(lab.knapp_rectangle_mask(mu.atoms, 2, lam))
            # the first holds more atoms than the old 256-sample stride took
            assert rect.n > 256 or lam > lams[0]
            vals = eng.extension_eval(model_curve(2), lam,
                                      np.vstack([np.zeros((1, 2)), rect.atoms]), f,
                                      alpha=2.0)
            fracs.append(float(np.min(np.abs(vals[1:]))) / abs(vals[0]))
        assert rep.min_peak_fraction == min(fracs)

    def test_lebesgue_rectangle_closed_form(self):
        masses = [lab.lebesgue_rectangle_mass(2, l) for l in self.LAMS]
        slope = lab.fit_line(self.LAMS, masses)[0]
        assert abs(slope + 0.5) < 1e-12  # -alpha + beta/d at alpha=2, d=2

    def test_rectangle_mask(self):
        atoms = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.05]])
        mask = lab.knapp_rectangle_mask(atoms, 2, 16.0, c=0.1)
        # |x1| <= 0.1 * 16^{-1/2} = 0.025, |x2| <= 0.1
        assert mask.tolist() == [True, False, True]


# ---------------------------------------------------------------------------
# multilinear L^q and the Knapp slope
# ---------------------------------------------------------------------------


class TestMultilinearLq:
    def test_q2_bound_holds(self):
        mu = ms.make_lebesgue(2, box=(-4.0, 4.0), resolution=96)
        fs = [eng.indicator(0.05, 0.3), eng.indicator(0.65, 0.95)]
        res = lab.multilinear_lq_check(model_curve(2), fs, mu, 128.0, 2.0)
        assert res.ratio <= 1.0
        assert res.lhs > 0

    def test_q4_bound_holds(self):
        mu = ms.make_lebesgue(2, box=(-4.0, 4.0), resolution=96)
        fs = [eng.indicator(0.05, 0.3), eng.indicator(0.65, 0.95)]
        res = lab.multilinear_lq_check(model_curve(2), fs, mu, 128.0, 4.0)
        assert res.ratio <= 1.0

    def test_zero_factor(self):
        mu = ms.make_lebesgue(2, box=(-2.0, 2.0), resolution=32)
        fs = [eng.zero_function(), eng.indicator(0.6, 0.9)]
        res = lab.multilinear_lq_check(model_curve(2), fs, mu, 64.0, 2.0)
        assert res.lhs == 0.0

    def test_q_below_two_rejected(self):
        mu = ms.make_lebesgue(2, box=(-2.0, 2.0), resolution=16)
        with pytest.raises(ValueError):
            lab.multilinear_lq_check(model_curve(2), [eng.indicator(0, 1)],
                                     mu, 16.0, 1.5)

    def test_nan_q_rejected(self):
        # NaN passed `q < 2`; lq_norm refused it only after the extensions
        mu = ms.make_lebesgue(2, box=(-2.0, 2.0), resolution=16)
        with pytest.raises(ValueError, match="q must be >= 2, got nan"):
            lab.multilinear_lq_check(model_curve(2), [eng.indicator(0, 1)],
                                     mu, 16.0, math.nan)

    def test_knapp_slope_d2(self):
        lams = [2.0**k for k in range(4, 9)]
        slope, vals = lab.multilinear_knapp_slope(model_curve(2), lams)
        assert abs(slope + 1.0) <= 0.15
        assert all(v > 0 for v in vals)


# ---------------------------------------------------------------------------
# pushforward mass probe
# ---------------------------------------------------------------------------


class TestPushforwardProbe:
    def test_lebesgue_mass_law(self):
        mu = ms.make_lebesgue(2, box=(-8.0, 8.0), resolution=1024)
        hs = [0.5, 0.25, 0.125]
        fit, pred, masses = lab.pushforward_mass_exponent(mu, (1, 2), hs, 0.1)
        assert pred == -3.0
        assert abs(fit - pred) < 0.05
        for h, m in zip(hs, masses):
            assert abs(m / (math.pi * 0.01 * h**-3) - 1.0) < 0.05

    def test_appendix_a_mass_law(self, line_measure=None):
        mu = ms.make_appendix_a(2, 1.0, 1, extent=1.0, resolution=2048)
        hs = [0.5, 0.25, 0.125]
        fit, pred, _ = lab.pushforward_mass_exponent(mu, (1, 2), hs, 0.01)
        assert pred == -2.0
        assert abs(fit - pred) < 0.05


# ---------------------------------------------------------------------------
# rescaling identity
# ---------------------------------------------------------------------------


class TestRescaling:
    def test_model_curve_identity_chain(self):
        mu = ms.make_lebesgue(2, box=(-4.0, 4.0), resolution=96)
        f = eng.indicator(0.1, 0.45)
        chk = lab.rescaling_inequality_check(
            model_curve(2), 0.0, 0.5, mu, 2.0, 2.0, 8.0, 64.0, f)
        assert abs(chk.ratio - 1.0) < 1e-9
        assert abs(chk.h_exponent - 0.125) < 1e-15

    def test_exponent_scan_perturbed(self):
        mu = ms.make_lebesgue(2, box=(-4.0, 4.0), resolution=96)
        pert = CurveSpec(d=2, coeffs=((0.0, 1.0, 0.03),
                                      (0.0, 0.0, 0.5, 0.02)))
        fitted, target, _ = lab.rescaling_exponent_scan(
            pert, 0.0, mu, 2.0, 2.0, 8.0, 64.0,
            [2.0**-k for k in range(3, 8)])
        assert abs(fitted - target) <= 0.03

    def test_zero_function_zero_ratio(self):
        mu = ms.make_lebesgue(2, box=(-2.0, 2.0), resolution=32)
        chk = lab.rescaling_inequality_check(
            model_curve(2), 0.0, 0.5, mu, 2.0, 2.0, 8.0, 16.0,
            eng.zero_function())
        assert chk.ratio == 0.0 and chk.lhs == 0.0

    def test_support_validation(self):
        mu = ms.make_lebesgue(2, box=(-2.0, 2.0), resolution=16)
        with pytest.raises(ValueError):
            lab.rescaling_inequality_check(
                model_curve(2), 0.0, 0.25, mu, 2.0, 2.0, 8.0, 16.0,
                eng.indicator(0.1, 0.5))


# ---------------------------------------------------------------------------
# finite-type pipeline
# ---------------------------------------------------------------------------


class TestFiniteType:
    def test_worked_example_rate_formula(self):
        assert abs(lab.block_decay_rate((2, 3), 2.0, 4.0, 8.0) - 0.625) < 1e-12

    def test_inadmissible_pair_rejected(self):
        grid = lab.GradedGrid(2, 2.0, 8, 1)
        with pytest.raises(ValueError):
            lab.finite_type_pipeline(DEG_23, 0.0, grid, 2.0, 2.0, 2.0,
                                     [2.0**k for k in range(2, 8)])

    def test_translate_curve_pointwise(self):
        shifted = lab.translate_curve(DEG_23, 0.25)
        for t in (0.0, 0.1, 0.6):
            ref = DEG_23.point(t + 0.25) - DEG_23.point(0.25)
            got = shifted.point(t)
            assert np.allclose(got, ref, atol=1e-12)

    def test_small_pipeline_runs_and_decays(self):
        grid = lab.GradedGrid(2, 4.0, 64, 5)
        lams = [2.0**k for k in range(4, 10)]
        reports, slope, target, verdict = lab.finite_type_pipeline(
            DEG_23, 0.0, grid, 2.0, 4.0, 8.0, lams, n_blocks=4,
            fit_blocks=4, npw=8)
        top = reports[-1]
        assert len(top.block_norms) == 4
        assert all(a > b for a, b in zip(top.block_norms, top.block_norms[1:]))
        assert slope <= target + lab.SLOPE_TOL
        assert verdict == "PASS"

    @pytest.mark.parametrize("n_blocks, fit_blocks", [(2, 0), (2, 1), (2, -1), (2, 3), (0, 0)])
    def test_fit_window_must_fit_the_blocks(self, n_blocks, fit_blocks):
        # these failed inside min() or np.polyfit (TypeError at fit_blocks = -1)
        with pytest.raises(ValueError, match="need 2 <= fit_blocks <= blocks"):
            lab.finite_type_blocks(DEG_23, lab.GradedGrid(2, 2.0, 8, 1), (2, 3), 2.0,
                                   4.0, 8.0, 16.0, n_blocks=n_blocks, fit_blocks=fit_blocks)

    @pytest.mark.parametrize("widths", [(1.0, 0.0), (0.0,), (-1.0,), (math.nan,),
                                        (math.inf,)], ids=str)
    def test_bad_width_named(self, widths):
        # (1.0, 0.0) dropped the zero width and returned the width-1 norms
        # alone; (0.0,) ended in the fit's "at x = 1.0 it got y = 0.0"
        with pytest.raises(ValueError, match=r"widths must be finite and > 0, got \("):
            lab.finite_type_blocks(DEG_23, lab.GradedGrid(2, 2.0, 8, 1), (2, 3), 2.0,
                                   4.0, 8.0, 16.0, n_blocks=2, fit_blocks=2, widths=widths)

    def test_rate_is_the_log_log_fit_over_the_window(self):
        rep = lab.finite_type_blocks(DEG_23, lab.GradedGrid(2, 2.0, 8, 1), (2, 3),
                                     2.0, 4.0, 8.0, 64.0, n_blocks=4, fit_blocks=3)
        window = np.log2(rep.block_norms[:3])
        assert rep.rate == -float(np.polyfit(np.arange(3.0), window, 1)[0])

    def test_nan_tau_named(self):
        # read "no nonsingular frame at tau=0.0"
        with pytest.raises(ValueError, match="tau and h must be finite, got tau=nan"):
            lab.finite_type_pipeline(DEG_23, math.nan, lab.GradedGrid(2, 2.0, 8, 1),
                                     2.0, 4.0, 8.0, [2.0**k for k in range(2, 8)])

    def test_blocks_summable_ratio(self):
        # partial sums converge: every observed per-block ratio <= 2^{-0.4}
        grid = lab.GradedGrid(2, 4.0, 64, 6)
        rep = lab.finite_type_blocks(DEG_23, grid, (2, 3), 2.0, 4.0, 8.0,
                                     512.0, n_blocks=4, fit_blocks=4, npw=8)
        for a, b in zip(rep.block_norms, rep.block_norms[1:]):
            assert b / a <= 2.0**-0.4


# ---------------------------------------------------------------------------
# graded sweeps: level l is level 0 at lambda 2^{-l}
# ---------------------------------------------------------------------------


def _per_level_lq(grid, curve, lam, fs, q, alpha=None,
                  nodes_per_wavelength=eng.NODES_PER_WAVELENGTH, _memo=None):
    """family_lq without the memo: every member on every level's own axes."""
    acc = [0.0] * len(fs)
    for axes, keep, cell in grid.levels:
        for j, values in eng.extension_eval_grid_family(
                curve, lam, axes, fs, alpha=alpha,
                nodes_per_wavelength=nodes_per_wavelength):
            mod = np.abs(values[keep])
            acc[j] = (max(acc[j], float(np.max(mod, initial=0.0))) if q == math.inf
                      else acc[j] + float(np.sum(cell ** grid.d * mod ** q)))
    return [s if q == math.inf else s ** (1.0 / q) for s in acc]


def _counting_evaluations(monkeypatch):
    """Patch the grid family's kernel to record every (member, lambda) it
    evaluates."""
    seen = []
    family = eng._family_blocks

    def counting(curve, lam, axes, fs, *args, **kwargs):
        for j, block in family(curve, lam, axes, fs, *args, **kwargs):
            seen.append((fs[j], lam))
            yield j, block

    monkeypatch.setattr(eng, "_family_blocks", counting)
    return seen


def _bench_family(lam):
    return (lab.knapp_family(2, lam, 8, 3) + lab.bump_family(2, lam, 4)
            + lab.trig_family(41, 8))


class TestGradedSweepMemo:
    @pytest.mark.parametrize("args", [(2, 16.0, 128, 8), (2, 8.0, 128, 9), (2, 4.0, 32, 3),
                                      (2, 4.0, 8, 1), (2, 2.0, 32, 0), (2, 2.0, 8, 0)])
    def test_levels_are_exact_dilations_of_level_0(self, args):
        # the grids of criteria 8 and 10 and of the benchmark workloads: the
        # memo evaluates level l on level 0's axes at lambda 2^{-l}
        levels = lab.GradedGrid(*args).levels
        axes0, keep0, cell0 = levels[0]
        for level, (axes, keep, cell) in enumerate(levels):
            scale = 2.0 ** -level
            assert cell == cell0 * scale
            for a, a0 in zip(axes, axes0):
                assert a.tobytes() == (a0 * scale).tobytes()
            if level < len(levels) - 1:
                np.testing.assert_array_equal(keep, keep0)
        assert levels[-1][1].all()

    @pytest.mark.parametrize("q", [8.0, math.inf])
    def test_scaling_sweep_matches_per_level_reference(self, q, monkeypatch):
        grid = lab.GradedGrid(2, 4.0, 32, 3)
        lams = [2.0 ** k for k in range(3, 9)]
        args = (model_curve(2), math.inf, q, 2.0, lams)
        kwargs = dict(grid=grid, family_fn=_bench_family, npw=6)
        rep = lab.scaling_experiment(*args, **kwargs)
        monkeypatch.setattr(lab.GradedGrid, "family_lq", _per_level_lq)
        ref = lab.scaling_experiment(*args, **kwargs)
        np.testing.assert_allclose(rep.sup_norms, ref.sup_norms, rtol=1e-14, atol=0)
        assert rep.best_labels == ref.best_labels
        assert rep.verdict == ref.verdict

    @pytest.mark.parametrize("q", [8.0, math.inf])
    def test_finite_type_sweep_matches_per_level_reference(self, q, monkeypatch):
        # weighted (alpha), on a grid of four levels, where caps recur at
        # lambda / 4 with twice the width
        grid = lab.GradedGrid(2, 4.0, 32, 3)
        lams = [2.0 ** k for k in range(5, 11)]
        args = (DEG_23, 0.0, grid, 2.0, 4.0, q, lams)
        kwargs = dict(n_blocks=4, fit_blocks=3, npw=6)
        reports, slope, _, verdict = lab.finite_type_pipeline(*args, **kwargs)
        monkeypatch.setattr(lab.GradedGrid, "family_lq", _per_level_lq)
        refs, ref_slope, _, ref_verdict = lab.finite_type_pipeline(*args, **kwargs)
        np.testing.assert_allclose([r.block_norms for r in reports],
                                   [r.block_norms for r in refs], rtol=1e-14, atol=0)
        assert abs(slope - ref_slope) <= 1e-12 and verdict == ref_verdict

    def test_each_member_once_per_effective_lambda(self, monkeypatch):
        grid = lab.GradedGrid(2, 4.0, 32, 3)
        lams = [2.0 ** k for k in range(3, 9)]
        seen = _counting_evaluations(monkeypatch)
        args = (model_curve(2), math.inf, 8.0, 2.0, lams)
        distinct = {(f, lam * 2.0 ** -level) for lam in lams for _, f in _bench_family(lam)
                    for level in range(len(grid.levels))}
        lab.scaling_experiment(*args, grid=grid, family_fn=_bench_family, npw=6)
        assert len(seen) == len(distinct) and set(seen) == distinct
        # the memo lives in one sweep: a second one evaluates them all again
        lab.scaling_experiment(*args, grid=grid, family_fn=_bench_family, npw=6)
        assert len(seen) == 2 * len(distinct)

    def test_trig_member_once_per_effective_lambda(self, monkeypatch):
        # lambda = 2^3 ... 2^8 on four levels: effective lambdas 2^0 ... 2^8
        grid = lab.GradedGrid(2, 4.0, 32, 3)
        seen = _counting_evaluations(monkeypatch)
        lab.scaling_experiment(model_curve(2), math.inf, 8.0, 2.0,
                               [2.0 ** k for k in range(3, 9)], grid=grid,
                               family_fn=lambda lam: lab.trig_family(0, 1), npw=6)
        assert sorted(lam for _, lam in seen) == [2.0 ** k for k in range(9)]

    def test_no_family_call_when_the_memo_holds_every_member(self, monkeypatch):
        # 24 (lambda, level) pairs at 9 effective lambdas: the 15 repeats
        # called the grid family with no members
        grid = lab.GradedGrid(2, 4.0, 32, 3)
        sizes = []
        family = eng._family_blocks

        def recording(curve, lam, axes, fs, *args, **kwargs):
            sizes.append(len(fs))
            return family(curve, lam, axes, fs, *args, **kwargs)

        monkeypatch.setattr(eng, "_family_blocks", recording)
        lab.scaling_experiment(model_curve(2), math.inf, 8.0, 2.0,
                               [2.0 ** k for k in range(3, 9)], grid=grid,
                               family_fn=lambda lam: lab.trig_family(0, 1), npw=6)
        assert sizes == [1] * 9

    def test_each_member_hashed_once_per_call(self, monkeypatch):
        # one memo lookup per member and call, one more to store a new
        # member's record: a trig member hashes its 129 coefficients
        hashes = []
        hash_ = eng.TestFunction.__hash__

        def counting(f):
            hashes.append(f)
            return hash_(f)

        lams = [2.0 ** k for k in range(3, 9)]
        families = {lam: _bench_family(lam) for lam in lams}
        calls = sum(len(fam) for fam in families.values())
        distinct = {f for fam in families.values() for _, f in fam}
        monkeypatch.setattr(eng.TestFunction, "__hash__", counting)
        lab.scaling_experiment(model_curve(2), math.inf, 8.0, 2.0, lams,
                               grid=lab.GradedGrid(2, 4.0, 32, 3),
                               family_fn=families.__getitem__, npw=6)
        assert len(hashes) == calls + len(distinct)

    @pytest.mark.parametrize("levels", [0, 3])
    @pytest.mark.parametrize("family", [[], [("zero", eng.zero_function())]],
                             ids=["empty", "zero-norm"])
    def test_non_finite_lambda_rejected_without_members(self, levels, family):
        # a family with no member of nonzero norm evaluates nothing, and must
        # still reject the lambda
        grid = lab.GradedGrid(2, 4.0, 32, levels)
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"lambda must be finite, got {lam}"):
                lab.family_sup(model_curve(2), lam, family, 2.0, 8.0, grid=grid,
                               _memo={})
            with pytest.raises(ValueError, match=f"lambda must be finite, got {lam}"):
                grid.family_lq(model_curve(2), lam, [], 8.0)


# ---------------------------------------------------------------------------
# graded sweeps reduce the rows the grid family forms
# ---------------------------------------------------------------------------


def _full_grid_lq(grid, curve, lam, fs, q, alpha=None):
    """family_lq on full grids: |T f| over the public family's grid on level
    0's axes at lam 2^{-l}, its keep and ~keep parts to the power q."""
    axes, keep, _ = grid.levels[0]
    lams = [lam * 2.0 ** -level for level in range(len(grid.levels))]
    parts = {}
    for lam_l in lams:
        for j, values in eng.extension_eval_grid_family(curve, lam_l, axes, fs, alpha=alpha):
            mod = np.abs(values)
            parts[j, lam_l] = tuple(float(np.max(part, initial=0.0)) if q == math.inf
                                    else float(np.sum(part ** q))
                                    for part in (mod[keep], mod[~keep]))
    terms = [(cell ** grid.d, lam_l, 0) for lam_l, (_, _, cell) in zip(lams, grid.levels)]
    terms.append(terms[-1][:2] + (1,))
    if q == math.inf:
        return [max(parts[j, lam_l][i] for _, lam_l, i in terms) for j in range(len(fs))]
    return [sum(w * parts[j, lam_l][i] for w, lam_l, i in terms) ** (1.0 / q)
            for j in range(len(fs))]


# grids centred on 0 in every axis: a graded one, an odd one whose middle
# row is its own mirror (cells 0.25 wide), and d = 3; the odd axis of
# GradedGrid(2, 2.0, 31, 0) misses the centre in the last bits (cells 4 / 31
# wide), so there the family forms every row
_CENTRED_GRIDS = [(2, 4.0, 32, 3), (2, 3.875, 31, 0), (3, 2.0, 8, 1)]


def _formed_family(d):
    fs = [eng.trig_poly(3, 16), eng.indicator(0.2, 0.5), eng.bump(0.1, 0.9),
          eng.zero_function()]
    return fs if d == 3 else fs + [f for _, f in _bench_family(64.0)]


class TestFormedRows:
    @pytest.mark.parametrize("args", _CENTRED_GRIDS + [(2, 2.0, 31, 0)])
    @pytest.mark.parametrize("q", [1.0, 2.0, 8.0, math.inf])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_family_lq_matches_the_full_grid(self, args, q, weighted):
        grid = lab.GradedGrid(*args)
        curve, fs = model_curve(grid.d), _formed_family(grid.d)
        alpha = float(grid.d) if weighted else None
        got = grid.family_lq(curve, 16.0, fs, q, alpha=alpha)
        ref = _full_grid_lq(grid, curve, 16.0, fs, q, alpha)
        assert ref[3] == 0.0 and all(r > 0.0 for k, r in enumerate(ref) if k != 3)
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("args", _CENTRED_GRIDS)
    def test_family_lq_reads_the_formed_rows_only(self, args, monkeypatch):
        # every level is centred on 0: blocks of m - m // 2 rows, and no
        # full grid, whose lower rows would be the mirror image of the block
        grid = lab.GradedGrid(*args)
        blocks = []
        family = eng._family_blocks

        def recording(*a, **kwargs):
            for j, block in family(*a, **kwargs):
                blocks.append(block.shape)
                yield j, block

        def full_grids(*a, **kwargs):
            raise AssertionError("family_lq formed a full grid")

        monkeypatch.setattr(eng, "_family_blocks", recording)
        monkeypatch.setattr(eng, "extension_eval_grid_family", full_grids)
        fs = _formed_family(grid.d)
        grid.family_lq(model_curve(grid.d), 16.0, fs, 8.0)
        m = args[2]
        assert blocks == [(m - m // 2,) + (m,) * (grid.d - 1)] * (len(set(fs)) * len(grid.levels))

    def test_family_lq_at_a_large_exponent(self):
        # |T f|^2000 underflowed: the norm came back 0.0
        grid = lab.GradedGrid(2, 4.0, 32, 3)
        f = eng.trig_poly(3, 64)
        got, = grid.family_lq(model_curve(2), 1.0, [f], 2000.0)
        # the reference sums in the log domain
        axes, keep, _ = grid.levels[0]
        logs = []
        for level, (_, _, cell) in enumerate(grid.levels):
            (_, values), = eng.extension_eval_grid_family(model_curve(2), 2.0 ** -level,
                                                          axes, [f])
            mod = np.abs(values)
            for part in (mod[keep],) + ((mod[~keep],) if level == len(grid.levels) - 1 else ()):
                logs.append(grid.d * math.log(cell) + 2000.0 * np.log(part))
        ref = math.exp(np.logaddexp.reduce(np.concatenate(logs)) / 2000.0)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_scaling_sweep_at_a_large_exponent(self):
        # |T f|^1000 underflowed to 0 at lambda = 128, and the log-log fit
        # raised; an L^q norm on the grid's box of volume 64 is at most
        # 64^{1/q} times the sup norm
        grid = lab.GradedGrid(2, 4.0, 32, 3)
        args = (model_curve(2), math.inf)
        kwargs = dict(grid=grid, family_fn=_bench_family, npw=6)
        lams = [2.0 ** k for k in range(3, 9)]
        rep = lab.scaling_experiment(*args, 1000.0, 2.0, lams, **kwargs)
        sup = lab.scaling_experiment(*args, math.inf, 2.0, lams, **kwargs)
        assert rep.verdict in ("PASS", "FAIL")
        for norm, top in zip(rep.sup_norms, sup.sup_norms):
            assert 0.0 < norm <= 64.0 ** (1.0 / 1000.0) * top * (1.0 + 1e-12)
