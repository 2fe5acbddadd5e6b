"""The four benchmark workloads, each an acceptance-style experiment run
through curveext's public API.

A workload object is built from a seed (that construction is the set-up
the benchmark times), `run()` is the timed time-to-verdict region, and
`verdicts()` / `check()` judge one run's output.  Operations are the units
`attempted` and `failed` count: one lambda step, one certificate, or one
batch evaluation.  `check()` runs outside the timed region: it recomputes a
fixed sample of the workload's values at doubled nodes-per-wavelength, on a
different quadrature rule, and requires agreement within
engine.SELF_CHECK_TOL.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from curveext import curves as cv
from curveext import decomposition as dc
from curveext import engine as eng
from curveext import lab
from curveext import measures as ms

TOL = eng.SELF_CHECK_TOL


def nproc():
    return len(os.sched_getaffinity(0))


def _grid_sample(values):
    """Fixed sample of grid indices: two corners, the centre, two interior."""
    shape = values.shape
    picks = [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.2, 0.7), (0.8, 0.3)]
    return [tuple(int(round(u * (s - 1))) for u, s in zip(pick, shape))
            for pick in picks]


def _grid_points_agree(curve, lam, axes, f, alpha, npw):
    """Grid kernel at npw against the scattered kernel at 2 npw, sampled."""
    vals = eng.extension_eval_grid(curve, lam, axes, f, alpha=alpha,
                                   self_check=False, nodes_per_wavelength=npw)
    idx = _grid_sample(vals)
    pts = np.array([[axes[k][i] for k, i in enumerate(ix)] for ix in idx])
    ref = eng.extension_eval(curve, lam, pts, f, alpha=alpha, self_check=False,
                             nodes_per_wavelength=2 * npw)
    got = np.array([vals[ix] for ix in idx])
    return float(np.max(np.abs(got - ref))) <= TOL


def _grid_volume(grid):
    return sum(cell ** grid.d * int(keep.sum()) for _, keep, cell in grid.levels)


class GradedScaling:
    """lab.scaling_experiment on the planar model curve over a graded grid."""

    name = "graded-scaling"
    SIZES = {
        "full": dict(grid=(2, 4.0, 32, 3), lam_exps=range(3, 9), family=(8, 3, 4, 8)),
        "tiny": dict(grid=(2, 4.0, 8, 1), lam_exps=range(1, 7), family=(4, 2, 2, 2)),
    }
    p, q, alpha, npw = math.inf, 8.0, 2.0, 6

    def __init__(self, seed, size="full"):
        cfg = self.SIZES[size]
        self.curve = cv.model_curve(2)
        self.grid = lab.GradedGrid(*cfg["grid"])
        self.lams = tuple(2.0 ** k for k in cfg["lam_exps"])
        positions, widths, bumps, trig = cfg["family"]
        self.families = {lam: lab.knapp_family(2, lam, positions, widths)
                         + lab.bump_family(2, lam, bumps)
                         + lab.trig_family(seed, trig)
                         for lam in self.lams}
        kept = sum(int(keep.sum()) for _, keep, _ in self.grid.levels)
        self.evals = sum(len(fam) * kept for fam in self.families.values())
        self.op_ids = [("lambda", lam) for lam in self.lams]

    def run(self):
        return lab.scaling_experiment(
            self.curve, self.p, self.q, self.alpha, self.lams, grid=self.grid,
            family_fn=self.families.__getitem__, npw=self.npw)

    def verdicts(self, rep):
        return {op: rep.passed() for op in self.op_ids}

    def check(self, rep):
        """Per lambda: the best member's values and its reported norm."""
        failed = set()
        vol_q = _grid_volume(self.grid) ** (1.0 / self.q)
        for lam, label, sup in zip(self.lams, rep.best_labels, rep.sup_norms):
            f = dict(self.families[lam])[label]
            fp = f.lp_norm(self.p)
            ok = all(_grid_points_agree(self.curve, lam, axes, f, None, self.npw)
                     for axes, _, _ in (self.grid.levels[0], self.grid.levels[-1]))
            fine = self.grid.extension_lq(self.curve, lam, f, self.q,
                                          nodes_per_wavelength=2 * self.npw) / fp
            ok = ok and abs(fine - sup) <= TOL * vol_q / fp
            if not ok:
                failed.add(("lambda", lam))
        return failed


class FiniteType:
    """lab.finite_type_pipeline for the cusp (t^2, t^3): weighted, blockwise."""

    name = "finite-type"
    SIZES = {
        "full": dict(grid=(2, 2.0, 32, 0), lam_exps=range(7, 11), n_blocks=5,
                     fit_blocks=5),
        "tiny": dict(grid=(2, 2.0, 8, 0), lam_exps=range(2, 6), n_blocks=3,
                     fit_blocks=2),
    }
    alpha, p, q, npw, widths = 2.0, 4.0, 8.0, 6, (1.0,)
    RATE_TOL = 0.1

    def __init__(self, seed, size="full"):
        cfg = self.SIZES[size]
        # The seed picks the base point tau; dyadic tau keeps the translation
        # exact, so the pipeline always sees exactly (t^2, t^3).
        tau = (seed % 8) / 8.0
        self.tau = tau
        self.curve = cv.CurveSpec(d=2, coeffs=(
            (tau * tau, -2.0 * tau, 1.0),
            (-tau ** 3, 3.0 * tau * tau, -3.0 * tau, 1.0)))
        self.grid = lab.GradedGrid(*cfg["grid"])
        self.lams = tuple(2.0 ** k for k in cfg["lam_exps"])
        self.n_blocks, self.fit_blocks = cfg["n_blocks"], cfg["fit_blocks"]
        kept = sum(int(keep.sum()) for _, keep, _ in self.grid.levels)
        members = 2 * len(self.widths)  # right-aligned and centred cap per width
        self.evals = len(self.lams) * self.n_blocks * members * kept
        self.op_ids = [("lambda", lam) for lam in self.lams]

    def run(self):
        return lab.finite_type_pipeline(
            self.curve, self.tau, self.grid, self.alpha, self.p, self.q,
            self.lams, n_blocks=self.n_blocks, fit_blocks=self.fit_blocks,
            npw=self.npw, widths=self.widths)

    def verdicts(self, out):
        reports, _, _, verdict = out
        ok = {op: verdict == "PASS" for op in self.op_ids}
        ok[self.op_ids[-1]] = ok[self.op_ids[-1]] and reports[-1].rate_ok(self.RATE_TOL)
        return ok

    def check(self, out):
        """Per lambda: weighted values of the block-0 cap; at the top lambda
        also the first two block norms."""
        reports = out[0]
        shifted = lab.translate_curve(self.curve, self.tau)
        a = cv.detect_finite_type(shifted, 0.0).a
        axes = self.grid.levels[0][0]
        failed = set()
        for lam in self.lams:
            w = min(lam ** -0.5, 0.5)
            f = eng.indicator(1.0 - w, 1.0)
            if not _grid_points_agree(shifted, lam, axes, f, self.alpha, self.npw):
                failed.add(("lambda", lam))
        lam = self.lams[-1]
        blocks = min(2, self.n_blocks)
        fine = lab.finite_type_blocks(
            shifted, self.grid, a, self.alpha, self.p, self.q, lam,
            n_blocks=blocks, fit_blocks=blocks, npw=2 * self.npw,
            widths=self.widths).block_norms
        vol_q = _grid_volume(self.grid) ** (1.0 / self.q)
        for j, (got, ref) in enumerate(zip(reports[-1].block_norms, fine)):
            fp_min = min(self.widths[0] * lam ** -0.5, 2.0 ** (-j - 1)) ** (1.0 / self.p)
            if abs(got - ref) > TOL * vol_q / fp_min:
                failed.add(("lambda", lam))
        return failed


@dataclass(frozen=True)
class FractalOut:
    audit: ms.AuditReport
    moll_slope: float
    moll_values: tuple
    serial: np.ndarray


class FractalScattered:
    """Cantor dust: regularity audit, mollified growth, scattered T f."""

    name = "fractal-scattered"
    SIZES = {
        "full": dict(depth=6, lam=512.0, degree=64, moll_exps=range(3, 9),
                     centers=128),
        "tiny": dict(depth=4, lam=16.0, degree=8, moll_exps=range(2, 5),
                     centers=32),
    }
    SLOPE_TOL = 0.07
    npw = eng.NODES_PER_WAVELENGTH

    def __init__(self, seed, size="full"):
        cfg = self.SIZES[size]
        self.seed = seed
        self.mu = ms.make_cantor(2, 1.0 / 3.0, cfg["depth"])
        self.curve = cv.model_curve(2)
        self.f = eng.trig_poly(seed, cfg["degree"])
        self.lam, self.centers = cfg["lam"], cfg["centers"]
        self.moll_lams = tuple(2.0 ** k for k in cfg["moll_exps"])
        self.workers = nproc()
        self.evals = self.mu.n
        self.op_ids = ["audit", "mollify", "eval-serial", "eval-parallel"]
        self.eval_seconds = []  # (serial, parallel) per check

    def run(self):
        audit = ms.regularity_audit(self.mu, n_centers=self.centers, seed=self.seed)
        slope, vals = ms.mollified_slope(self.mu, self.moll_lams)
        serial = eng.extension_eval(self.curve, self.lam, self.mu.atoms, self.f,
                                    workers=1)
        return FractalOut(audit, slope, tuple(vals), serial)

    def verdicts(self, out):
        target = self.mu.d - self.mu.alpha
        return {
            "audit": out.audit.passed,
            "mollify": abs(out.moll_slope - target) <= self.SLOPE_TOL,
            "eval-serial": True,
            "eval-parallel": True,
        }

    def check(self, out):
        """16 atoms at doubled density, and byte identity at nproc workers.

        The nproc-worker evaluation runs here, outside the timed region: on
        a shared host its time depends on what else runs on the other CPUs.
        """
        failed = set()
        idx = np.linspace(0, self.mu.n - 1, 16).astype(int)
        ref = eng.extension_eval(self.curve, self.lam, self.mu.atoms[idx], self.f,
                                 nodes_per_wavelength=2 * self.npw)
        if float(np.max(np.abs(out.serial[idx] - ref))) > TOL:
            failed.add("eval-serial")
        t0 = time.perf_counter()
        eng.extension_eval(self.curve, self.lam, self.mu.atoms, self.f, workers=1)
        t1 = time.perf_counter()
        parallel = eng.extension_eval(self.curve, self.lam, self.mu.atoms, self.f,
                                      workers=self.workers)
        self.eval_seconds.append((t1 - t0, time.perf_counter() - t1))
        if parallel.tobytes() != out.serial.tobytes():
            failed.add("eval-parallel")
        return failed


@dataclass(frozen=True)
class Batch:
    d: int
    curve: object
    family: dc.DyadicFamily
    f: eng.TestFunction
    lam: float
    targets: np.ndarray


class Certificates:
    """Criterion-7 shape: decompose_batch + verify_certificate for d = 2, 3."""

    name = "certificates"
    SIZES = {
        "full": dict(batches=2, targets=40, degree=24),
        "tiny": dict(batches=1, targets=4, degree=4),
    }
    SAMPLE_COLS = (0, 1)
    npw = eng.NODES_PER_WAVELENGTH

    def __init__(self, seed, size="full"):
        cfg = self.SIZES[size]
        self.batches = []
        for d in (2, 3):
            rng = np.random.default_rng([seed, d])
            curve, family = cv.model_curve(d), dc.DyadicFamily.default(d)
            for s in range(cfg["batches"]):
                # The functions and the lambda walk over 2^4 .. 2^7 are fixed
                # (criterion 7's trig_poly(100 d + s)); the seed draws the
                # targets.  The tuple search's cost depends strongly on f and
                # lambda, so seeding them would make the work seed-dependent.
                lam = 2.0 ** (4.0 + 3.0 * s / max(cfg["batches"] - 1, 1))
                f = eng.trig_poly(100 * d + s, degree=cfg["degree"])
                targets = rng.uniform(-2.0, 2.0, (cfg["targets"], d))
                # The largest |x| sets the quadrature size, and with it the
                # memory peak; a corner of the box fixes it for every seed.
                targets[0] = 2.0
                self.batches.append(Batch(d, curve, family, f, lam, targets))
        self.evals = sum(
            len(b.targets) * (1 + sum(int(1 / a) for a in b.family.lengths))
            for b in self.batches)
        self.op_ids = [("cert", i, c) for i, b in enumerate(self.batches)
                       for c in range(len(b.targets))] + ["tamper"]

    def run(self):
        certs, verified = [], []
        for b in self.batches:
            batch = dc.decompose_batch(b.f, b.family, b.curve, b.lam, b.targets)
            certs.append(batch)
            verified.append(tuple(dc.verify_certificate(c, b.family, b.d)[0]
                                  for c in batch))
        b, cert = self.batches[0], certs[0][0]
        tampered = replace(cert, constants=tuple(c / 2 for c in cert.constants))
        rejected = not dc.verify_certificate(tampered, b.family, b.d)[0]
        return certs, verified, rejected

    def verdicts(self, out):
        _, verified, rejected = out
        ok = {("cert", i, c): v for i, row in enumerate(verified)
              for c, v in enumerate(row)}
        ok["tamper"] = rejected
        return ok

    def check(self, out):
        """|T f| and the level-1 single term of sampled certificates."""
        failed = set()
        for i, (b, batch) in enumerate(zip(self.batches, out[0])):
            cols = [c for c in self.SAMPLE_COLS if c < len(batch)]
            x = b.targets[cols]
            kw = dict(nodes_per_wavelength=2 * self.npw)
            full = np.abs(eng.extension_eval(b.curve, b.lam, x, b.f, **kw))
            single = np.max([
                np.abs(eng.extension_eval(
                    b.curve, b.lam, x, eng.restrict(b.f, float(iv.lo), float(iv.hi)),
                    **kw))
                for iv in b.family.intervals(1)], axis=0)
            for k, c in enumerate(cols):
                cert = batch[c]
                if (abs(full[k] - cert.lhs) > TOL
                        or abs(single[k] - cert.single_terms[0]) > TOL):
                    failed.add(("cert", i, c))
        return failed


WORKLOADS = {w.name: w for w in (GradedScaling, FiniteType, FractalScattered,
                                 Certificates)}
