"""Batch front-end: every kernel and experiment behind one command.

Subcommands: torsion, region, scaling, sharpness, decompose, multilinear,
finitetype, measure-audit.  Exit codes: 0 all verdicts pass (or
--report-only), 2 configuration, parse or input error (any ValueError), 3
numerical certification failure (a failed verdict, quadrature over its
budget or self-check, or a telescoping residual).  `main` is the one place
that maps errors to codes.

The config is the run.  Every value that can change a result file, the
seed included, comes from the hashed config: the config file, torsion's
curve file, or region's arguments.  (Torsion's t grid is not hashed; its
rows list it.)  Result files embed that hash and are deterministic for it;
`decompose --workers` changes no byte.  `OutputDir.report` is the one place
that writes result and verdict files; timestamps go only to the sidecar log.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import decomposition as dc
from . import engine as eng
from . import lab
from . import measures as ms
from .curves import CurveSpec, beta_alpha, model_curve, torsion

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERT = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


class OutputDir:
    """Result directory, made at its first write; a non-empty one is
    refused unless force is set.

    Subcommands open it before running their experiment, so a refused
    directory costs no computation, and a run rejected before its first
    result leaves no directory behind.
    """

    def __init__(self, path, force=False, config_hash=""):
        self.path = Path(path)
        self.config_hash = config_hash
        if not force and self.path.is_dir() and any(self.path.iterdir()):
            raise ConfigError(
                f"{self.path} is not empty; pass --force to overwrite")

    def _file(self, name):
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path / name

    def report(self, name, checks, header=None, rows=(), items=None,
               verdict=None):
        """Write `<name>_results.csv` (given a header) and
        `<name>_verdict.txt` (given items), each headed by the config hash,
        and log the verdict; returns the failures, the names of the
        (name, ok) checks that are not ok.

        The verdict is the one passed in, else PASS without failures and
        FAIL with some; it is the verdict file's last line.
        """
        failures = [check for check, ok in checks if not ok]
        verdict = verdict or ("FAIL" if failures else "PASS")
        if header:
            lines = [f"# config_hash={self.config_hash}", ",".join(header)]
            lines += (",".join(_fmt(v) for v in row) for row in rows)
            self.write_text(f"{name}_results.csv", "\n".join(lines) + "\n")
        if items is not None:
            lines = [f"config_hash = {self.config_hash}"]
            lines += (f"{k} = {_fmt(v)}" for k, v in [*items, ("verdict", verdict)])
            self.write_text(f"{name}_verdict.txt", "\n".join(lines) + "\n")
        self.log(f"{name} verdict={verdict}")
        return failures

    def write_text(self, name, text):
        self._file(name).write_text(text)

    def log(self, message):
        # the only place a timestamp is allowed
        with self._file("run.log").open("a") as fh:
            fh.write(f"{time.time():.3f} {message}\n")


def _hash_bytes(data):
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def load_config(path):
    raw = Path(path).read_bytes()
    parser = configparser.ConfigParser()
    try:
        parser.read_string(raw.decode())
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    return parser, _hash_bytes(raw)


def _get(cfg, section, key, cast=str, default=None):
    if not cfg.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"missing [{section}] {key}")
    raw = cfg.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw}") from exc


def _floats(raw):
    return tuple(float(v) for v in raw.split())


def curve_from_config(cfg):
    kind = _get(cfg, "curve", "kind")
    if kind == "model":
        return model_curve(_get(cfg, "curve", "d", int))
    if kind == "poly":
        d = _get(cfg, "curve", "d", int)
        coeffs = tuple(_get(cfg, "curve", f"coeffs{i + 1}", _floats)
                       for i in range(d))
        return CurveSpec(d=d, coeffs=coeffs,
                         label=_get(cfg, "curve", "label", str, "config"))
    raise ConfigError(f"unknown curve kind {kind!r}")


def measure_from_config(cfg):
    kind = _get(cfg, "measure", "kind")
    if kind == "lebesgue":
        d = _get(cfg, "measure", "d", int)
        half = _get(cfg, "measure", "half", float, 1.0)
        return ms.make_lebesgue(
            d, box=(-half, half),
            resolution=_get(cfg, "measure", "resolution", int, 64),
            grading_levels=_get(cfg, "measure", "grading_levels", int, 0))
    if kind == "appendix_a":
        return ms.make_appendix_a(
            _get(cfg, "measure", "d", int),
            _get(cfg, "measure", "alpha", float),
            _get(cfg, "measure", "j", int),
            extent=_get(cfg, "measure", "extent", float, 1.0),
            resolution=_get(cfg, "measure", "resolution", int, 256),
            grading_levels=_get(cfg, "measure", "grading_levels", int, 0))
    if kind == "cantor":
        return ms.make_cantor(
            _get(cfg, "measure", "d", int),
            _get(cfg, "measure", "ratio", float),
            _get(cfg, "measure", "depth", int))
    raise ConfigError(f"unknown measure kind {kind!r}")


def measure_d(cfg, curve):
    """The curve's dimension, which a [measure] d must equal."""
    d = _get(cfg, "measure", "d", int, curve.d)
    if d != curve.d:
        raise ConfigError(f"[measure] d = {d} but the curve has d = {curve.d}")
    return d


def grid_from_config(cfg, curve, half, resolution, levels):
    """[measure] as a graded Lebesgue grid for the curve; half, resolution
    and levels stand in for the keys the section leaves out."""
    if _get(cfg, "measure", "kind", str, "lebesgue") != "lebesgue":
        raise ConfigError("a graded grid needs [measure] kind = lebesgue")
    return lab.GradedGrid(
        measure_d(cfg, curve), _get(cfg, "measure", "half", float, half),
        _get(cfg, "measure", "resolution", int, resolution),
        _get(cfg, "measure", "grading_levels", int, levels))


def exponents_from_config(cfg, d):
    """[experiment] p and q (at least 1, infinity allowed) and alpha in (0, d]."""
    p, q, alpha = (_get(cfg, "experiment", k, float) for k in ("p", "q", "alpha"))
    eng.check_exponent("[experiment] p", p)
    eng.check_exponent("[experiment] q", q)
    beta_alpha(alpha, d)
    return p, q, alpha


def lambda_grid_from_config(cfg):
    lo = _get(cfg, "experiment", "lambda_min_exp", int)
    hi = _get(cfg, "experiment", "lambda_max_exp", int)
    if hi < lo:
        raise ConfigError("lambda_max_exp < lambda_min_exp")
    return [2.0**k for k in range(lo, hi + 1)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_torsion(args):
    try:
        curve = CurveSpec.from_text(Path(args.curve_file).read_text())
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise ConfigError(f"cannot read curve file: {exc}") from None
    if args.points < 2:
        raise ConfigError("need at least 2 grid points")
    for flag, t in (("--t-min", args.t_min), ("--t-max", args.t_max)):
        if not math.isfinite(t):
            raise ConfigError(f"{flag} must be finite, got {t}")
    out = OutputDir(args.out, force=args.force,
                    config_hash=_hash_bytes(Path(args.curve_file).read_bytes()))
    ts = np.linspace(args.t_min, args.t_max, args.points)
    vals = [float(torsion(curve, t)) for t in ts]
    ok = not (args.require_nondegenerate and min(abs(v) for v in vals) < 1e-12)
    return out.report("torsion", [("torsion vanishes on the requested grid", ok)],
                      ("t", "torsion"), zip(ts, vals))


def cmd_region(args):
    payload = f"region d={args.d} alpha={args.alpha} steps={args.steps}"
    out = OutputDir(args.out, force=args.force,
                    config_hash=_hash_bytes(payload.encode()))
    rows = lab.admissible_region(args.d, args.alpha, steps=args.steps)
    return out.report("region", [], ("inv_p", "inv_q", "status"), rows)


def cmd_scaling(args):
    cfg, chash = load_config(args.config)
    seed = _get(cfg, "experiment", "seed", int)
    curve = curve_from_config(cfg)
    p, q, alpha = exponents_from_config(cfg, curve.d)
    lams = lambda_grid_from_config(cfg)
    npw = _get(cfg, "experiment", "nodes_per_wavelength", float, 8.0)
    kind = _get(cfg, "measure", "kind")
    grid = mu = None
    if kind == "lebesgue" and _get(cfg, "measure", "grading_levels", int, 0):
        grid = grid_from_config(cfg, curve, 1.0, 64, 0)
    else:
        measure_d(cfg, curve)
        mu = measure_from_config(cfg)
    radius = _get(cfg, "experiment", "radius", float, lab.DEFAULT_RADIUS)
    out = OutputDir(args.out, force=args.force, config_hash=chash)
    rep = lab.scaling_experiment(curve, p, q, alpha, lams, mu=mu, grid=grid,
                                 radius=radius, seed=seed, npw=npw)
    # a vacuous verdict (no nonzero norm) fails no check
    return out.report(
        "scaling", [("scaling slope", rep.verdict != "FAIL")],
        ("lambda", "family_sup_norm", "best_label"),
        zip(rep.lam_grid, rep.sup_norms, rep.best_labels),
        [("kind", rep.kind), ("slope", rep.slope), ("stderr", rep.stderr),
         ("target_slope", rep.target_slope), ("tolerance", rep.tol)],
        verdict=rep.verdict)


def cmd_sharpness(args):
    cfg, chash = load_config(args.config)
    curve = curve_from_config(cfg)
    measure_d(cfg, curve)
    mu = measure_from_config(cfg)
    p, q, alpha = exponents_from_config(cfg, curve.d)
    lams = lambda_grid_from_config(cfg)
    c = _get(cfg, "experiment", "c", float, lab.KNAPP_SCALE)
    out = OutputDir(args.out, force=args.force, config_hash=chash)
    rep = lab.sharpness_experiment(curve, mu, alpha, p, q, lams, c=c)
    checks = [("rectangle mass slope", rep.mass_ok()),
              ("on-rectangle lower bound", rep.lower_bound_ok)]
    return out.report(
        "sharpness", checks, ("lambda", "rect_mass", "normalized_ratio"),
        zip(rep.lam_grid, rep.rect_masses, rep.ratios),
        [("mass_slope", rep.mass_slope), ("mass_target", rep.mass_target),
         ("ratio_slope", rep.ratio_slope),
         ("min_peak_fraction", rep.min_peak_fraction),
         ("lower_bound_ok", rep.lower_bound_ok)])


def cmd_decompose(args):
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    cfg, chash = load_config(args.config)
    seed = _get(cfg, "experiment", "seed", int)
    curve = curve_from_config(cfg)
    d = curve.d
    lam = _get(cfg, "experiment", "lambda", float)
    n_targets = _get(cfg, "experiment", "targets", int, 16)
    if n_targets < 1:
        raise ConfigError(f"[experiment] targets must be >= 1, got {n_targets}")
    radius = _get(cfg, "experiment", "radius", float, 8.0)
    if not 0.0 <= radius < math.inf:
        raise ConfigError(f"[experiment] radius must be finite and >= 0, got {radius}")
    scales = _get(cfg, "experiment", "scales", str, "")
    try:
        family = (dc.DyadicFamily(scales.split()) if scales
                  else dc.DyadicFamily.default(d))
    except ValueError as exc:
        raise ConfigError(f"bad [experiment] scales {scales!r}: {exc}") from None
    if family.depth != d - 1:
        raise ConfigError(f"[experiment] scales lists {family.depth} lengths; "
                          f"d = {d} needs {d - 1}")
    rng = np.random.default_rng(seed)
    f = eng.trig_poly(seed, _get(cfg, "experiment", "degree", int, 16))
    targets = rng.uniform(-radius, radius, size=(n_targets, d))
    out = OutputDir(args.out, force=args.force, config_hash=chash)
    certs = dc.decompose_batch(f, family, curve, lam, targets,
                               workers=args.workers)
    checks, rows = [], []
    for i, cert in enumerate(certs):
        ok, slack = dc.verify_certificate(cert, family, d)
        checks.append((f"certificate {i}", ok))
        rows.append((i, cert.lhs, cert.rhs, slack, ok))
    out.write_text("decompose_certificates.txt",
                   "\n\n".join(c.to_text(family) for c in certs) + "\n")
    return out.report(
        "decompose", checks, ("target", "lhs", "rhs", "slack", "verified"),
        rows, [("targets", len(certs)), ("verified", sum(1 for _, ok in checks if ok))])


def cmd_multilinear(args):
    cfg, chash = load_config(args.config)
    curve = curve_from_config(cfg)
    lams = lambda_grid_from_config(cfg)
    ends = _get(cfg, "experiment", "supports", _floats)
    # NaN ends pass here and the test function names them
    if len(ends) != 2 * curve.d or any(lo >= hi for lo, hi in zip(ends[::2], ends[1::2])):
        raise ConfigError(f"[experiment] supports must list lo < hi per factor, got {ends}")
    fs = [eng.indicator(*ends[i : i + 2]) for i in range(0, len(ends), 2)]
    box_r = _get(cfg, "experiment", "box_r", float, 16.0)
    out = OutputDir(args.out, force=args.force, config_hash=chash)
    rows, checks = [], []
    for lam in lams:
        res = eng.multilinear_l2(curve, fs, lam, box_r=box_r)
        ok = res.lhs <= res.bound
        checks.append((f"lambda={lam}", ok))
        rows.append((lam, res.lhs, res.bound, res.ratio,
                     res.tail_fraction, ok))
    return out.report(
        "multilinear", checks,
        ("lambda", "lhs", "bound", "ratio", "tail_fraction", "holds"), rows,
        [("points", len(rows))])


def cmd_finitetype(args):
    cfg, chash = load_config(args.config)
    curve = curve_from_config(cfg)
    p, q, alpha = exponents_from_config(cfg, curve.d)
    lams = lambda_grid_from_config(cfg)
    grid = grid_from_config(cfg, curve, 8.0, 128, 9)
    tau = _get(cfg, "experiment", "tau", float, 0.0)
    out = OutputDir(args.out, force=args.force, config_hash=chash)
    reports, slope, target, verdict = lab.finite_type_pipeline(
        curve, tau, grid, alpha, p, q, lams,
        n_blocks=_get(cfg, "experiment", "blocks", int, 7),
        fit_blocks=_get(cfg, "experiment", "fit_blocks", int, 5),
        npw=_get(cfg, "experiment", "nodes_per_wavelength", float, 6.0))
    rows = []
    for rep in reports:
        for j, norm in enumerate(rep.block_norms):
            rows.append((rep.lam, j, norm))
    top = reports[-1]
    checks = [("block decay rate", top.rate_ok()),
              ("aggregate slope", verdict == "PASS")]
    return out.report(
        "finitetype", checks, ("lambda", "block", "norm"), rows,
        [("block_rate", top.rate), ("block_rate_target", top.target_rate),
         ("aggregate_slope", slope), ("aggregate_target", target)])


def cmd_measure_audit(args):
    cfg, chash = load_config(args.config)
    seed = _get(cfg, "experiment", "seed", int)
    mu = measure_from_config(cfg)
    out = OutputDir(args.out, force=args.force, config_hash=chash)
    report = ms.regularity_audit(mu, seed=seed)
    return out.report(
        "measure_audit", [("regularity certificate", report.passed)],
        items=[("alpha", mu.alpha), ("c_mu", mu.c_mu),
               ("c_estimate", report.c_est),
               ("exponent_fit", report.exponent_fit),
               ("worst_radius", report.worst_radius),
               ("worst_center",
                " ".join(_fmt(float(c)) for c in report.worst_center)),
               ("floor", report.floor)])


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="curveext")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out")
    common.add_argument("--force", action="store_true")
    common.add_argument("--report-only", action="store_true",
                        dest="report_only")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tor = sub.add_parser("torsion", parents=[common])
    p_tor.add_argument("curve_file")
    p_tor.add_argument("--t-min", type=float, default=0.0)
    p_tor.add_argument("--t-max", type=float, default=1.0)
    p_tor.add_argument("--points", type=int, default=101)
    p_tor.add_argument("--require-nondegenerate", action="store_true")
    p_tor.set_defaults(func=cmd_torsion)

    p_reg = sub.add_parser("region", parents=[common])
    p_reg.add_argument("--d", type=int, required=True)
    p_reg.add_argument("--alpha", type=float, required=True)
    p_reg.add_argument("--steps", type=int, default=40)
    p_reg.set_defaults(func=cmd_region)

    for name, func in (
            ("scaling", cmd_scaling), ("sharpness", cmd_sharpness),
            ("decompose", cmd_decompose), ("multilinear", cmd_multilinear),
            ("finitetype", cmd_finitetype),
            ("measure-audit", cmd_measure_audit)):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("config")
        sp.set_defaults(func=func)
    # decompose's result files do not depend on its worker count, so this
    # flag cannot change a result under an unchanged hash
    sub.choices["decompose"].add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        failures = args.func(args)
    except ValueError as exc:  # a ConfigError, or an input a kernel rejected
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (eng.QuadratureBudgetError, dc.TelescopingError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_OK if args.report_only else EXIT_CERT
    if failures and not args.report_only:
        print("certification failure: " + "; ".join(failures),
              file=sys.stderr)
        return EXIT_CERT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
