import configparser
import hashlib
import importlib.resources as importlib_resources
import io
from pathlib import Path

import numpy as np
import pytest

from curveext import cli
from curveext import measures as ms
from curveext.curves import CurveSpec, model_curve

CONFIG_DIR = Path(importlib_resources.files("curveext") / "configs")


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


# ---------------------------------------------------------------------------
# torsion and region
# ---------------------------------------------------------------------------


class TestTorsion:
    def test_model_curve_constant_one(self, tmp_path):
        cf = tmp_path / "curve.txt"
        cf.write_text(model_curve(2).to_text())
        rc = cli.main(["torsion", str(cf), "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "torsion_results.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        vals = [float(l.split(",")[1]) for l in lines[2:]]
        assert all(abs(v - 1.0) < 1e-12 for v in vals)

    def test_degenerate_curve_linear_column(self, tmp_path):
        deg = CurveSpec(d=2, coeffs=((0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 1.0)))
        # torsion of (t^2/2, t^3) is det[[t, 1], [3t^2, 6t]] = 3t^2
        cf = tmp_path / "curve.txt"
        cf.write_text(deg.to_text())
        rc = cli.main(["torsion", str(cf), "--out", str(tmp_path / "o"),
                       "--points", "11"])
        assert rc == 0
        lines = (tmp_path / "o" / "torsion_results.csv").read_text().splitlines()
        for line in lines[2:]:
            t, v = (float(x) for x in line.split(","))
            assert abs(v - 3.0 * t**2) < 1e-10

    def test_malformed_file_exit_2(self, tmp_path):
        cf = tmp_path / "junk.txt"
        cf.write_text("not a curve at all\n")
        rc = cli.main(["torsion", str(cf), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_require_nondegenerate_exit_3(self, tmp_path, capsys):
        deg = CurveSpec(d=2, coeffs=((0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 1.0)))
        cf = tmp_path / "curve.txt"
        cf.write_text(deg.to_text())
        argv = ["torsion", str(cf), "--require-nondegenerate", "--force"]
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "certification failure: torsion vanishes on the requested grid\n")
        # the result file is written either way
        assert (tmp_path / "o" / "torsion_results.csv").exists()
        assert cli.main(argv + ["--out", str(tmp_path / "o"), "--report-only"]) == 0


    @pytest.mark.parametrize("flag, value", [("--t-max", "inf"), ("--t-min", "nan")])
    def test_non_finite_range_named(self, tmp_path, capsys, flag, value):
        # exited 0 with rows of nan,nan, which --require-nondegenerate passed
        cf = tmp_path / "curve.txt"
        cf.write_text(model_curve(2).to_text())
        argv = ["torsion", str(cf), flag, value, "--require-nondegenerate"]
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert f"{flag} must be finite, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestRegion:
    def test_region_csv_statuses(self, tmp_path):
        rc = cli.main(["region", "--d", "3", "--alpha", "3.0",
                       "--steps", "20", "--out", str(tmp_path / "o")])
        assert rc == 0
        text = (tmp_path / "o" / "region_results.csv").read_text()
        assert "admissible" in text and "excluded" in text

    def test_region_monotone_in_alpha(self, tmp_path):
        counts = {}
        for i, alpha in enumerate((3.0, 0.5)):
            rc = cli.main(["region", "--d", "3", "--alpha", str(alpha),
                           "--steps", "20", "--out", str(tmp_path / f"o{i}")])
            assert rc == 0
            text = (tmp_path / f"o{i}" / "region_results.csv").read_text()
            counts[alpha] = text.count("admissible")
        assert counts[0.5] > counts[3.0]

    def test_zero_steps_exit_2(self, tmp_path):
        rc = cli.main(["region", "--d", "2", "--alpha", "2.0",
                       "--steps", "0", "--out", str(tmp_path / "o")])
        assert rc == 2


# ---------------------------------------------------------------------------
# bundled configs and plumbing
# ---------------------------------------------------------------------------


class TestBundledConfigs:
    def test_d2_lebesgue_passes(self, tmp_path):
        rc = cli.main(["scaling", str(CONFIG_DIR / "d2_lebesgue.cfg"),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        verdict = (tmp_path / "o" / "scaling_verdict.txt").read_text()
        assert "verdict = PASS" in verdict
        assert "kind = family-sup" in verdict

    def test_appendix_a_sharp_passes(self, tmp_path):
        rc = cli.main(["sharpness", str(CONFIG_DIR / "appendixA_sharp.cfg"),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        verdict = (tmp_path / "o" / "sharpness_verdict.txt").read_text()
        assert "verdict = PASS" in verdict
        # the flat-ratio reading: slope recorded and small
        slope = float(
            [l for l in verdict.splitlines()
             if l.startswith("ratio_slope")][0].split("=")[1])
        assert abs(slope) <= 0.1


class TestPlumbing:
    SMALL_SCALING = """
[curve]
kind = model
d = 2

[measure]
kind = lebesgue
d = 2
half = 2.0
resolution = 24

[experiment]
p = 2
q = 8
alpha = 2.0
lambda_min_exp = 2
lambda_max_exp = 7
seed = 3
"""

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.SMALL_SCALING)
        for name in ("a", "b"):
            rc = cli.main(["scaling", cfg, "--out", str(tmp_path / name)])
            assert rc == 0
        a = (tmp_path / "a" / "scaling_results.csv").read_bytes()
        b = (tmp_path / "b" / "scaling_results.csv").read_bytes()
        assert a == b

    def test_overwrite_needs_force(self, tmp_path):
        cfg = write_config(tmp_path, self.SMALL_SCALING)
        assert cli.main(["scaling", cfg, "--out", str(tmp_path / "o")]) == 0
        assert cli.main(["scaling", cfg, "--out", str(tmp_path / "o")]) == 2
        assert cli.main(["scaling", cfg, "--out", str(tmp_path / "o"),
                         "--force"]) == 0

    def test_nonempty_out_refused_before_running(self, tmp_path,
                                                 monkeypatch):
        def not_run(*args, **kwargs):
            raise AssertionError("experiment ran")

        monkeypatch.setattr(cli.lab, "scaling_experiment", not_run)
        cfg = write_config(tmp_path, self.SMALL_SCALING)
        (tmp_path / "o").mkdir()
        (tmp_path / "o" / "scaling_results.csv").write_text("old\n")
        assert cli.main(["scaling", cfg, "--out", str(tmp_path / "o")]) == 2
        assert (tmp_path / "o" / "scaling_results.csv").read_text() == "old\n"

    def test_missing_seed_exit_2(self, tmp_path):
        body = self.SMALL_SCALING.replace("seed = 3\n", "")
        cfg = write_config(tmp_path, body)
        assert cli.main(["scaling", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_config_hash_embedded(self, tmp_path):
        cfg = write_config(tmp_path, self.SMALL_SCALING)
        assert cli.main(["scaling", cfg, "--out", str(tmp_path / "o")]) == 0
        csv = (tmp_path / "o" / "scaling_results.csv").read_text()
        verdict = (tmp_path / "o" / "scaling_verdict.txt").read_text()
        h = csv.splitlines()[0].split("=")[1]
        assert f"config_hash = {h}" in verdict
        assert len(h) == 16

    def test_unparsable_config_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "p = 2  # no section header\n")
        assert cli.main(["scaling", cfg, "--out", str(tmp_path / "o")]) == 2


class TestMeasureMismatch:
    """A [measure] kind other than lebesgue for a grid, or a [measure] d
    other than the curve's, is a config error before anything runs."""

    BODY = """
[curve]
kind = poly
d = 2
coeffs1 = 0 0 1
coeffs2 = 0 0 0 1

[measure]
{measure}

[experiment]
p = 4
q = 8
alpha = 2.0
lambda_min_exp = 2
lambda_max_exp = 7
blocks = 2
fit_blocks = 2
seed = 0
"""

    @pytest.mark.parametrize("command, measure", [
        ("finitetype", "kind = cantor\nd = 2\nratio = 0.3\ndepth = 3\n"
                       "half = 2.0\nresolution = 8\ngrading_levels = 1"),
        ("finitetype", "d = 3\nhalf = 2.0\nresolution = 8\ngrading_levels = 1"),
        ("scaling", "kind = lebesgue\nd = 3\nhalf = 2.0\nresolution = 8"),
        ("scaling", "kind = lebesgue\nd = 3\nhalf = 2.0\nresolution = 8\n"
                    "grading_levels = 1"),
        ("sharpness", "kind = appendix_a\nd = 3\nalpha = 2.5\nj = 0\n"
                      "resolution = 8"),
    ])
    def test_exit_2_before_running(self, tmp_path, command, measure):
        cfg = write_config(tmp_path, self.BODY.format(measure=measure))
        assert cli.main([command, cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


class TestExponentKeys:
    """An [experiment] p or q below 1 or NaN, or an alpha outside (0, d],
    is a config error before the output directory is made."""

    MEASURE = "kind = lebesgue\nd = 2\nhalf = 2.0\nresolution = 8\ngrading_levels = 1"

    @pytest.mark.parametrize("command", ["scaling", "sharpness", "finitetype"])
    @pytest.mark.parametrize("line", ["q = nan", "p = 0.5", "alpha = nan"])
    def test_exit_2_before_output(self, tmp_path, command, line):
        # these used to run: scaling exited 0 (vacuous) at q = nan and 3
        # otherwise, sharpness 3 at p = 0.5, the rest raised out of main
        key = line.split()[0]
        body = "\n".join(
            line if l.startswith(f"{key} =") else l
            for l in TestMeasureMismatch.BODY.format(measure=self.MEASURE).splitlines())
        cfg = write_config(tmp_path, body)
        assert cli.main([command, cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


class TestFiniteTypeInputs:
    """finitetype's exponent pair must be admissible and its curve of
    finite type at tau, else a config error before the output directory
    is made."""

    @pytest.mark.parametrize("curve, exponents", [
        # passes the exponent gate, but q < 2 d: used to make --out and
        # then raise ValueError out of main
        ("kind = model\nd = 2", "p = 1\nq = 2\nalpha = 2.0"),
        # a line: no nonsingular frame at tau = 0
        ("kind = poly\nd = 2\ncoeffs1 = 0 1\ncoeffs2 = 0 2", "p = 4\nq = 8\nalpha = 2.0"),
    ])
    def test_exit_2_before_output(self, tmp_path, curve, exponents):
        cfg = write_config(tmp_path, f"""
[curve]
{curve}

[measure]
half = 2.0
resolution = 8
grading_levels = 1

[experiment]
{exponents}
lambda_min_exp = 2
lambda_max_exp = 4
blocks = 2
fit_blocks = 2
""")
        assert cli.main(["finitetype", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


class TestDecomposeScales:
    """A [experiment] scales key that is no dyadic family of depth d - 1
    is a config error before the output directory is made."""

    @pytest.mark.parametrize("d, scales", [
        (3, "1/16"),      # depth 1, but d = 3 needs 2 lengths
        (2, "1/3 1/9"),   # not powers of 1/2
        (2, "abc"),       # not a number
        (2, "1/0"),       # zero denominator
    ])
    def test_exit_2_before_output(self, tmp_path, d, scales):
        cfg = write_config(tmp_path, f"""
[curve]
kind = model
d = {d}

[experiment]
lambda = 32
targets = 2
degree = 4
seed = 1
scales = {scales}
""")
        assert cli.main(["decompose", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# remaining subcommands
# ---------------------------------------------------------------------------


class TestSubcommands:
    def test_decompose_verifies(self, tmp_path):
        cfg = write_config(tmp_path, """
[curve]
kind = model
d = 2

[experiment]
lambda = 128
targets = 8
radius = 6.0
degree = 12
seed = 11
""")
        rc = cli.main(["decompose", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        verdict = (tmp_path / "o" / "decompose_verdict.txt").read_text()
        assert "verified = 8" in verdict and "verdict = PASS" in verdict
        assert (tmp_path / "o" / "decompose_certificates.txt").exists()

    def test_decompose_workers_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, """
[curve]
kind = model
d = 2

[experiment]
lambda = 64
targets = 6
radius = 4.0
degree = 8
seed = 5
""")
        for w in ("1", "2"):
            assert cli.main(["decompose", cfg, "--workers", w,
                             "--out", str(tmp_path / w)]) == 0
        for name in ("decompose_results.csv", "decompose_certificates.txt",
                     "decompose_verdict.txt"):
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes())

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_decompose_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        # ran serially and wrote results with exit 0
        cfg = write_config(tmp_path, DECOMPOSE.format(lam=32, degree=4))
        assert cli.main(["decompose", cfg, "--workers", workers,
                         "--out", str(tmp_path / "o")]) == 2
        assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_multilinear_holds(self, tmp_path):
        cfg = write_config(tmp_path, """
[curve]
kind = model
d = 2

[experiment]
supports = 0.05 0.3 0.65 0.95
lambda_min_exp = 5
lambda_max_exp = 7
box_r = 24
""")
        rc = cli.main(["multilinear", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "verdict = PASS" in (
            tmp_path / "o" / "multilinear_verdict.txt").read_text()

    def test_multilinear_model_curve_with_a_trailing_zero(self, tmp_path):
        # coeffs1 = 0 1 0 is the model curve; it was refused with exit 2
        # ("needs the model curve")
        cfg = write_config(tmp_path, MULTILINEAR.replace(
            "kind = model", "kind = poly\ncoeffs1 = 0 1 0\ncoeffs2 = 0 0 0.5").format(
                supports="0.05 0.3 0.65 0.95", box_r=24))
        assert cli.main(["multilinear", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "verdict = PASS" in (tmp_path / "o" / "multilinear_verdict.txt").read_text()

    def test_finitetype_report_only(self, tmp_path):
        cfg = write_config(tmp_path, """
[curve]
kind = poly
d = 2
coeffs1 = 0 0 1
coeffs2 = 0 0 0 1

[measure]
half = 4.0
resolution = 64
grading_levels = 5

[experiment]
p = 4
q = 8
alpha = 2.0
lambda_min_exp = 3
lambda_max_exp = 8
blocks = 3
fit_blocks = 3
""")
        rc = cli.main(["finitetype", cfg, "--out", str(tmp_path / "o"),
                       "--report-only"])
        assert rc == 0
        verdict = (tmp_path / "o" / "finitetype_verdict.txt").read_text()
        assert "block_rate" in verdict and "aggregate_slope" in verdict

    def test_measure_audit_passes(self, tmp_path):
        cfg = write_config(tmp_path, """
[measure]
kind = lebesgue
d = 2
half = 1.0
resolution = 48

[experiment]
seed = 0
""")
        rc = cli.main(["measure-audit", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        text = (tmp_path / "o" / "measure_audit_verdict.txt").read_text()
        assert "verdict = PASS" in text
        fields = dict(line.split(" = ") for line in text.splitlines())
        report = ms.regularity_audit(ms.make_lebesgue(2, (-1.0, 1.0), 48), seed=0)
        assert float(fields["floor"]) == report.floor > 0.0
        np.testing.assert_array_equal(
            [float(c) for c in fields["worst_center"].split()], report.worst_center)


# ---------------------------------------------------------------------------
# the error boundary: every rejected input is exit 2, every failed
# quadrature exit 3, and neither leaves an output directory
# ---------------------------------------------------------------------------


MODEL_D2 = "[curve]\nkind = model\nd = 2\n"
DECOMPOSE = MODEL_D2 + "[experiment]\nlambda = {lam}\ntargets = 2\ndegree = {degree}\nseed = 1\n"
MULTILINEAR = MODEL_D2 + """[experiment]
supports = {supports}
lambda_min_exp = 5
lambda_max_exp = 7
box_r = {box_r}
"""
AUDIT = "[measure]\n{measure}\n\n[experiment]\nseed = 0\n"
# `bench` is no subcommand since its timing harness went (the benchmark
# lives in bench/): with any config, flag or key it exits 2 without output
BENCH = MODEL_D2 + "[experiment]\nlambda = 64\ntargets = {targets}\nworkers = 1 2\nseed = 5\n"
GRADED = TestMeasureMismatch.BODY.format(measure=TestExponentKeys.MEASURE)


class TestErrorBoundary:
    """Inputs that used to escape `main` as a traceback (exit 1), six of
    them after making --out, and a box that used to pass."""

    @pytest.mark.parametrize("argv, body, code", [
        pytest.param(["region", "--d", "2", "--alpha", "3"], None, 2, id="region-alpha-3"),
        pytest.param(["region", "--d", "2", "--alpha", "0"], None, 2, id="region-alpha-0"),
        pytest.param(["multilinear"], MULTILINEAR.format(supports="abc 0.3 0.6 0.9", box_r=24),
                     2, id="multilinear-supports-abc"),
        pytest.param(["multilinear"], MULTILINEAR.format(supports="0.1 0.5 0.4 0.9", box_r=24),
                     2, id="multilinear-overlapping"),
        # box_r = 0 returned lhs 0 and exited 0 with verdict PASS
        pytest.param(["multilinear"], MULTILINEAR.format(supports="0.05 0.3 0.65 0.95",
                                                         box_r=0), 2, id="multilinear-box-0"),
        pytest.param(["measure-audit"], AUDIT.format(
            measure="kind = cantor\nd = 2\nratio = 0.7\ndepth = 3"), 2, id="cantor-ratio-0.7"),
        pytest.param(["measure-audit"], AUDIT.format(
            measure="kind = appendix_a\nd = 2\nalpha = 1.5\nj = 1"), 2, id="appendix-a-bracket"),
        pytest.param(["decompose"], DECOMPOSE.format(lam="nan", degree=4), 2,
                     id="decompose-lambda-nan"),
        pytest.param(["decompose"], DECOMPOSE.format(lam=32, degree=-3), 2,
                     id="decompose-degree-minus-3"),
        # the rule would need 2.1e9 nodes, over the engine's node budget
        pytest.param(["decompose"], DECOMPOSE.format(lam="1e8", degree=4), 3,
                     id="decompose-lambda-1e8"),
        pytest.param(["sharpness"], TestMeasureMismatch.BODY.format(
            measure="kind = lebesgue\nd = 2\nresolution = 1"), 2, id="sharpness-resolution-1"),
        pytest.param(["scaling"], GRADED.replace("resolution = 8", "resolution = 30"), 2,
                     id="graded-scaling-resolution-30"),
        pytest.param(["bench"], BENCH.format(targets=0), 2, id="bench-targets-0"),
    ])
    def test_exit_code_without_output(self, tmp_path, argv, body, code):
        if body is not None:
            argv = argv + [write_config(tmp_path, body)]
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == code
        assert not (tmp_path / "o").exists()

    def test_over_budget_quadrature_is_a_certification_failure(self, tmp_path):
        cfg = write_config(tmp_path, DECOMPOSE.format(lam="1e8", degree=4))
        assert cli.main(["decompose", cfg, "--out", str(tmp_path / "o"),
                         "--report-only"]) == 0
        assert not (tmp_path / "o").exists()

    def test_output_dir_is_made_at_its_first_write(self, tmp_path):
        out = cli.OutputDir(tmp_path / "a" / "b")
        assert not (tmp_path / "a").exists()
        out.log("first")
        assert (tmp_path / "a" / "b" / "run.log").exists()
        # a non-empty directory is still refused at once
        with pytest.raises(cli.ConfigError, match="not empty"):
            cli.OutputDir(tmp_path / "a" / "b")


def _set_key(body, key, value):
    """`body` with [section] name (key "section.name") set to `value`,
    repeated once per entry of a list key."""
    section, name = key.split(".")
    cfg = configparser.ConfigParser()
    cfg.read_string(body)
    n = len(cfg.get(section, name, fallback="x").split())
    cfg.set(section, name, " ".join([value] * n))
    buf = io.StringIO()
    cfg.write(buf)
    return buf.getvalue()


POLY_KEYS = ["curve.d", "curve.coeffs1", "curve.coeffs2"]
GRID_KEYS = ["measure.d", "measure.half", "measure.resolution", "measure.grading_levels"]
EXP_KEYS = ["experiment.p", "experiment.q", "experiment.alpha",
            "experiment.lambda_min_exp", "experiment.lambda_max_exp"]
# per subcommand, its smallest config above and every numeric key it reads,
# except multilinear's lambda_min_exp: at 0 and -1 it is a valid ladder that
# takes 2 s a run, and at NaN and +-infinity the same cast error as the others
SWEEP = {
    "scaling": (GRADED, POLY_KEYS + GRID_KEYS + EXP_KEYS + [
        "experiment.seed", "experiment.nodes_per_wavelength", "experiment.radius"]),
    "sharpness": (GRADED, POLY_KEYS + GRID_KEYS + EXP_KEYS + ["experiment.c"]),
    "finitetype": (GRADED, POLY_KEYS + GRID_KEYS + EXP_KEYS + [
        "experiment.tau", "experiment.blocks", "experiment.fit_blocks",
        "experiment.nodes_per_wavelength"]),
    "decompose": (DECOMPOSE.format(lam=32, degree=4), [
        "curve.d", "experiment.lambda", "experiment.targets", "experiment.radius",
        "experiment.degree", "experiment.seed", "experiment.scales"]),
    "multilinear": (MULTILINEAR.format(supports="0.05 0.3 0.65 0.95", box_r=24), [
        "curve.d", "experiment.supports", "experiment.lambda_max_exp",
        "experiment.box_r"]),
    "measure-audit": (AUDIT.format(measure="kind = lebesgue\nd = 2\nhalf = 1.0\n"
                                           "resolution = 48"),
                      GRID_KEYS + ["experiment.seed"]),
    "bench": (BENCH.format(targets=400), [
        "curve.d", "experiment.lambda", "experiment.targets", "experiment.workers",
        "experiment.seed"]),
}
EDGE_VALUES = ["nan", "inf", "-inf", "0", "-1"]


class TestEdgeValues:
    """Each subcommand with each numeric key or argument it reads set to
    NaN, +-infinity, 0 and -1: `main` returns 0, 2 or 3 and never raises,
    and an exit 2 makes no --out."""

    @staticmethod
    def _check(argv, out):
        rc = cli.main(argv + ["--out", str(out)])
        assert rc in (0, 2, 3)
        assert rc != 2 or not out.exists()

    @pytest.mark.parametrize("value", EDGE_VALUES)
    @pytest.mark.parametrize("command, key", [
        (command, key) for command, (_, keys) in SWEEP.items() for key in keys])
    def test_config_key(self, tmp_path, command, key, value):
        cfg = write_config(tmp_path, _set_key(SWEEP[command][0], key, value))
        self._check([command, cfg], tmp_path / "o")

    @pytest.mark.parametrize("value", EDGE_VALUES)
    @pytest.mark.parametrize("argv", [
        ["region", "--d", "{}", "--alpha", "2"], ["region", "--d", "2", "--alpha", "{}"],
        ["region", "--d", "2", "--alpha", "2", "--steps", "{}"],
        ["torsion", "{curve}", "--points", "{}"], ["torsion", "{curve}", "--t-min", "{}"],
        ["torsion", "{curve}", "--t-max", "{}"],
        ["decompose", "{decompose}", "--workers", "{}"],
        ["bench", "{bench}", "--workers", "{}"]],
        ids=lambda argv: f"{argv[0]} {argv[argv.index('{}') - 1]}")
    def test_argument(self, tmp_path, argv, value):
        files = dict(curve=write_config(tmp_path, model_curve(2).to_text(), "curve.txt"),
                     decompose=write_config(tmp_path, SWEEP["decompose"][0], "d.cfg"),
                     bench=write_config(tmp_path, SWEEP["bench"][0], "b.cfg"))
        self._check([a.format(value, **files) for a in argv], tmp_path / "o")


class TestInputGates:
    """Rejected inputs exit 2 with a message naming what was wrong, before
    --out is made."""

    @pytest.mark.parametrize("command, body, message", [
        # read "cannot convert float NaN to integer"
        *[pytest.param(command, _set_key(GRADED, "curve.coeffs1", "nan"),
                       "curve coefficients must be finite", id=f"{command}-coeffs1-nan")
          for command in ("scaling", "sharpness", "finitetype")],
        # read "no nonsingular frame at tau=0.0"
        pytest.param("finitetype", GRADED.replace("fit_blocks = 2", "fit_blocks = 2\ntau = nan"),
                     "tau and h must be finite, got tau=nan", id="finitetype-tau-nan"),
        pytest.param("multilinear", MULTILINEAR.format(supports="nan nan nan nan", box_r=24),
                     "test function ends must be finite", id="multilinear-supports-nan"),
        # lhs 0, bound 0, ratio inf and verdict PASS
        *[pytest.param("multilinear", MULTILINEAR.format(supports=supports, box_r=24),
                       "[experiment] supports must list lo < hi", id=f"multilinear-{name}")
          for name, supports in [("reversed", "0.9 0.6 0.3 0.1"), ("empty", "0.1 0.1 0.5 0.9")]],
        # the Plancherel bound's constant is the model curve's
        pytest.param("multilinear", MULTILINEAR.replace(
            "kind = model", "kind = poly\ncoeffs1 = 0 1\ncoeffs2 = 0 0 0 1").format(
                supports="0.05 0.3 0.65 0.95", box_r=24), "needs the model curve",
                     id="multilinear-poly-curve"),
        # an OverflowError traceback, exit 1
        pytest.param("multilinear", _set_key(_set_key(
            SWEEP["multilinear"][0], "experiment.lambda_min_exp", "-1074"),
            "experiment.lambda_max_exp", "-1074"),
                     "the Plancherel bound overflows at lambda=5e-324",
                     id="multilinear-lambda-5e-324"),
        # the grid path ignored the radius and exited 0
        pytest.param("scaling", GRADED.replace("seed = 0", "seed = 0\nradius = nan"),
                     "radius must be > 0, got nan", id="graded-scaling-radius-nan"),
        pytest.param("scaling", GRADED.replace("seed = 0", "seed = 0\nradius = 1"),
                     "radius must reach the grid's corners", id="graded-scaling-radius-1"),
        # read "cannot reshape array of size 0 ..."
        pytest.param("decompose", DECOMPOSE.format(lam=32, degree=4).replace(
            "targets = 2", "targets = 0"), "[experiment] targets must be >= 1, got 0",
                     id="decompose-targets-0"),
        # the Knapp rectangles were empty at every lambda
        *[pytest.param("sharpness", GRADED.replace("fit_blocks = 2", f"fit_blocks = 2\nc = {c}"),
                       f"c must be finite and > 0, got {c}", id=f"sharpness-c-{c}")
          for c in ("0.0", "-1.0", "nan")],
    ])
    def test_named_exit_2(self, tmp_path, capsys, command, body, message):
        cfg = write_config(tmp_path, body)
        assert cli.main([command, cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# the config is the run: no flag a subcommand ignores or that could change
# a result under an unchanged hash, and one writer of result files
# ---------------------------------------------------------------------------


COMMANDS = ["torsion", "region", *SWEEP]
# SWEEP's graded grid holds no atom of the smaller Knapp rectangles
SHARPNESS = TestMeasureMismatch.BODY.format(
    measure="kind = appendix_a\nd = 2\nalpha = 1.0\nj = 1\nresolution = 256")


def _smallest_run(tmp_path, command):
    """argv of a small run of `command` and the bytes its hash is of
    (None for region, whose hashed payload is its arguments)."""
    if command == "torsion":
        path = write_config(tmp_path, model_curve(2).to_text(), "curve.txt")
        return [command, path, "--points", "5"], Path(path).read_bytes()
    if command == "region":
        return [command, "--d", "2", "--alpha", "2", "--steps", "4"], None
    path = write_config(tmp_path, SHARPNESS if command == "sharpness"
                        else SWEEP[command][0])
    return [command, path], Path(path).read_bytes()


class TestConfigIsTheRun:
    @pytest.mark.parametrize("command, flag", [
        *[(command, "--seed") for command in COMMANDS],
        *[(command, "--workers") for command in COMMANDS if command != "decompose"]])
    def test_flag_rejected_without_output(self, tmp_path, command, flag):
        # each used to be accepted: --seed changed results under the same
        # hash, and --workers was ignored everywhere but decompose
        argv, _ = _smallest_run(tmp_path, command)
        assert cli.main(argv + [flag, "2", "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "bench"])
    def test_result_files(self, tmp_path, command):
        argv, source = _smallest_run(tmp_path, command)
        out = tmp_path / "o"
        rc = cli.main(argv + ["--out", str(out)])
        assert rc in (0, 3)
        stem = command.replace("-", "_")
        files = {"torsion": ["results.csv"], "region": ["results.csv"],
                 "measure-audit": ["verdict.txt"]}.get(
                     command, ["results.csv", "verdict.txt"])
        names = [f"{stem}_{name}" for name in files]
        extra = ["decompose_certificates.txt"] if command == "decompose" else []
        assert sorted(p.name for p in out.iterdir()) == sorted(names + extra + ["run.log"])
        firsts = {(out / name).read_text().splitlines()[0] for name in names}
        hashes = {line.replace("# config_hash=", "").replace("config_hash = ", "")
                  for line in firsts}
        assert len(hashes) == 1 and len(next(iter(hashes))) == 16
        if source is not None:
            assert hashes == {hashlib.sha256(source).hexdigest()[:16]}
        verdict = "FAIL" if rc == 3 else "PASS"
        if "verdict.txt" in files:
            last = (out / f"{stem}_verdict.txt").read_text().splitlines()[-1]
            assert last == f"verdict = {verdict}"
        assert (out / "run.log").read_text().endswith(f" {stem} verdict={verdict}\n")
