import importlib.resources as importlib_resources
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

    def test_require_nondegenerate_exit_3(self, tmp_path):
        deg = CurveSpec(d=2, coeffs=((0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 1.0)))
        cf = tmp_path / "curve.txt"
        cf.write_text(deg.to_text())
        rc = cli.main(["torsion", str(cf), "--out", str(tmp_path / "o"),
                       "--require-nondegenerate"])
        assert rc == 3


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

    @pytest.mark.slow
    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.SMALL_SCALING)
        for name in ("a", "b"):
            rc = cli.main(["scaling", cfg, "--out", str(tmp_path / name)])
            assert rc == 0
        a = (tmp_path / "a" / "scaling_results.csv").read_bytes()
        b = (tmp_path / "b" / "scaling_results.csv").read_bytes()
        assert a == b

    @pytest.mark.slow
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

    def test_bench_runs(self, tmp_path):
        cfg = write_config(tmp_path, """
[curve]
kind = model
d = 2

[experiment]
lambda = 64
targets = 400
workers = 1 2
seed = 5
""")
        rc = cli.main(["bench", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        verdict = (tmp_path / "o" / "bench_verdict.txt").read_text()
        assert "checksum" in verdict and "verdict = PASS" in verdict
        log = (tmp_path / "o" / "run.log").read_text()
        assert "speedup" in log
