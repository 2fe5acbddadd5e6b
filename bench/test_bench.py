"""Self-tests of the benchmark harness (tiny workload sizes).

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def test_benchmark_json_matches_harness():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == NAMES
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in doc[key]] == table


def _values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(name, trace):
    result, _, _ = run.measure(name, 3, 0.1, trace, size="tiny")
    table = tracing.PER_LAYER if trace else run.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m: u for m, u, _ in table}
    assert all(math.isfinite(v) for v in _values(result).values())


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_and_self_times_add_up(name):
    runs = [_values(run.measure(name, 5, 0.1, 1, size="tiny")[0]) for _ in range(2)]
    counted = [m for m, u, _ in tracing.PER_LAYER if u in ("count", "GFLOP")]
    assert {m: runs[0][m] for m in counted} == {m: runs[1][m] for m in counted}
    for r in runs:
        total = sum(r[m] for m in tracing.SELF_TIME_METRICS) + r["trace.remainder_s"]
        assert total == pytest.approx(r["trace.wall_s"], rel=1e-9, abs=1e-9)
    if name == "graded-scaling":
        assert runs[0]["curves.affine_weight.calls"] == 0


def test_instrument_restores_every_name():
    from curveext import engine, lab

    before = (engine.extension_eval, lab.extension_eval, engine.affine_weight,
              lab.GradedGrid.extension_lq, engine.TestFunction.lp_norm)
    rec = tracing.Recorder()
    with tracing.instrument(rec):
        assert lab.extension_eval is engine.extension_eval is not before[0]
        assert engine.affine_weight is not before[2]
    after = (engine.extension_eval, lab.extension_eval, engine.affine_weight,
             lab.GradedGrid.extension_lq, engine.TestFunction.lp_norm)
    assert after == before


def _perturbed(name, out):
    """The output with one checked sample value moved by 1e-3."""
    if name == "graded-scaling":
        return replace(out, sup_norms=(out.sup_norms[0] * (1 + 1e-3),) + out.sup_norms[1:])
    if name == "finite-type":
        reports = list(out[0])
        top = reports[-1]
        reports[-1] = replace(top, block_norms=(top.block_norms[0] + 1e-3,)
                              + top.block_norms[1:])
        return (tuple(reports),) + tuple(out[1:])
    if name == "fractal-scattered":
        serial = out.serial.copy()
        serial[0] += 1e-3
        return replace(out, serial=serial)
    certs, verified, rejected = out
    first = list(certs[0])
    first[0] = replace(first[0], lhs=first[0].lhs + 1e-3)
    return [first] + certs[1:], verified, rejected


@pytest.mark.parametrize("name", NAMES)
def test_perturbed_sample_value_counts_as_failed(name):
    wl = workloads.WORKLOADS[name](7, "tiny")
    out = wl.run()
    assert wl.check(out) == set()
    bad = _perturbed(name, out)
    flagged = wl.check(bad)
    assert flagged
    attempted, failed = run.judge(wl, [bad])
    assert attempted == len(wl.op_ids)
    assert failed >= len(flagged)
