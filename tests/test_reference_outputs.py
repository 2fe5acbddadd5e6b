"""Each benchmark workload's `run()` output at its full size still matches
the stored reference (reference_outputs.py), at every stored seed."""

import pytest

import reference_outputs

_, workloads = reference_outputs.import_bench()
REFERENCE = reference_outputs.load()


@pytest.mark.parametrize("seed", reference_outputs.SEEDS)
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_run_matches_the_stored_output(name, seed):
    out = workloads.WORKLOADS[name](seed).run()
    floats, _, _ = reference_outputs.check(f"{name}/{seed}", out, REFERENCE)
    assert floats > 0


def test_every_stored_result_is_checked():
    # the workloads here and criteria 8 (p = inf, 2) and 10 in test_acceptance
    keys = {f"{name}/{seed}" for name in workloads.WORKLOADS
            for seed in reference_outputs.SEEDS}
    keys |= {"criterion-8/p=inf", "criterion-8/p=2.0", "criterion-10"}
    assert set(REFERENCE) == keys
