"""The benchmark's use of curveext still works: every name bench/tracing.py
wraps resolves, and each workload at its tiny size runs, passes its own
check and reaches a true verdict on every operation.

bench/ is only read: its modules are imported without writing bytecode.
"""

import pytest

import reference_outputs

tracing, workloads = reference_outputs.import_bench()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_runs_traced(name):
    with tracing.instrument(tracing.Recorder()):
        wl = workloads.WORKLOADS[name](7, "tiny")
        out = wl.run()
        assert wl.check(out) == set()
        verdicts = wl.verdicts(out)
    assert verdicts and all(verdicts.values())
