"""The benchmark's use of curveext still works: every name bench/tracing.py
wraps resolves, and each workload at its tiny size runs, passes its own
check and reaches a true verdict on every operation.

bench/ is only read: its modules are imported without writing bytecode.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _import_bench():
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import tracing
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    return tracing, workloads


tracing, workloads = _import_bench()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_runs_traced(name):
    with tracing.instrument(tracing.Recorder()):
        wl = workloads.WORKLOADS[name](7, "tiny")
        out = wl.run()
        assert wl.check(out) == set()
        verdicts = wl.verdicts(out)
    assert verdicts and all(verdicts.values())
