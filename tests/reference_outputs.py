"""Stored outputs that a change to the numerics must leave in place.

reference_outputs.txt holds the `run()` output of each benchmark workload
(bench/workloads.py) at its full size and at the seeds in SEEDS, and the
reports of acceptance criteria 8 and 10.  Each result starts with a line
`# <key>` and has one line per leaf:

    <path> <kind> <text>

with kind b (bool), i (int), s (str, by repr), n (None), f (floats) or c
(complex numbers, real and imaginary part); every float is stored by
float.hex, and a sequence of floats or of complex numbers (an array's
entries among them) is one leaf.  `check` matches paths, kinds, labels,
verdicts and integers exactly, and floats within RTOL of the largest
magnitude in their leaf; it counts the floats that are bit-identical.

After a change that moves a stored value on purpose, rewrite the file from
the repository root with

    python tests/reference_outputs.py

and list the old and new values of what moved.  bench/ is only read: its
modules are imported without writing bytecode.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "bench"
REFERENCE = Path(__file__).with_suffix(".txt")
RTOL = 1e-13
SEEDS = (41, 7)


def import_bench():
    """bench/tracing.py and bench/workloads.py, imported read-only."""
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


def flatten(obj, path="out"):
    """(path, kind, text) for every leaf of a result: dataclass fields by
    name, sequence items by [i], an array by its shape and its entries."""
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from flatten(getattr(obj, field.name), f"{path}.{field.name}")
    elif isinstance(obj, np.ndarray):
        yield f"{path}.shape", "s", repr(obj.shape)
        yield from flatten(obj.ravel().tolist(), path)
    elif isinstance(obj, (tuple, list)):
        if not obj:
            yield path, "s", repr(obj)
        elif all(type(item) is float for item in obj):
            yield path, "f", " ".join(item.hex() for item in obj)
        elif all(type(item) is complex for item in obj):
            yield path, "c", " ".join(f"{z.real.hex()} {z.imag.hex()}" for z in obj)
        else:
            for i, item in enumerate(obj):
                yield from flatten(item, f"{path}[{i}]")
    elif isinstance(obj, np.generic):
        yield from flatten(obj.item(), path)
    elif isinstance(obj, (float, complex)):
        yield from flatten([obj], path)
    elif obj is None or isinstance(obj, (bool, int, str)):
        yield path, type(obj).__name__[0], repr(obj)
    else:
        raise TypeError(f"{path}: no stored form for {type(obj).__name__}")


def _numbers(kind, text):
    values = np.array([float.fromhex(v) for v in text.split()])
    return values if kind == "f" else values[0::2] + 1j * values[1::2]


def load():
    """{key: [(path, kind, text), ...]} from the stored file."""
    ref = {}
    for line in REFERENCE.read_text().splitlines():
        if line.startswith("# "):
            leaves = ref[line[2:]] = []
        else:
            leaves.append(tuple(line.split(" ", 2)))
    return ref


def check(key, obj, ref=None):
    """Compare a result with its stored leaves; print and return the number
    of floats, how many are bit-identical and the largest relative move.
    Raises AssertionError naming the first leaves that differ."""
    stored = (ref or load())[key]
    got = list(flatten(obj))
    assert [leaf[:2] for leaf in got] == [leaf[:2] for leaf in stored], \
        f"{key}: the result's layout differs from the stored one"
    floats = same = 0
    worst, bad = 0.0, []
    for (path, kind, text), (_, _, new) in zip(stored, got):
        if kind not in "fc":
            if new != text:
                bad.append(f"{path}: {new} != {text}")
            continue
        floats += len(text.split())
        same += sum(a == b for a, b in zip(text.split(), new.split()))
        a, b = _numbers(kind, text), _numbers(kind, new)
        if np.array_equal(a, b, equal_nan=True):
            continue
        with np.errstate(invalid="ignore"):
            move = float(np.max(np.abs(a - b))) / max(np.max(np.abs(a)), np.max(np.abs(b)))
        worst = max(worst, move)
        if not move <= RTOL:  # NaN and infinite values too
            bad.append(f"{path}: relative move {move:.3g}")
    print(f"[reference] {key}: {same} of {floats} floats bit-identical, "
          f"largest relative move {worst:.3g}")
    assert not bad, f"{key}: {len(bad)} stored values moved: " + "; ".join(bad[:5])
    return floats, same, worst


def workload_outputs(workloads):
    """{key: run() output} for every workload at its full size and each seed."""
    return {f"{name}/{seed}": cls(seed).run()
            for name, cls in workloads.WORKLOADS.items() for seed in SEEDS}


def main():
    sys.path.insert(0, str(REPO / "src"))
    import test_acceptance  # this script's folder is on the path

    outputs = workload_outputs(import_bench()[1])
    outputs.update(test_acceptance.stored_reports())
    lines = []
    for key, obj in outputs.items():
        lines.append(f"# {key}")
        lines.extend(" ".join(leaf) for leaf in flatten(obj))
    REFERENCE.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(outputs)} results to {REFERENCE}")


if __name__ == "__main__":
    main()
