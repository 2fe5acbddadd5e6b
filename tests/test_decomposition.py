import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from curveext import decomposition as dc
from curveext import engine as eng
from curveext.curves import model_curve


# ---------------------------------------------------------------------------
# dyadic families and exact intervals
# ---------------------------------------------------------------------------


def test_family_default_scales():
    fam = dc.DyadicFamily.default(3)
    assert fam.lengths == (Fraction(1, 16), Fraction(1, 256))
    assert len(fam.intervals(1)) == 16
    assert len(fam.intervals(2)) == 256


def test_family_validation():
    with pytest.raises(ValueError):
        dc.DyadicFamily((Fraction(1, 3),))
    with pytest.raises(ValueError):
        dc.DyadicFamily((Fraction(1, 4), Fraction(1, 2)))
    with pytest.raises(ValueError):
        dc.DyadicFamily(())


def test_intervals_tile_unit_interval():
    fam = dc.DyadicFamily.default(2)
    ivs = fam.intervals(1)
    assert ivs[0].lo == 0 and ivs[-1].hi == 1
    for a, b in zip(ivs[:-1], ivs[1:]):
        assert a.hi == b.lo


def test_exact_distance():
    a = dc.DyadicInterval(Fraction(0), Fraction(1, 16))
    b = dc.DyadicInterval(Fraction(3, 16), Fraction(4, 16))
    assert a.distance(b) == Fraction(2, 16)
    assert a.distance(a) == 0


# ---------------------------------------------------------------------------
# interval values / telescoping
# ---------------------------------------------------------------------------


def test_interval_values_telescope():
    g = model_curve(2)
    fam = dc.DyadicFamily.default(2)
    f = eng.trig_poly(9, degree=12)
    x = np.array([[0.5, -1.0], [2.0, 1.0]])
    tables, full = dc.interval_values(f, fam, g, 64.0, x)
    np.testing.assert_allclose(tables[1].sum(axis=0), full, atol=1e-8)


def test_interval_values_zero_phase():
    g = model_curve(2)
    fam = dc.DyadicFamily.default(2)
    f = eng.indicator(0.0, 1.0)
    tables, full = dc.interval_values(f, fam, g, 32.0, np.zeros((1, 2)))
    np.testing.assert_allclose(tables[1][:, 0], 1.0 / 16.0, atol=1e-10)


def _per_interval(f, fam, g, lam, x, level):
    return np.stack([
        eng.extension_eval(g, lam, x, eng.restrict(f, float(iv.lo), float(iv.hi)))
        for iv in fam.intervals(level)])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("f", [eng.trig_poly(41, degree=12),
                               eng.indicator(0.1, 0.83)])
def test_interval_values_match_per_interval_calls(d, f):
    g = model_curve(d)
    fam = dc.DyadicFamily((Fraction(1, 8), Fraction(1, 64))[: d - 1])
    x = np.random.default_rng(d).uniform(-2.0, 2.0, (30, d))
    tables, full = dc.interval_values(f, fam, g, 32.0, x)
    assert full.tobytes() == eng.extension_eval(g, 32.0, x, f).tobytes()
    finest = _per_interval(f, fam, g, 32.0, x, fam.depth)
    assert tables[fam.depth].tobytes() == finest.tobytes()
    # coarser levels sum their children: another rule than a per-interval call
    for level in range(1, fam.depth):
        np.testing.assert_allclose(tables[level], _per_interval(f, fam, g, 32.0, x, level),
                                   rtol=0, atol=1e-15)


def test_interval_values_bump_pieces_are_restrictions():
    # restrict() keeps the bump's profile, so each piece is f 1_I and
    # the level-1 pieces add up to T f
    g = model_curve(2)
    x = np.array([[0.5, 1.0], [1.0, -0.5]])
    f = eng.bump(0.0, 1.0)
    fam = dc.DyadicFamily.default(2)
    tables, full = dc.interval_values(f, fam, g, 16.0, x)
    np.testing.assert_allclose(tables[1].sum(axis=0), full, rtol=0, atol=1e-8)
    assert tables[fam.depth].tobytes() == _per_interval(f, fam, g, 16.0, x, fam.depth).tobytes()


def test_interval_values_worker_count_byte_identical():
    g = model_curve(3)
    fam = dc.DyadicFamily.default(3)
    f = eng.trig_poly(12, degree=8)
    # more targets than one block, so the pool gets several blocks per piece
    x = np.random.default_rng(5).uniform(-2.0, 2.0, (eng.TARGET_BLOCK + 44, 3))
    t1, full1 = dc.interval_values(f, fam, g, 16.0, x, workers=1)
    t2, full2 = dc.interval_values(f, fam, g, 16.0, x, workers=2)
    assert full1.tobytes() == full2.tobytes()
    assert list(t1) == list(t2) == [1, 2]
    for level in t1:
        assert t1[level].tobytes() == t2[level].tobytes()


def test_interval_values_self_check_raises_on_starved_budget(monkeypatch):
    # the whole-support rule keeps its budget; only the pieces' rules starve
    build_rules = eng.build_rules

    def starved(pieces, omega, nodes_per_wavelength, *args):
        narrow = max(p.width for p in pieces) < 1.0
        return build_rules(pieces, omega, 0.5 if narrow else nodes_per_wavelength,
                           *args)

    monkeypatch.setattr(eng, "build_rules", starved)
    with pytest.raises(eng.QuadratureBudgetError):
        dc.interval_values(eng.indicator(0.0, 1.0), dc.DyadicFamily.default(2),
                           model_curve(2), 512.0, np.array([[3.0, 2.0]]))


def _tuple_oracle(values, size):
    """First strict maximum over all index tuples, with exact interval
    separation: the unpruned enumeration the search must reproduce."""
    n = len(values)
    ivs = [dc.DyadicInterval(Fraction(k, n), Fraction(k + 1, n)) for k in range(n)]
    far = {(a, b) for a, b in combinations(range(n), 2)
           if ivs[a].distance(ivs[b]) >= Fraction(1, n)}
    best, best_tuple = 0.0, None
    for c in combinations(range(n), size):
        if all(pair in far for pair in combinations(c, 2)):
            prod = float(np.prod(values[list(c)]))
            if prod > best:
                best, best_tuple = prod, c
    return best_tuple, best


def _tuple_table(rng, n):
    """A table of n intervals with one column per kind of draw (random,
    ties, half zero, constant) and a zero column: (kinds, table)."""
    cols = {
        "random": rng.uniform(0, 1, n),
        "ties": rng.integers(0, 4, n).astype(float),
        "half_zero": rng.uniform(0, 1, n) * (rng.uniform(size=n) < 0.5),
        "constant": np.full(n, rng.uniform(0, 2)),
        "zero": np.zeros(n),
    }
    return list(cols), np.column_stack(list(cols.values()))


def test_best_separated_tuple_matches_brute_force():
    # each column of one table as the oracle finds it for that column
    # alone, and as the search finds it in a table of that column only
    rng = np.random.default_rng(4)
    for size in (2, 3):
        for n in range(1, 41):
            kinds, table = _tuple_table(rng, n)
            got = dc.best_separated_tuple(table, size)
            assert len(got) == len(kinds)
            for c, kind in enumerate(kinds):
                assert got[c] == _tuple_oracle(table[:, c], size), (kind, size, n)
                assert [got[c]] == dc.best_separated_tuple(table[:, [c]], size)


def _tuple_dp(values, size):
    """The per-index dynamic program the array search replaced: best[s][i]
    is best[s][i - 1] or best[s - 1][i - 2] extended by i - 1, equal
    products keeping the lexicographically smaller tuple."""
    vals = [float(v) for v in values]
    prev = [(1.0, ())] * (len(vals) + 1)
    for _ in range(size):
        cur = [(0.0, None)]
        for i, v in enumerate(vals, 1):
            p, tup = prev[max(i - 2, 0)]
            prod, best = p * v, cur[-1]
            if prod > best[0] or (prod == best[0] > 0
                                  and tup + (i - 1,) < best[1]):
                best = (prod, tup + (i - 1,))
            cur.append(best)
        prev = cur
    return prev[-1][::-1]


def test_best_separated_tuple_matches_index_dp():
    # bit-equal products and the same tuple per column, up to the 256
    # finest intervals of the default d = 3 family, ties and zeros included
    sizes_n = list(range(0, 41)) + [63, 64, 100, 127, 128, 200, 255, 256]
    rng = np.random.default_rng(9)
    for size in (2, 3):
        for n in sizes_n:
            kinds, table = _tuple_table(rng, n)
            for kind, got, col in zip(kinds, dc.best_separated_tuple(table, size), table.T):
                assert got == _tuple_dp(col, size), (kind, size, n)
                assert got[0] is None or all(type(i) is int for i in got[0])
                assert type(got[1]) is float
        assert dc.best_separated_tuple(np.zeros((n, 0)), size) == []


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_decompose_d2_certificates_verify():
    g = model_curve(2)
    fam = dc.DyadicFamily.default(2)
    f = eng.trig_poly(21, degree=24)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-3, 3, size=(40, 2))
    certs = dc.decompose_batch(f, fam, g, 128.0, xs)
    for cert in certs:
        ok, slack = dc.verify_certificate(cert, fam, 2)
        assert ok
        assert slack >= 1.0


def test_decompose_d3_certificates_verify():
    g = model_curve(3)
    fam = dc.DyadicFamily((Fraction(1, 8), Fraction(1, 64)))
    f = eng.trig_poly(22, degree=16)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-2, 2, size=(20, 3))
    certs = dc.decompose_batch(f, fam, g, 64.0, xs)
    for cert in certs:
        ok, slack = dc.verify_certificate(cert, fam, 3)
        assert ok


def test_decompose_zero_function_vacuous():
    g = model_curve(2)
    fam = dc.DyadicFamily.default(2)
    cert = dc.decompose(eng.zero_function(), fam, g, 64.0, [1.0, 1.0])
    assert cert.vacuous
    ok, slack = dc.verify_certificate(cert, fam, 2)
    assert ok and slack == math.inf


@pytest.mark.parametrize("d, fam", [
    (2, dc.DyadicFamily.default(2)),
    (3, dc.DyadicFamily((Fraction(1, 8), Fraction(1, 64))))])
def test_decompose_batch_no_targets(d, fam):
    # raised "cannot reshape array of size 0 into shape (16,newaxis,0)",
    # where extension_eval returns no values
    assert dc.decompose_batch(eng.trig_poly(3, degree=8), fam, model_curve(d),
                              32.0, np.zeros((0, d))) == []


def test_decompose_concentrated_support_single_branch():
    g = model_curve(2)
    fam = dc.DyadicFamily.default(2)
    f = eng.indicator(0.5, 0.5 + 1.0 / 16.0)
    cert = dc.decompose(f, fam, g, 64.0, [0.01, 0.01])
    ok, _ = dc.verify_certificate(cert, fam, 2)
    assert ok


def test_verify_detects_halved_constant():
    from dataclasses import replace

    g = model_curve(2)
    fam = dc.DyadicFamily.default(2)
    f = eng.trig_poly(33, degree=24)
    cert = dc.decompose(f, fam, g, 128.0, [1.5, -0.5])
    tampered = replace(cert, constants=tuple(c / 2 for c in cert.constants))
    ok, _ = dc.verify_certificate(tampered, fam, 2)
    assert not ok


def test_verify_detects_broken_separation():
    from dataclasses import replace

    g = model_curve(2)
    fam = dc.DyadicFamily.default(2)
    f = eng.trig_poly(34, degree=24)
    cert = dc.decompose(f, fam, g, 128.0, [1.5, -0.5])
    assert cert.tuple_indices
    bad = replace(cert, tuple_indices=(0, 1))
    ok, _ = dc.verify_certificate(bad, fam, 2)
    assert not ok


@pytest.mark.parametrize("tup", [(0, 1), (8,), (), (-1, 8), (8, 16)])
def test_verify_checks_tuple_on_single_branch(tup):
    # the tuple term enters every certificate's rhs, so one with an
    # adjacent, short, missing or out-of-range tuple must fail
    from dataclasses import replace

    fam = dc.DyadicFamily.default(2)
    cert = dc.decompose(eng.trig_poly(34, degree=24), fam, model_curve(2),
                        128.0, [1.5, -0.5])
    assert cert.tuple_indices == (8, 14)
    assert cert.tuple_term > 0 and dc.verify_certificate(cert, fam, 2)[0]
    ok, _ = dc.verify_certificate(replace(cert, tuple_indices=tup), fam, 2)
    assert not ok


@pytest.mark.parametrize("change", [
    dict(tuple_term=1e6),
    dict(single_terms=(1.0,), tuple_indices=(), tuple_term=0.0),
    dict(rhs=1e6),
    dict(verified=False),
    dict(vacuous=True),
], ids=["tuple_term", "single_terms", "rhs", "verified", "vacuous"])
def test_verify_rechecks_derived_fields(change):
    # rhs, verified and vacuous must be what the recorded terms and the
    # canonical constants give
    from dataclasses import replace

    fam = dc.DyadicFamily.default(2)
    cert = dc.decompose(eng.trig_poly(34, degree=24), fam, model_curve(2),
                        128.0, [1.5, -0.5])
    assert dc.verify_certificate(cert, fam, 2)[0]
    ok, _ = dc.verify_certificate(replace(cert, **change), fam, 2)
    assert not ok


def test_decompose_batch_runs_one_tuple_search(monkeypatch):
    calls = []
    search = dc.best_separated_tuple

    def counting(table, size):
        calls.append(np.shape(table))
        return search(table, size)

    monkeypatch.setattr(dc, "best_separated_tuple", counting)
    xs = np.random.default_rng(3).uniform(-2, 2, size=(40, 3))
    certs = dc.decompose_batch(eng.trig_poly(36, degree=12), dc.DyadicFamily.default(3),
                               model_curve(3), 32.0, xs)
    assert len(certs) == 40 and calls == [(256, 40)]


def _with_rhs(cert, d, **change):
    """cert with `change` and the rhs, verified and vacuous it implies,
    summed as the certificate text is rechecked."""
    cert = replace(cert, **change)
    rhs = 0.0
    for fac, term in zip(cert.constants[:-1], cert.single_terms):
        rhs += fac * term
    rhs += cert.constants[-1] * cert.tuple_term ** (1.0 / d)
    vacuous = cert.lhs == 0.0
    return replace(cert, rhs=rhs, vacuous=vacuous, verified=vacuous or cert.lhs <= rhs)


@pytest.mark.parametrize("change", [
    dict(tuple_indices=(7, 15.5)), dict(tuple_indices=(7.5, 15)),
    dict(tuple_indices=(True, 3)), dict(tuple_indices=(0, 15.9)),
    dict(tuple_indices=(np.int64(7), 15)), dict(lhs=-1.0), dict(single_terms=(-5.0,)),
    dict(single_terms=(1.0, 2.0)),
], ids=["float-index", "float-first-index", "bool-index", "index-15.9", "numpy-index",
        "negative-lhs", "negative-term", "extra-term"])
def test_verify_rejects_unnamed_interval_or_negative_term(change):
    # each of these verified: a tuple index that names no interval (to_text
    # raised TypeError on 15.5), and negative terms with rhs made to match
    fam = dc.DyadicFamily.default(2)
    cert = dc.decompose(eng.trig_poly(33, degree=24), fam, model_curve(2), 128.0,
                        [1.5, -0.5])
    assert cert.tuple_indices == (7, 15) and dc.verify_certificate(cert, fam, 2)[0]
    assert dc.verify_certificate(_with_rhs(cert, 2), fam, 2) == dc.verify_certificate(cert, fam, 2)
    assert dc.verify_certificate(_with_rhs(cert, 2, **change), fam, 2) == (False, 0.0)


def test_total_constant_monotone_in_scale():
    coarse = dc.DyadicFamily((Fraction(1, 4),))
    fine = dc.DyadicFamily((Fraction(1, 64),))
    assert (sum(dc.certificate_factors(coarse, 2))
            <= sum(dc.certificate_factors(fine, 2)))


def test_certificate_text_export():
    g = model_curve(2)
    fam = dc.DyadicFamily.default(2)
    cert = dc.decompose(eng.indicator(0.0, 1.0), fam, g, 32.0, [0.5, 0.5])
    keys = [line.split(" = ", 1)[0] for line in cert.to_text(fam).splitlines()]
    assert keys == ["lambda", "target", "lhs", "tuple", "single_terms",
                    "tuple_term", "constants", "rhs", "slack", "verified"]


@pytest.mark.parametrize("d", [2, 3])
def test_certificate_text_rechecks_rhs(d):
    # rhs = sum of constants times terms, from the printed text alone, in
    # the order _rhs_value sums them
    fam = dc.DyadicFamily.default(d)
    xs = np.random.default_rng(2).uniform(-2, 2, size=(4, d))
    certs = dc.decompose_batch(eng.trig_poly(35, degree=16), fam,
                               model_curve(d), 64.0, xs)
    for cert in certs:
        fields = dict(line.split(" = ", 1)
                      for line in cert.to_text(fam).splitlines())
        consts = [float(v) for v in fields["constants"].split()]
        singles = [float(v) for v in fields["single_terms"].split()]
        rhs = 0.0
        for fac, term in zip(consts[:-1], singles):
            rhs += fac * term
        rhs += consts[-1] * float(fields["tuple_term"]) ** (1.0 / d)
        assert len(singles) == d - 1 and rhs == float(fields["rhs"])


def test_certificate_text_builds_tuple_intervals_from_their_indices(monkeypatch):
    # listing every deepest-level interval once per tuple index cost 2.6 ms
    # a d = 3 text, against 7 us to verify the certificate
    fam = dc.DyadicFamily.default(3)
    xs = np.random.default_rng(2).uniform(-2, 2, size=(4, 3))
    certs = dc.decompose_batch(eng.trig_poly(35, degree=16), fam,
                               model_curve(3), 64.0, xs)
    deepest = fam.intervals(fam.depth)
    intervals, calls = dc.DyadicFamily.intervals, []

    def counting(self, level):
        calls.append(level)
        return intervals(self, level)

    monkeypatch.setattr(dc.DyadicFamily, "intervals", counting)
    for cert in certs:
        assert len(cert.tuple_indices) == 3
        want = ",".join(str(deepest[i]) for i in cert.tuple_indices)
        assert f"\ntuple = {want}\n" in cert.to_text(fam)
    assert calls == []
