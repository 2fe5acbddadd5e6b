"""Dyadic multilinear decomposition with checkable pointwise certificates.

After Bourgain and Guth, a certificate asserts one summed inequality at
each target x: |T f(x)| is at most, summed over the levels, a factor times
max_I |T f_I(x)|, plus a factor times the d-th root of the best product of
d pairwise-separated deepest-level terms.  The right-hand side has this
same form at every target; no branch is chosen per target.  Intervals of
one level are its length apart exactly when their indices differ by 2 or
more; the verifier rechecks that on exact integer index gaps.  The
interval tables come from one pass, and their telescoping check compares
two different quadrature rules (see interval_values); one tuple search
serves every target of a batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import engine

TELESCOPE_TOL = 1e-8


def certificate_constant(d):
    """Canonical per-term constant: 100 times the 2^d summation overhead."""
    return 100.0 * 2.0 ** d


@dataclass(frozen=True)
class DyadicInterval:
    lo: Fraction
    hi: Fraction

    def distance(self, other):
        return max(Fraction(0), other.lo - self.hi, self.lo - other.hi)

    def __str__(self):
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class DyadicFamily:
    """Scales A_1 > A_2 > ... > A_{d-1}, each a power of 1/2 dividing the last."""

    lengths: tuple

    def __post_init__(self):
        try:
            lens = tuple(Fraction(v) for v in self.lengths)
        except (OverflowError, ZeroDivisionError):  # an infinite length, or 1/0
            raise ValueError(f"lengths must be finite numbers, got {self.lengths}") from None
        if not lens:
            raise ValueError("need at least one level")
        prev = Fraction(1)
        for a in lens:
            if a <= 0 or a >= prev:
                raise ValueError("lengths must be strictly decreasing below 1")
            if (prev / a).denominator != 1:
                raise ValueError("each length must divide the previous one")
            num = a
            while num < 1:
                num *= 2
            if num != 1:
                raise ValueError("lengths must be powers of 1/2")
            prev = a
        object.__setattr__(self, "lengths", lens)

    @classmethod
    def default(cls, d):
        return cls(tuple(Fraction(1, 2 ** (4 * i)) for i in range(1, d)))

    @property
    def depth(self):
        return len(self.lengths)

    def intervals(self, level):
        a = self.lengths[level - 1]
        n = int(1 / a)
        return [DyadicInterval(k * a, (k + 1) * a) for k in range(n)]


class TelescopingError(AssertionError):
    """Level sums fail to reproduce the full operator value."""


def interval_values(f, family, curve, lam, targets, workers=1):
    """T f_I (x) for every interval at every level and each target.

    Returns {level: complex array (n_intervals, n_targets)} plus the full
    values T f(x).  The finest level is one pass, each interval on the rule
    extension_eval builds for it alone; coarser levels sum their children.
    Every level's column sums are checked against the full values, which
    keep their own whole-support rule (partition additivity).
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    full = engine.extension_eval(curve, lam, targets, f, workers=workers)
    # k a is exact in floats: a is a power of 1/2
    a = float(family.lengths[-1])
    pieces = [engine.restrict(f, k * a, (k + 1) * a) for k in range(int(1 / a))]
    table = engine.extension_eval_pieces(curve, lam, targets, f, pieces,
                                         workers=workers)
    tables = {}
    for level in range(family.depth, 0, -1):
        n = int(1 / family.lengths[level - 1])
        table = table.reshape(n, table.shape[0] // n, targets.shape[0]).sum(axis=1)
        resid = float(np.max(np.abs(table.sum(axis=0) - full), initial=0.0))
        if resid > TELESCOPE_TOL:
            raise TelescopingError(
                f"level {level} telescoping residual {resid:.3e}"
            )
        tables[level] = table
    return dict(sorted(tables.items())), full


def best_separated_tuple(table, size):
    """Per column of `table` (intervals x targets), the max product over
    `size`-tuples of row indices pairwise >= 2 apart.

    Exact dynamic program, one array pass per size over every column:
    best[s][i] (s indices below i) is the running max from 0 of
    best[s - 1][max(i - 2, 0)] * table[i - 1], products formed left to right
    as np.prod forms them.  Walking back, each size's first i reaching its
    best gives index i - 1: among equal products the lexicographically
    smallest tuple, since the best tuple below i only grows with i.  One
    (tuple, product) per column, as Python ints and floats; (None, 0.0)
    where none is positive.
    """
    vals = np.asarray(table, dtype=float)
    n, m = vals.shape
    bests = [np.ones((n + 1, m))]  # size 0: the empty tuple, product 1
    for _ in range(size):
        c = bests[-1][np.maximum(np.arange(n) - 1, 0)] * vals
        bests.append(np.maximum.accumulate(np.vstack((np.zeros((1, m)), c))))
    tup, i = [], np.full(m, n)
    for best in bests[:0:-1]:
        # columns are nondecreasing: the first row reaching best[i] is the
        # number of rows below it
        i = np.sum(best < best[i, np.arange(m)], axis=0)
        tup.append(i - 1)
        i = np.maximum(i - 2, 0)
    return [(tuple(t[::-1]), p) if p > 0.0 else (None, 0.0)
            for t, p in zip(np.reshape(tup, (size, m)).T.tolist(), bests[-1][-1].tolist())]


@dataclass(frozen=True)
class DecompositionCertificate:
    """Per-target record of the summed inequality lhs <= rhs, where rhs is
    the constants times the single terms plus the last constant times the
    d-th root of the tuple term (_rhs_value), the same form at every
    target.  verified says whether the measured lhs meets it."""

    lam: float
    target: tuple
    lhs: float
    single_terms: tuple  # max |T f_I| per level 1..d-1
    tuple_term: float  # best separated d-tuple product at the deepest level
    tuple_indices: tuple
    constants: tuple  # per-level factors C * A_{i-1}^{-2(i-1)} and tuple factor
    rhs: float
    verified: bool
    vacuous: bool

    def to_text(self, family):
        a = family.lengths[-1]  # the tuple's intervals are [i a, (i + 1) a]
        segs = [
            f"lambda = {self.lam!r}",
            "target = " + " ".join(repr(v) for v in self.target),
            f"lhs = {self.lhs!r}",
            "tuple = " + ",".join(str(DyadicInterval(i * a, (i + 1) * a))
                                  for i in self.tuple_indices),
            "single_terms = " + " ".join(repr(v) for v in self.single_terms),
            f"tuple_term = {self.tuple_term!r}",
            "constants = " + " ".join(repr(c) for c in self.constants),
            f"rhs = {self.rhs!r}",
            f"slack = {repr(self.rhs / self.lhs) if self.lhs > 0 else 'vacuous'}",
            f"verified = {int(self.verified)}",
        ]
        return "\n".join(segs) + "\n"


@functools.lru_cache(maxsize=32)  # a few families per process
def certificate_factors(family, d):
    """The per-level constants of the asserted inequality, as printed."""
    c = certificate_constant(d)
    factors = []
    for i in range(1, family.depth + 1):
        a_prev = family.lengths[i - 2] if i >= 2 else Fraction(1)
        factors.append(c * float(a_prev) ** (-2 * (i - 1)))
    a_last = family.lengths[-1]
    factors.append(c * float(a_last) ** (-2 * family.depth))
    return tuple(factors)


def _rhs_value(single_terms, tuple_root, factors):
    """Constants times terms, summed in level order; the same operations on
    floats and, elementwise, on arrays of them."""
    rhs = 0.0
    for fac, term in zip(factors[:-1], single_terms):
        rhs += fac * term
    return rhs + factors[-1] * tuple_root


def decompose_batch(f, family, curve, lam, targets, workers=1):
    """Certificates for each target from one interval-value table, one tuple
    search and array passes for the terms and the inequality."""
    d = curve.d
    if family.depth != d - 1:
        raise ValueError("family depth must be d - 1")
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    tables, full = interval_values(f, family, curve, lam, targets,
                                   workers=workers)
    factors = certificate_factors(family, d)
    lhs = np.abs(full)
    singles = [np.max(np.abs(t), axis=0) for t in tables.values()]
    tuples = best_separated_tuple(np.abs(tables[family.depth]), d)
    # the d-th root on Python floats, as the verifier takes it
    rhs = _rhs_value(singles, np.array([p ** (1.0 / d) for _, p in tuples]), factors)
    vacuous = lhs == 0.0
    rows = zip(targets.tolist(), lhs.tolist(), np.transpose(singles).tolist(), tuples,
               rhs.tolist(), (vacuous | (lhs <= rhs)).tolist(), vacuous.tolist())
    return [DecompositionCertificate(
        lam=lam, target=tuple(x), lhs=lh, single_terms=tuple(st), tuple_term=p,
        tuple_indices=tup or (), constants=factors, rhs=r, verified=ok, vacuous=vac)
        for x, lh, st, (tup, p), r, ok, vac in rows]


def decompose(f, family, curve, lam, x):
    return decompose_batch(f, family, curve, lam, np.atleast_2d(x))[0]


def verify_certificate(cert, family, d):
    """Recheck a certificate: constants provenance plus the inequality.

    Returns (ok, slack).  Constants must equal the canonical factors for
    this family (a tampered or halved constant fails provenance even when
    the loose inequality would still hold).  The measured values (lhs, the
    d - 1 single terms and the tuple term) must be >= 0, and a tuple must
    name d deepest-level intervals by int index, pairwise separated: two
    intervals of one level are its length apart exactly when their indices
    differ by 2 or more, so separation is rechecked on exact integer index
    gaps.  The recorded rhs, verified and vacuous must equal what the
    recorded terms and the canonical constants give.  Beyond that the
    measured values are trusted: only re-evaluating T f could check them.
    slack is rhs/lhs, infinite for the vacuous zero-function case.
    """
    canonical = certificate_factors(family, d)
    if len(cert.constants) != len(canonical) or not all(
            math.isclose(got, want, rel_tol=1e-12)
            for got, want in zip(cert.constants, canonical)):
        return False, 0.0
    if len(cert.single_terms) != d - 1 or not all(
            v >= 0.0 for v in (cert.lhs, cert.tuple_term, *cert.single_terms)):
        return False, 0.0
    if cert.tuple_indices or cert.tuple_term > 0:
        idx = sorted(i for i in cert.tuple_indices if type(i) is int)  # no bool
        n = family.lengths[-1].denominator  # the length is 1/n
        if (len(idx) != d or len(cert.tuple_indices) != d or idx[0] < 0
                or idx[-1] >= n or any(j - i < 2 for i, j in zip(idx, idx[1:]))):
            return False, 0.0
    rhs = _rhs_value(cert.single_terms, cert.tuple_term ** (1.0 / d), canonical)
    vacuous = cert.lhs == 0.0
    if (cert.rhs != rhs or cert.vacuous != vacuous
            or cert.verified != (vacuous or cert.lhs <= rhs)):
        return False, 0.0
    if vacuous:
        return True, math.inf
    return cert.lhs <= rhs, rhs / cert.lhs
