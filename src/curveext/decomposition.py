"""Dyadic multilinear decomposition with checkable pointwise certificates.

After Bourgain and Guth, a certificate asserts one summed inequality at
each target x: |T f(x)| is at most, summed over the levels, a factor times
max_I |T f_I(x)|, plus a factor times the d-th root of the best product of
d pairwise-separated deepest-level terms.  The right-hand side has this
same form at every target; no branch is chosen per target.  Intervals of
one level are its length apart exactly when their indices differ by 2 or
more; the verifier rechecks that on exact rational endpoints.  The
interval tables come from one pass, and their telescoping check compares
two different quadrature rules (see interval_values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

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


def pairwise_separation(intervals):
    """Exact minimum pairwise distance of closed intervals."""
    best = None
    for a, b in combinations(intervals, 2):
        dist = a.distance(b)
        best = dist if best is None else min(best, dist)
    return best


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


def best_separated_tuple(values, size):
    """Max product over `size`-tuples of indices pairwise >= 2 apart.

    Exact dynamic program, one array pass per size: best[s][i] (s indices
    below i) is the running max from 0 of best[s - 1][max(i - 2, 0)] *
    values[i - 1], products formed left to right as np.prod forms them.
    Walking back, each size's first i reaching its best gives index i - 1:
    among equal products the lexicographically smallest tuple, since the
    best tuple below i only grows with i.  (None, 0.0) if none is positive.
    """
    vals = np.asarray(values, dtype=float)
    bests = [np.ones(vals.size + 1)]  # size 0: the empty tuple, product 1
    for _ in range(size):
        c = bests[-1][np.maximum(np.arange(vals.size) - 1, 0)] * vals
        bests.append(np.maximum.accumulate(np.concatenate(([0.0], c))))
    if not bests[-1][-1] > 0.0:
        return None, 0.0
    tup, i = [], vals.size
    for best in bests[:0:-1]:
        i = int(np.searchsorted(best[: i + 1], best[i]))
        tup.append(i - 1)
        i = max(i - 2, 0)
    return tuple(tup[::-1]), float(bests[-1][-1])


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
        segs = [
            f"lambda = {self.lam!r}",
            "target = " + " ".join(repr(v) for v in self.target),
            f"lhs = {self.lhs!r}",
            "tuple = " + ",".join(
                str(family.intervals(family.depth)[i])
                for i in self.tuple_indices),
            "single_terms = " + " ".join(repr(v) for v in self.single_terms),
            f"tuple_term = {self.tuple_term!r}",
            "constants = " + " ".join(repr(c) for c in self.constants),
            f"rhs = {self.rhs!r}",
            f"slack = {repr(self.rhs / self.lhs) if self.lhs > 0 else 'vacuous'}",
            f"verified = {int(self.verified)}",
        ]
        return "\n".join(segs) + "\n"


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


def _rhs_value(single_terms, tuple_term, factors, d):
    rhs = 0.0
    for fac, term in zip(factors[:-1], single_terms):
        rhs += fac * term
    rhs += factors[-1] * tuple_term ** (1.0 / d)
    return rhs


def decompose_batch(f, family, curve, lam, targets, workers=1):
    """Certificates for each target, sharing one interval-value table."""
    d = curve.d
    if family.depth != d - 1:
        raise ValueError("family depth must be d - 1")
    tables, full = interval_values(f, family, curve, lam, targets,
                                   workers=workers)
    abs_tables = {lv: np.abs(t) for lv, t in tables.items()}
    factors = certificate_factors(family, d)
    certs = []
    for col in range(full.shape[0]):
        lhs = float(np.abs(full[col]))
        single_terms = tuple(
            float(np.max(abs_tables[lv][:, col]))
            for lv in range(1, family.depth + 1)
        )
        tup, tup_val = best_separated_tuple(abs_tables[family.depth][:, col], d)
        rhs = _rhs_value(single_terms, tup_val, factors, d)
        vacuous = lhs == 0.0
        certs.append(DecompositionCertificate(
            lam=lam,
            target=tuple(float(v) for v in np.atleast_2d(targets)[col]),
            lhs=lhs,
            single_terms=single_terms,
            tuple_term=tup_val,
            tuple_indices=tup or (),
            constants=factors,
            rhs=rhs,
            verified=(vacuous or lhs <= rhs),
            vacuous=vacuous,
        ))
    return certs


def decompose(f, family, curve, lam, x):
    return decompose_batch(f, family, curve, lam, np.atleast_2d(x))[0]


def verify_certificate(cert, family, d):
    """Recheck a certificate: constants provenance plus the inequality.

    Returns (ok, slack).  Constants must equal the canonical factors for
    this family (a tampered or halved constant fails provenance even when
    the loose inequality would still hold), and the recorded rhs, verified
    and vacuous must equal what the recorded terms and the canonical
    constants give.  The measured values (lhs and the single and tuple
    terms) are trusted: only re-evaluating T f could check them.  slack is
    rhs/lhs, infinite for the vacuous zero-function case.
    """
    canonical = certificate_factors(family, d)
    if len(cert.constants) != len(canonical):
        return False, 0.0
    for got, want in zip(cert.constants, canonical):
        if not math.isclose(got, want, rel_tol=1e-12):
            return False, 0.0
    if cert.tuple_indices or cert.tuple_term > 0:
        # d deepest-level intervals, separation rechecked in exact
        # rational arithmetic
        a = family.lengths[-1]
        ivs = [DyadicInterval(i * a, (i + 1) * a)
               for i in cert.tuple_indices if 0 <= i < 1 / a]
        if (len(ivs) != d or len(cert.tuple_indices) != d
                or pairwise_separation(ivs) < a):
            return False, 0.0
    rhs = _rhs_value(cert.single_terms, cert.tuple_term, canonical, d)
    vacuous = cert.lhs == 0.0
    if (cert.rhs != rhs or cert.vacuous != vacuous
            or cert.verified != (vacuous or cert.lhs <= rhs)):
        return False, 0.0
    if vacuous:
        return True, math.inf
    return cert.lhs <= rhs, rhs / cert.lhs

