"""Self-contained cross-verification of the whole artifact.

Every identity ties two independently implemented routes together: class
sizes from the breadth-first enumerator against the closed forms, parameter
censuses from the classifier against the refined counts, and power-series
coefficients against the summation formulas.  No network, no external data.

This module is the one place the cross-checks are written; the CLI's
``verify`` command and the acceptance suite both run them.  Each family's
range is one rule of the two scale parameters ``n_max`` and ``degree``
(weights r <= s unless stated):

- ``class-size-atilde-r-s``, ``parameter-census-r-s``, ``partition-r-s``:
  r + s <= n_max
- ``class-size-dynkin-d-n``: 4 <= n <= n_max
- ``symmetric-census-r``: r <= n_max // 2, each r2 cell and the total
- ``marginalization-r-s``: r, s <= n_max - 2, in either order
- ``series-*``: the six series identities at truncation degree ``degree``

Enumerated classes and classifier censuses are memoised for the life of
the process, so a class is enumerated and classified once however many
checks and callers read it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, partial

from quivercount import counting
from quivercount.classify import classify, is_symmetric
from quivercount.mutation_class import enumerate_class, seed_cycle, seed_dynkin_d
from quivercount.series import (
    TruncatedSeries,
    atilde_series,
    b_series,
    b_series_at_unit,
    log_one_over_one_minus,
    solve_a_point,
)

# Below these some family checks nothing: (1, 1) is the smallest annular
# class, and the grid's first type D coefficient [q^3] needs 3 + 3 // 2.
MIN_N_MAX = 2
MIN_DEGREE = 4

# What a failing check raises: a broken identity, or an integrality gate of
# ``counting`` firing on a count that is not a whole number.
CHECK_FAILURES = (AssertionError, ArithmeticError)


def _require(cond, msg=""):
    """Fail a check; unlike ``assert``, this still runs under ``python -O``."""
    if not cond:
        raise AssertionError(msg)


@cache
def cycle_class(r: int, s: int):
    """The enumerated class of the (r, s) cycle; shared, so never modify it."""
    return enumerate_class(seed_cycle(r, s))


@cache
def dynkin_class(n: int):
    """The enumerated type D class of rank ``n``, memoised like :func:`cycle_class`."""
    return enumerate_class(seed_dynkin_d(n))


@cache
def _census(r: int, s: int):
    """Classifier sweep over the (r, s) class: the census of first
    realizations, of both realizations (one for a symmetric member), and
    of symmetric members by 3-cycles per side."""
    params = Counter()
    realizations = Counter()
    symmetric = Counter()
    for q in cycle_class(r, s).representatives():
        st = classify(q)
        _require(st is not None, "class member fell outside the annular family")
        params[st.realization_1.as_tuple()] += 1
        realizations[st.realization_1.as_tuple()] += 1
        if is_symmetric(st):
            symmetric[st.realization_1.r2] += 1
        else:
            realizations[st.realization_2.as_tuple()] += 1
    return params, realizations, symmetric


def _splits(r, s):
    """Normalized parameter quadruples (r1, r2, s1, s2) of weights (r, s)."""
    return {
        counting.normalize_parameters(r1, r2, t1, t2)
        for r1, r2 in counting.parameter_splits(r)
        for t1, t2 in counting.parameter_splits(s)
    }


def _class_sizes(r, s):
    got = cycle_class(r, s).size
    expected = counting.a_tilde(r, s)
    _require(got == expected, f"enumerated {got}, formula says {expected}")


def _dynkin_size(n):
    got = dynkin_class(n).size
    expected = counting.d_n_count(n)
    _require(got == expected, f"enumerated {got}, formula says {expected}")


def _parameter_census(r, s):
    params, realizations, _ = _census(r, s)

    splits = _splits(r, s)
    _require(set(params) <= splits, f"unexpected parameters {set(params) - splits}")
    for split in sorted(splits):
        expected = counting.derived_class_count(*split)
        got = params.get(split, 0)
        _require(got == expected, f"split {split}: census {got}, formula {expected}")
    _require(sum(params.values()) == counting.a_tilde(r, s))

    # every realization census cell must match the refined count
    for (r1, r2, t1, t2), got in sorted(realizations.items()):
        expected = counting.refined_realization_count(
            r1 + 2 * r2, r2, t1 + 2 * t2, t2
        )
        _require(
            got == expected,
            f"realizations {(r1, r2, t1, t2)}: census {got}, formula {expected}",
        )
    total = sum(realizations.values())
    if r == s:
        expected_total = counting.realization_count(r, r)
    else:
        expected_total = counting.realization_count(r, s) + counting.realization_count(s, r)
    _require(
        total == expected_total,
        f"realization total {total}, formula {expected_total}",
    )


def _symmetric_census(r):
    symmetric = _census(r, r)[2]
    for r2 in range(r // 2 + 1):
        got = symmetric[r2]
        expected = counting.symmetric_count_refined(r, r2)
        _require(got == expected, f"r2 = {r2}: census {got}, formula {expected}")
    total = sum(symmetric.values())
    expected = counting.symmetric_count(r)
    _require(total == expected, f"census {total}, formula {expected}")


def _marginalization(r, s):
    total = 0
    for r2 in range(r // 2 + 1):
        for s2 in range(s // 2 + 1):
            total += counting.refined_realization_count(r, r2, s, s2)
    expected = counting.realization_count(r, s)
    _require(total == expected, f"sum {total}, realization count {expected}")


def _partition(r, s):
    total = sum(counting.derived_class_count(*split) for split in _splits(r, s))
    expected = counting.a_tilde(r, s)
    _require(total == expected, f"partition sum {total}, class count {expected}")


def _series_quadratic(degree):
    variables = ("z", "t")
    a = solve_a_point(degree, variables)
    one = TruncatedSeries.constant(variables, degree, 1)
    z = TruncatedSeries.monomial(variables, degree, z=1)
    z2t = TruncatedSeries.monomial(variables, degree, z=2, t=1)
    rhs = one + 2 * (z * a) + z2t * (a * a)
    _require(a == rhs, "quadratic functional equation fails")


def _series_catalan(degree):
    a = solve_a_point(degree, ("z", "t"))
    a1 = a.specialize_one("t")
    # z^d is complete only while d + d//2 fits under the truncation
    for d in range(degree + 1):
        if d + d // 2 > degree:
            break
        expected = Fraction(counting.binomial(2 * d + 2, d + 1), d + 2)
        got = a1.coefficient(z=d)
        _require(got == expected, f"z^{d}: {got} != {expected}")


def _series_substitution(degree):
    variables = ("p", "q", "x", "y")
    lhs = b_series(degree, variables)
    base = b_series_at_unit(degree, variables)
    p = TruncatedSeries.monomial(variables, degree, p=1)
    p2 = TruncatedSeries.monomial(variables, degree, p=2)
    p2x = TruncatedSeries.monomial(variables, degree, p=2, x=1)
    q = TruncatedSeries.monomial(variables, degree, q=1)
    q2 = TruncatedSeries.monomial(variables, degree, q=2)
    q2y = TruncatedSeries.monomial(variables, degree, q=2, y=1)
    rhs = base.substitute("p", p + p2x - p2).substitute("q", q + q2y - q2)
    _require(lhs == rhs, "marker substitution identity fails")


def _series_derivative(degree):
    variables = ("t", "p", "q")
    b2 = b_series_at_unit(degree, ("p", "q"))
    tp = TruncatedSeries.monomial(variables, degree, t=1, p=1)
    tq = TruncatedSeries.monomial(variables, degree, t=1, q=1)
    # t marks each term's total degree: p -> t*p, q -> t*q
    marked = b2.embed(variables).substitute("p", tp).substitute("q", tq)
    lhs = log_one_over_one_minus(marked)
    t = TruncatedSeries.monomial(variables, degree, t=1)
    left = 1 + 2 * (t * lhs.derivative("t"))
    one = TruncatedSeries.constant(variables, degree, 1)
    # squared form keeps everything polynomial
    _require(
        left * left * (one - 4 * tp) * (one - 4 * tq) == one,
        "derivative identity (squared) fails",
    )


def _series_lists(degree):
    # G = 1/(1 - B) lists the base-arrow blocks; G <- 1 + B*G fixes one
    # more total degree per step
    b = b_series(degree)
    g = TruncatedSeries.constant(b.variables, degree, 1)
    for _ in range(degree):
        g = 1 + b * g
    by_weight = Counter()
    for (p, q, x, y), c in g.coeffs.items():
        by_weight[p + q, x + y] += c
    for r in range(degree + 1):
        for r2 in range(min(r // 2, degree - r) + 1):
            got = by_weight[r, r2]
            expected = counting.list_count_refined(r, r2)
            _require(
                got == expected,
                f"weight {r}, r2 = {r2}: {got}, formula {expected}",
            )
        # the marker marginal is complete only while r + r//2 fits
        if r + r // 2 <= degree:
            got = sum(by_weight[r, r2] for r2 in range(r // 2 + 1))
            expected = counting.list_count(r)
            _require(got == expected, f"weight {r}: {got}, formula {expected}")


def _series_grid(degree):
    at = atilde_series(degree)
    for r in range(1, degree):
        for s in range(1, degree - r + 1):
            for r2 in range(r // 2 + 1):
                for s2 in range(s // 2 + 1):
                    if r + s + r2 + s2 > degree:
                        continue
                    got = at.coefficient(p=r, q=s, x=r2, y=s2)
                    expected = counting.refined_realization_count(r, r2, s, s2)
                    _require(
                        got == expected,
                        f"[p^{r} q^{s} x^{r2} y^{s2}] = {got}, formula {expected}",
                    )
    # all-clockwise cycles specialize to the type D count; the marker
    # marginal is complete only while n + n//2 fits under the truncation
    for n in range(3, degree + 1):
        if n + n // 2 > degree:
            break
        got = sum(
            at.coefficient(q=n, y=s2) for s2 in range(n // 2 + 1)
        )
        expected = counting.a_tilde(0, n)
        _require(got == expected, f"[q^{n}] total {got}, formula {expected}")


def iter_checks(n_max: int = 8, degree: int = 10):
    """List the checks at this scale as (name, thunk) pairs.

    Thunks raise one of ``CHECK_FAILURES`` on failure.  Raises ValueError
    for a scale below ``MIN_N_MAX`` or ``MIN_DEGREE``, where some family
    would pass without testing anything.
    """
    if n_max < MIN_N_MAX:
        raise ValueError(f"--n-max must be at least {MIN_N_MAX}, got {n_max}")
    if degree < MIN_DEGREE:
        raise ValueError(f"--degree must be at least {MIN_DEGREE}, got {degree}")
    weights = [(r, t - r) for t in range(2, n_max + 1) for r in range(1, t // 2 + 1)]
    checks = []
    for r, s in weights:
        checks.append((f"class-size-atilde-{r}-{s}", partial(_class_sizes, r, s)))
    for n in range(4, n_max + 1):
        checks.append((f"class-size-dynkin-d-{n}", partial(_dynkin_size, n)))
    for r, s in weights:
        checks.append((f"parameter-census-{r}-{s}", partial(_parameter_census, r, s)))
    for r in range(1, n_max // 2 + 1):
        checks.append((f"symmetric-census-{r}", partial(_symmetric_census, r)))
    for r in range(1, n_max - 1):
        for s in range(1, n_max - 1):
            checks.append((f"marginalization-{r}-{s}", partial(_marginalization, r, s)))
    for r, s in weights:
        checks.append((f"partition-{r}-{s}", partial(_partition, r, s)))
    checks += [
        ("series-quadratic-identity", partial(_series_quadratic, degree)),
        ("series-catalan-specialization", partial(_series_catalan, degree)),
        ("series-substitution-identity", partial(_series_substitution, degree)),
        ("series-derivative-identity", partial(_series_derivative, degree)),
        ("series-coefficient-grid", partial(_series_grid, degree)),
        ("series-list-coefficients", partial(_series_lists, degree)),
    ]
    return checks


def run_verification(n_max: int = 8, degree: int = 10, log=print):
    """Run all checks; return the name of the first failure, or None."""
    for name, thunk in iter_checks(n_max, degree):
        try:
            thunk()
        except CHECK_FAILURES as exc:
            log(f"FAIL {name}: {exc}")
            return name
        log(f"ok {name}")
    return None
