"""Self-contained cross-verification of the whole artifact.

Every identity ties two independently implemented routes together: class
sizes from the breadth-first enumerator against the closed forms, parameter
censuses from the classifier against the refined counts, and power-series
coefficients against the summation formulas.  No network, no external data.

This module is the one place the cross-checks are written; the CLI's
``verify`` command and the acceptance suite both run them.  Each family's
range is one rule of the two scale parameters ``n_max`` and ``degree``
(weights r <= s unless stated):

- ``class-size-atilde-r-s``, ``parameter-census-r-s``: r + s <= n_max
- ``class-size-dynkin-d-n``: 4 <= n <= n_max, and classify rejects every member
- ``symmetric-census-r``: r <= n_max // 2, each r2 cell and the total
- ``marginalization-r-s``: r, s <= n_max - 2, in either order
- ``series-*``: the seven series identities at truncation degree ``degree``.
  The quadratic, substitution and derivative identities compare whole
  series, and the Catalan check reads every z^d, so all four cover every
  degree up to ``degree``.  The coefficient grid covers the cells with
  r + s + r2 + s2 <= degree, the realization totals cover every class
  with r + s <= degree, the type D count [q^n] included, and the list
  counts cover the cells with r + r2 <= degree and the totals at every
  weight r <= degree

Each class is enumerated and classified once, in one pass, and only its
summary (size and censuses) is memoised: the members are dropped when the
pass returns.  The type D class of rank n goes through the same pass as
the summary with weights (0, n), walked from its tree seed.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, partial
from math import comb

from quivercount import counting
from quivercount.classify import classify, is_symmetric
from quivercount.mutation_class import enumerate_class, seed_cycle, seed_dynkin_d
from quivercount.series import (
    TruncatedSeries,
    _cycles,
    _pack,
    _theta_log,
    _unpack,
    atilde_series,
    b_series,
    b_series_at_unit,
    solve_a_point,
)

# Below these some family checks nothing: type D starts at rank 4, and the
# grid's first 3-cycle cell, [p^2 q x], needs degree 4.
MIN_N_MAX = 4
MIN_DEGREE = 4

# What a failing check raises: a broken identity, or an integrality gate of
# ``counting`` firing on a count that is not a whole number.
CHECK_FAILURES = (AssertionError, ArithmeticError)


def _require(cond, msg=""):
    """Fail a check; unlike ``assert``, this still runs under ``python -O``."""
    if not cond:
        raise AssertionError(msg)


def _require_coefficients(series, cells):
    """Fail at the first of ``cells``, pairs of an exponent tuple and a
    formula value, where the coefficient of ``series`` differs.  A
    generator keeps the formula values of a large grid out of memory."""
    for exps, want in cells:
        got = series.coeffs.get(exps, 0)
        if got != want:
            cell = " ".join(f"{v}^{e}" for v, e in zip(series.variables, exps) if e)
            raise AssertionError(f"[{cell or 1}] = {got}, formula {want}")


@cache
def _summary(r: int, s: int):
    """Enumerate and classify the (r, s) class in one pass: its size, the
    number of members classify rejects, and the censuses of first
    realizations, of both realizations (one for a symmetric member), and of
    symmetric members by 3-cycles per side.

    With r = 0 the class is type D of rank s, seeded by
    :func:`~quivercount.mutation_class.seed_dynkin_d`; classify should
    reject every member, so its censuses should stay empty."""
    mc = enumerate_class(seed_dynkin_d(s) if r == 0 else seed_cycle(r, s))
    outside = 0
    params = Counter()
    realizations = Counter()
    symmetric = Counter()
    for q in mc.representatives():
        st = classify(q)
        if st is None:
            outside += 1
            continue
        params[st.realization_1.as_tuple()] += 1
        realizations[st.realization_1.as_tuple()] += 1
        if is_symmetric(st):
            symmetric[st.realization_1.r2] += 1
        else:
            realizations[st.realization_2.as_tuple()] += 1
    return mc.size, outside, params, realizations, symmetric


def _splits(r, s):
    """Normalized parameter quadruples (r1, r2, s1, s2) of weights (r, s)."""
    return {
        counting.normalize_parameters(r1, r2, t1, t2)
        for r1, r2 in counting.parameter_splits(r)
        for t1, t2 in counting.parameter_splits(s)
    }


def _class_sizes(r, s):
    got = _summary(r, s)[0]
    expected = counting.a_tilde(r, s)
    _require(got == expected, f"enumerated {got}, formula says {expected}")


def _dynkin_size(n):
    size, outside = _summary(0, n)[:2]
    expected = counting.d_n_count(n)
    _require(size == expected, f"enumerated {size}, formula says {expected}")
    _require(size == outside, f"classify accepted {size - outside} type D members")


def _parameter_census(r, s):
    _, outside, params, realizations, _ = _summary(r, s)
    _require(outside == 0, "class member fell outside the annular family")

    splits = _splits(r, s)
    _require(set(params) <= splits, f"unexpected parameters {set(params) - splits}")
    for split in sorted(splits):
        expected = counting.derived_class_count(*split)
        got = params.get(split, 0)
        _require(got == expected, f"split {split}: census {got}, formula {expected}")

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
    symmetric = _summary(r, r)[4]
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


def _series_quadratic(degree):
    variables = ("z", "t")
    a = solve_a_point(degree, variables)
    one = TruncatedSeries.constant(variables, degree, 1)
    z = TruncatedSeries.monomial(variables, degree, z=1)
    z2t = TruncatedSeries.monomial(variables, degree, z=2, t=1)
    rhs = one + 2 * (z * a) + z2t * (a * a)
    _require(a == rhs, "quadratic functional equation fails")


def _series_catalan(degree):
    # A(z, 1), solved in z alone, so every stored coefficient is complete
    catalan = (((d,), comb(2 * d + 2, d + 1) // (d + 2)) for d in range(degree + 1))
    _require_coefficients(solve_a_point(degree, ("z",)), catalan)


def _series_substitution(degree):
    variables = ("p", "q", "x", "y")
    lhs = b_series(degree)
    base = b_series_at_unit(degree)
    p = TruncatedSeries.monomial(variables, degree, p=1)
    p2 = TruncatedSeries.monomial(variables, degree, p=2)
    p2x = TruncatedSeries.monomial(variables, degree, p=2, x=1)
    q = TruncatedSeries.monomial(variables, degree, q=1)
    q2 = TruncatedSeries.monomial(variables, degree, q=2)
    q2y = TruncatedSeries.monomial(variables, degree, q=2, y=1)
    rhs = base.substitute("p", p + p2x - p2).substitute("q", q + q2y - q2)
    _require(lhs == rhs, "marker substitution identity fails")


def _series_derivative(degree):
    b1 = b_series_at_unit(degree)
    variables = b1.variables
    # theta L, L = log(1/(1 - B)), read as integers: theta multiplies each
    # degree-n part of L by n
    theta = _unpack(_theta_log(_pack(b1)), variables, degree)
    left = 1 + 2 * theta
    p = TruncatedSeries.monomial(variables, degree, p=1)
    q = TruncatedSeries.monomial(variables, degree, q=1)
    one = TruncatedSeries.constant(variables, degree, 1)
    # squared form keeps everything polynomial
    _require(
        left * left * (one - 4 * p) * (one - 4 * q) == one,
        "derivative identity (squared) fails",
    )


def _series_lists(degree):
    # G = 1/(1 - B) lists the base-arrow blocks, so (1 - B) G = 1, refined
    # and in total.  q = p, y = x keeps total degree, so the refined check
    # reads every cell with r + r2 <= degree.  B has no constant term, so
    # the residual's lowest term sits at the first wrong count, where the
    # series reads the formula minus the residual
    refined = {
        (r, r2): counting.list_count_refined(r, r2)
        for r in range(degree + 1)
        for r2 in range(r // 2 + 1)
    }
    totals = {(r,): counting.list_count(r) for r in range(degree + 1)}
    blocks = b_series(degree).embed(("p", "x"), {"q": "p", "y": "x"})
    at_unit = b_series_at_unit(degree).embed(("p",), dict.fromkeys("qxy", "p"))
    for b, g, cell in (
        (blocks, refined, "weight {}, r2 = {}"),
        (at_unit, totals, "weight {}"),
    ):
        residual = (1 - b) * TruncatedSeries(b.variables, degree, g) - 1
        if residual.coeffs:
            e = min(residual.coeffs, key=sum)
            expected = g.get(e, 0)
            got = expected - residual.coeffs[e]
            raise AssertionError(f"{cell.format(*e)}: {got}, formula {expected}")


def _series_grid(degree):
    refined = (
        ((r, s, r2, s2), counting.refined_realization_count(r, r2, s, s2))
        for r in range(1, degree)
        for s in range(1, degree - r + 1)
        for r2 in range(r // 2 + 1)
        for s2 in range(s // 2 + 1)
        if r + s + r2 + s2 <= degree
    )
    _require_coefficients(atilde_series(degree), refined)


def _series_realization_totals(degree):
    # with both markers at one, [p^r q^s] counts the realizations of
    # weights (r, s), and [q^n] the class of the oriented n-cycle
    totals = {(0, n, 0, 0): counting.a_tilde(0, n) for n in range(3, degree + 1)}
    for r in range(1, degree + 1):
        for s in range(degree + 1 - r):
            if r + s > 2 or (r, s) == (1, 1):
                totals[r, s, 0, 0] = counting.realization_count(r, s)
    _require_coefficients(_cycles(b_series_at_unit(degree)), totals.items())


def iter_checks(n_max: int, degree: int):
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
    checks += [
        ("series-quadratic-identity", partial(_series_quadratic, degree)),
        ("series-catalan-specialization", partial(_series_catalan, degree)),
        ("series-substitution-identity", partial(_series_substitution, degree)),
        ("series-derivative-identity", partial(_series_derivative, degree)),
        ("series-coefficient-grid", partial(_series_grid, degree)),
        ("series-realization-totals", partial(_series_realization_totals, degree)),
        ("series-list-coefficients", partial(_series_lists, degree)),
    ]
    return checks


def run_verification(n_max: int, degree: int):
    """Run all checks, printing one line each; return the name of the
    first failure, or None."""
    for name, thunk in iter_checks(n_max, degree):
        try:
            thunk()
        except CHECK_FAILURES as exc:
            print(f"FAIL {name}: {exc}")
            return name
        print(f"ok {name}")
    return None
