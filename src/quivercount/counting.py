"""Closed-form counts for the annular and type D mutation classes.

All sums are totient-weighted binomial or multinomial expressions evaluated
in exact arithmetic: integers plus Fraction intermediates.  Every public
count asserts integrality before returning; a non-integer result means a
formula was fed arguments outside its domain and raises instead of rounding.
No floating point is used anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd


def euler_phi(k: int) -> int:
    """Euler's totient, computed from the prime factorization."""
    if k < 1:
        raise ValueError("totient needs a positive argument")
    result = k
    m = k
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def multinomial(top: int, parts) -> int:
    """``top! / prod(part!)``, extended by zero outside the support.

    Returns 0 when any part is negative or the parts do not sum to ``top``,
    so a caller may sum over a range wider than the support.
    """
    total = 0
    for p in parts:
        if p < 0:
            return 0
        total += p
    if top < 0 or total != top:
        return 0
    res = factorial(top)
    for p in parts:
        res //= factorial(p)
    return res


def _divisors(m: int) -> list[int]:
    divs = [d for d in range(1, m + 1) if m % d == 0]
    return divs


def _as_int(x) -> int:
    """Integrality gate: rational intermediates must have cancelled."""
    if isinstance(x, int):
        return x
    if x.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {x}")
    return int(x)


def cycle_log_coefficient(r: int, r2: int, s: int, s2: int) -> Fraction:
    """Coefficient of p^r q^s x^r2 y^s2 in log(1/(1 - B(p, q, x, y))).

    B is the generating function of the base-arrow alphabet (an arrow one
    way or the other, optionally carrying an oriented 3-cycle with a rooted
    type A quiver); see :mod:`quivercount.series` for the series itself.
    The index ranges come from multinomial support: r/2 <= i <= r - r2 and
    likewise for j, with (i, j) = (0, 0) excluded.
    """
    sign = -1 if (r + r2 + s + s2) % 2 else 1
    side_r = _side_multinomials(r, r2)
    side_s = _side_multinomials(s, s2)
    # the weight 1/(2(i + j)) depends on i + j only: sum the integer
    # products per t = i + j, then add one Fraction per t
    by_t: dict[int, int] = {}
    for i, mi in side_r:
        for j, mj in side_s:
            if i or j:
                by_t[i + j] = by_t.get(i + j, 0) + mi * mj
    total = Fraction(0)
    for t, c in by_t.items():
        total += Fraction(-c if t % 2 else c, 2 * t)
    return sign * total


def _side_multinomials(r: int, r2: int) -> list[tuple[int, int]]:
    """The ``(i, multinomial(2i, (i, 2i - r, r2, r - r2 - i)))`` over the
    multinomial's support, r/2 <= i <= r - r2."""
    out = []
    for i in range((r + 1) // 2, r - r2 + 1):
        out.append((i, multinomial(2 * i, (i, 2 * i - r, r2, r - r2 - i))))
    return out


def _check_refined_args(r: int, r2: int, s: int, s2: int) -> None:
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    if not (0 <= 2 * r2 <= r and 0 <= 2 * s2 <= s):
        raise ValueError("need 0 <= 2*r2 <= r and 0 <= 2*s2 <= s")


def refined_realization_count(r: int, r2: int, s: int, s2: int) -> int:
    """Realizations with r2 (resp. s2) oriented 3-cycles on the side of
    total weight r (resp. s).

    The divisor variable runs over common divisors of all four arguments,
    where every k divides 0; ``math.gcd`` supplies that convention.
    """
    _check_refined_args(r, r2, s, s2)
    total = Fraction(0)
    g = gcd(gcd(r, r2), gcd(s, s2))
    for k in _divisors(g):
        total += Fraction(euler_phi(k), k) * cycle_log_coefficient(
            r // k, r2 // k, s // k, s2 // k
        )
    return _as_int(total)


def realization_count(r: int, s: int) -> int:
    """Number of realizations whose anticlockwise weight is r and clockwise
    weight is s; symmetric in its arguments.

    A zero weight is allowed: with every arrow one way the sum runs over the
    divisors of ``gcd(0, s) = s``, the oriented-cycle count of :func:`a_tilde`.
    """
    if min(r, s) < 0 or r + s < 2:
        raise ValueError("need r, s >= 0 with r + s >= 2 and max(r, s) >= 1")
    total = Fraction(0)
    for k in _divisors(gcd(r, s)):
        total += (
            Fraction(euler_phi(k), r + s)
            * comb(2 * r // k, r // k)
            * comb(2 * s // k, s // k)
        )
    return _as_int(total / 2)


def a_tilde(r: int, s: int) -> int:
    """Number of quivers mutation equivalent to a non-oriented (r+s)-cycle
    with r arrows one way and s the other.

    Each quiver is an orbit of realizations under the flip of the annulus,
    so by Burnside this is the average over the two realizations; only a
    symmetric quiver, with r == s, is fixed.  Arguments are normalized to
    r <= s.  For r = 0 this is the oriented-cycle count; note the rank 4
    case is the one place that value differs from the true type D count,
    which :func:`d_n_count` handles.
    """
    if r > s:
        r, s = s, r
    if r < 0 or s < 1 or r + s < 2:
        raise ValueError("need r, s >= 0 with r + s >= 2 and max(r, s) >= 1")
    if r == s:
        return _as_int(Fraction(symmetric_count(r) + realization_count(r, r), 2))
    return realization_count(r, s)


def symmetric_count(r: int) -> int:
    """Quivers with parameters (r, r) whose two realizations coincide."""
    if r < 1:
        raise ValueError("need r >= 1")
    return _as_int(Fraction(comb(2 * r, r), 2))


def symmetric_count_refined(r: int, r2: int) -> int:
    """Symmetric quivers with parameters (r, r) and r2 oriented 3-cycles
    per side, i.e. 2*r2 in total: half the block lists that
    :func:`list_count_refined` counts, as :func:`symmetric_count` is half
    of :func:`list_count`."""
    if r < 1 or not 0 <= 2 * r2 <= r:
        raise ValueError("need r >= 1 and 0 <= 2*r2 <= r")
    return _as_int(Fraction(list_count_refined(r, r2), 2))


def derived_class_count(r1: int, r2: int, s1: int, s2: int) -> int:
    """Quivers whose realizations carry exactly these four parameters, one
    per derived equivalence class of the associated algebras.

    The parameter pair is unordered; the count is invariant under swapping
    (r1, r2) with (s1, s2).  Like :func:`a_tilde` it is the average over
    the two realizations (Burnside); only when (r1, r2) == (s1, s2) can the
    flip fix a quiver, and the fixed ones are the symmetric quivers.
    """
    if min(r1, r2, s1, s2) < 0:
        raise ValueError("parameters must be nonnegative")
    r = r1 + 2 * r2
    s = s1 + 2 * s2
    if r < 1 or s < 1:
        raise ValueError("need r1 + 2*r2 >= 1 and s1 + 2*s2 >= 1")
    if (r1, r2) != (s1, s2):
        return refined_realization_count(r, r2, s, s2)
    fixed = symmetric_count_refined(r, r2)
    return _as_int(Fraction(fixed + refined_realization_count(r, r2, r, r2), 2))


def d_n_count(n: int) -> int:
    """Number of quivers of type D of rank n.

    The closed form fails at rank 4, where the class can be listed by hand;
    the value 6 is pinned directly.
    """
    if n < 4:
        raise ValueError("type D needs rank at least 4")
    if n == 4:
        return 6
    return a_tilde(0, n)


def list_count(r: int) -> int:
    """Lists of base-arrow blocks with total weight r: a central binomial."""
    if r < 0:
        raise ValueError("need r >= 0")
    return comb(2 * r, r)


def list_count_refined(r: int, r2: int) -> int:
    """Such lists carrying exactly r2 oriented 3-cycles."""
    if r < 0 or not 0 <= 2 * r2 <= r:
        raise ValueError("need r >= 0 and 0 <= 2*r2 <= r")
    return 2 ** (r - 2 * r2) * multinomial(r, (r2, r2, r - 2 * r2))


def parameter_splits(r: int) -> list[tuple[int, int]]:
    """All (r1, r2) with r1 + 2*r2 = r, both nonnegative."""
    return [(r - 2 * r2, r2) for r2 in range(r // 2 + 1)]


def normalize_parameters(
    r1: int, r2: int, s1: int, s2: int
) -> tuple[int, int, int, int]:
    """Deterministic order for an unordered parameter pair.

    The side with the larger total weight comes first; ties fall back to
    plain tuple comparison.  :func:`quivercount.classify.classify` orders
    its two realizations with it.
    """
    a = (r1, r2, s1, s2)
    bb = (s1, s2, r1, r2)
    ka = ((r1 + 2 * r2, s1 + 2 * s2), a)
    kb = ((s1 + 2 * s2, r1 + 2 * r2), bb)
    return a if ka >= kb else bb


def table_rows(n_max: int) -> list[tuple[int, list[int]]]:
    """Counts per rank n and anticlockwise weight r = 1..n//2."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    return [
        (n, [a_tilde(r, n - r) for r in range(1, n // 2 + 1)])
        for n in range(2, n_max + 1)
    ]
