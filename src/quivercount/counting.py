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


def binomial(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


def multinomial(top: int, parts) -> int:
    """``top! / prod(part!)``, extended by zero outside the support.

    Returns 0 when any part is negative or the parts do not sum to ``top``.
    The zero extension is what makes the inner index sums below finite: out
    of range terms vanish through their multinomial factor.
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
    """The nonzero ``(i, multinomial(2i, (i, 2i - r, r2, r - r2 - i)))``."""
    out = []
    for i in range((r + 1) // 2, r - r2 + 1):
        m = multinomial(2 * i, (i, 2 * i - r, r2, r - r2 - i))
        if m:
            out.append((i, m))
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
    weight is s; symmetric in its arguments."""
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
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

    Arguments are normalized to r <= s.  For r = 0 this evaluates the
    oriented-cycle specialization of the r != s sum; note the rank 4 case
    is the one place that raw value differs from the true type D count,
    which :func:`d_n_count` handles.
    """
    if r > s:
        r, s = s, r
    if r < 0 or s < 1 or r + s < 2:
        raise ValueError("need r, s >= 0 with r + s >= 2 and max(r, s) >= 1")
    if r == 0:
        n = s
        total = sum(
            Fraction(euler_phi(k), 2 * n) * comb(2 * (n // k), n // k)
            for k in _divisors(n)
        )
        return _as_int(total)
    if r == s:
        inner = sum(
            Fraction(euler_phi(k), 4 * r) * comb(2 * r // k, r // k) ** 2
            for k in _divisors(r)
        )
        return _as_int((Fraction(comb(2 * r, r), 2) + inner) / 2)
    return realization_count(r, s)


def symmetric_count(r: int) -> int:
    """Quivers with parameters (r, r) whose two realizations coincide."""
    if r < 1:
        raise ValueError("need r >= 1")
    return _as_int(Fraction(comb(2 * r, r), 2))


def symmetric_count_refined(r: int, r2: int) -> int:
    """Symmetric quivers with parameters (r, r) and r2 oriented 3-cycles
    per side, i.e. 2*r2 in total."""
    if r < 1 or not 0 <= 2 * r2 <= r:
        raise ValueError("need r >= 1 and 0 <= 2*r2 <= r")
    return _as_int(_pow2(r - 2 * r2 - 1) * multinomial(r, (r2, r2, r - 2 * r2)))


def _pow2(e: int) -> Fraction:
    return Fraction(2**e) if e >= 0 else Fraction(1, 2 ** (-e))


def derived_class_count(r1: int, r2: int, s1: int, s2: int) -> int:
    """Quivers whose realizations carry exactly these four parameters, one
    per derived equivalence class of the associated algebras.

    The parameter pair is unordered; the count is invariant under swapping
    (r1, r2) with (s1, s2).  The reflection-corrected branch applies exactly
    when (r1, r2) == (s1, s2), where half the asymmetric expression would
    double count the self-mirror quivers.
    """
    if min(r1, r2, s1, s2) < 0:
        raise ValueError("parameters must be nonnegative")
    r = r1 + 2 * r2
    s = s1 + 2 * s2
    if r < 1 or s < 1:
        raise ValueError("need r1 + 2*r2 >= 1 and s1 + 2*s2 >= 1")
    if (r1, r2) == (s1, s2):
        head = _pow2(r1 - 2) * multinomial(r, (r2, r2, r1))
        return _as_int(
            head + Fraction(refined_realization_count(r, r2, r, r2), 2)
        )
    return refined_realization_count(r, r2, s, s2)


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
    plain tuple comparison.  Matches the classifier's first realization.
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
