import hashlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_quivers,
    necklace_count,
    reference_alphabet,
    reference_atilde_series,
    reference_log_one_over_one_minus,
    reference_mul,
    reference_solve_a_point,
)
from quivercount import counting, series, verify
from quivercount.canonical import canonical_key
from quivercount.classify import parse_rooted_type_a
from quivercount.quiver import underlying_graph_connected
from quivercount.series import (
    TruncatedSeries,
    atilde_series,
    b_series,
    b_series_at_unit,
    log_one_over_one_minus,
    solve_a_point,
)

VARS = ("p", "q")


def mono(deg, **exps):
    return TruncatedSeries.monomial(VARS, deg, **exps)


# -- ring arithmetic -----------------------------------------------------------


def test_product_of_conjugates():
    one = TruncatedSeries.constant(VARS, 8, 1)
    z = mono(8, p=1)
    assert (one + z) * (one - z) == one - z * z


def test_additive_identity_and_truncation():
    f = mono(3, p=2) + mono(3, q=1) * 5
    assert f + TruncatedSeries(VARS, 3) == f
    assert (mono(3, p=2) * mono(3, q=2)).coeffs == {}


def test_mismatched_operands_rejected():
    with pytest.raises(ValueError):
        mono(3, p=1) + mono(4, p=1)
    with pytest.raises(ValueError):
        mono(3, p=1) * TruncatedSeries.monomial(("p", "t"), 3, p=1)


def test_power_and_scalar():
    g = 1 + mono(6, p=1)
    f = g * g * g
    assert f.coefficient(p=2) == 3
    assert (Fraction(1, 2) * mono(6, p=1)).coefficient(p=1) == Fraction(1, 2)


def test_substitute_square():
    geom = TruncatedSeries(VARS, 8, {(n, 0): 1 for n in range(9)})
    squared = geom.substitute("p", mono(8, p=2))
    assert squared == TruncatedSeries(VARS, 8, {(2 * n, 0): 1 for n in range(5)})
    with pytest.raises(ValueError):
        geom.substitute("p", TruncatedSeries.constant(VARS, 8, 1))


# -- logarithm ------------------------------------------------------------------


def test_log_of_geometric_variable():
    lg = log_one_over_one_minus(mono(8, p=1))
    for m in range(1, 9):
        assert lg.coefficient(p=m) == Fraction(1, m)
    with pytest.raises(ValueError):
        log_one_over_one_minus(TruncatedSeries.constant(VARS, 8, 1))


def test_log_of_marked_alphabet_matches_summation():
    deg = 9
    lg = log_one_over_one_minus(b_series(deg))
    for r in range(1, deg):
        for s in range(1, deg - r + 1):
            for r2 in range(r // 2 + 1):
                for s2 in range(s // 2 + 1):
                    if r + s + r2 + s2 > deg:
                        continue
                    got = lg.coefficient(p=r, q=s, x=r2, y=s2)
                    assert got == counting.cycle_log_coefficient(r, r2, s, s2)


# -- rooted type A generating function -------------------------------------------


def test_a_point_base_coefficients():
    a = solve_a_point(12)
    assert a.coefficient() == 1
    assert a.coefficient(z=2, t=1) == 1
    assert a.coefficient(z=2) == 4
    assert a.coefficient(z=3) == 8
    assert a.coefficient(z=3, t=1) == 6


def _rooted_type_a_census(nverts):
    """Brute-force census of rooted type A quivers by 3-cycle count.

    Enumerates all single-arrow digraphs on nverts labelled vertices with
    root 0, keeps the connected ones the structural parser accepts, and
    deduplicates up to root-preserving isomorphism.
    """
    census = {}
    seen = set()
    for q in all_quivers(nverts, (0, 1, -1)):
        if not underlying_graph_connected(q):
            continue
        parsed = parse_rooted_type_a(q, 0)
        if parsed is None:
            continue
        key = canonical_key(q, colors=[0] + [1] * (nverts - 1))
        if key in seen:
            continue
        seen.add(key)
        census[parsed] = census.get(parsed, 0) + 1
    return census


@pytest.mark.parametrize("nverts", [1, 2, 3, 4])
def test_a_point_against_brute_force_enumeration(nverts):
    a = solve_a_point(12)
    census = _rooted_type_a_census(nverts)
    total = 0
    for (plain, cycles), count in census.items():
        assert plain + 2 * cycles == nverts - 1
        assert a.coefficient(z=nverts - 1, t=cycles) == count
        total += count
    # and nothing else contributes at this weight
    tmax = (nverts - 1) // 2
    assert total == sum(
        a.coefficient(z=nverts - 1, t=c) for c in range(tmax + 1)
    )


# -- the cycle construction -------------------------------------------------------


def test_cycle_construction_reproduces_necklace_counts():
    deg = 8
    total = series._cycles(mono(deg, p=1) + mono(deg, q=1))
    for length in range(1, deg + 1):
        for ones in range(length + 1):
            got = total.coefficient(p=ones, q=length - ones)
            assert got == necklace_count(length, ones), (length, ones)


def test_annular_series_marker_support():
    at = atilde_series(10)
    for (er, es, ex, ey), c in at.coeffs.items():
        assert c > 0
        assert 2 * ex <= er and 2 * ey <= es


def test_cycle_sum_integrality_gate(monkeypatch):
    # with every divisor weighted 1 the cycle sum is not integral: at p^3
    # it is (1 + 1) / 3
    monkeypatch.setattr(series, "euler_phi", lambda k: 1)
    with pytest.raises(ArithmeticError):
        atilde_series(12)


# -- the registry's series identities reach the truncation degree -----------------


def _check(name, degree):
    (thunk,) = [t for n, t in verify.iter_checks(verify.MIN_N_MAX, degree) if n == name]
    return thunk


@pytest.mark.parametrize("degree", [verify.MIN_DEGREE, 12])
@pytest.mark.parametrize(
    "check, built_by, variable",
    [
        ("series-derivative-identity", "b_series_at_unit", "p"),
        ("series-catalan-specialization", "solve_a_point", "z"),
        ("series-list-coefficients", "b_series", "p"),
        ("series-list-coefficients", "b_series_at_unit", "p"),
        ("series-realization-totals", "b_series_at_unit", "p"),
    ],
)
def test_series_check_reaches_the_truncation_degree(
    monkeypatch, check, built_by, variable, degree
):
    real = getattr(verify, built_by)

    def plus_top_term(degree, *args):
        s = real(degree, *args)
        return s + TruncatedSeries.monomial(s.variables, degree, **{variable: degree})

    monkeypatch.setattr(verify, built_by, plus_top_term)
    with pytest.raises(AssertionError):
        _check(check, degree)()


def test_list_check_reaches_the_top_total(monkeypatch):
    degree = 12
    real = counting.list_count
    monkeypatch.setattr(counting, "list_count", lambda r: real(r) + (r == degree))
    message = f"^weight {degree}: {real(degree)}, formula {real(degree) + 1}$"
    with pytest.raises(AssertionError, match=message):
        _check("series-list-coefficients", degree)()


def test_realization_totals_reach_the_type_d_count_at_the_top(monkeypatch):
    degree = 12
    real = counting.a_tilde
    monkeypatch.setattr(
        counting, "a_tilde", lambda r, s: real(r, s) + ((r, s) == (0, degree))
    )
    message = rf"^\[q\^{degree}\] = {real(0, degree)}, formula {real(0, degree) + 1}$"
    with pytest.raises(AssertionError, match=message):
        _check("series-realization-totals", degree)()


def test_list_check_takes_a_fixed_number_of_products(monkeypatch):
    real = TruncatedSeries.__mul__
    calls = Counter()

    def counted(self, other):
        calls[self.degree] += 1
        return real(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    for degree in (verify.MIN_DEGREE, 16):
        _check("series-list-coefficients", degree)()
    assert calls[verify.MIN_DEGREE] == calls[16], calls


# -- against the reference routes -------------------------------------------------


@pytest.mark.parametrize("degree", range(4, 17))
def test_series_match_reference_routes(degree):
    for variables in (("z", "t"), ("z",)):
        assert solve_a_point(degree, variables) == reference_solve_a_point(
            degree, variables
        )
    b = b_series(degree)
    assert b == reference_alphabet(degree)
    assert b_series_at_unit(degree) == reference_alphabet(degree, marked=False)
    assert log_one_over_one_minus(b) == reference_log_one_over_one_minus(b)
    assert atilde_series(degree) == reference_atilde_series(degree)


# sha-256 over sorted(atilde_series(d).coeffs.items()), taken when the cycle
# sums ran over exponent tuples; 28 is the series-oracle degree, and the
# reference routes above stop at 16
ATILDE_DIGESTS = {
    28: "cd0de7fe6e25445d98c3e43092f7f59dae5faac845717158b57a517ec8b136ac",
    30: "1dacaf3cb913e1e496089526295b45347bcae832bf6d27c889a4d8ec2875a003",
}


@pytest.mark.parametrize("degree", sorted(ATILDE_DIGESTS))
def test_atilde_series_digest_past_the_reference_degrees(degree):
    items = repr(sorted(atilde_series(degree).coeffs.items())).encode()
    assert hashlib.sha256(items).hexdigest() == ATILDE_DIGESTS[degree]


NONZERO = st.one_of(
    st.integers(-4, 4), st.fractions(-2, 2, max_denominator=5)
).filter(bool)


@st.composite
def rings(draw):
    return ("p", "q", "x", "y")[: draw(st.integers(1, 4))], draw(st.integers(1, 7))


@st.composite
def series_in(draw, variables, degree, lowest=0):
    """A random series with a term at exactly the truncation degree, where
    a packed exponent that carried would show."""
    coeffs = {}
    for total in [degree] + draw(st.lists(st.integers(lowest, degree), max_size=8)):
        exps = []
        for _ in variables[1:]:
            exps.append(draw(st.integers(0, total - sum(exps))))
        exps.append(total - sum(exps))
        coeffs[tuple(exps)] = draw(NONZERO)
    return TruncatedSeries(variables, degree, coeffs)


@given(rings(), st.data())
@settings(max_examples=150, deadline=None)
def test_product_and_log_match_reference_routes(ring, data):
    a = data.draw(series_in(*ring))
    b = data.draw(series_in(*ring, lowest=1))
    assert a * b == reference_mul(a, b)
    assert log_one_over_one_minus(b) == reference_log_one_over_one_minus(b)
