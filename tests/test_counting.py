from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from quivercount import counting
from quivercount.counting import (
    a_tilde,
    cycle_log_coefficient,
    d_n_count,
    derived_class_count,
    euler_phi,
    multinomial,
    normalize_parameters,
    parameter_splits,
    realization_count,
    refined_realization_count,
    symmetric_count,
    symmetric_count_refined,
)
from quivercount.verify import iter_checks


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(2) == 1
    assert euler_phi(12) == 4  # 1, 5, 7, 11
    assert [euler_phi(k) for k in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    with pytest.raises(ValueError):
        euler_phi(0)


def test_multinomial():
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(2, (1, 1, 0, 0)) == 2
    assert multinomial(0, (0, -1, 0, 1)) == 0
    assert multinomial(3, (1, 1)) == 0  # parts do not sum to top
    assert multinomial(0, (0, 0)) == 1


def test_realization_count_hand_values():
    assert realization_count(1, 3) == 5
    assert realization_count(2, 2) == 5
    assert realization_count(1, 1) == 1
    assert realization_count(1, 2) == 2
    # a zero weight gives the oriented-cycle count
    assert realization_count(0, 4) == 10
    assert realization_count(0, 5) == 26


def test_realization_count_is_symmetric():
    for r in range(1, 7):
        for s in range(1, 7):
            assert realization_count(r, s) == realization_count(s, r)


def test_refined_realization_hand_values():
    assert refined_realization_count(1, 0, 1, 0) == 1
    assert refined_realization_count(2, 1, 2, 1) == 1
    assert refined_realization_count(2, 0, 2, 0) == 2


def test_cycle_log_coefficient_small():
    assert cycle_log_coefficient(1, 0, 1, 0) == 1
    # marginal over markers at (r, s) = (2, 1) is 2; the marked cell takes 1
    assert cycle_log_coefficient(2, 0, 1, 0) == 1
    assert cycle_log_coefficient(2, 1, 1, 0) == 1
    # with markers erased the coefficient is a quarter of a binomial product
    for r in range(1, 6):
        for s in range(1, 6):
            total = sum(
                cycle_log_coefficient(r, r2, s, s2)
                for r2 in range(r // 2 + 1)
                for s2 in range(s // 2 + 1)
            )
            expected = Fraction(
                comb(2 * r, r) * comb(2 * s, s),
                2 * (r + s),
            )
            assert total == expected


def test_a_tilde_symmetric_in_arguments():
    assert a_tilde(3, 7) == a_tilde(7, 3) == 3432


def test_a_tilde_rejects_bad_arguments():
    # the symmetric and realization counts refuse these for a_tilde
    for r, s in [(0, 1), (1, 0), (-1, 3), (3, -1), (0, 0), (-2, -2)]:
        with pytest.raises(ValueError):
            a_tilde(r, s)
    with pytest.raises(ValueError, match="oriented 2-cycle"):
        a_tilde(0, 2)


def test_realization_count_rejects_bad_arguments():
    with pytest.raises(ValueError):
        realization_count(0, 0)
    with pytest.raises(ValueError):
        realization_count(0, 1)
    for r, s in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="oriented 2-cycle"):
            realization_count(r, s)


def test_rank_four_oriented_cycle_formula_is_off():
    # the raw specialization at rank 4 does not give the true type D count
    assert a_tilde(0, 4) == 10
    assert d_n_count(4) == 6
    assert a_tilde(0, 4) != d_n_count(4)


def test_d_n_counts():
    assert [d_n_count(n) for n in range(4, 9)] == [6, 26, 80, 246, 810]
    with pytest.raises(ValueError):
        d_n_count(3)


def test_symmetric_counts():
    # symmetric-census-r checks r <= 5 cell by cell against classified
    # members; the marginal identity reaches two ranks further
    for r in (6, 7):
        total = sum(symmetric_count_refined(r, r2) for r2 in range(r // 2 + 1))
        assert total == symmetric_count(r)


def test_derived_class_hand_values():
    assert derived_class_count(1, 0, 1, 0) == 1
    assert derived_class_count(0, 1, 0, 1) == 1
    assert derived_class_count(2, 0, 2, 0) == 2
    assert derived_class_count(2, 0, 0, 1) == 1


def test_derived_class_swap_invariance():
    for r1, r2 in parameter_splits(4):
        for s1, s2 in parameter_splits(3):
            assert derived_class_count(r1, r2, s1, s2) == derived_class_count(
                s1, s2, r1, r2
            )


def test_parameter_splits():
    assert parameter_splits(4) == [(4, 0), (2, 1), (0, 2)]
    assert normalize_parameters(1, 0, 0, 1) == (0, 1, 1, 0)
    assert normalize_parameters(0, 1, 1, 0) == (0, 1, 1, 0)


PAPER_COUNTS = (
    "a_tilde",
    "d_n_count",
    "realization_count",
    "refined_realization_count",
    "symmetric_count",
    "symmetric_count_refined",
    "derived_class_count",
    "list_count",
    "list_count_refined",
)


def test_registry_reaches_every_paper_count(monkeypatch):
    calls = Counter()
    for name in PAPER_COUNTS:
        real = getattr(counting, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(counting, name, counted)
    for _, check in iter_checks(4, 6):
        check()
    assert [name for name in PAPER_COUNTS if not calls[name]] == []


def test_integrality_gate_fires_on_bad_input():
    with pytest.raises(ArithmeticError):
        counting._as_int(Fraction(1, 2))
