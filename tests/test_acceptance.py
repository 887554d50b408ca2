"""Acceptance suite: one test per release criterion, one printed line each.

Run with plain pytest; the PASS/FAIL lines bypass capture so they are
visible either way.  Every tolerance is exact integer or exact rational
equality.  Criteria 2 to 6 run the cross-checks of ``quivercount.verify``
at the scale of ``quivercount verify --n-max 10 --degree 12``, selected by
name prefix.
"""

import itertools
import random
import time

from oracles import random_quiver, relabel
from quivercount import counting
from quivercount.canonical import canonical_key
from quivercount.cli import run
from quivercount.quiver import mutate
from quivercount.verify import CHECK_FAILURES, iter_checks

CHECKS = iter_checks(10, 12)

EXPECTED_TABLE_TEXT = [
    "2 | 1",
    "3 | 2",
    "4 | 5 4",
    "5 | 14 12",
    "6 | 42 36 22",
    "7 | 132 108 100",
    "8 | 429 349 315 172",
    "9 | 1430 1144 1028 980",
    "10 | 4862 3868 3432 3240 1651",
]


def _report(capsys, num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"criterion {num} {status}: {desc}")
    assert not failures, failures


def test_criterion_1_table_regression(capsys):
    start = time.time()
    assert run(["table", "--n-max", "10"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    elapsed = time.time() - start
    failures = []
    if lines != EXPECTED_TABLE_TEXT:
        failures.append(f"table output mismatch: {lines}")
    if elapsed >= 1.0:
        failures.append(f"table took {elapsed:.2f}s, budget is 1s")
    _report(capsys, 1, "reference table reproduced exactly, under 1s", failures)


def _run_registry(prefixes):
    """Run the registry's checks whose names start with one of ``prefixes``."""
    failures = []
    selected = [(name, thunk) for name, thunk in CHECKS if name.startswith(prefixes)]
    if not selected:
        failures.append(f"no registry check starts with {prefixes}")
    for name, thunk in selected:
        try:
            thunk()
        except CHECK_FAILURES as exc:
            failures.append(f"{name}: {exc}")
    return failures


def test_criterion_2_formula_vs_enumeration(capsys):
    failures = _run_registry(("class-size-atilde-",))
    _report(capsys, 2, "class sizes equal closed forms for 2 <= r+s <= 10", failures)


def test_criterion_3_type_d_cross_check(capsys):
    failures = _run_registry(("class-size-dynkin-d-",))
    _report(
        capsys,
        3,
        "type D class sizes match for n = 4..10, rank 4 exception included, "
        "and classify rejects every member",
        failures,
    )


def test_criterion_4_refined_partition(capsys):
    failures = _run_registry(("parameter-census-", "marginalization-"))
    _report(
        capsys,
        4,
        "parameter censuses match refined counts for r+s <= 10, "
        "marginals for r, s <= 8",
        failures,
    )


def test_criterion_5_symmetric_census(capsys):
    failures = _run_registry(("symmetric-census-",))
    _report(capsys, 5, "coinciding-realization censuses match per r2 cell for r <= 5", failures)


def test_criterion_6_series_oracle_suite(capsys):
    failures = _run_registry(("series-",))
    _report(capsys, 6, "series identities and list counts hold exactly to total degree 12", failures)


def test_criterion_7_property_tests(capsys):
    failures = []

    rng = random.Random(0xA11CE)
    for trial in range(10_000):
        q = random_quiver(rng, rng.randint(2, 8))
        k = rng.randrange(q.n)
        if mutate(mutate(q, k), k) != q:
            failures.append(f"involution broken at trial {trial}")
            break
        perm = list(range(q.n))
        rng.shuffle(perm)
        if mutate(relabel(q, perm), perm[k]) != relabel(mutate(q, k), perm):
            failures.append(f"equivariance broken at trial {trial}")
            break

    per_size = {2: 10, 3: 10, 4: 8, 5: 6, 6: 4, 7: 3}
    for n, reps in per_size.items():
        for _ in range(reps):
            q = random_quiver(rng, n)
            key = canonical_key(q)
            for perm in itertools.permutations(range(n)):
                if canonical_key(relabel(q, perm)) != key:
                    failures.append(f"canonical key not invariant on n={n}")
                    break

    # integrality gates stayed silent throughout criteria 1..6; sweep again
    try:
        for r in range(1, 9):
            for s in range(r, 9):
                assert isinstance(counting.a_tilde(r, s), int)
                for r2 in range(r // 2 + 1):
                    for s2 in range(s // 2 + 1):
                        assert isinstance(
                            counting.refined_realization_count(r, r2, s, s2), int
                        )
        for n in range(4, 13):
            assert isinstance(counting.d_n_count(n), int)
    except ArithmeticError as exc:
        failures.append(f"integrality assertion fired: {exc}")

    _report(
        capsys,
        7,
        "mutation involution/equivariance on 10^4 pairs, exhaustive key invariance, integrality",
        failures,
    )
