"""Representation counting, parity structure, and the Stern correspondence."""

from __future__ import annotations

import random
import time

import pytest

from f2rep import (
    DigitSet,
    F2Poly,
    count_representations,
    diatomic_row,
    parity_profile,
    parity_series,
    phi,
    parse_poly,
    stern,
)

from reference import (
    ref_count_peeling,
    ref_count_reps,
    ref_diatomic_row,
    ref_parity_series,
    ref_parity_series_via_cofactor,
    ref_stern,
)


def test_digit_set_validation():
    assert DigitSet([2, 0, 1]).digits == (0, 1, 2)
    with pytest.raises(ValueError):
        DigitSet([1, 2])  # missing 0
    with pytest.raises(ValueError):
        DigitSet([0, 1, 1])
    with pytest.raises(ValueError):
        DigitSet([0, -1])
    with pytest.raises(ValueError):
        DigitSet([])


def test_digit_set_parse():
    assert DigitSet.parse("{0,1,2}").digits == (0, 1, 2)
    assert DigitSet.parse(" { 0 , 9 , 1 , 7 } ").digits == (0, 1, 7, 9)
    assert str(DigitSet([0, 9, 1, 7])) == "{0,1,7,9}"
    with pytest.raises(ValueError) as exc:
        DigitSet.parse("{0,1,x}")
    assert "bad digit 'x'" in str(exc.value)
    with pytest.raises(ValueError):
        DigitSet.parse("0,1,2")
    with pytest.raises(ValueError):
        DigitSet.parse("{}")


def test_digit_set_equality_ignores_order():
    assert DigitSet([0, 2, 1]) == DigitSet([0, 1, 2])
    assert hash(DigitSet([0, 2, 1])) == hash(DigitSet([0, 1, 2]))
    assert DigitSet([0, 1]) != DigitSet([0, 2])


def test_phi_examples():
    assert phi(DigitSet([0, 1])) == parse_poly("x + 1")
    assert phi(DigitSet([0, 1, 2])) == parse_poly("x^2 + x + 1")
    assert phi(DigitSet([0, 1, 7, 9])) == parse_poly("x^9 + x^7 + x + 1")


def test_count_examples():
    A = DigitSet([0, 1, 2])
    assert count_representations(A, 4) == 3
    assert count_representations(A, 0) == 1
    B = DigitSet([0, 1])
    assert all(count_representations(B, n) == 1 for n in range(200))
    with pytest.raises(ValueError):
        count_representations(A, -1)


def test_count_against_brute_force():
    rng = random.Random(11)
    for _ in range(12):
        k = rng.randrange(2, 5)
        digits = (0,) + tuple(sorted(rng.sample(range(1, 9), k - 1)))
        A = DigitSet(digits)
        for n in range(40):
            assert count_representations(A, n) == ref_count_reps(digits, n)


def test_count_handles_deep_arguments():
    # Iterative peeling: must not hit the recursion limit on big n.
    A = DigitSet([0, 1, 2])
    assert count_representations(A, (1 << 3000) - 1) > 0


def test_parity_series_examples():
    A = DigitSet([0, 1, 2])
    assert parity_series(A, 8) == [1, 1, 0, 1, 1, 0, 1, 1]
    assert parity_series(DigitSet([0, 1]), 6) == [1] * 6
    assert parity_series(A, 0) == []
    with pytest.raises(ValueError):
        parity_series(A, -1)


def test_parity_series_matches_counts():
    rng = random.Random(23)
    for _ in range(8):
        k = rng.randrange(2, 6)
        digits = (0,) + tuple(sorted(rng.sample(range(1, 13), k - 1)))
        A = DigitSet(digits)
        bits = parity_series(A, 300)
        for n in range(300):
            assert bits[n] == count_representations(A, n) % 2


@pytest.mark.parametrize(
    "digits",
    [(0,), (0, 1), (0, 1, 2), (0, 1, 7, 9), (0, 3, 100, 1000), (0, 64, 65), (0, 1, 10**12)],
)
def test_parity_series_matches_the_list_recurrence(digits):
    A = DigitSet(digits)
    for N in (0, 1, 2, 65, 10000):
        assert parity_series(A, N) == ref_parity_series(A, N)


def test_parity_series_two_routes_agree():
    for digits in [(0, 1, 2), (0, 1, 7, 9), (0, 2, 3), (0, 1, 4, 6)]:
        A = DigitSet(digits)
        N = 3 * parity_profile(A).period
        assert parity_series(A, N) == ref_parity_series_via_cofactor(A, N)


def test_parity_series_inverts_phi():
    # phi * series-as-polynomial must be 1 + (terms of degree >= N).
    for digits in [(0, 1, 2), (0, 1, 7, 9), (0, 3, 4)]:
        A = DigitSet(digits)
        N = 200
        bits = parity_series(A, N)
        series = F2Poly(sum(b << i for i, b in enumerate(bits)))
        assert (phi(A) * series).bits & ((1 << N) - 1) == 1


def test_parity_profile_examples():
    prof = parity_profile(DigitSet([0, 1, 2]))
    assert prof.period == 3
    assert prof.odd_residues == (0, 1)

    prof = parity_profile(DigitSet([0, 1, 7, 9]))
    assert prof.period == 63
    assert len(prof.odd_residues) == 37

    prof = parity_profile(DigitSet([0, 1]))
    assert (prof.period, prof.odd_residues) == (1, (0,))


def test_parity_is_periodic():
    A = DigitSet([0, 1, 4, 6])
    prof = parity_profile(A)
    bits = parity_series(A, 3 * prof.period)
    assert bits[: prof.period] * 3 == bits
    odd = tuple(i for i, b in enumerate(bits[: prof.period]) if b)
    assert odd == prof.odd_residues


@pytest.mark.parametrize(
    "n,value",
    [(0, 0), (1, 1), (2, 1), (3, 2), (4, 1), (5, 3), (6, 2), (7, 3), (8, 1), (11, 5)],
)
def test_stern_values(n, value):
    assert stern(n) == value


def test_stern_against_recursion():
    for n in range(2048):
        assert stern(n) == ref_stern(n)
    with pytest.raises(ValueError):
        stern(-1)


def test_stern_counts_representations():
    A = DigitSet([0, 1, 2])
    for n in range(1, 1 << 10):
        assert count_representations(A, n - 1) == stern(n)


def test_diatomic_rows():
    assert diatomic_row(0) == [1, 1]
    assert diatomic_row(1) == [1, 2, 1]
    assert diatomic_row(2) == [1, 3, 2, 3, 1]
    assert diatomic_row(3) == [1, 4, 3, 5, 2, 5, 3, 4, 1]
    with pytest.raises(ValueError):
        diatomic_row(-1)
    with pytest.raises(ValueError, match="row k has 2\\^k \\+ 1 entries; k above 26 is refused"):
        diatomic_row(27)


def test_diatomic_rows_match_insertion():
    for k in range(17):
        assert diatomic_row(k) == ref_diatomic_row(k)


def test_diatomic_row_structure():
    prev = diatomic_row(0)
    for k in range(1, 13):
        row = diatomic_row(k)
        assert len(row) == (1 << k) + 1
        assert row == row[::-1]  # palindrome
        assert sum(row) == 3**k + 1
        assert row[0::2] == prev  # parents survive in even slots
        # Inserted entries are the parent pair sums.
        assert row[1::2] == [prev[i] + prev[i + 1] for i in range(len(prev) - 1)]
        prev = row


def test_diatomic_row_reads_off_stern():
    # Row k lists stern(2^k), stern(2^k + 1), ..., stern(2^(k+1)).
    for k in range(8):
        assert diatomic_row(k) == [stern(n) for n in range(1 << k, (1 << (k + 1)) + 1)]


def test_count_matches_the_oracles_on_wide_digit_sets():
    # The carry recurrence keeps up to max(A) + 1 carries a level: digits up to
    # 200 against brute force on small n, and against digit peeling on big n.
    rng = random.Random(0xD161)
    for _ in range(20):
        digits = (0,) + tuple(sorted(rng.sample(range(1, 201), rng.randrange(1, 4))))
        A = DigitSet(digits)
        for n in rng.sample(range(64), 6):
            assert count_representations(A, n) == ref_count_reps(digits, n), (digits, n)
        for n in (rng.getrandbits(64), rng.getrandbits(200)):
            assert count_representations(A, n) == ref_count_peeling(digits, n), (digits, n)


def test_count_over_zero_alone():
    A = DigitSet([0])
    assert [count_representations(A, n) for n in range(5)] == [1, 0, 0, 0, 0]
    assert count_representations(A, 1 << 100) == 0


def test_parity_profile_refuses_zero_alone():
    # phi = 1: the parities are 1, 0, 0, ..., which no purely periodic profile describes.
    with pytest.raises(ValueError, match=r"digit set \{0\} has phi = 1: .* not purely periodic"):
        parity_profile(DigitSet([0]))
    assert parity_series(DigitSet([0]), 4) == [1, 0, 0, 0]


def test_count_of_a_wide_set_at_a_30_digit_n():
    # 8054785087996287 is what the memoized digit-peeling walk gave.
    t0 = time.perf_counter()
    assert count_representations(DigitSet((0, 1, 10000)), 10**30) == 8054785087996287
    assert time.perf_counter() - t0 < 3
