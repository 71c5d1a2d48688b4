"""Acceptance gate: the eleven shipped guarantees, one test per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  Every comparison is exact (integers and rationals throughout);
the elapsed-time assertions sit at the documented budgets, far above the
observed runtimes, to catch catastrophic performance regressions only.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from f2rep import (
    DigitSet,
    F2Poly,
    FamilySpec,
    PRESETS,
    ScanConfig,
    beta,
    cofactor,
    count_representations,
    gap_census,
    parity_profile,
    parity_series,
    scan,
    stern,
    verify_family,
)
from f2rep.cli import main
from f2rep.families import build_family, family_prediction
from f2rep.gf2poly import _reciprocal_int

from conftest import F31_STAR_EXPONENTS, F32_STAR_EXPONENTS
from reference import glaisher_sum, odd_binomial_count, one_plus_x_pow


@contextmanager
def criterion(label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, f"{label}: {elapsed:.1f}s over budget {budget_seconds}s"
    except BaseException:
        print(f"FAIL  {label}  [{time.perf_counter() - start:.2f}s]")
        raise
    print(f"PASS  {label}  [{elapsed:.2f}s]")


def best_of_five(fn) -> float:
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_c01_worked_example_degree9(f31):
    with criterion("C1 degree-9 example: order 63, beta (37,26), 37-term cofactor", 5):
        rep = beta(f31)
        assert rep.period == 63
        assert rep.order_exact
        assert rep.beta == (37, 26)
        assert rep.gamma == Fraction(37, 63)
        assert rep.robust
        assert cofactor(f31, 63).exponents() == sorted(F31_STAR_EXPONENTS)
        assert best_of_five(lambda: beta(f31)) < 1e-3


def test_c02_worked_example_degree10(f32):
    with criterion("C2 degree-10 example: order 73, beta (45,28), 45-term cofactor", 5):
        rep = beta(f32)
        assert rep.period == 73
        assert rep.order_exact
        assert rep.beta == (45, 28)
        assert rep.gamma == Fraction(45, 73)
        assert cofactor(f32, 73).exponents() == sorted(F32_STAR_EXPONENTS)
        assert best_of_five(lambda: beta(f32)) < 1e-3


def test_c03_reciprocal_invariance():
    with criterion("C3 reciprocal keeps beta/robust: 4 examples + all degree <= 12", 120):
        for r, variant in ((3, 1), (3, 2)):
            a = beta(build_family(FamilySpec(r, variant, False)))
            b = beta(build_family(FamilySpec(r, variant, True)))
            assert a.beta == b.beta and a.period == b.period and a.robust == b.robust
        for n in range(3, 1 << 13, 2):
            f = F2Poly(n)
            ra, rb = beta(f), beta(F2Poly(_reciprocal_int(n)))
            assert ra.period == rb.period
            assert ra.beta == rb.beta
            assert ra.robust == rb.robust


def test_c04_family_theorems():
    with criterion("C4 family theorems for 3 <= r <= 10, all four members", 60):
        for r in range(3, 11):
            for variant in (1, 2):
                for recip in (False, True):
                    v = verify_family(FamilySpec(r, variant, recip))
                    pred = family_prediction(FamilySpec(r, variant))
                    assert v.order_exact, (r, variant, recip)
                    assert v.beta == (pred.c, pred.d), (r, variant, recip)
                    assert v.matches_prediction
                    if not recip:
                        assert v.closed_form_matches
                    assert v.robust, (r, variant, recip)
                    assert v.gamma > 1 - Fraction(3, 4) ** r


def test_c05_robust_trinomial_table():
    with criterion("C5 robust trinomials to degree 19: exactly the four table rows", 1800):
        rows = [
            (r.poly, r.order, r.ell1, r.ell0)
            for r in scan(PRESETS["trinomials19"])
            if r.robust
        ]
        assert rows == [
            ("x^14 + x^3 + 1", 5115, 2600, 2515),
            ("x^14 + x^11 + 1", 5115, 2600, 2515),
            ("x^19 + x^9 + 1", 174251, 87136, 87115),
            ("x^19 + x^10 + 1", 174251, 87136, 87115),
        ]


def test_c06_gamma_census_below_degree_12():
    with criterion("C6 census degree < 12: 421 of 2048 at gamma 1/2; none robust < 8", 120):
        records = list(scan(ScanConfig(degree_max=11)))
        assert len(records) == 2048
        half = sum(1 for r in records if r.gamma == Fraction(1, 2))
        assert half == 421
        for r in records:
            if r.status != "ok":
                continue
            if r.degree < 8:
                assert not r.robust
                if r.gamma > Fraction(1, 2):
                    m = r.gamma.numerator
                    assert r.gamma.denominator == 2 * m - 1


def test_c07_glaisher_suite():
    with criterion("C7 popcount sums 3^r - 2^r (r <= 20); odd binomials by weight", 5):
        for r in range(2, 21):
            assert glaisher_sum(r) == 3**r - 2**r
        for n in range(1025):
            assert odd_binomial_count(n) == one_plus_x_pow(n).bits.bit_count()


def test_c08_representation_oracle_and_stern():
    with criterion("C8 parity series vs exact counts; Stern correspondence", 30):
        rng = random.Random(0x5EED)
        for _ in range(25):
            size = rng.randint(2, 5)
            digits = (0,) + tuple(sorted(rng.sample(range(1, 13), size - 1)))
            A = DigitSet(digits)
            series = parity_series(A, 2000)
            for n in range(2000):
                assert series[n] == count_representations(A, n) & 1, (digits, n)
        A = DigitSet([0, 1, 2])
        for n in range(1, (1 << 14) + 1):
            assert count_representations(A, n - 1) == stern(n)
        assert parity_series(A, 6) == [1, 1, 0, 1, 1, 0]


def test_c09_parity_profile_theorems():
    with criterion("C9 digit-set parity periods and odd counts for r = 3, 4, 5", 10):
        for r in (3, 4, 5):
            prof = parity_profile(DigitSet([0, 1, 2**r - 1, 2**r + 1]))
            window = 4**r - 1
            assert window % prof.period == 0
            assert len(prof.odd_residues) * (window // prof.period) == 4**r - 3**r

            prof = parity_profile(DigitSet([0, 1, 2**r, 2**r + 2]))
            window = 4**r + 2**r + 1
            assert window % prof.period == 0
            assert (
                len(prof.odd_residues) * (window // prof.period)
                == 4**r - 3**r + 2**r
            )


def test_c10_gap_bound_to_degree_14(f31, f32):
    with criterion("C10 max |ell1-ell0| <= 2^(k/2) for k <= 14; examples 11 and 17", 600):
        for f, gap in ((f31, 11), (f32, 17)):
            ones, zeros = beta(f).beta
            assert abs(ones - zeros) == gap and gap * gap <= 1 << f.degree
        entries = gap_census(14, jobs=2)
        assert [e.degree for e in entries] == list(range(1, 15))
        for e in entries:
            assert e.max_gap * e.max_gap <= 1 << e.degree  # integer-exact form
            assert e.ok
        assert entries[8].max_gap >= 11  # degree 9 includes the worked example
        assert entries[9].max_gap >= 17  # degree 10 likewise


def test_c11_figure_data(tmp_path):
    with criterion("C11 figure rows for odd n in [5, 4096): content + determinism", 300):
        path_a = tmp_path / "figure_a.csv"
        path_b = tmp_path / "figure_b.csv"
        assert main(["figure", "--max", "4096", "--out", str(path_a)]) == 0
        assert main(["figure", "--max", "4096", "--out", str(path_b)]) == 0
        first = path_a.read_bytes()
        assert first == path_b.read_bytes()  # byte-identical reruns

        lines = first.decode("ascii").splitlines()
        assert lines[0] == "n,gamma_num,gamma_den,gamma_decimal"
        assert len(lines) == 1 + 2046  # odd n in [5, 4096)
        gammas = {}
        for line in lines[1:]:
            n, num, den, dec = line.split(",")
            assert 0 <= Fraction(int(num), int(den)) <= 1
            assert 0.0 <= float(dec) <= 1.0
            gammas[int(n)] = Fraction(int(num), int(den))
        assert gammas[643] == Fraction(37, 63)
        assert gammas[515] == Fraction(28, 73)  # derived row, frozen
