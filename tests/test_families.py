"""The two quadrinomial families, their closed forms, and the proof lemmas
(the lemma helpers live in tests/reference.py)."""

from __future__ import annotations

import random
import time
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from f2rep import (
    EXACT_ORDER_CEILING,
    BitCapExceeded,
    F2Poly,
    FamilySpec,
    FamilyVerdict,
    build_family,
    cofactor,
    family_prediction,
    parse_poly,
    verify_family,
)
from f2rep import families
from f2rep.gf2poly import _mul_int, _reciprocal_int
from f2rep.order_beta import _prime_factors, _walk

from reference import (
    ab_lemma_check,
    g_product,
    glaisher_sum,
    odd_binomial_count,
    one_plus_x_pow,
    ref_cofactor,
    ref_exact,
    ref_h_closed_form,
    ref_odd_binomials,
    ref_verify_family,
)


@pytest.mark.parametrize(
    "r,variant,recip,text",
    [
        (3, 1, False, "x^9 + x^7 + x + 1"),
        (3, 1, True, "x^9 + x^8 + x^2 + 1"),
        (3, 2, False, "x^10 + x^8 + x + 1"),
        (3, 2, True, "x^10 + x^9 + x^2 + 1"),
        (2, 1, False, "x^5 + x^3 + x + 1"),
        (1, 1, False, "x^3 + 1"),  # exponents 1 and 2^1-1 collide and cancel
    ],
)
def test_build_examples(r, variant, recip, text):
    assert build_family(FamilySpec(r, variant, recip)) == parse_poly(text)


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(0, 1)
    with pytest.raises(ValueError):
        FamilySpec(3, 3)


@pytest.mark.parametrize("r", range(1, 9))
@pytest.mark.parametrize("variant", [1, 2])
def test_build_reciprocal_is_coefficient_reversal(r, variant):
    f = build_family(FamilySpec(r, variant, False))
    g = build_family(FamilySpec(r, variant, True))
    if r == 1 and variant == 1:
        # Degenerate: 1 + x^3 is a palindrome after the cancellation.
        assert g.bits == _reciprocal_int(f.bits) == f.bits
    else:
        assert g.bits == _reciprocal_int(f.bits)


def test_prediction_counts_partition_period():
    for r in range(1, 12):
        for variant in (1, 2):
            p = family_prediction(FamilySpec(r, variant))
            assert p.c + p.d == p.period
            if r >= 3:
                assert p.c > p.d + 1


def test_g_product_small_cases():
    assert g_product(1, 1) == parse_poly("x + 1")
    assert g_product(1, 2) == parse_poly("x^3 + x^2 + 1")


@pytest.mark.parametrize("r", range(1, 8))
def test_g_product_identities(r):
    # Variant 1: (1 + x^(2^r-1) + x^(2^r)) * g = 1 + x^(4^r - 1).
    t1 = F2Poly.from_exponents([0, 2**r - 1, 2**r])
    assert t1 * g_product(r, 1) == F2Poly(1 | (1 << (4**r - 1)))
    # Variant 2: (1 + x^(2^r) + x^(2^r+1)) * g = 1 + x^(4^r) + x^(4^r + 2^r).
    t2 = F2Poly.from_exponents([0, 2**r, 2**r + 1])
    assert t2 * g_product(r, 2) == F2Poly.from_exponents([0, 4**r, 4**r + 2**r])


def test_one_plus_x_pow_small():
    assert one_plus_x_pow(0) == F2Poly(1)
    assert one_plus_x_pow(1) == parse_poly("x + 1")
    assert one_plus_x_pow(2) == parse_poly("x^2 + 1")
    assert one_plus_x_pow(3) == parse_poly("x^3 + x^2 + x + 1")
    with pytest.raises(ValueError):
        one_plus_x_pow(-1)


@pytest.mark.parametrize("n", range(0, 300))
def test_one_plus_x_pow_weight_is_odd_binomial_count(n):
    assert one_plus_x_pow(n).bits.bit_count() == ref_odd_binomials(n)


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("variant", [1, 2])
def test_closed_form_equals_division_cofactor(r, variant):
    f = build_family(FamilySpec(r, variant))
    period = family_prediction(FamilySpec(r, variant)).period
    assert ref_h_closed_form(r, variant) == cofactor(f, period).bits == ref_cofactor(f.bits, period)


@pytest.mark.parametrize("r", range(1, 12))
@pytest.mark.parametrize("variant", [1, 2])
def test_closed_form_by_halving_matches_the_block_loop(r, variant):
    # The windows build the blocks by the doubling product; the oracle adds one block at a time.
    N = family_prediction(FamilySpec(r, variant)).period
    assert _joined(families._h_windows(r, variant)) == (ref_h_closed_form(r, variant), N + 1)


@pytest.mark.parametrize("r", range(1, 9))
def test_closed_form_term_counts(r):
    pred1 = family_prediction(FamilySpec(r, 1))
    h1 = ref_h_closed_form(r, 1)
    assert h1.bit_count() == pred1.c == 4**r - 3**r
    assert pred1.period - h1.bit_count() == pred1.d == 3**r - 1

    pred2 = family_prediction(FamilySpec(r, 2))
    h2 = ref_h_closed_form(r, 2)
    assert h2.bit_count() == pred2.c == 4**r - 3**r + 2**r
    assert pred2.period - h2.bit_count() == pred2.d == 3**r + 1


@pytest.mark.parametrize(
    "a,b,m",
    [
        (1, 2, 1),
        (7, 8, 3),
        (3, 5, 4),
    ],
)
def test_ab_lemma_examples(a, b, m):
    assert ab_lemma_check(a, b, m)


def test_ab_lemma_randomized():
    rng = random.Random(7)
    for _ in range(40):
        a = rng.randrange(1, 50)
        b = rng.randrange(a + 1, a + 60)
        m = rng.randrange(1, 7)
        assert ab_lemma_check(a, b, m)


def test_ab_lemma_rejects_bad_args():
    with pytest.raises(ValueError):
        ab_lemma_check(2, 2, 3)
    with pytest.raises(ValueError):
        ab_lemma_check(0, 2, 3)
    with pytest.raises(ValueError):
        ab_lemma_check(1, 2, 0)


def test_glaisher_sum_values():
    assert glaisher_sum(2) == 5
    for r in range(2, 13):
        assert glaisher_sum(r) == 3**r - 2**r
    with pytest.raises(ValueError):
        glaisher_sum(1)


def test_odd_binomial_count_values():
    assert odd_binomial_count(0) == 1
    for n in range(200):
        assert odd_binomial_count(n) == ref_odd_binomials(n)
    with pytest.raises(ValueError):
        odd_binomial_count(-1)


def test_verify_family_worked_examples():
    v = verify_family(FamilySpec(3, 1))
    assert v.period == 63
    assert v.order_exact
    assert v.beta == (37, 26)
    assert v.gamma == Fraction(37, 63)
    assert v.matches_prediction and v.closed_form_matches and v.robust

    v = verify_family(FamilySpec(3, 2))
    assert (v.period, v.beta, v.robust) == (73, (45, 28), True)

    # gcd(c, d) != 1 at r=6 variant 2, yet the predicted period is the order.
    v = verify_family(FamilySpec(6, 2))
    assert v.period == 4161 and v.order_exact


def test_verify_family_reciprocal_skips_closed_form():
    v = verify_family(FamilySpec(3, 1, reciprocal=True))
    assert v.closed_form_matches is None
    assert v.beta == (37, 26) and v.robust


def test_verify_family_small_r_reports_measured_robustness():
    # Below r=3 the family guarantee does not apply; results are measured.
    assert not verify_family(FamilySpec(1, 1)).robust
    assert verify_family(FamilySpec(2, 1)).matches_prediction


@pytest.mark.parametrize("variant", [1, 2])
@pytest.mark.parametrize("recip", [False, True])
def test_verify_family_r_up_to_six(variant, recip):
    for r in range(3, 7):
        v = verify_family(FamilySpec(r, variant, recip))
        assert v.order_exact and v.matches_prediction
        assert v.robust
        assert v.gamma > 1 - Fraction(3, 4) ** r


def test_large_r_needs_flag():
    with pytest.raises(ValueError) as exc:
        verify_family(FamilySpec(EXACT_ORDER_CEILING + 1, 1))
    assert "allow_large_r" in str(exc.value)


def test_verify_family_refuses_a_predicted_period_that_is_not_one(monkeypatch):
    true = families.family_prediction(FamilySpec(3, 1))
    wrong = families.FamilyPrediction(period=true.period + 1, c=true.c, d=true.d)
    monkeypatch.setattr(families, "family_prediction", lambda spec: wrong)
    with pytest.raises(ValueError, match=f"not a period: the polynomial does not divide 1 \\+ x\\^{wrong.period}"):
        verify_family(FamilySpec(3, 1))


def test_verify_family_proves_the_closed_form_without_newton(monkeypatch):
    monkeypatch.setattr(families, "_series_walk", lambda f, N, marks: pytest.fail("the series ran"))
    for r in range(1, EXACT_ORDER_CEILING + 1):
        for variant in (1, 2):
            for recip in (False, True):
                v = verify_family(FamilySpec(r, variant, recip))
                assert v.matches_prediction and v.order_exact, (r, variant, recip)
                assert v.closed_form_matches is (None if recip else True)


def test_a_wrong_closed_form_falls_back_to_newton(monkeypatch):
    specs = [FamilySpec(r, v, recip) for r in range(1, 7) for v in (1, 2) for recip in (False, True)]
    truth = {spec: verify_family(spec) for spec in specs}
    right = families._h_windows

    def first_window_flipped(r, variant):
        windows = right(r, variant)
        w, width = next(windows)
        yield w ^ 2, width
        yield from windows

    monkeypatch.setattr(families, "_h_windows", first_window_flipped)
    newton = []
    real = families._series_walk
    monkeypatch.setattr(families, "_series_walk", lambda f, N, marks: newton.append(N) or real(f, N, marks))
    for spec in specs:
        v = verify_family(spec)
        assert v.closed_form_matches is (None if spec.reciprocal else False)
        assert (v.beta, v.order_exact) == (truth[spec].beta, truth[spec].order_exact)
        assert v.matches_prediction
    assert len(newton) == len(specs)


def _joined(windows) -> tuple[int, int]:
    """The (bits, width) windows concatenated from x^0, and where they end."""
    parts = []
    for w, width in windows:
        assert w >> width == 0, "a window holds bits past its width"
        parts.append(format(w, f"0{width}b"))
    text = "".join(reversed(parts))
    return int(text, 2), len(text)


def _window_settings(r):
    """The window constant for one window, 2^(r - r//2) windows, one window
    per term, and the default, each with the number of windows it gives."""
    return [(64, 1), (r + r // 2, 1 << (r - r // 2)), (0, 1 << r), (families._WINDOW_LOG2, None)]


@pytest.mark.parametrize("r", range(1, 13))
@pytest.mark.parametrize("variant", [1, 2])
def test_the_windows_concatenate_to_the_closed_form(monkeypatch, r, variant):
    h = ref_h_closed_form(r, variant)
    N = family_prediction(FamilySpec(r, variant)).period
    for log2, count in _window_settings(r):
        monkeypatch.setattr(families, "_WINDOW_LOG2", log2)
        windows = list(families._h_windows(r, variant))
        assert count is None or len(windows) == count
        assert _joined(windows) == (h, N + 1), log2


@pytest.mark.parametrize("r", range(1, 13))
@pytest.mark.parametrize("variant", [1, 2])
def test_the_window_walk_gives_the_whole_int_verdict(monkeypatch, r, variant):
    spec = FamilySpec(r, variant)
    truth = ref_verify_family(spec)
    assert truth.closed_form_matches
    for log2, _ in _window_settings(r):
        monkeypatch.setattr(families, "_WINDOW_LOG2", log2)
        assert verify_family(spec, allow_large_r=True) == truth, log2


def _stream_mutants():
    """Faults in the window stream, each of which the walk must refuse."""

    def flipped(positions):
        def mutate(windows, r, s, N, d):
            lo = 0
            for w, width in windows:
                for j in positions(r, s, N, d):
                    if lo <= j < lo + width:
                        w ^= 1 << (j - lo)
                yield w, width
                lo += width

        return mutate

    def stopped_at_deg_h(windows, r, s, N, d):
        *body, (w, width) = windows
        yield from body
        yield w, width - d  # the last window ends at x^(deg h + 1)

    return {
        # The middle bit of term n = 2^(r-1) - 1, x^(s(n+1)) (1+x)^n.
        "a_flipped_bit_in_one_term": flipped(
            lambda r, s, N, d: [(s << r - 1) + ((1 << r - 1) - 1) // 2]
        ),
        # Term 2^r - 1, x^(s 2^r) (1+x)^(2^r - 1), a run of 2^r ones, left in h.
        "the_last_term_kept": flipped(lambda r, s, N, d: range(s << r, (s + 1) << r)),
        "h_s_top_bit_set": flipped(lambda r, s, N, d: [N - d + 1]),
        "x_to_the_N_set": flipped(lambda r, s, N, d: [N]),
        "windows_that_stop_at_deg_h": stopped_at_deg_h,
    }


@pytest.mark.parametrize("mutant", sorted(_stream_mutants()))
def test_a_faulty_window_stream_is_refused_and_newton_runs(monkeypatch, mutant):
    mutate = _stream_mutants()[mutant]
    specs = [FamilySpec(r, v) for r in range(1, 9) for v in (1, 2)]
    truth = {spec: verify_family(spec) for spec in specs}
    right = families._h_windows

    def faulty(r, variant):
        s = (1 << r) - 1 if variant == 1 else 1 << r
        f = build_family(FamilySpec(r, variant))
        N = family_prediction(FamilySpec(r, variant)).period
        return mutate(right(r, variant), r, s, N, f.degree)

    monkeypatch.setattr(families, "_h_windows", faulty)
    newton = []
    real = families._series_walk
    monkeypatch.setattr(families, "_series_walk", lambda f, N, marks: newton.append(N) or real(f, N, marks))
    for spec in specs:
        v = verify_family(spec)
        assert v == replace(truth[spec], closed_form_matches=False), spec
    assert len(newton) == len(specs)


@pytest.mark.parametrize("r", range(1, 9))
@pytest.mark.parametrize("variant", [1, 2])
def test_reversed_closed_form_is_the_reciprocal_members_cofactor(r, variant):
    spec = FamilySpec(r, variant, True)
    period = family_prediction(spec).period
    assert _reciprocal_int(ref_h_closed_form(r, variant)) == cofactor(build_family(spec), period).bits


def test_admission_refuses_a_huge_r_before_predicting(monkeypatch):
    monkeypatch.delenv("F2REP_BIT_CAP", raising=False)
    monkeypatch.setattr(families, "family_prediction", lambda spec: pytest.fail("predicted"))
    with pytest.raises(BitCapExceeded, match="r=30000000 needs more than 4\\^30000000"):
        verify_family(FamilySpec(30_000_000, 1), allow_large_r=True)


@pytest.mark.parametrize(
    "call",
    [
        lambda: g_product(8000, 1),
        lambda: ab_lemma_check(1, 2, 20000),
    ],
    ids=["g_product", "ab_lemma_check"],
)
def test_sizes_past_4300_digits_are_refused_by_the_cap(monkeypatch, call):
    # A decimal of the size would pass Python's int-to-str digit limit.
    monkeypatch.delenv("F2REP_BIT_CAP", raising=False)
    t0 = time.perf_counter()
    with pytest.raises(BitCapExceeded, match="needs more than 2\\^") as exc:
        call()
    assert time.perf_counter() - t0 < 1
    assert len(str(exc.value)) < 200


def _reciprocal_verdict_on_its_own(r: int, variant: int) -> FamilyVerdict:
    """The reciprocal member proved by itself: the closed form reversed, its
    own product check, and exactness from the period-shift oracle."""
    spec = FamilySpec(r, variant, True)
    pred = family_prediction(spec)
    N = pred.period
    h = _reciprocal_int(ref_h_closed_form(r, variant))
    assert _mul_int(build_family(spec).bits, h) == (1 << N) | 1
    ones = h.bit_count()
    return FamilyVerdict(
        spec=spec,
        period=N,
        order_exact=ref_exact(h, N),
        beta=(ones, N - ones),
        gamma=Fraction(ones, N),
        matches_prediction=(ones, N - ones) == (pred.c, pred.d),
        closed_form_matches=None,
        robust=2 * ones > N + 1,
    )


def test_reciprocal_member_shares_beta():
    for r in range(1, 10):
        for variant in (1, 2):
            a = verify_family(FamilySpec(r, variant, False))
            b = verify_family(FamilySpec(r, variant, True))
            assert a.beta == b.beta and a.robust == b.robust
            own = _reciprocal_verdict_on_its_own(r, variant)
            for field in fields(FamilyVerdict):
                assert getattr(b, field.name) == getattr(own, field.name), (r, variant, field.name)


@pytest.mark.parametrize("r", range(1, EXACT_ORDER_CEILING + 1))
@pytest.mark.parametrize("variant", [1, 2])
def test_family_exactness_matches_the_period_shift_oracle(r, variant):
    # At N the order, over the family's windows, and at 3N, where the
    # cofactor is h (1 + x^N + x^2N), over one window.
    f = build_family(FamilySpec(r, variant)).bits
    N = family_prediction(FamilySpec(r, variant)).period
    h = ref_h_closed_form(r, variant)
    h3 = h ^ (h << N) ^ (h << 2 * N)
    walked = _walk(f, N, families._h_windows(r, variant), [N // p for p in _prime_factors(N)])
    assert walked == (h.bit_count(), ref_exact(h, N))
    assert ref_exact(h, N) == verify_family(FamilySpec(r, variant)).order_exact
    marks = [3 * N // p for p in _prime_factors(3 * N)]
    assert _walk(f, 3 * N, [(h3, 3 * N + 1)], marks) == (3 * h.bit_count(), False)
    assert ref_exact(h3, 3 * N) is False
