"""Order, cofactor, beta statistics, robustness, and the gap bound."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from functools import cache, reduce
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from f2rep import F2Poly, beta, beta_N, cofactor, order, order_beta, parse_poly

from f2rep.gf2poly import _exponents_int, _modpow_x_int, _mul_int, _reciprocal_int
from f2rep.order_beta import (
    _ORDER_SCAN_MAX,
    _dense_orders,
    _is_prime,
    _order_factored_int,
    _order_int,
    _order_scan_int,
    _prime_factors,
    _series,
    _series_walk,
    _stats,
    _walk,
)

from conftest import F31_STAR_EXPONENTS, F32_STAR_EXPONENTS
from reference import (
    bits_of,
    ref_cofactor,
    ref_exact,
    ref_mul,
    ref_newton_series,
    ref_order,
    ref_primes,
)


@pytest.mark.parametrize(
    "poly,D",
    [
        ("x^2 + x + 1", 3),
        ("x^9 + x^7 + x + 1", 63),
        ("x^10 + x^8 + x + 1", 73),
        ("x^14 + x^3 + 1", 5115),
        ("x + 1", 1),
        ("x^9 + x + 1", 73),
    ],
)
def test_order_examples(poly, D):
    assert order(parse_poly(poly)) == D


def test_order_rejects_bad_domain():
    with pytest.raises(ValueError):
        order(parse_poly("x^2 + x"))  # constant term 0
    with pytest.raises(ValueError):
        order(parse_poly("1"))  # degree 0


def test_order_bound_exceeded():
    # The path scan --order-bound runs: no period up to the bound is None.
    bits = parse_poly("x^9 + x^7 + x + 1").bits
    assert _order_int(bits, 62) is None
    assert _order_int(bits, 63) == 63


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=(1 << 11) - 1))
def test_order_matches_stepwise_oracle(high):
    f = F2Poly((high << 1) | 1)
    D = order(f)
    assert D == ref_order(set(f.exponents()), 1 << f.degree)
    # Minimality, restated through the period check.
    assert beta_N(f, D).order_exact


@cache
def _stepped_orders() -> dict[int, int]:
    """The order of every odd n of degree 1 .. 12 by stepping x^k up to 2^deg - 1."""
    return {n: _order_scan_int(n, (1 << n.bit_length() - 1) - 1) for n in range(3, 1 << 13, 2)}


def test_factored_order_matches_the_scan_up_to_degree_12():
    for n, D in _stepped_orders().items():
        assert _order_factored_int(n) == D, n


def test_only_a_bound_below_the_step_limit_steps(monkeypatch):
    # With stepping made to fail, an unbounded order, and one under any bound
    # from _ORDER_SCAN_MAX up, is factored, and matches the stepping oracle.
    expected = _stepped_orders()
    monkeypatch.setattr(order_beta, "_order_scan_int", lambda *a: pytest.fail("stepped"))
    for n, D in expected.items():
        assert _order_int(n, None) == D, n
        for bound in (_ORDER_SCAN_MAX, 3 * _ORDER_SCAN_MAX // 2, 1 << 40):
            assert _order_int(n, bound) == (D if D <= bound else None), (n, bound)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=13, max_value=28).flatmap(
    lambda d: st.integers(min_value=0, max_value=(1 << (d - 1)) - 1).map(
        lambda mid: (1 << d) | (mid << 1) | 1)))
def test_order_certificate_degrees_13_to_28(n):
    D = order(F2Poly(n))
    assert D <= (1 << (n.bit_length() - 1)) - 1
    assert _modpow_x_int(D, n) == 1
    assert all(_modpow_x_int(D // p, n) != 1 for p in ref_primes(D))


# Orders at the crossover: x^10 + x^3 + 1 is primitive, of order 1023, and
# (x + 1)^513 = (x^512 + 1)(x + 1) has order 1024.
X10_PRIMITIVE = (1 << 10) | (1 << 3) | 1
X_PLUS_1_POW_513 = (1 << 513) | (1 << 512) | 0b11


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=(1 << 13) - 1).map(lambda h: (h << 1) | 1),
    st.integers(min_value=1, max_value=2 * _ORDER_SCAN_MAX),
)
@example(X10_PRIMITIVE, _ORDER_SCAN_MAX - 1)
@example(X10_PRIMITIVE, _ORDER_SCAN_MAX)
@example(X_PLUS_1_POW_513, _ORDER_SCAN_MAX - 1)
@example(X_PLUS_1_POW_513, _ORDER_SCAN_MAX)
def test_order_kernel_agrees_with_the_scan_on_both_sides_of_the_crossover(n, bound):
    assert _order_int(n, bound) == _order_scan_int(n, bound)


@pytest.mark.parametrize(
    "poly,candidate,divides,exact",
    [
        ("x^9 + x^7 + x + 1", 63, True, True),
        ("x^9 + x^7 + x + 1", 126, True, False),
        ("x^9 + x^7 + x + 1", 62, False, False),
        ("x^66 + x^64 + x + 1", 4161, True, True),  # order stays exact at r=6
        ("x + 1", 1, True, True),
        ("x + 1", 2, True, False),
    ],
)
def test_beta_n_checks_a_claimed_period(poly, candidate, divides, exact):
    f = parse_poly(poly)
    if not divides:
        with pytest.raises(ValueError, match="not a period"):
            beta_N(f, candidate)
    else:
        assert beta_N(f, candidate).order_exact == exact


@pytest.mark.parametrize(
    "n,primes",
    [
        (1, ()),
        (1 << 10, (2,)),
        (360, (2, 3, 5)),
        ((1 << 39) - 1, (7, 79, 8191, 121369)),
        ((1 << 63) - 1, (7, 73, 127, 337, 92737, 649657)),
        (3 * ((1 << 61) - 1), (3, (1 << 61) - 1)),  # prime past the trial budget
        ((1 << 11) - 1, (23, 89)),  # 11 is prime but 2^11 - 1 is not
        ((1 << 89) - 1, ((1 << 89) - 1,)),  # Mersenne primes past Miller-Rabin
        ((1 << 127) - 1, ((1 << 127) - 1,)),
    ],
)
def test_prime_factors(n, primes):
    assert _prime_factors(n) == primes


def test_prime_factors_match_trial_division_below_3000():
    for n in range(1, 3000):
        assert _prime_factors(n) == ref_primes(n)


def test_prime_factors_refuse_a_cofactor_past_the_budget():
    # 2^71 - 1 = 228479 * 48544121 * 212885833: the last two are past 2^20.
    with pytest.raises(ValueError, match=f"cannot factor {(1 << 71) - 1}"):
        _prime_factors((1 << 71) - 1)


def test_miller_rabin_bases_reach_41():
    # A strong pseudoprime to every prime base up to 37; base 41 exposes it.
    assert not _is_prime(318665857834031151167461)
    assert _is_prime((1 << 61) - 1)
    assert _is_prime((1 << 31) - 1)


def test_cofactor_matches_frozen_expansions(f31, f32):
    assert cofactor(f31, 63).exponents() == sorted(F31_STAR_EXPONENTS)
    assert cofactor(f32, 73).exponents() == sorted(F32_STAR_EXPONENTS)


@pytest.mark.parametrize("D", [1, 2, 7, 63, 100])
def test_cofactor_of_binomial_is_one(D):
    assert cofactor(F2Poly(1 | (1 << D)), D) == F2Poly(1)


def test_cofactor_small_example():
    assert cofactor(parse_poly("x^2 + x + 1"), 3) == parse_poly("x + 1")


def test_cofactor_rejects_non_period(f31):
    with pytest.raises(ValueError) as exc:
        cofactor(f31, 62)
    assert "not a period" in str(exc.value)
    for N in (1, 8):  # below the degree 9
        with pytest.raises(ValueError, match="not a period"):
            cofactor(f31, N)
    with pytest.raises(ValueError):
        cofactor(f31, 0)
    with pytest.raises(ValueError):
        cofactor(parse_poly("x^2 + x"), 3)


def test_cofactor_of_the_constant_one():
    assert cofactor(F2Poly(1), 5) == parse_poly("x^5 + 1")


@cache
def _kernel_orders() -> dict[int, int]:
    """_order_int, the oracle, for every odd f < 2^15, shared by the tests below."""
    return {f: _order_int(f, None) for f in range(3, 1 << 15, 2)}


def test_dense_orders_match_the_kernel_below_2_15():
    sieve = _dense_orders()
    for d in range(15):
        table, ones = next(sieve)
        assert len(table) == len(ones) == 1 << d  # every odd n < 2^(d + 1), at n >> 1
    assert table[0] == ones[0] == 0  # the constant 1 has no order
    assert {f: table[f >> 1] for f in range(3, 1 << 15, 2)} == _kernel_orders()


def test_dense_orders_match_the_stepwise_oracle_below_2_9():
    sieve = _dense_orders()
    for _ in range(9):
        table, _ones = next(sieve)
    for f in range(3, 1 << 9, 2):
        assert table[f >> 1] == ref_order(set(F2Poly(f).exponents()), 1 << (f.bit_length() - 1)), f


def _products_of_coprime_primitives(degree_max: int) -> set[int]:
    """Every f of degree <= degree_max that is a product of distinct primitive
    polynomials of pairwise coprime degrees, 1 + x among them: those of
    degree k with order 2^k - 1 (Lidl & Niederreiter, Thm 3.16)."""
    primitive: dict[int, list[int]] = {}
    for f, D in _kernel_orders().items():
        k = f.bit_length() - 1
        if k <= degree_max and D == (1 << k) - 1:
            primitive.setdefault(k, []).append(f)
    out: set[int] = set()

    def extend(f: int, degrees: tuple[int, ...]) -> None:
        # Factors are taken by rising degree; degree 1 has only 1 + x.
        for k in range(degrees[-1] + 1 if degrees else 1, degree_max - f.bit_length() + 2):
            if all(gcd(k, e) == 1 for e in degrees):
                for p in primitive[k]:
                    out.add(g := _mul_int(f, p))
                    extend(g, degrees + (k,))

    extend(1, ())
    return out


def test_dense_counts_match_newton_on_every_covered_polynomial_below_2_15():
    sieve = _dense_orders()
    for _ in range(15):
        table, ones = next(sieve)
    covered = {f for f in range(3, 1 << 15, 2) if ones[f >> 1]}
    assert covered == _products_of_coprime_primitives(14)
    # 1 + x, then (1 + x)(1 + x + x^2) and (1 + x + x^2)(1 + x + x^3), orders 3 and 21.
    assert len(covered) == 5831 and {3, 9, 49} <= covered
    assert ones[3 >> 1] == 1  # 1 + x: order 1, cofactor 1
    assert ones[31 >> 1] == 0  # x^4 + x^3 + x^2 + x + 1: irreducible, order 5
    assert ones[5 >> 1] == ones[21 >> 1] == 0  # (1 + x)^2 and (1 + x + x^2)^2
    assert ones[15 >> 1] == 0  # (1 + x)^3
    for f in sorted(covered):
        D = _kernel_orders()[f]
        count, _, h = _series_walk(f, D, ())
        assert ones[f >> 1] == count == h.bit_count(), f


@cache
def _sieve_to_degree_16() -> tuple:
    sieve = _dense_orders()
    for _ in range(17):
        tables = next(sieve)
    return tables


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1 << 14, max_value=(1 << 16) - 1))
@example(((1 << 15) | 3) >> 1)  # x^15 + x + 1, primitive
def test_dense_counts_match_newton_on_degrees_15_and_16(i):
    # Each drawn odd f of degree 15 or 16: a count, where the sieve gives one,
    # is Newton's, and the order is the factoring kernel's.
    orders, ones = _sieve_to_degree_16()
    f = 2 * i + 1
    D = orders[i]
    assert D == _order_int(f, None)
    if ones[i]:
        count, _, h = _series_walk(f, D, ())
        assert ones[i] == count == h.bit_count(), f


def test_newton_cofactor_matches_division_on_every_small_polynomial():
    # Fails if a tap is dropped from the list, the constant term is kept in
    # it, or a step's mask is built at the previous precision.
    for f in range(3, 1 << 13, 2):
        D = _kernel_orders()[f]
        for N in (D, 2 * D):
            assert _series_walk(f, N, ())[2] == ref_cofactor(f, N), (f, N)
        if D > 1:  # x + 1 alone has order 1, which divides every N
            # Next to the order, and below the degree: no period, no cofactor.
            for N in (D - 1, D + 1, f.bit_length() - 2):
                with pytest.raises(ValueError, match="not a period"):
                    _series_walk(f, N, ())
    with pytest.raises(ValueError, match="not a period"):
        _series_walk(3, 0, ())


def _product_series(fbits: int, N: int) -> int:
    return _series(fbits, N, _exponents_int(fbits ^ 1))


def test_the_product_series_is_newtons_on_every_polynomial_to_degree_14():
    # Fails if a factor f(x^(2^i)) is left out, the product stops a step
    # early, or a shifted g is cut at x^L's bit rather than below it.
    for f, D in _kernel_orders().items():
        assert _product_series(f, D) == ref_newton_series(f, D), f


# Factors of degree 1 .. 7, so that products of degree 15 .. 28 keep small orders.
_small_factors = st.integers(min_value=1, max_value=(1 << 7) - 1).map(lambda h: (h << 1) | 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(_small_factors, min_size=2, max_size=8))
@example([(1 << 7) | 1, (1 << 7) | (1 << 3) | 1, 0b111, 0b1011])  # taps[0] = 3
def test_the_product_series_is_newtons_at_a_period_on_degrees_15_to_28(factors):
    f = reduce(_mul_int, factors)
    assume(15 <= f.bit_length() - 1 <= 28)
    D = _order_int(f, 1 << 20)
    assume(D is not None)
    for N in (D, 2 * D):
        assert _product_series(f, N) == ref_newton_series(f, N), (f, N)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1 << 14, max_value=(1 << 28) - 1),
    st.integers(min_value=1, max_value=18),
    st.sampled_from([-1, 0, 1]),
)
@example((1 << 27) | (1 << 12), 16, 0)  # 1 + x^13 + x^28: the last factor's tap is 13
def test_the_product_series_is_newtons_next_to_powers_of_two(high, k, step):
    # Degrees 15 .. 28 and L = 2^k - 1, 2^k, 2^k + 1, so that taps[0] 2^i
    # lands just below, on and just past L: the series needs no period.
    f = (high << 1) | 1
    L = (1 << k) + step
    N = L + f.bit_length() - 2
    assert _product_series(f, N) == ref_newton_series(f, N), (f, L)


def test_the_product_series_squares_nothing(monkeypatch, f31):
    def refuse(a):
        raise AssertionError("the series squared")

    monkeypatch.setattr(order_beta, "_square_int", refuse)
    # x^4 + x + 1 at 1024 times its order, and the degree-9 worked example.
    for f, N in ((0b10011, 15 << 10), (f31.bits, 63)):
        assert _series_walk(f, N, ())[2] == ref_cofactor(f, N), (f, N)
    # Off a period the walk refuses, but the series is still built.
    with pytest.raises(ValueError, match="not a period"):
        _series_walk(0b10011, 15 << 10 | 1, ())


@pytest.mark.parametrize("f", [0b10011, (1 << 9) | (1 << 7) | 0b11, (1 << 28) | (1 << 13) | 1])
@pytest.mark.parametrize("L", [(1 << 22) - 1, 1 << 22, (1 << 22) + 1])
def test_the_product_series_holds_no_more_than_newton(f, L):
    # Newton's loop peaked at 4.27 L/8 bytes here.  The product holds at most
    # g, the next g, g masked below x^(L - k) and that shifted by k.
    N = L + f.bit_length() - 2
    taps = _exponents_int(f ^ 1)
    tracemalloc.start()
    try:
        _series(f, N, taps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * L / 8, peak / (L / 8)


def _windows_of(q: int, N: int, width: int):
    """q from x^0 to x^(N+1) in windows of one width, the last one shorter."""
    for lo in range(0, N + 1, width):
        w = min(width, N + 1 - lo)
        yield q >> lo & ((1 << w) - 1), w


def _marks(N: int) -> list[int]:
    return [N // p for p in _prime_factors(N)]


def test_the_product_check_reads_only_a_true_quotient():
    # x^4 + x + 1: primitive, order 15; over one window, and in windows of 3
    # and of 1 bits, narrower than deg f.
    f = 0b10011
    q = ref_cofactor(f, 15)
    for width in (None, 3, 1):
        def walk(fbits, h, N):
            windows = [(h, N + 1)] if width is None else _windows_of(h, N, width)
            return _walk(fbits, N, windows, _marks(N))

        assert walk(f, q, 15) == (8, True)
        assert walk(f, ref_cofactor(f, 30), 30) == (16, False)
        assert walk(f, q, 16) is None
        for bad in (q ^ 1, q ^ 2, q ^ (1 << q.bit_length() - 1), q << 1):
            assert walk(f, bad, 15) is None
        # f with x dropped, with 1 dropped, and with x^5 added.
        for wrong in (0b10001, 0b10010, 0b110011):
            assert walk(wrong, q, 15) is None
    # One window that holds a bit past its width.
    assert _walk(f, 15, [(q | 1 << 16, 16)]) is None


def test_exact_holds_only_at_the_order_on_every_small_polynomial():
    # N = k * order is the least period exactly when k = 1, and _order_int is
    # itself checked against the stepwise ref_order.  The deg f bits that the
    # walk reads at each N/p agree with the period-shift oracle, over one
    # window and in windows of 256 bits, where some reads take bits below the
    # window from its carry.  Up to degree 9 the quotient is also the division's.
    for f in range(3, 1 << 13, 2):
        D = _kernel_orders()[f]
        for k in (1, 2, 3, 4, 6):
            N = k * D
            q = _series_walk(f, N, ())[2]
            assert f >> 10 or q == ref_cofactor(f, N), (f, N)
            verdict = (q.bit_count(), k == 1)
            assert ref_exact(q, N) == (k == 1), (f, N)
            assert _walk(f, N, [(q, N + 1)], _marks(N)) == verdict, (f, N)
            assert _walk(f, N, _windows_of(q, N, 256), _marks(N)) == verdict, (f, N)


def _series_cofactor(fbits: int, M: int) -> int:
    """(1 + x^M)/f as a power series mod x^(M+1): f times it is 1 + x^M up to
    x^M, and past it exactly when M is a period."""
    inv = acc = 0  # acc = f inv
    for i in range(M + 1):
        if acc >> i & 1 != (i == 0):
            inv |= 1 << i
            acc ^= fbits << i
    return inv ^ 1 << M


def test_the_walk_reads_any_window_stream_of_a_cofactor():
    # Every f of degree <= 6 at its order D, where it is exact, and at 2D and
    # 3D, where it is not, in windows narrower and wider than deg f.  With no
    # marks the walk only counts, and calls every period exact.
    for fbits in range(3, 1 << 7, 2):
        d = fbits.bit_length() - 1
        D = order(F2Poly(fbits))
        for N in (D, 2 * D, 3 * D):
            q = ref_cofactor(fbits, N)
            assert _series_cofactor(fbits, N) == q
            for width in (1, 3, d, d + 1, 64, N + 1):
                windows = list(_windows_of(q, N, width))
                assert _walk(fbits, N, windows, _marks(N)) == (q.bit_count(), ref_exact(q, N))
                assert _walk(fbits, N, windows) == (q.bit_count(), True)
                for j in (0, N // 2, N - d, N):
                    assert _walk(fbits, N, _windows_of(q ^ 1 << j, N, width), _marks(N)) is None
                # The same h, but a window runs on past x^N, or one holds a
                # bit past its width that the next one leaves out.
                assert _walk(fbits, N, windows + [(0, 1)]) is None
                i = next((i for i, (w, _) in enumerate(windows[1:]) if w & 1), None)
                if i is not None:
                    (w, width_i), (v, width_v) = windows[i : i + 2]
                    windows[i : i + 2] = [(w | 1 << width_i, width_i), (v ^ 1, width_v)]
                    assert _walk(fbits, N, windows) is None
        # Off a period, f times the series matches 1 + x^M up to x^M and then
        # spills past it.
        for M in (D + 1, 2 * D + 1) if D > 1 else ():
            series = _series_cofactor(fbits, M)
            for width in (1, d, M + 1):
                assert _walk(fbits, M, _windows_of(series, M, width)) is None


# (x^2 + x + 1)^14: degree 28, order 3 * 16.
_TRINOMIAL_POWER = bits_of(reduce(ref_mul, [{0, 1, 2}] * 14))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1 << 12, max_value=(1 << 28) - 1), st.integers(0, 3000))
@example(1 << 27, 0)  # 1 + x^28 at its order 28
@example(1 << 27, 28)  # ... and at 56
@example(_TRINOMIAL_POWER >> 1, 20)  # at its order 48
def test_newton_cofactor_is_the_quotient_or_none(high, extra):
    # Degrees 13..28.  At a period N the kernel gives the exact quotient of
    # 1 + x^N by f; anywhere else its walk refuses the series.
    f = (high << 1) | 1
    N = f.bit_length() - 1 + extra
    if _modpow_x_int(N, f) == 1:
        assert _series_walk(f, N, ())[2] == ref_cofactor(f, N)
    else:
        with pytest.raises(ValueError, match="not a period"):
            _series_walk(f, N, ())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1 << 12, max_value=(1 << 20) - 1),
    st.integers(min_value=0, max_value=(1 << 8) - 1),
)
@example((1 << 13) | (1 << 2), 0)  # x^14 + x^3 + 1, order 5115
def test_reciprocal_has_the_same_order_and_the_reversed_cofactor(g_high, h_high):
    # Degrees 13..28 as f = g h, deg g in 13..20 and deg h <= 8, so that most
    # orders stay below 2^22 and the cofactors are quick to take.
    f = _mul_int((g_high << 1) | 1, (h_high << 1) | 1)
    D = _order_int(f, 1 << 22)
    assume(D is not None)
    rev = _reciprocal_int(f)
    assert _order_int(rev, 1 << 22) == D
    assert _series_walk(rev, D, ())[2] == _reciprocal_int(_series_walk(f, D, ())[2])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=(1 << 10) - 1), st.integers(min_value=1, max_value=4))
def test_cofactor_multiplies_back(high, j):
    f = F2Poly((high << 1) | 1)
    N = j * order(f)
    assert f * cofactor(f, N) == F2Poly(1 | (1 << N))


def test_beta_worked_examples(f31, f32):
    rep = beta(f31)
    assert rep.period == 63
    assert rep.order_exact
    assert rep.beta == (37, 26)
    assert rep.gamma == Fraction(37, 63)
    assert rep.robust

    rep = beta(f32)
    assert (rep.period, rep.beta, rep.robust) == (73, (45, 28), True)

    rep = beta(parse_poly("x + 1"))
    assert (rep.period, rep.beta, rep.gamma, rep.robust) == (1, (1, 0), Fraction(1), False)

    rep = beta(parse_poly("x^19 + x^9 + 1"))
    assert (rep.period, rep.beta) == (174251, (87136, 87115))

    # Frozen from the stepwise oracle: index 515 = 1 + x + x^9.
    rep = beta(parse_poly("x^9 + x + 1"))
    assert (rep.period, rep.beta, rep.robust) == (73, (28, 45), False)
    assert rep.gamma == Fraction(28, 73)


def test_beta_n_scaling(f31):
    # Doubling the window doubles both counts and keeps the reduced density.
    rep = beta_N(f31, 126)
    assert rep.period == 126
    assert not rep.order_exact
    assert rep.beta == (74, 52)
    assert rep.gamma == Fraction(37, 63)


def test_beta_n_rejects_non_period(f31):
    with pytest.raises(ValueError) as exc:
        beta_N(f31, 64)
    assert "not a period" in str(exc.value)
    with pytest.raises(ValueError):
        beta_N(f31, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=(1 << 9) - 1), st.integers(min_value=1, max_value=5))
def test_beta_n_scales_linearly(high, j):
    f = F2Poly((high << 1) | 1)
    base = beta(f)
    scaled = beta_N(f, j * base.period)
    assert scaled.beta == (j * base.beta[0], j * base.beta[1])
    assert scaled.gamma == base.gamma
    assert scaled.order_exact == (j == 1)


def test_is_robust_examples(f31):
    assert beta(f31).robust
    assert not beta(parse_poly("x^2 + x + 1")).robust  # beta (2,1): 2 > 2 fails
    assert not beta(parse_poly("x + 1")).robust


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=(1 << 11) - 1))
def test_reciprocal_preserves_order_and_beta(high):
    f = F2Poly((high << 1) | 1)
    g = F2Poly(_reciprocal_int(f.bits))
    rf, rg = beta(f), beta(g)
    assert rf.period == rg.period
    assert rf.beta == rg.beta
    assert rf.robust == rg.robust


def test_beta_counts_partition_period():
    for n in range(3, 256, 2):
        rep = beta(F2Poly(n))
        assert rep.beta[0] + rep.beta[1] == rep.period
        assert rep.robust == (rep.beta[0] > rep.beta[1] + 1)


@pytest.mark.parametrize(
    "poly,gap,ok",
    [
        ("x^9 + x^7 + x + 1", 11, True),
        ("x^10 + x^8 + x + 1", 17, True),
        ("x + 1", 1, True),
    ],
)
def test_gap_bound_examples(poly, gap, ok):
    f = parse_poly(poly)
    ones, zeros = beta(f).beta
    assert abs(ones - zeros) == gap
    assert _stats(ones, ones + zeros, f.degree)[4:] == (gap, ok)


def test_gap_bound_value(f31):
    ones, zeros = beta(f31).beta
    *_, gap, ok = _stats(ones, ones + zeros, 9)
    assert (gap, ok) == (11, True)
    # The verdict, gap^2 <= 2^k in integers, is gap <= 2^(k/2) at every k near it.
    for k in range(1, 20):
        assert _stats(ones, ones + zeros, k)[5] == (gap <= 2.0 ** (k / 2))


def test_order_of_x63_window_back_to_one(f31):
    assert _modpow_x_int(63, f31.bits) == 1
    assert all(_modpow_x_int(k, f31.bits) != 1 for k in range(1, 63))
