"""Construction, the three text forms, and the arithmetic kernels."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f2rep import BitCapExceeded, F2Poly, gf2poly, parse_poly
from f2rep.gf2poly import (
    _divrem_int,
    _exponents_int,
    _mod_int,
    _modpow_x_int,
    _mul_int,
    _reciprocal_int,
    _square_int,
    _text_from_int,
    ensure_bits,
)
from f2rep.order_beta import _stats

from reference import (
    bits_of,
    ref_divmod,
    ref_modpow_x,
    ref_mul,
    ref_reciprocal,
    ref_text,
    ref_xpow_mod,
)

# Nonzero bit patterns; 600 bits is comfortably past any small-case special path.
nonzero_bits = st.integers(min_value=1, max_value=(1 << 600) - 1)
any_bits = st.integers(min_value=0, max_value=(1 << 600) - 1)


def to_set(p: F2Poly) -> set[int]:
    return set(p.exponents())


# ---------------------------------------------------------------- construction


@pytest.mark.parametrize(
    "n,text",
    [
        (11, "x^3 + x + 1"),
        (1, "1"),
        (6, "x^2 + x"),
        (0, "0"),
        (643, "x^9 + x^7 + x + 1"),
    ],
)
def test_from_index_examples(n, text):
    p = F2Poly(n)
    assert p.to_text() == text
    assert p.bits == n


def test_from_index_round_trip():
    for n in range(1 << 12):
        assert F2Poly(n).bits == n


def test_from_index_rejects_negative():
    with pytest.raises(ValueError):
        F2Poly(-1)


def test_from_exponents_cancels_repeats():
    assert F2Poly.from_exponents([0, 3, 3]) == F2Poly(1)
    assert F2Poly.from_exponents([]) == F2Poly(0)
    with pytest.raises(ValueError):
        F2Poly.from_exponents([-1])


def test_degree_and_coefficients():
    p = parse_poly("x^9 + x^7 + x + 1")
    assert p.degree == 9
    assert F2Poly(0).degree is None
    assert [(p.bits >> i) & 1 for i in range(11)] == [1, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0]
    assert p.exponents() == [0, 1, 7, 9]


def test_constructor_rejects_bad_bits():
    with pytest.raises(ValueError):
        F2Poly(-1)
    with pytest.raises(ValueError):
        F2Poly(True)


# ---------------------------------------------------------------- text forms


@pytest.mark.parametrize(
    "text,expect",
    [
        ("x^9 + x^7 + x + 1", 643),
        ("x^9+x^7+x+1", 643),
        ("  x ^ 9 + x^7+ x + 1 ", 643),  # whitespace-insensitive, even inside terms
        ("1", 1),
        ("x", 2),
        ("0", 0),
        ("0x283", 643),
        ("0X283", 643),
        ("@643", 643),
        ("@0", 0),
    ],
)
def test_parse_poly_forms(text, expect):
    assert parse_poly(text).bits == expect


@pytest.mark.parametrize(
    "text,message",
    [
        ("x^2 + y", "bad polynomial term 'y'"),
        ("x + x", "repeated term 'x'"),
        ("x^-3", "bad exponent in term 'x^-3'"),
        ("x^", "bad exponent in term 'x^'"),
        ("", "empty polynomial text"),
        ("x^2 + + 1", "bad polynomial term ''"),
        ("@12a", "bad polynomial index '@12a'"),
        ("@²", "bad polynomial index '@²'"),  # a digit to isdigit, not to int()
        ("x^²", "bad exponent in term 'x^²'"),
        ("0xg1", "bad hex coefficient string '0xg1'"),
    ],
)
def test_parse_poly_errors_name_the_token(text, message):
    with pytest.raises(ValueError) as exc:
        parse_poly(text)
    assert message in str(exc.value)


@given(any_bits)
def test_text_forms_round_trip(bits):
    p = F2Poly(bits)
    assert parse_poly(p.to_text()) == p
    assert parse_poly(p.to_hex()) == p
    assert parse_poly(f"@{p.bits}") == p


def test_exponents_are_the_set_bits_ascending():
    for n in range(1 << 12):
        assert _exponents_int(n) == [i for i in range(n.bit_length()) if n >> i & 1], n
    assert _exponents_int((1 << 5000) | (1 << 4097) | 1) == [0, 4097, 5000]


def test_text_from_the_byte_table_matches_the_term_loop():
    for n in range(1 << 16):
        assert _text_from_int(n) == ref_text(n), n
    # Either side of 64 bits, where the byte table gives way to the term loop.
    edges = [(1 << 64) - 1, 1 << 63, (1 << 63) | 1, 1 << 64, (1 << 64) | 1, (1 << 65) - 1]
    edges += [(1 << k) | 0xA5 | (0x5A << (k - 12)) for k in range(56, 72)]
    for n in edges:
        assert _text_from_int(n) == ref_text(n), n
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.getrandbits(rng.randrange(1, 64))
        assert _text_from_int(n) == ref_text(n), n
    sparse = (1 << (1 << 20) - 1) | (1 << 65537) | (1 << 64) | (1 << 63) | 3
    assert _text_from_int(sparse) == ref_text(sparse) == "x^1048575 + x^65537 + x^64 + x^63 + x + 1"
    # A term string per (byte position, byte value) up to 64 bits, and no more.
    assert len(gf2poly._BYTE_TERMS) <= 8 * 256
    assert all(key >> 8 < 8 and key & 0xFF for key in gf2poly._BYTE_TERMS)


def test_repr_compact_for_many_terms():
    assert repr(parse_poly("x^3 + x + 1")) == "F2Poly('x^3 + x + 1')"
    big = F2Poly((1 << 100) - 1)
    assert repr(big) == "F2Poly(degree=99, terms=100)"


# ---------------------------------------------------------------- multiplication


@pytest.mark.parametrize(
    "a,b,product",
    [
        ("x + 1", "x^2 + x + 1", "x^3 + 1"),
        ("x + 1", "x^8 + x^7 + 1", "x^9 + x^7 + x + 1"),
        ("0", "x^5 + 1", "0"),
        ("1", "x^5 + 1", "x^5 + 1"),
    ],
)
def test_mul_examples(a, b, product):
    assert parse_poly(a) * parse_poly(b) == parse_poly(product)


@given(any_bits, any_bits)
def test_mul_matches_reference(a, b):
    pa, pb = F2Poly(a), F2Poly(b)
    assert to_set(pa * pb) == ref_mul(to_set(pa), to_set(pb))


@given(any_bits, any_bits, any_bits)
def test_mul_ring_laws(a, b, c):
    pa, pb, pc = F2Poly(a), F2Poly(b), F2Poly(c)
    assert pa * pb == pb * pa
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa * pb) * pc == pa * (pb * pc)


@given(nonzero_bits, nonzero_bits)
def test_mul_degree_and_weight(a, b):
    pa, pb = F2Poly(a), F2Poly(b)
    prod = pa * pb
    assert prod.degree == pa.degree + pb.degree
    assert prod.bits.bit_count() <= a.bit_count() * b.bit_count()


@given(any_bits)
def test_square_is_substitution(a):
    p = F2Poly(a)
    assert p * p == F2Poly.from_exponents(2 * e for e in p.exponents())


def test_square_spreads_bits():
    p = parse_poly("x^3 + x + 1")
    assert p * p == parse_poly("x^6 + x^2 + 1")


def spread(a: int) -> int:
    """a^2 over GF(2): the binary digits of a read in base 4."""
    return int(format(a, "b"), 4)


def test_square_int_below_2_16_is_the_spread():
    assert all(_square_int(a) == spread(a) for a in range(1 << 16))


@pytest.mark.parametrize("k", range(71))
def test_square_int_around_each_power_of_two(k):
    # Both table paths, their boundaries at 2^16 and 2^32, and the byte path past them.
    for a in ((1 << k) - 1, 1 << k, (1 << k) + 1):
        assert _square_int(a) == spread(a)


@given(st.integers(min_value=0, max_value=(1 << 40) - 1))
def test_square_int_is_the_spread(a):
    assert _square_int(a) == spread(a)


# ---------------------------------------------------------------- division


@pytest.mark.parametrize(
    "a,b,q,r",
    [
        ("x^3 + 1", "x^2 + x + 1", "x + 1", "0"),
        ("x^3 + x + 1", "x^3 + x + 1", "1", "0"),
        ("x^2 + x", "x^3 + 1", "0", "x^2 + x"),
        ("x^5 + x + 1", "x^2 + 1", "x^3 + x", "1"),
    ],
)
def test_divrem_examples(a, b, q, r):
    qq, rr = divmod(parse_poly(a), parse_poly(b))
    assert (qq, rr) == (parse_poly(q), parse_poly(r))


def test_divrem_extracts_the_worked_cofactor(f31):
    q, r = divmod(F2Poly(1 | (1 << 63)), f31)
    assert not r
    assert q.bits.bit_count() == 37


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(parse_poly("x + 1"), F2Poly(0))
    with pytest.raises(ZeroDivisionError):
        parse_poly("x + 1") % F2Poly(0)


@given(any_bits, nonzero_bits)
def test_divrem_matches_reference(a, b):
    pa, pb = F2Poly(a), F2Poly(b)
    q, r = divmod(pa, pb)
    rq, rr = ref_divmod(to_set(pa), to_set(pb))
    assert to_set(q) == rq and to_set(r) == rr


@given(any_bits, nonzero_bits)
def test_division_identity(a, b):
    pa, pb = F2Poly(a), F2Poly(b)
    q, r = divmod(pa, pb)
    assert pb * q + r == pa
    assert r.degree is None or r.degree < pb.degree
    assert pa // pb == q and pa % pb == r


@given(
    st.integers(min_value=1 << 900, max_value=(1 << 1400) - 1),
    st.integers(min_value=2, max_value=(1 << 40) - 1),
)
@example((1 << (39 + 255)) | 0xF00D, (1 << 39) | 0x53)
@example((1 << (39 + 256)) | 0xF00D, (1 << 39) | 0x53)
def test_long_quotient_division_multiplies_back(a, b):
    # Quotients of up to 1,400 bits, checked by multiplying back.
    q, r = _divrem_int(a, b)
    assert _mul_int(b, q) ^ r == a
    assert r.bit_length() < b.bit_length()
    assert _mod_int(a, b) == r


def remainder(a: int, b: int) -> int:
    return bits_of(ref_divmod(to_set(F2Poly(a)), to_set(F2Poly(b)))[1])


def test_mod_int_on_small_operands():
    for b in range(1, 1 << 6):
        assert [_mod_int(a, b) for a in range(1 << 8)] == [remainder(a, b) for a in range(1 << 8)]
    with pytest.raises(ZeroDivisionError):
        _mod_int(5, 0)


@given(any_bits, nonzero_bits)
def test_mod_int_matches_reference(a, b):
    assert _mod_int(a, b) == remainder(a, b)


# ---------------------------------------------------------------- modpow


def test_modpow_examples(f31):
    assert _modpow_x_int(63, f31.bits) == 1
    assert _modpow_x_int(0, f31.bits) == 1
    # 21 properly divides 63 yet x^21 is not 1: frozen residue from the
    # step-by-step oracle.
    assert _modpow_x_int(21, f31.bits) == 0x1D4
    assert to_set(F2Poly(_modpow_x_int(21, f31.bits))) == {2, 4, 6, 7, 8}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=4096),
    st.integers(min_value=1, max_value=(1 << 14) - 1),
)
def test_modpow_matches_stepwise_oracle(e, m_high):
    m = (m_high << 1) | 1  # constant term 1, degree >= 1
    got = _modpow_x_int(e, m)
    assert to_set(F2Poly(got)) == ref_xpow_mod(e, set(F2Poly(m).exponents()))


def test_modpow_of_every_odd_modulus_to_degree_8_steps_x_a_power_at_a_time():
    for m in range(3, 1 << 9, 2):
        top = 1 << (m.bit_length() - 1)
        r = 1  # x^e mod m
        for e in range(600):
            assert _modpow_x_int(e, m) == r, (e, m)
            r <<= 1
            if r & top:
                r ^= m


# Residues below 2^16 are squared by table reads and reduced in line: moduli of
# degree 9 .. 16 keep every residue there, and those of degree 17 .. 20 leave it.
@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=1 << 40),
    st.integers(min_value=9, max_value=20).flatmap(
        lambda d: st.integers(min_value=1 << d, max_value=(2 << d) - 1)
    ),
)
@example(e=(1 << 40) - 1, m=(1 << 16) | 0b101101)
@example(e=(1 << 40) - 1, m=(1 << 17) | 0b1001)
@example(e=12345678901, m=(1 << 20) | (1 << 3) | 1)
def test_modpow_matches_the_two_call_loop(e, m):
    assert _modpow_x_int(e, m) == ref_modpow_x(e, m)


# ---------------------------------------------------------------- reciprocal


@pytest.mark.parametrize(
    "f,rev",
    [
        ("x^9 + x^7 + x + 1", "x^9 + x^8 + x^2 + 1"),
        ("x + 1", "x + 1"),
        ("x^10 + x^8 + x + 1", "x^10 + x^9 + x^2 + 1"),
        ("x^3", "1"),
    ],
)
def test_reciprocal_examples(f, rev):
    assert _reciprocal_int(parse_poly(f).bits) == parse_poly(rev).bits


@given(st.integers(min_value=1, max_value=(1 << 4096) - 1))
def test_reciprocal_matches_reference(a):
    assert to_set(F2Poly(_reciprocal_int(a))) == ref_reciprocal(to_set(F2Poly(a)))


@given(st.integers(min_value=0, max_value=(1 << 600) - 1))
def test_reciprocal_involutive_with_constant_term(a):
    a = (a << 1) | 1
    assert _reciprocal_int(_reciprocal_int(a)) == a


def _ref_reciprocal_int(a: int) -> int:
    return bits_of(ref_reciprocal(to_set(F2Poly(a))))


# Up to 16 bits the reversal is two byte-table reads; 17 bits take the general path.
def test_reciprocal_int_every_operand_below_2_17():
    assert _reciprocal_int(0) == 0
    for a in range(1, 1 << 17):
        assert _reciprocal_int(a) == _ref_reciprocal_int(a), a


@pytest.mark.parametrize("k", range(81))
def test_reciprocal_int_around_powers_of_two(k):
    for a in ((1 << k) - 1, 1 << k, (1 << k) + 1):
        if a:
            assert _reciprocal_int(a) == _ref_reciprocal_int(a)


def test_reciprocal_int_of_a_megabit_operand():
    rng = random.Random(20)
    w = (1 << 20) + 13
    a = rng.getrandbits(w) | 1 << (w - 1) | 1
    rev = _reciprocal_int(a)
    assert rev.bit_length() == w and _reciprocal_int(rev) == a
    for i in rng.sample(range(w), 200):
        assert (rev >> i) & 1 == (a >> (w - 1 - i)) & 1


# ---------------------------------------------------------------- weights


def test_ell_examples(f31):
    # ell1 and ell0 of the worked cofactor over its window of 63, as _stats counts them.
    fstar = divmod(F2Poly(1 | (1 << 63)), f31)[0]
    assert _stats(fstar.bits.bit_count(), 63, 9)[:2] == (37, 26)


@given(nonzero_bits, st.integers(min_value=0, max_value=100))
def test_ell_partition_counts(a, extra):
    p = F2Poly(a)
    N = p.degree + extra + 1
    ones, zeros, gamma, robust, gap, _ = _stats(a.bit_count(), N, p.degree)
    assert ones + zeros == N
    assert gamma == Fraction(ones, N)
    assert gap == abs(ones - zeros)
    assert robust == (ones > zeros + 1)


# ---------------------------------------------------------------- operators


def test_xor_add_sub_coincide():
    a, b = parse_poly("x^3 + x + 1"), parse_poly("x + 1")
    assert a + b == a - b == (a ^ b) == parse_poly("x^3")


def test_shift_multiplies_by_x():
    assert (parse_poly("x + 1") << 3) == parse_poly("x^4 + x^3")
    with pytest.raises(ValueError):
        parse_poly("x + 1") << -1


def test_hash_and_bool():
    assert hash(F2Poly(5)) == hash(parse_poly("x^2 + 1"))
    assert not F2Poly(0)
    assert F2Poly(1)
    assert len({F2Poly(5), parse_poly("x^2 + 1")}) == 1


# ---------------------------------------------------------------- memory guard


def test_bit_cap_env_override(monkeypatch):
    monkeypatch.setenv("F2REP_BIT_CAP", "1000")
    with pytest.raises(BitCapExceeded) as exc:
        ensure_bits(1001)
    assert "F2REP_BIT_CAP" in str(exc.value)
    ensure_bits(1000)  # at the cap is fine


def test_parse_poly_checks_each_exponent_against_the_cap(monkeypatch):
    # The term x^e is refused before its 1 << e is built.
    monkeypatch.setenv("F2REP_BIT_CAP", "1000")
    assert parse_poly("x^999 + 1").degree == 999
    with pytest.raises(BitCapExceeded, match="needs about 5001 coefficient bits but the cap is 1000"):
        parse_poly("x^5000 + 1")


@pytest.mark.parametrize(
    "text",
    ["x^1600 + 1", "0x1" + "0" * 399 + "1", f"@{(1 << 1600) | 1}"],
    ids=["expression", "hex", "index"],
)
def test_parse_poly_holds_every_form_to_the_cap(monkeypatch, text):
    monkeypatch.setenv("F2REP_BIT_CAP", "1000")
    with pytest.raises(BitCapExceeded) as exc:
        parse_poly(text)
    assert str(exc.value) == (
        "operation needs about 1601 coefficient bits but the cap is 1000"
        " (set F2REP_BIT_CAP to raise it)"
    )
    # At the cap each form parses.
    monkeypatch.setenv("F2REP_BIT_CAP", "1601")
    assert parse_poly(text) == F2Poly((1 << 1600) | 1)
