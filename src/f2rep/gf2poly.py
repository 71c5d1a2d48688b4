"""Bit-packed arithmetic for polynomials over GF(2).

A polynomial is stored as a non-negative Python int with bit i holding the
coefficient of x^i, so the zero polynomial is 0 and x^3 + x + 1 is 0b1011.
Addition is xor, and Python's arbitrary-precision ints supply word-parallel
xor, shifts, and popcount for free.  F2Poly values are immutable and hashable.

Three text forms interchange with the packed form: an expression such as
``x^9 + x^7 + x + 1`` (descending exponents), the hex of the coefficient
bits (``0x283``), and an enumeration index (``@643``) whose binary digits
are the coefficients.  All three round-trip through :func:`parse_poly`.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

__all__ = [
    "F2Poly",
    "BitCapExceeded",
    "bit_cap",
    "ensure_bits",
    "parse_poly",
]

_DEFAULT_BIT_CAP = 1 << 28


class BitCapExceeded(RuntimeError):
    """An operation would materialize more coefficient bits than the cap allows."""


def bit_cap() -> int:
    """Active coefficient budget in bits; F2REP_BIT_CAP overrides the default 2**28."""
    raw = os.environ.get("F2REP_BIT_CAP")
    if raw is None:
        return _DEFAULT_BIT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"F2REP_BIT_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"F2REP_BIT_CAP must be at least 1, got {raw!r}")
    return cap


def ensure_bits(nbits: int) -> None:
    """Fail fast if a result of about nbits coefficients would exceed the cap."""
    cap = bit_cap()
    if nbits > cap:
        raise _over_cap(nbits, cap)


def _over_cap(nbits: int, cap: int) -> BitCapExceeded:
    """The refusal of nbits > cap, for a caller that holds the cap already."""
    # Past 64 bits name a power of two: str() refuses ints past 4300 digits.
    big = nbits.bit_length() > 64
    size = f"more than 2^{(nbits - 1).bit_length() - 1}" if big else f"about {nbits}"
    return BitCapExceeded(
        f"operation needs {size} coefficient bits but the cap is {cap}"
        " (set F2REP_BIT_CAP to raise it)"
    )


def _exponents_int(bits: int) -> list[int]:
    """The exponents of the set bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _mul_int(a: int, b: int) -> int:
    """Carry-less product: shift-xor schoolbook over the sparser operand."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    for e in _exponents_int(a):
        acc ^= b << e
    return acc


# Each byte spread to even bit positions; squaring doubles every exponent.
_SPREAD = tuple(int(format(v, "b"), 4) for v in range(256))
_SPREAD_LO = bytes(s & 0xFF for s in _SPREAD)
_SPREAD_HI = bytes(s >> 8 for s in _SPREAD)


def _square_int(a: int) -> int:
    """a^2 = a(x^2): table lookups for a below 2^32, byte translates past it."""
    if a < 0x10000:
        return _SPREAD[a >> 8] << 16 | _SPREAD[a & 0xFF]
    if a < 0x100000000:
        t = _SPREAD
        return t[a >> 24] << 48 | t[a >> 16 & 0xFF] << 32 | t[a >> 8 & 0xFF] << 16 | t[a & 0xFF]
    n = (a.bit_length() + 7) // 8
    data = a.to_bytes(n, "little")
    out = bytearray(2 * n)
    out[0::2] = data.translate(_SPREAD_LO)
    out[1::2] = data.translate(_SPREAD_HI)
    return int.from_bytes(out, "little")


def _divrem_int(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a by b, clearing the leading bit of a with a
    shifted b until deg a < deg b."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    if b == 1:
        return a, 0
    db = b.bit_length()
    q = 0
    while (i := a.bit_length() - db) >= 0:
        a ^= b << i
        q |= 1 << i
    return q, a


def _mod_int(a: int, b: int) -> int:
    """a mod b, as _divrem_int without building the quotient."""
    if b < 2:
        return _divrem_int(a, b)[1]
    db = b.bit_length()
    while (i := a.bit_length() - db) >= 0:
        a ^= b << i
    return a


def _modpow_x_int(e: int, m: int) -> int:
    """x^e reduced mod m, by square and multiply over the bits of e."""
    db = m.bit_length()
    top = 1 << db - 1
    r = 1
    for i in range(e.bit_length() - 1, -1, -1):
        if r < 0x10000:  # squared by two table reads and reduced in line
            r = _SPREAD[r >> 8] << 16 | _SPREAD[r & 0xFF]
            while (k := r.bit_length() - db) >= 0:
                r ^= m << k
        else:
            r = _mod_int(_square_int(r), m)
        if (e >> i) & 1:
            r <<= 1
            if r & top:
                r ^= m
    return r


def _gcd_int(a: int, b: int) -> int:
    """Greatest common divisor by Euclid."""
    while b:
        a, b = b, _mod_int(a, b)
    return a


# Each byte with its eight bits in reverse order.
_REV8 = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))


def _reciprocal_int(a: int) -> int:
    """The bits of a reversed within its bit length, a byte table at a time."""
    w = a.bit_length()
    if w <= 16:
        return (_REV8[a & 0xFF] << 8 | _REV8[a >> 8]) >> (16 - w)
    n = (w + 7) // 8
    return int.from_bytes(a.to_bytes(n, "big").translate(_REV8), "little") >> (8 * n - w)


def _terms(bits: int) -> str:
    """The text of bits, a term per set bit from the top ("" for none)."""
    exps = reversed(_exponents_int(bits))
    return " + ".join("1" if e == 0 else "x" if e == 1 else f"x^{e}" for e in exps)


class _ByteTerms(dict):
    """k << 8 | v: the terms of byte v at byte k, made on first use (8 * 256 at most)."""

    def __missing__(self, key: int) -> str:
        self[key] = text = _terms((key & 0xFF) << (key >> 8 << 3))
        return text


_BYTE_TERMS = _ByteTerms()


def _text_from_int(bits: int) -> str:
    if not bits or bits >> 64:
        return _terms(bits) or "0"
    n = (bits.bit_length() + 7) >> 3
    key = n << 8
    parts = []
    for v in bits.to_bytes(n, "big"):
        key -= 0x100
        if v:
            parts.append(_BYTE_TERMS[key | v])
    return " + ".join(parts)


def _int_from_text(text: str) -> int:
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return 0
    bits = 0
    for term in s.split("+"):
        if term == "1":
            e = 0
        elif term == "x":
            e = 1
        elif term.startswith("x^"):
            exp = term[2:]
            if not exp.isdecimal():
                raise ValueError(f"bad exponent in term '{term}'")
            e = int(exp)
        else:
            raise ValueError(f"bad polynomial term '{term}'")
        ensure_bits(e + 1)
        t = 1 << e
        if bits & t:
            raise ValueError(f"repeated term '{term}'")
        bits |= t
    return bits


class F2Poly:
    """A polynomial over GF(2), held as the int of its coefficient bits.

    ``+``, ``-`` and ``^`` all mean coefficient-wise addition, ``*`` is the
    carry-less product, and ``divmod`` / ``//`` / ``%`` perform Euclidean
    division.  ``p << k`` multiplies by x^k.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: int = 0):
        if not isinstance(bits, int) or isinstance(bits, bool) or bits < 0:
            raise ValueError("coefficient bits must be a non-negative integer")
        self._bits = bits

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "F2Poly":
        """Build from exponents, xor-accumulated: a repeated exponent cancels mod 2."""
        bits = 0
        for e in exponents:
            if e < 0:
                raise ValueError("exponents must be non-negative")
            bits ^= 1 << e
        return cls(bits)

    @property
    def bits(self) -> int:
        return self._bits

    @property
    def degree(self) -> int | None:
        """Highest exponent present, or None for the zero polynomial."""
        return self._bits.bit_length() - 1 if self._bits else None

    def exponents(self) -> list[int]:
        """Exponents with coefficient 1, ascending."""
        return _exponents_int(self._bits)

    def to_text(self) -> str:
        return _text_from_int(self._bits)

    def to_hex(self) -> str:
        return hex(self._bits)

    def __add__(self, other: "F2Poly") -> "F2Poly":
        if not isinstance(other, F2Poly):
            return NotImplemented
        return F2Poly(self._bits ^ other._bits)

    __sub__ = __add__
    __xor__ = __add__

    def __mul__(self, other: "F2Poly") -> "F2Poly":
        if not isinstance(other, F2Poly):
            return NotImplemented
        return F2Poly(_mul_int(self._bits, other._bits))

    def __lshift__(self, k: int) -> "F2Poly":
        if k < 0:
            raise ValueError("shift must be non-negative")
        return F2Poly(self._bits << k)

    def __divmod__(self, other: "F2Poly") -> tuple["F2Poly", "F2Poly"]:
        if not isinstance(other, F2Poly):
            return NotImplemented
        q, r = _divrem_int(self._bits, other._bits)
        return F2Poly(q), F2Poly(r)

    def __floordiv__(self, other: "F2Poly") -> "F2Poly":
        if not isinstance(other, F2Poly):
            return NotImplemented
        return F2Poly(_divrem_int(self._bits, other._bits)[0])

    def __mod__(self, other: "F2Poly") -> "F2Poly":
        if not isinstance(other, F2Poly):
            return NotImplemented
        return F2Poly(_mod_int(self._bits, other._bits))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, F2Poly):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash((F2Poly, self._bits))

    def __bool__(self) -> bool:
        return self._bits != 0

    def __str__(self) -> str:
        return _text_from_int(self._bits)

    def __repr__(self) -> str:
        if self._bits.bit_count() <= 16:
            return f"F2Poly('{_text_from_int(self._bits)}')"
        return f"F2Poly(degree={self.degree}, terms={self._bits.bit_count()})"


def parse_poly(text: str) -> F2Poly:
    """Accept expression (``x^3 + x + 1``), hex (``0xb``) or index (``@11``)
    form, each held to the bit cap.  Hex and index text is converted before
    the check: it is already as long as the int it spells."""
    s = text.strip()
    if s.startswith("@"):
        body = s[1:]
        if not body.isdecimal():
            raise ValueError(f"bad polynomial index '{s}'")
        try:
            bits = int(body)
        except ValueError:  # past Python's limit on decimal text
            raise ValueError(
                f"polynomial index of {len(body)} digits is too long to read;"
                " give the polynomial in hex (0x...)"
            ) from None
    elif s[:2].lower() == "0x":
        try:
            bits = int(s, 16)
        except ValueError:
            raise ValueError(f"bad hex coefficient string '{s}'") from None
    else:
        return F2Poly(_int_from_text(s))
    ensure_bits(bits.bit_length())
    return F2Poly(bits)
