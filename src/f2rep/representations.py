"""Counting generalized binary representations and their parity structure.

A digit set is a finite set of non-negative digits containing 0.  Writing
n = sum(eps_i * 2^i) with every eps_i drawn from the set, the number of such
writings f(n) obeys a digit-peeling recursion on the last binary digit.
Modulo 2 the stream f(0), f(1), ... is the coefficient sequence of the
power-series inverse of the set's characteristic polynomial phi, so it is
purely periodic with period the order of phi, odd exactly on the residues
where the cofactor of 1 + x^period has a one.

The digit set {0, 1, 2} reproduces the Stern sequence, shifted by one, and
its diatomic rows are provided for cross-reading.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from operator import add

from .gf2poly import F2Poly, ensure_bits
from .order_beta import cofactor, order

__all__ = [
    "DigitSet",
    "ParityProfile",
    "phi",
    "count_representations",
    "parity_series",
    "parity_profile",
    "stern",
    "diatomic_row",
]


@dataclass(frozen=True, slots=True)
class DigitSet:
    """Strictly increasing digits starting at 0, an immutable value.

    The 0 digit is required: without it no n > 0 would terminate the
    digit-peeling recursion with finitely many representations.
    """

    digits: tuple[int, ...]

    def __init__(self, digits):
        ds = tuple(int(d) for d in digits)
        if len(ds) != len(set(ds)):
            raise ValueError("digits must be distinct")
        if any(d < 0 for d in ds):
            raise ValueError("digits must be non-negative")
        ds = tuple(sorted(ds))
        if not ds or ds[0] != 0:
            raise ValueError("digit set must contain 0")
        object.__setattr__(self, "digits", ds)

    @classmethod
    def parse(cls, text: str) -> "DigitSet":
        s = "".join(text.split())
        if not (s.startswith("{") and s.endswith("}")):
            raise ValueError(f"digit set must look like {{0,1,2}}, got '{text}'")
        body = s[1:-1]
        if not body:
            raise ValueError("digit set must contain 0")
        parts = body.split(",")
        for p in parts:
            if not p.isdecimal():
                raise ValueError(f"bad digit '{p}' in digit set '{text}'")
        try:
            digits = [int(p) for p in parts]
        except ValueError:  # past Python's limit on decimal text
            raise ValueError(f"digit of {max(map(len, parts))} digits is too long to read") from None
        return cls(digits)

    def __str__(self) -> str:
        return "{" + ",".join(str(d) for d in self.digits) + "}"

    def __repr__(self) -> str:
        return f"DigitSet({self})"


@dataclass(frozen=True)
class ParityProfile:
    """Period of the count parity and the residues where counts are odd."""

    period: int
    odd_residues: tuple[int, ...]


def phi(A: DigitSet) -> F2Poly:
    """Characteristic polynomial of the digit set: sum of x^a over its digits."""
    ensure_bits(A.digits[-1] + 1)
    return F2Poly.from_exponents(A.digits)


def count_representations(A: DigitSet, n: int) -> int:
    """Exact number of ways to write n with digits from A in base 2.

    Reads n from its last bit up.  counts[c] is the number of ways to choose
    the digits below position i so that they sum to (n mod 2^i) + c 2^i.  A
    digit a at position i takes the carry c, with c + a = bit i of n (mod 2),
    to (c + a - bit) / 2.  A carry above the high part n >> (i + 1) is
    dropped, so a level holds at most max(A) + 1 carries.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    counts = [1]
    for i in range(n.bit_length()):
        bit = (n >> i) & 1
        nxt = [0] * (min(n >> (i + 1), A.digits[-1]) + 1)
        for a in A.digits:
            # The carries c with c + a = bit (mod 2), c0, c0 + 2, ..., land on lo, lo + 1, ...
            c0 = (a ^ bit) & 1
            lo = (c0 + a - bit) >> 1
            if lo >= len(nxt):
                break
            src = counts[c0::2][: len(nxt) - lo]
            nxt[lo : lo + len(src)] = map(add, src, nxt[lo:])
        counts = nxt
    return counts[0]


def parity_series(A: DigitSet, N: int) -> list[int]:
    """First N count parities, streamed from the linear recurrence.

    Inverting phi as a power series says bit n is the xor of the bits at
    offsets n - a over the nonzero digits a; no counts are materialized.
    Public as a list, while the CLI streams _parity_terms: a list refuses a
    bad N when called, where a generator would refuse only when first read.
    """
    return list(_parity_terms(A, N))


def _parity_terms(A: DigitSet, N: int) -> Iterator[int]:
    """parity_series a bit at a time, keeping only the bits back to the
    widest tap a < N, zeros before bit 0, with the newest last."""
    if N < 0:
        raise ValueError("N must be non-negative")
    ensure_bits(N)
    taps = [a for a in A.digits[1:] if a < N]
    width = taps[-1] if taps else 0
    recent = bytearray(width)
    bit = 1
    for _ in range(N):
        yield bit
        recent.append(bit)
        bit = 0
        for a in taps:
            bit ^= recent[-a]
        if len(recent) > width + 4096:
            del recent[: len(recent) - width]


def parity_profile(A: DigitSet) -> ParityProfile:
    """Exact parity period of the counts and the odd residues within it."""
    if A.digits == (0,):
        raise ValueError(
            f"digit set {A} has phi = 1: f(0) = 1 and f(n) = 0 for every n >= 1,"
            " so its count parity is not purely periodic"
        )
    p = phi(A)
    D = order(p)
    fstar = cofactor(p, D)
    return ParityProfile(period=D, odd_residues=tuple(fstar.exponents()))


def stern(n: int) -> int:
    """Stern sequence: s(0)=0, s(1)=1, s(2n)=s(n), s(2n+1)=s(n)+s(n+1).

    Computed by walking the bits of n below the leading one, carrying the
    pair (s(m), s(m+1)); no recursion, O(log n) additions.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 0
    u, v = 1, 1
    for i in range(n.bit_length() - 2, -1, -1):
        if (n >> i) & 1:
            u = u + v
        else:
            v = u + v
    return u


def diatomic_row(k: int) -> list[int]:
    """Row k of the diatomic array: row 0 is (1, 1) and each next row keeps
    its parent's entries, inserting the sum of every adjacent pair between
    them, for 2^k + 1 entries in row k.  Public as a list, while the CLI
    streams _diatomic_terms: a list refuses a bad k when called, where a
    generator would refuse only when first read."""
    return list(_diatomic_terms(k))


def _diatomic_terms(k: int) -> Iterator[int]:
    """diatomic_row an entry at a time.  Row k is s(2^k), ..., s(2^(k+1)) of
    stern, stepped from s(2^k - 1) = k by s(n+1) = s(n-1) + s(n) - 2 (s(n-1) mod s(n))."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > 26:
        raise ValueError("row k has 2^k + 1 entries; k above 26 is refused")
    prev, cur = k, 1
    for _ in range((1 << k) + 1):
        yield cur
        prev, cur = cur, prev + cur - 2 * (prev % cur)
