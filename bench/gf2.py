"""Small GF(2)[x] arithmetic for checking f2rep's outputs.

Nothing here imports f2rep: every number the checks compare against is
recomputed with this code.  A polynomial is an int whose bit i is the
coefficient of x^i.  Speed matters only enough to keep the checks of one
run within a few seconds.
"""

from __future__ import annotations

import functools


def parse_terms(text: str) -> int:
    """The int of a sum of distinct terms written as '1', 'x' or 'x^e'."""
    bits = 0
    for term in text.replace(" ", "").split("+"):
        if term == "1":
            e = 0
        elif term == "x":
            e = 1
        elif term.startswith("x^") and term[2:].isdigit():
            e = int(term[2:])
        else:
            raise ValueError(f"bad term {term!r}")
        if bits >> e & 1:
            raise ValueError(f"repeated term {term!r}")
        bits |= 1 << e
    return bits


def reverse(f: int) -> int:
    """x^deg(f) * f(1/x): the coefficient-reversed polynomial."""
    return int(format(f, "b")[::-1], 2)


def square(a: int) -> int:
    # Over GF(2) the square of sum(x^i) is sum(x^(2i)): spread the bits.
    return int("0".join(format(a, "b")), 2) if a else 0


def mod(a: int, f: int) -> int:
    d = f.bit_length() - 1
    while (n := a.bit_length() - 1) >= d:
        a ^= f << (n - d)
    return a


def powx_mod(e: int, f: int) -> int:
    """x^e mod f, squaring once per bit of e."""
    top = 1 << (f.bit_length() - 1)
    r = 1
    for bit in format(e, "b"):
        r = mod(square(r), f)
        if bit == "1":
            r <<= 1
            if r & top:
                r ^= f
    return r


@functools.cache
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct primes dividing n, by trial division (n below ~2^40)."""
    out = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def order_certificate(f: int, D: int) -> tuple[bool, bool]:
    """(f divides 1 + x^D, D is the least such period).

    D is the order of f exactly when x^D = 1 and x^(D/p) != 1 (mod f) for
    every prime p dividing D.
    """
    if powx_mod(D, f) != 1:
        return False, False
    return True, all(powx_mod(D // p, f) != 1 for p in prime_factors(D))


def ell1_by_division(f: int, D: int) -> int | None:
    """Ones of (1 + x^D) / f by schoolbook long division on a bit array;
    None when the division leaves a remainder."""
    d = f.bit_length() - 1
    exps = [e for e in range(d) if f >> e & 1]
    a = bytearray(D + 1)
    a[0] = a[D] = 1
    ones = 0
    for i in range(D, d - 1, -1):
        if a[i]:
            ones += 1
            base = i - d
            for e in exps:
                a[base + e] ^= 1
    return ones if not any(a[:d]) else None


def ell1_by_recurrence(f: int, D: int) -> int | None:
    """Ones among the first D coefficients of the power series 1/f over GF(2).

    With f = 1 + sum(x^a), the series c satisfies c_0 = 1 and
    c_k = xor of c_(k-a).  When f divides 1 + x^D the series is periodic
    from the start with period D and its first D coefficients are the
    cofactor, so the ones among them are ell1.  Returns None when the next
    deg(f) coefficients do not repeat the first ones, i.e. D is no period.
    """
    d = f.bit_length() - 1
    lags = [e for e in range(1, d + 1) if f >> e & 1]
    n = D + d
    pad = d
    c = bytearray(pad + n)
    c[pad] = 1
    for k in range(pad + 1, pad + n):
        v = 0
        for a in lags:
            v ^= c[k - a]
        c[k] = v
    if c[pad + D : pad + n] != c[pad : pad + d]:
        return None
    return c.count(1, pad, pad + D)
