"""Slow, simple reference implementations used only as test oracles.

Nearly everything works on plain sets of exponents, plain int shifts or
direct recursion, so none of the bit-packed production code is involved.
Two exceptions build on f2rep.  ref_cofactor keeps the exact long division
the cofactor used to be taken with; that division kernel is itself checked
against ref_divmod.  ref_parity_series_via_cofactor tiles the cofactor of
parity_profile, a second route to the stream that parity_series computes.
"""

from __future__ import annotations

import functools
import math
from itertools import product


def ref_mul(a: set[int], b: set[int]) -> set[int]:
    out: set[int] = set()
    for i in a:
        for j in b:
            out ^= {i + j}
    return out


def ref_divmod(a: set[int], b: set[int]) -> tuple[set[int], set[int]]:
    if not b:
        raise ZeroDivisionError
    r = set(a)
    q: set[int] = set()
    db = max(b)
    while r and max(r) >= db:
        shift = max(r) - db
        q.add(shift)
        r ^= {e + shift for e in b}
    return q, r


def ref_xpow_mod(e: int, m: set[int]) -> set[int]:
    """x^e mod m by stepping one power of x at a time."""
    dm = max(m)
    r = {0}
    for _ in range(e):
        r = {i + 1 for i in r}
        if dm in r:
            r ^= m
    return r


def ref_order(m: set[int], bound: int) -> int | None:
    dm = max(m)
    r = {0}
    for k in range(1, bound + 1):
        r = {i + 1 for i in r}
        if dm in r:
            r ^= m
            if r == {0}:
                return k
    return None


def ref_primes(n: int) -> tuple[int, ...]:
    """Distinct primes of n by plain trial division up to sqrt(n)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def ref_cofactor(fbits: int, N: int) -> int:
    """(1 + x^N) / f by long division, which must leave no remainder."""
    from f2rep.gf2poly import _divrem_int

    q, r = _divrem_int((1 << N) | 1, fbits)
    assert r == 0, "not a period"
    return q


def ref_parity_series_via_cofactor(A, N: int) -> list[int]:
    """The first N count parities of digit set A, rebuilt by tiling the
    cofactor bits of its parity profile."""
    from f2rep import parity_profile

    prof = parity_profile(A)
    block = [0] * prof.period
    for e in prof.odd_residues:
        block[e] = 1
    reps = -(-N // prof.period) if N else 0
    return (block * reps)[:N]


def ref_h_closed_form(r: int, variant: int) -> int:
    """The family closed form, one shifted binomial block at a time."""
    two_r = 1 << r
    stride = two_r - 1 if variant == 1 else two_r
    s, block = 0, 1  # block = (1 + x)^(n - 1)
    for n in range(1, two_r):
        shift = stride * n
        assert s.bit_length() <= shift  # blocks must not overlap
        s ^= block << shift
        block ^= block << 1
    ones = (1 << (4**r - two_r)) - 1 if variant == 1 else (1 << 4**r) - 1
    return ones ^ s


def ref_reciprocal(a: set[int]) -> set[int]:
    d = max(a)
    return {d - e for e in a}


def bits_of(exps: set[int] | list[int] | tuple[int, ...]) -> int:
    v = 0
    for e in exps:
        v ^= 1 << e
    return v


def ref_count_reps(digits: tuple[int, ...], n: int) -> int:
    """Brute force over digit strings; exponential, so tiny n only."""
    if n == 0:
        return 1
    L = n.bit_length()
    count = 0
    for eps in product(digits, repeat=L):
        if sum(e << i for i, e in enumerate(eps)) == n:
            count += 1
    return count


@functools.lru_cache(maxsize=None)
def ref_stern(n: int) -> int:
    if n < 2:
        return n
    if n % 2 == 0:
        return ref_stern(n // 2)
    return ref_stern(n // 2) + ref_stern(n // 2 + 1)


def ref_odd_binomials(n: int) -> int:
    return sum(1 for j in range(n + 1) if math.comb(n, j) % 2)
