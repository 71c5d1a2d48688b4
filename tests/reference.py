"""Slow, simple reference implementations used only as test oracles.

Everything works on plain sets of exponents (or direct recursion), so none
of the bit-packed production code is involved.
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
