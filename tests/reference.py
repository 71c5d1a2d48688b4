"""Slow, simple reference implementations used only as test oracles, and
the identities of the paper's family proofs, written out for direct checking.

Nearly every oracle works on plain sets of exponents, plain lists, plain
int shifts or direct recursion, so none of the bit-packed production code is
involved.  ref_newton_series keeps the Newton iteration that the series took
before the product of sparse factors replaced it, on plain ints alone.
Three exceptions build on f2rep.  ref_cofactor keeps the exact long division
the cofactor used to be taken with; that division kernel is itself checked
against ref_divmod.  ref_modpow_x keeps the square-and-multiply loop that took
each square with _square_int and reduced it with _mod_int, kernels checked
against base-4 digits and ref_divmod.  ref_parity_series_via_cofactor tiles the
cofactor of parity_profile, a second route to the stream that parity_series
computes.
ref_verify_family keeps the whole-int family proof that the cofactor walk
replaced, on the oracles alone: the whole closed form from ref_h_closed_form,
a plain shift-xor product, one popcount and ref_exact.  It takes only the
family's definitions from f2rep.

The identities build on f2rep's F2Poly and bit cap: the doubling product
behind the family period (g_product), the telescoping (a, b) trinomial
product (ab_lemma_check), (1 + x)^n by its binary decomposition
(one_plus_x_pow), the direct popcount sum evaluating to 3^r - 2^r
(glaisher_sum), and the odd-binomial row count 2^popcount(n)
(odd_binomial_count).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import product

from f2rep import F2Poly, ensure_bits
from f2rep.families import FamilyVerdict, _doubling_product, build_family, family_prediction


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


def ref_modpow_x(e: int, m: int) -> int:
    """x^e mod m by square and multiply over the bits of e, each square taken
    by _square_int and reduced by _mod_int."""
    from f2rep.gf2poly import _mod_int, _square_int

    top = 1 << (m.bit_length() - 1)
    r = 1
    for i in range(e.bit_length() - 1, -1, -1):
        r = _mod_int(_square_int(r), m)
        if (e >> i) & 1:
            r <<= 1
            if r & top:
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


# Each byte with a 0 bit put between its bits: its square over GF(2), as 2 bytes.
_SPREAD = [int("0".join(format(b, "b")), 2).to_bytes(2, "little") for b in range(256)]


def ref_newton_series(fbits: int, N: int) -> int:
    """1/f mod x^(N - deg f + 1) by Newton's iteration, for odd f of degree
    1 .. N.  The step g <- g(2 - f g) is g <- f g^2 over GF(2) and doubles
    the precision (Sieveking 1972, Kung 1974); g^2 spreads g's bits apart a
    byte at a time, and f g^2 is a shift-xor per term of f."""
    L = N - fbits.bit_length() + 2
    g = 1
    for j in reversed(range((L - 1).bit_length())):
        spread = [_SPREAD[b] for b in g.to_bytes(-(-g.bit_length() // 8), "little")]
        sq = int.from_bytes(b"".join(spread), "little")
        g = 0
        for e in range(fbits.bit_length()):
            if fbits >> e & 1:
                g ^= sq << e
        g &= (1 << -(-L >> j)) - 1
    return g


def ref_exact(q: int, N: int) -> bool:
    """Is N, a period with cofactor q = (1 + x^N)/f, the least period of f?
    For a prime p | N and M = N/p, f divides 1 + x^M exactly when q repeats
    with period M, that is when q ^ (q >> M) has no bit below N - M."""
    for p in ref_primes(N):
        M = N // p
        x = q ^ (q >> M)
        k = N - M
        if x >> k << k == x:
            return False
    return True


def ref_text(bits: int) -> str:
    """The expression text of bits, one term per set bit from the top."""
    if bits == 0:
        return "0"
    parts = []
    v = bits
    while v:
        e = v.bit_length() - 1
        v ^= 1 << e
        parts.append("1" if e == 0 else "x" if e == 1 else f"x^{e}")
    return " + ".join(parts)


def ref_csv_row(rec) -> str:
    """A scan record's CSV line, cell by cell: None is empty, a bool is
    true or false, and gamma is split into numerator and denominator."""
    g = rec.gamma
    num, den = (None, None) if g is None else (g.numerator, g.denominator)
    values = (
        rec.n, rec.poly, rec.degree, rec.order, rec.order_exact, rec.ell1, rec.ell0,
        num, den, rec.robust, rec.gap, rec.bound_ok, rec.status,
    )
    cells = (
        "" if v is None else "true" if v is True else "false" if v is False else str(v)
        for v in values
    )
    return ",".join(cells) + "\n"


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


def ref_parity_series(A, N: int) -> list[int]:
    """The first N count parities of digit set A, each the xor of the earlier
    bits at offsets n - a over the nonzero digits a, kept in one list."""
    taps = [a for a in A.digits if a > 0]
    bits = [0] * N
    if N > 0:
        bits[0] = 1
    for n in range(1, N):
        acc = 0
        for a in taps:
            if a > n:
                break
            acc ^= bits[n - a]
        bits[n] = acc
    return bits


def ref_h_closed_form(r: int, variant: int) -> int:
    """The family closed form, one shifted binomial block at a time, written
    out as binary text from x^0 up."""
    two_r = 1 << r
    stride = two_r - 1 if variant == 1 else two_r
    text, end, block = [], 0, 1  # end = the length of text; block = (1 + x)^(n - 1)
    for n in range(1, two_r):
        shift = stride * n
        assert end <= shift  # blocks must not overlap
        text += ["0" * (shift - end), format(block, "b")[::-1]]
        end = shift + n
        block ^= block << 1
    ones = (1 << (4**r - two_r)) - 1 if variant == 1 else (1 << 4**r) - 1
    return ones ^ int("0" + "".join(text)[::-1], 2)


def ref_verify_family(spec):
    """verify_family's verdict on a base member, from the whole closed form h:
    f h == 1 + x^N by a shift-xor per term of f, h's popcount, and ref_exact
    on h; long division only when the product fails."""
    pred = family_prediction(spec)
    f, N = build_family(spec).bits, pred.period
    h = ref_h_closed_form(spec.r, spec.variant)
    product = 0
    for e in range(f.bit_length()):
        if f >> e & 1:
            product ^= h << e
    proved = product == (1 << N) | 1
    q = h if proved else ref_cofactor(f, N)
    ones = q.bit_count()
    return FamilyVerdict(
        spec=spec,
        period=N,
        order_exact=ref_exact(q, N),
        beta=(ones, N - ones),
        gamma=Fraction(ones, N),
        matches_prediction=(ones, N - ones) == (pred.c, pred.d),
        closed_form_matches=proved,
        robust=2 * ones > N + 1,
    )


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


def ref_count_peeling(digits: tuple[int, ...], n: int) -> int:
    """Counts by peeling the last binary digit: a representation of m > 0
    picks a digit a = m (mod 2) at position 0 and goes on as one of
    (m - a) / 2.  Memoized recursion, depth the bit length of n."""

    @functools.lru_cache(maxsize=None)
    def f(m: int) -> int:
        if m == 0:
            return 1
        return sum(f((m - a) >> 1) for a in digits if a <= m and not (a ^ m) & 1)

    return f(n)


@functools.lru_cache(maxsize=None)
def ref_stern(n: int) -> int:
    if n < 2:
        return n
    if n % 2 == 0:
        return ref_stern(n // 2)
    return ref_stern(n // 2) + ref_stern(n // 2 + 1)


def ref_diatomic_row(k: int) -> list[int]:
    """Row k of the diatomic array by insertion: each row keeps its parent's
    entries and puts the sum of every adjacent pair between them."""
    row = [1, 1]
    for _ in range(k):
        nxt = [1]
        for i in range(1, len(row)):
            nxt.append(row[i - 1] + row[i])
            nxt.append(row[i])
        row = nxt
    return row


def ref_odd_binomials(n: int) -> int:
    return sum(1 for j in range(n + 1) if math.comb(n, j) % 2)


def g_product(r: int, variant: int) -> F2Poly:
    """Literal evaluation of the doubling product behind the period identity.

    Variant 1 multiplies the r trinomials 1 + x^((2^r-1)2^j) + x^(2^r 2^j)
    and then adds the single term x^(4^r - 2^r); variant 2 multiplies
    1 + x^(2^j 2^r) + x^(2^j (2^r+1)) for j < r.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    ensure_bits(4**r + 1)
    a, b = (2**r - 1, 2**r) if variant == 1 else (2**r, 2**r + 1)
    acc = _doubling_product(a, b, r)
    if variant == 1:
        acc ^= 1 << (4**r - 2**r)
    return F2Poly(acc)


def one_plus_x_pow(n: int) -> F2Poly:
    """(1 + x)^n via the binary decomposition of n: one squared factor per set bit."""
    if n < 0:
        raise ValueError("exponent must be non-negative")
    ensure_bits(n + 2)
    acc = 1
    k = 0
    v = n
    while v:
        if v & 1:
            acc ^= acc << (1 << k)
        k += 1
        v >>= 1
    return F2Poly(acc)


def ab_lemma_check(a: int, b: int, m: int) -> bool:
    """Check (1 + x^a + x^b) * prod_{j<m} (1 + x^(2^j a) + x^(2^j b))
    equals 1 + x^(2^m a) + x^(2^m b)."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    if m < 1:
        raise ValueError("m must be >= 1")
    ensure_bits((b << m) + 1)
    acc = _doubling_product(a, b, m)
    lhs = acc ^ (acc << a) ^ (acc << b)
    rhs = 1 | (1 << (a << m)) | (1 << (b << m))
    return lhs == rhs


def glaisher_sum(r: int) -> int:
    """Direct evaluation of sum(2^popcount(k)) for 0 <= k <= 2^r - 2."""
    if r < 2:
        raise ValueError("r must be >= 2")
    return sum(1 << k.bit_count() for k in range((1 << r) - 1))


def odd_binomial_count(n: int) -> int:
    """How many binomial coefficients in row n are odd: 2^popcount(n)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return 1 << n.bit_count()
