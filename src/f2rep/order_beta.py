"""Polynomial order, the cofactor of 1 + x^D, and its one/zero balance.

For f with f(0) = 1 there is a least D >= 1, the order, with f dividing
1 + x^D, and D never exceeds 2^deg(f) - 1.  D comes from the distinct-degree
factorization of f (Lidl & Niederreiter, Finite Fields, Thms 3.3, 3.8, 3.9),
or, for every polynomial up to a degree at once, from a smallest-factor sieve
that builds each order from those of its factors.
The cofactor f* = (1 + x^D)/f drives everything downstream: beta(f) counts
its ones and zeros across one period window, gamma is the ones density as an
exact fraction, and f is robust when the ones outnumber the zeros by more
than one.  The sieve also gives the count by theorem, with no cofactor built,
where f is a product of primitive polynomials of pairwise coprime degrees.
Every other cofactor h, the series 1/f or a family's closed form, passes one
walk over its windows, _walk: it proves f h = 1 + x^N and counts h's ones, and
for beta_N and the families it reads at each N/p, p a prime of N, whether N
is the least period.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .gf2poly import F2Poly, _exponents_int, _reciprocal_int, ensure_bits
from .gf2poly import _divrem_int, _gcd_int, _mod_int, _modpow_x_int, _mul_int, _square_int

__all__ = [
    "BetaReport",
    "order",
    "cofactor",
    "beta",
    "beta_N",
]


@dataclass(frozen=True)
class BetaReport:
    """Cofactor statistics of one polynomial at one period window N."""

    poly: F2Poly
    period: int
    order_exact: bool
    beta: tuple[int, int]
    gamma: Fraction
    robust: bool


def _require_order_domain(f: F2Poly) -> int:
    bits = f.bits
    if not bits & 1:
        raise ValueError("order is defined only for polynomials with constant term 1")
    if bits == 1:
        raise ValueError("order is defined only for degree >= 1")
    return bits


def _order_scan_int(fbits: int, bound: int) -> int | None:
    """Least k <= bound with x^k = 1 mod fbits, stepping one power at a time."""
    d = fbits.bit_length() - 1
    top = 1 << d
    state = 1
    for k in range(1, bound + 1):
        state <<= 1
        if state & top:
            state ^= fbits
            # state can only return to 1 on a reducing step (1 is odd).
            if state == 1:
                return k
    return None


# Under a bound below this, stepping x^k to the bound beats factoring f.
_ORDER_SCAN_MAX = 1024


def _order_int(fbits: int, bound: int | None) -> int | None:
    """Least D >= 1 with x^D = 1 mod fbits, of degree >= 1, or None past the
    bound; the one place that chooses between stepping and factoring.  Only a
    bound below _ORDER_SCAN_MAX steps: every unbounded order is factored."""
    if bound is not None and bound < _ORDER_SCAN_MAX:
        return _order_scan_int(fbits, bound)
    D = _order_factored_int(fbits)
    return D if bound is None or D <= bound else None


def _order_factored_int(fbits: int) -> int:
    """Exact order of fbits from its distinct-degree factorization."""
    D = e = 1  # e is the largest multiplicity of an irreducible factor
    g, r, k = fbits, 2, 0  # r = x^(2^k) mod g
    while g != 1:
        k += 1
        if 2 * k > g.bit_length() - 1:
            # No factor of degree up to half its own: g is irreducible.
            h, k = g, g.bit_length() - 1
        else:
            r = _mod_int(_square_int(r), g)
            # The distinct irreducible factors of degree k are those of x^(2^k) + x.
            h = _gcd_int(g, r ^ 2)
            if h == 1:
                continue
        D = lcm(D, _irreducible_order(h, k))
        # Each pass strips one more copy of every factor that still has one.
        passes = 0
        while h != 1:
            g = _divrem_int(g, h)[0]
            h = _gcd_int(g, h)
            passes += 1
        e = max(e, passes)
        r = _mod_int(r, g)
    # ord(p^e) = ord(p) * 2^t for the least t with 2^t >= e.
    return D << (e - 1).bit_length()


def _irreducible_order(h: int, k: int) -> int:
    """Order of h, a product of distinct irreducibles of degree k: what is
    left of 2^k - 1 after stripping each prime p while x^(M/p) = 1 mod h."""
    M = (1 << k) - 1
    for p in _prime_factors(M):
        while M % p == 0 and _modpow_x_int(M // p, h) == 1:
            M //= p
    return M


def _dense_orders() -> Iterator[tuple[array, array]]:
    """The orders of every odd polynomial up to degree d, for d = 0, 1, 2, ...
    in turn, with their cofactor one-counts where a theorem gives them: two
    tables indexed by n >> 1, grown a degree per step (order 0 for the
    constant 1, which has none, and count 0 where no theorem covers n).

    A smallest-factor sieve: each irreducible p of degree k <= d/2 marks
    n = p q for every odd q of degree d - k, and the first (smallest) p to
    reach n keeps it.  The multiplicity m of p in n is one more than in q
    when p is also q's smallest factor, else 1, and ord n = lcm(ord q,
    ord p * 2^t) for the least t with 2^t >= m, as ord(p^(m-1)) | ord(p^m).
    An unmarked n is irreducible: it copies the order of rev n < n, or takes
    it from 2^d - 1.  "H" holds each p to d = 31, "L" each order to d = 32,
    and "I", of 4 bytes on 32- and 64-bit platforms, each count to d = 32.

    Counts: a primitive n (irreducible of order 2^d - 1, 1 + x too) has
    2^(d-1), as 1/n is an m-sequence (Golomb 1967).  If n = p q with p and q
    counted, m = 1 and gcd(ord p, ord q) = 1, then 1/n = a/p + b/q, a/p and
    b/q have the counts o_p, o_q of 1/p and 1/q, and by the CRT their phases
    meet in each pair once per period ord p ord q, so n has
    o_p (ord q - o_q) + (ord p - o_p) o_q (Lidl & Niederreiter, ch. 8).
    Counted orders are odd and m > 1 makes ord n even, so the test reads
    ord n = ord p ord q.  Counted n: products of distinct primitives of
    pairwise coprime degrees.
    """
    spf = array("H", [0])  # the smallest factor p of n, 0 while n is irreducible
    mult = bytearray([1])  # the multiplicity of p in n
    orders = array("L", [0])
    ones = array("I", [0])
    d = 0
    while True:
        yield orders, ones
        d += 1
        half = 1 << (d - 1)  # the odd n of degree d sit at n >> 1 in [half, 2 half)
        for table in (spf, orders, ones):
            table.frombytes(bytes(half * table.itemsize))
        mult.extend(b"\1" * half)
        for k in range(1, d // 2 + 1):
            base = (1 << (d - k)) | 1
            for p in range((1 << k) | 1, 2 << k, 2):
                if spf[p >> 1]:
                    continue
                op, wp = orders[p >> 1], ones[p >> 1]
                # q walks its middle bits in Gray code order, one flip a step,
                # so that p q moves by one shifted p and needs no product.
                q, pq = base, _mul_int(p, base)
                for t in range(1, (1 << (d - k - 1)) + 1):
                    i = pq >> 1
                    if not spf[i]:
                        j = q >> 1
                        m = mult[j] + 1 if (spf[j] or q) == p else 1
                        spf[i], mult[i] = p, m
                        oq = orders[j]
                        orders[i] = D = lcm(oq, op << (m - 1).bit_length())
                        if wp and (wq := ones[j]) and D == op * oq:
                            ones[i] = wp * (oq - wq) + (op - wp) * wq
                    b = (t & -t).bit_length()
                    q ^= 1 << b
                    pq ^= p << b
        for n in range((1 << d) | 1, 2 << d, 2):
            if not spf[n >> 1]:
                r = _reciprocal_int(n)
                orders[n >> 1] = D = orders[r >> 1] if r < n else _irreducible_order(n, d)
                if D == 2 * half - 1:  # primitive
                    ones[n >> 1] = half


def order(f: F2Poly) -> int:
    """Least D >= 1 with f | 1 + x^D, which never exceeds 2^deg(f) - 1.
    ValueError means some 2^k - 1 the order needs could not be factored."""
    return _order_int(_require_order_domain(f), None)


# Trial division stops at _TRIAL_MAX; Miller-Rabin on the primes up to 41 then
# proves a cofactor prime, exactly below _MR_EXACT_BELOW (Sorenson & Webster).
_TRIAL_MAX = 1 << 20
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd 41 < n < _MR_EXACT_BELOW."""
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


@lru_cache(maxsize=1024)
def _prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending, memoized; ValueError when what
    is left after trial division cannot be proved prime."""
    k = n.bit_length()
    if n & (n + 1) == 0 and k > 2 and _prime_factors(k) == (k,):
        s = 4  # Lucas-Lehmer: 2^k - 1 with k an odd prime is prime iff s ends at 0
        for _ in range(k - 2):
            s = (s * s - 2) % n
        if s == 0:
            return (n,)
    out, m, p = [], n, 2
    while p * p <= m and p <= _TRIAL_MAX:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if p * p <= m and (m >= _MR_EXACT_BELOW or not _is_prime(m)):
        raise ValueError(f"cannot factor {n}: {m} is past trial division and not a proven prime")
    if m > 1:
        out.append(m)
    return tuple(out)


def _series(fbits: int, N: int, taps: list[int]) -> int:
    """1/fbits mod x^L, L = N - deg + 1, for odd fbits of degree 1 .. N: the
    cofactor (1 + x^N)/fbits when N is a period.  Over GF(2) f(x)^2 = f(x^2), so
    f(x) f(x^2) ... f(x^(2^(k-1))) = f(x^(2^k)) = 1 mod x^(2^k taps[0]): a product
    of factors with f's number of terms, nothing squared and each shifted g cut
    below x^L.  It is Graeffe's step 1/f(x) = f(-x)/g(x^2) in characteristic 2
    (Schonhage, "Variations on computing reciprocals of power series", IPL 74,
    2000).  taps, f's exponents above 0 ascending, come from the caller."""
    L = N - fbits.bit_length() + 2
    g = 1
    for i in range(((L - 1) // taps[0]).bit_length()):  # while taps[0] 2^i < L
        p = g
        for e in taps:
            if (k := e << i) >= L:
                break
            p ^= g << k if g.bit_length() <= L - k else (g & (1 << L - k) - 1) << k
        g = p
    return g


def _walk(
    fbits: int, N: int, windows: Iterable[tuple[int, int]], marks: Sequence[int] = (),
    taps: list[int] | None = None,
) -> tuple[int, bool] | None:
    """(ones, exact) of the h that the (bits, width) windows make from x^0, if
    f h == 1 + x^N, else None: the one check of a cofactor.  Each window of
    f h, with what the windows below spill into it, must match 1 + x^N, and
    nothing may spill past x^N.
    exact says that no mark M (N/p for the primes p | N) is a period: 1 + x^N
    = f h gives 1 = f (h mod x^M) + x^M r, so r = x^(-M) mod f, and f divides
    1 + x^M exactly when r = 1.  r = (f (h mod x^M)) >> M needs only the deg f
    bits v of h just below x^M (0 below x^0): it is (f v) >> deg f.  carry
    holds the deg f bits of h below the window, so v is read without shifting
    the window up.  taps, f's exponents above 0, are read here unless given."""
    d = fbits.bit_length() - 1
    taps = taps or _exponents_int(fbits ^ 1)
    lo = carry = spill = ones = 0
    exact = True
    for w, width in windows:
        p = w ^ (spill ^ (lo == 0))
        for e in taps:
            p ^= w << e
        if lo <= N < lo + width:
            p ^= 1 << N - lo  # x^N is in this window
        spill = p >> width
        if w >> width or p != spill << width:
            return None
        if marks:  # a count alone needs neither the reads nor the carry
            mask = (1 << d) - 1
            for M in marks:
                if lo <= M < lo + width:
                    t = M - lo
                    v = w >> t - d & mask if t >= d else (w & (1 << t) - 1) << d - t | carry >> t
                    exact = exact and _mul_int(fbits, v) >> d != 1
            carry = w >> width - d if width >= d else carry >> width | w << d - width
        ones += w.bit_count()
        lo += width
    return (ones, exact) if lo == N + 1 and not spill else None


def _series_walk(fbits: int, N: int, marks: Sequence[int]) -> tuple[int, bool, int]:
    """(ones, exact, h) of h = (1 + x^N) / fbits, for odd fbits of degree >= 1:
    the series 1/fbits walked once, reading exactness at the marks; ValueError
    when N is not a period.  The one entry to the series."""
    taps = _exponents_int(fbits ^ 1)
    g = N >= fbits.bit_length() - 1 and _series(fbits, N, taps)
    walked = g and _walk(fbits, N, ((g, N + 1),), marks, taps)
    if not walked:
        raise ValueError(f"not a period: the polynomial does not divide 1 + x^{N}")
    return *walked, g


def cofactor(f: F2Poly, N: int) -> F2Poly:
    """(1 + x^N) / f from the series 1/f; raises when N is not a period of f."""
    bits = f.bits
    if not bits & 1:
        raise ValueError("cofactor requires constant term 1")
    if N < 1:
        raise ValueError("period must be positive")
    ensure_bits(N + 1)
    if bits == 1:
        return F2Poly((1 << N) | 1)
    return F2Poly(_series_walk(bits, N, ())[2])


def _stats(ones: int, D: int, d: int) -> tuple[int, int, Fraction, bool, int, bool]:
    """(ell1, ell0, gamma, robust, gap, bound_ok) of a cofactor with `ones`
    one bits over the window D, for a polynomial of degree d.

    robust means the ones exceed the zeros by more than one; bound_ok is the
    integer-exact form gap^2 <= 2^d of the 2^(d/2) ceiling.
    """
    zeros = D - ones
    gap = abs(ones - zeros)
    return ones, zeros, Fraction(ones, D), 2 * ones > D + 1, gap, gap * gap <= 1 << d


def beta(f: F2Poly) -> BetaReport:
    """Ones/zeros of the cofactor over one window at the exact order of f."""
    return beta_N(f, order(f))


def beta_N(f: F2Poly, N: int) -> BetaReport:
    """Cofactor statistics at an arbitrary period multiple N; the one check
    of a claimed period.  One walk over the series 1/f proves N a period
    (x^N = 1 mod f), raising "not a period" otherwise, counts the cofactor's
    ones, and reads at each N/p, p a prime of N, whether N is the least
    period (order_exact).  Both counts scale linearly in N/order, so gamma is
    unchanged by the choice of window.  The bit cap is checked before N is
    factored for those marks."""
    bits = _require_order_domain(f)
    if N < 1:
        raise ValueError("period must be positive")
    ensure_bits(N + 1)
    count, exact, _ = _series_walk(bits, N, [N // p for p in _prime_factors(N)])
    ones, zeros, gamma, robust, _, _ = _stats(count, N, f.degree)
    return BetaReport(f, N, exact, (ones, zeros), gamma, robust)
