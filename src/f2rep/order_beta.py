"""Polynomial order, the cofactor of 1 + x^D, and its one/zero balance.

For f with f(0) = 1 there is a least D >= 1, the order, with f dividing
1 + x^D, and D never exceeds 2^deg(f) - 1.  The cofactor f* = (1 + x^D)/f
drives everything downstream: beta(f) counts its ones and zeros across one
period window, gamma is the ones density as an exact fraction, and f is
robust when the ones outnumber the zeros by more than one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gf2poly import F2Poly, _divrem_int, _modpow_x_int, ensure_bits

__all__ = [
    "BetaReport",
    "OrderCheck",
    "GapCheck",
    "OrderBoundExceeded",
    "order",
    "verify_order_divides",
    "cofactor",
    "beta",
    "beta_N",
    "is_robust",
    "coordinate_gap_bound_check",
]


class OrderBoundExceeded(RuntimeError):
    """No period was found within the requested scan bound."""


@dataclass(frozen=True)
class BetaReport:
    """Cofactor statistics of one polynomial at one period window N."""

    poly: F2Poly
    period: int
    order_exact: bool
    beta: tuple[int, int]
    gamma: Fraction
    robust: bool


@dataclass(frozen=True)
class OrderCheck:
    divides: bool
    exact: bool


@dataclass(frozen=True)
class GapCheck:
    gap: int
    bound: float
    ok: bool


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


def order(f: F2Poly, scan_bound: int | None = None) -> int:
    """Least D >= 1 with f | 1 + x^D, found by the incremental multiply-by-x scan.

    The default bound 2^deg(f) - 1 always suffices; a smaller explicit bound
    raises OrderBoundExceeded when no period exists below it.
    """
    bits = _require_order_domain(f)
    default = (1 << (bits.bit_length() - 1)) - 1
    bound = default if scan_bound is None else scan_bound
    if bound < 1:
        raise ValueError("scan bound must be positive")
    D = _order_scan_int(bits, bound)
    if D is None:
        raise OrderBoundExceeded(f"no period found up to {bound}")
    return D


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def verify_order_divides(f: F2Poly, candidate: int) -> OrderCheck:
    """Does f divide 1 + x^candidate, and is the candidate the exact order.

    Divisibility is one modpow; exactness additionally checks that no maximal
    proper divisor candidate/p works, so the candidate must be small enough
    to trial-factor.
    """
    bits = _require_order_domain(f)
    if candidate < 1:
        raise ValueError("candidate period must be positive")
    if _modpow_x_int(candidate, bits) != 1:
        return OrderCheck(divides=False, exact=False)
    exact = all(
        _modpow_x_int(candidate // p, bits) != 1 for p in _prime_factors(candidate)
    )
    return OrderCheck(divides=True, exact=exact)


def cofactor(f: F2Poly, N: int) -> F2Poly:
    """(1 + x^N) / f by exact division; raises when N is not a period of f."""
    bits = f.bits
    if not bits & 1:
        raise ValueError("cofactor requires constant term 1")
    if N < 1:
        raise ValueError("period must be positive")
    ensure_bits(N + 1)
    q, r = _divrem_int((1 << N) | 1, bits)
    if r:
        raise ValueError(f"not a period: the polynomial does not divide 1 + x^{N}")
    return F2Poly(q)


def _stats(q: int, D: int, d: int) -> tuple[int, int, Fraction, bool, int, bool]:
    """(ell1, ell0, gamma, robust, gap, bound_ok) of the cofactor bits q over
    the window D, for a polynomial of degree d.

    robust means the ones exceed the zeros by more than one; bound_ok is the
    integer-exact form gap^2 <= 2^d of the 2^(d/2) ceiling.
    """
    ones = q.bit_count()
    zeros = D - ones
    gap = abs(ones - zeros)
    return ones, zeros, Fraction(ones, D), 2 * ones > D + 1, gap, gap * gap <= 1 << d


def _beta_from(f: F2Poly, N: int, q: int, order_exact: bool) -> BetaReport:
    ones, zeros, gamma, robust, _, _ = _stats(q, N, f.degree)
    return BetaReport(
        poly=f,
        period=N,
        order_exact=order_exact,
        beta=(ones, zeros),
        gamma=gamma,
        robust=robust,
    )


def beta(f: F2Poly) -> BetaReport:
    """Ones/zeros of the cofactor over one window at the exact order of f."""
    D = order(f)
    return _beta_from(f, D, cofactor(f, D).bits, True)


def beta_N(f: F2Poly, N: int) -> BetaReport:
    """Cofactor statistics at an arbitrary period multiple N.

    N is checked to actually be a period (x^N = 1 mod f); order_exact records
    whether it is the least one.  Both counts scale linearly in N/order, so
    gamma is unchanged by the choice of window.  The cofactor is taken before
    the exactness check, so an N over the bit cap fails before N is factored.
    """
    bits = _require_order_domain(f)
    if N < 1:
        raise ValueError("period must be positive")
    if _modpow_x_int(N, bits) != 1:
        raise ValueError(f"not a period: x^{N} != 1 modulo the polynomial")
    q = cofactor(f, N).bits
    return _beta_from(f, N, q, verify_order_divides(f, N).exact)


def is_robust(f: F2Poly) -> bool:
    """Ones of the cofactor exceed zeros by more than one at the exact order."""
    return beta(f).robust


def coordinate_gap_bound_check(f: F2Poly) -> GapCheck:
    """|ell1 - ell0| of the cofactor against the 2^(k/2) ceiling for degree k.

    The pass/fail verdict uses the integer-exact form gap^2 <= 2^k; the float
    bound is carried for display only.
    """
    D = order(f)
    k = f.degree
    *_, gap, ok = _stats(cofactor(f, D).bits, D, k)
    return GapCheck(gap=gap, bound=2.0 ** (k / 2), ok=ok)
