"""Two parametric families of robust quadrinomials and their closed forms.

Variant 1 is 1 + x + x^(2^r - 1) + x^(2^r + 1) with predicted period
4^r - 1 and cofactor counts (4^r - 3^r, 3^r - 1); variant 2 is
1 + x + x^(2^r) + x^(2^r + 2) with predicted period 4^r + 2^r + 1 and
counts (4^r - 3^r + 2^r, 3^r + 1).  Each member has a coefficient-reversed
sibling with identical statistics.  Robustness is a theorem only for r >= 3;
smaller r still builds and verifies but is reported as measured.

verify_family walks the closed-form cofactor h in windows of about 2^18 bits
with order_beta's one cofactor check: f h == 1 + x^N proves N a period and h
its cofactor, and the walk counts h's ones and reads whether N is the least
period.  No 4^r-bit int is built; the series 1/f is walked only if h fails.
A reciprocal member shares its base member's proof and verdict, since
rev f rev h = rev(1 + x^N) = 1 + x^N.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from fractions import Fraction

from .gf2poly import BitCapExceeded, F2Poly, _exponents_int, bit_cap, ensure_bits
from .order_beta import _prime_factors, _series_walk, _stats, _walk

__all__ = [
    "EXACT_ORDER_CEILING",
    "FamilySpec",
    "FamilyPrediction",
    "FamilyVerdict",
    "family_prediction",
    "build_family",
    "verify_family",
]

# Exact orders are established for r up to 10; beyond that verification is
# an extension, gated behind an explicit flag (cost grows like 4^r).
EXACT_ORDER_CEILING = 10

_WINDOW_LOG2 = 18  # a window of the walk over h holds 2^k terms, about 2^18 bits


@dataclass(frozen=True)
class FamilySpec:
    r: int
    variant: int
    reciprocal: bool = False

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.variant not in (1, 2):
            raise ValueError("variant must be 1 or 2")


@dataclass(frozen=True)
class FamilyPrediction:
    """Predicted period and cofactor one/zero counts (c, d) for a spec."""

    period: int
    c: int
    d: int


@dataclass(frozen=True)
class FamilyVerdict:
    spec: "FamilySpec"
    period: int
    order_exact: bool
    beta: tuple[int, int]
    gamma: Fraction
    matches_prediction: bool
    closed_form_matches: bool | None
    robust: bool


def family_prediction(spec: FamilySpec) -> FamilyPrediction:
    r = spec.r
    if spec.variant == 1:
        return FamilyPrediction(period=4**r - 1, c=4**r - 3**r, d=3**r - 1)
    return FamilyPrediction(period=4**r + 2**r + 1, c=4**r - 3**r + 2**r, d=3**r + 1)


def build_family(spec: FamilySpec) -> F2Poly:
    """The family quadrinomial (repeated exponents cancel at r = 1)."""
    r = spec.r
    if spec.variant == 1:
        exps = (0, 2, 2**r, 2**r + 1) if spec.reciprocal else (0, 1, 2**r - 1, 2**r + 1)
    else:
        exps = (0, 2, 2**r + 1, 2**r + 2) if spec.reciprocal else (0, 1, 2**r, 2**r + 2)
    return F2Poly.from_exponents(exps)


def _doubling_product(a: int, b: int, m: int) -> int:
    """prod_{j<m} (1 + x^(2^j a) + x^(2^j b)), one shift-xor per factor."""
    acc = 1
    for j in range(m):
        acc = acc ^ (acc << (a << j)) ^ (acc << (b << j))
    return acc


def _h_windows(r: int, variant: int) -> Iterator[tuple[int, int]]:
    """The family cofactor h from its closed form, as (bits, width) windows
    from x^0 to x^(N+1), N the predicted period.
    h is a run of 2^r (s+1) ones xored with the blocks x^(s(n+1)) (1+x)^n,
    n < 2^r, for the stride s = 2^r - 1 (variant 1) or 2^r (variant 2); each
    block ends below the next, and the last, 2^r ones, cancels the run's top.
    With u = x^s (1+x), the 2^k blocks from n0 are x^(s(n0+1)) (1+x)^n0 times
    sum_{j<2^k} u^j, which is the doubling product prod_{j<k} (1 + u^(2^j)) =
    prod_{j<k} (1 + x^(s 2^j) + x^((s+1) 2^j)).  (1+x)^n0 is a shift-xor per
    set bit of n0."""
    two_r = 1 << r
    s = two_r - 1 if variant == 1 else two_r
    k = min(r, max(0, _WINDOW_LOG2 - r))
    N = family_prediction(FamilySpec(r, variant)).period
    P = _doubling_product(s, s + 1, k)
    lo = 0
    for n0 in range(0, two_r, 1 << k):
        chunk = P
        for b in _exponents_int(n0):
            chunk ^= chunk << (1 << b)
        hi = s * (n0 + (1 << k) + 1) if n0 + (1 << k) < two_r else N + 1
        ones = (1 << min(two_r * (s + 1), hi) - lo) - 1
        yield ones ^ (chunk << s * (n0 + 1) - lo), hi - lo
        lo = hi


def _admit(spec: FamilySpec, allow_large_r: bool) -> None:
    """Refuse a member over the exact-order ceiling or over the bit cap."""
    if spec.r > EXACT_ORDER_CEILING and not allow_large_r:
        raise ValueError(
            f"r={spec.r} is above the exact-order ceiling {EXACT_ORDER_CEILING}; "
            "pass --allow-large-r (allow_large_r=True in Python) if you accept"
            " the 4^r time and memory cost"
        )
    cap = bit_cap()
    if spec.r >= cap.bit_length():
        # 4^r is past cap^2: refuse from r alone, before 4^r and 3^r are computed.
        raise BitCapExceeded(
            f"r={spec.r} needs more than 4^{spec.r} coefficient bits but the cap is {cap}"
            " (set F2REP_BIT_CAP to raise it)"
        )
    ensure_bits(family_prediction(spec).period + 8)


def _reciprocal_verdict(v: FamilyVerdict) -> FamilyVerdict:
    """The reciprocal member's verdict: its base member's, with no closed form."""
    return replace(v, spec=replace(v.spec, reciprocal=True), closed_form_matches=None)


def verify_family(spec: FamilySpec, *, allow_large_r: bool = False) -> FamilyVerdict:
    """Check one family member against its predictions.

    order_beta's walk over the windows of the closed-form cofactor h checks
    f h == 1 + x^N at the predicted period N, counts h's ones, and reads
    whether N is the least period; if h fails, it walks the series 1/f
    instead, and raises unless N is a period.  The verdict records exactness,
    whether the counts match the predicted (c, d), whether the closed form
    held, and the measured robustness.  A reciprocal member takes its base
    member's verdict, with closed_form_matches None.  r above
    EXACT_ORDER_CEILING needs allow_large_r=True.
    """
    _admit(spec, allow_large_r)
    return _verify_admitted(spec)


def _verify_admitted(spec: FamilySpec) -> FamilyVerdict:
    """verify_family past _admit, the one read of the bit cap: a pool worker
    reads no environment, so it gives the verdict the parent's cap admitted."""
    if spec.reciprocal:
        return _reciprocal_verdict(_verify_admitted(replace(spec, reciprocal=False)))
    pred = family_prediction(spec)
    f, N = build_family(spec), pred.period
    marks = [N // p for p in _prime_factors(N)]
    walked = _walk(f.bits, N, _h_windows(spec.r, spec.variant), marks)
    count, exact = walked or _series_walk(f.bits, N, marks)[:2]  # raises unless N is a period
    ones, zeros, gamma, robust, _, _ = _stats(count, N, f.degree)
    return FamilyVerdict(
        spec=spec,
        period=N,
        order_exact=exact,
        beta=(ones, zeros),
        gamma=gamma,
        matches_prediction=(ones, zeros) == (pred.c, pred.d),
        closed_form_matches=walked is not None,
        robust=robust,
    )
