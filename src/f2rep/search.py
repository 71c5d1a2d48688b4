"""Exhaustive scans over GF(2) polynomials with CSV / JSON-lines output.

Every odd index n (constant term 1) in the configured extent produces one
record: the polynomial, its order, the cofactor one/zero counts, the odd
density gamma as an exact reduced fraction, the robustness flag, and the
coordinate gap against the 2^(k/2) ceiling.  Records come out ordered by
index regardless of the worker count, so runs are byte-reproducible.

Index 1 (the constant polynomial 1) has no order in this framework; its
record carries status "degenerate" and is excluded from density censuses.
Records whose order exceeds a configured cap carry status "unresolved"
rather than being dropped, keeping censuses honest about their universe.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby, islice
from math import inf
from typing import NamedTuple, TextIO

from .gf2poly import _modpow_x_int, _over_cap, _reciprocal_int, _text_from_int, bit_cap, ensure_bits
from .order_beta import _dense_orders, _order_int, _series_walk, _stats

__all__ = [
    "ScanConfig",
    "ScanRecord",
    "FigureRow",
    "GapCensusEntry",
    "PRESETS",
    "SCAN_COLUMNS",
    "FIGURE_COLUMNS",
    "scan",
    "figure_data",
    "gap_census",
    "write_scan_csv",
    "write_scan_jsonl",
    "write_figure_csv",
]

_SHAPES = ("all", "trinomial", "quadrinomial")
_CHUNK = 2048
# The top degree whose orders come from the sieve: its tables, 15 bytes per odd
# polynomial, reach 2.0 MB at degree 17 and take 0.36 s to build (Python 3.11.7).
_DENSE_MAX = 17


@dataclass(frozen=True)
class ScanConfig:
    """Corpus description: extent (one of index_max / degree_max), term-count
    shape filter, optional order cap, and worker count."""

    index_max: int | None = None
    degree_max: int | None = None
    shape: str = "all"
    order_bound: int | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if (self.index_max is None) == (self.degree_max is None):
            raise ValueError("set exactly one of index_max / degree_max")
        if self.index_max is not None and self.index_max < 2:
            raise ValueError("index_max must be at least 2")
        if self.degree_max is not None and self.degree_max < 0:
            raise ValueError("degree_max must be non-negative")
        if self.shape not in _SHAPES:
            raise ValueError(f"shape must be one of {_SHAPES}")
        if self.order_bound is not None and self.order_bound < 1:
            raise ValueError("order_bound must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    @property
    def index_stop(self) -> int:
        if self.index_max is not None:
            return self.index_max
        return 1 << (self.degree_max + 1)


class ScanRecord(NamedTuple):
    n: int
    poly: str
    degree: int
    order: int | None
    order_exact: bool | None
    ell1: int | None
    ell0: int | None
    gamma: Fraction | None
    robust: bool | None
    gap: int | None
    bound_ok: bool | None
    status: str


@dataclass(frozen=True)
class FigureRow:
    n: int
    gamma: Fraction
    decimal: float


@dataclass(frozen=True)
class GapCensusEntry:
    degree: int
    max_gap: int
    bound: float
    ok: bool


# The order <= 83 corpus is only fully enumerable by degree up to 83, far
# beyond scanning; the preset covers the largest exhaustive-by-degree extent
# and flags everything over the cap as unresolved.
PRESETS: dict[str, ScanConfig] = {
    "trinomials19": ScanConfig(degree_max=19, shape="trinomial"),
    "quadrinomials18": ScanConfig(degree_max=18, shape="quadrinomial"),
    "degree14": ScanConfig(degree_max=14),
    "order83": ScanConfig(degree_max=14, order_bound=83),
}


def _counted(n: int, D: int | None, w: int, cap: int) -> tuple[int | None, int | None]:
    """(D, cofactor one-count) of n at its order D, or (None, None) when D is None.
    A nonzero w is a count by theorem, taken once x^D = 1 mod n proves D a
    period; else the walk over the series 1/n proves it and counts the ones.
    cap is the scan's bit cap: a D that reaches it is refused as ensure_bits words it."""
    if D is None:
        return None, None
    if D >= cap:
        raise _over_cap(D + 1, cap)
    if w and _modpow_x_int(D, n) == 1:
        return D, w
    try:
        return D, _series_walk(n, D, ())[0]
    except ValueError:
        raise ArithmeticError(f"{D} is not a period of {_text_from_int(n)}") from None


def _make_record(n: int, D: int | None, ones: int | None, stats: dict) -> ScanRecord:
    """The record of n from its order D (None if it has none) and cofactor one-count;
    stats keeps _stats's tuple per (ones, D, degree), of which a scan repeats many."""
    d = n.bit_length() - 1
    if D is None:  # the eight fields order .. bound_ok stay unset
        status = "degenerate" if n == 1 else "unresolved"
        return ScanRecord(n, _text_from_int(n), d, *[None] * 8, status)
    # _stats gives ell1, ell0, gamma, robust, gap and bound_ok: the fields after order_exact.
    s = stats.get(key := (ones, D, d)) or stats.setdefault(key, _stats(ones, D, d))
    return ScanRecord._make((n, _text_from_int(n), d, D, True, *s, "ok"))


def _corpus(config: ScanConfig) -> Iterator[int]:
    """The odd indices of the extent, ascending.  A shape is listed directly:
    per degree d, 1 + x^d plus each choice of its middle exponents."""
    stop = config.index_stop
    if config.shape == "all":
        yield from range(1, stop, 2)
        return
    middles = 1 if config.shape == "trinomial" else 2
    for d in range(2, stop.bit_length()):
        ends = (1 << d) | 1
        for n in sorted(ends | sum(1 << e for e in c) for c in combinations(range(1, d), middles)):
            if n >= stop:
                return
            yield n


def _order_ceiling(config: ScanConfig) -> int:
    """The largest order a member of the corpus can have: 2^d - 1 at its top
    degree d, or for quadrinomials, all divisible by 1 + x, 2^(d-1) - 1 (but 4
    at d = 3, where the one member is (1 + x)^3); at most the order bound.
    Past 64 bits and the bit cap's width w, 2^(w+1) - 1 stands in for a
    2^d - 1 that the cap refuses all the same, so no such int is built."""
    d = config.degree_max
    if d is None:
        d = ((config.index_max - 2) | 1).bit_length() - 1  # degree of the last odd index
    quad = config.shape == "quadrinomial"
    e = max(d - 1, 0) if quad else d
    ceiling = 4 if quad and d == 3 else (1 << min(e, max(64, bit_cap().bit_length()) + 1)) - 1
    return ceiling if config.order_bound is None else min(config.order_bound, ceiling)


def _chunks(config: ScanConfig) -> Iterator[tuple]:
    """The corpus in chunks of at most _CHUNK members of one degree, so that a
    chunk never waits on orders of a higher degree.  Reversal keeps the degree,
    so the partner m = rev n > n of a member lies in its chunk or a later one.

    The one place that chooses how orders and counts are found: up to degree
    _DENSE_MAX a corpus of shape all holds every factor of its members, so
    the sieve, grown as the corpus reaches each degree, gives a chunk the
    slices of its order and count tables (order 0 for 1, count 0 where no
    theorem gives one), which pickle as bytes.  Other chunks carry None, and
    their worker factors each member.  Every chunk carries the bit cap, read
    here once, so that no worker reads the environment."""
    cap = bit_cap()
    sieve = _dense_orders() if config.shape == "all" else None
    for w, same_degree in groupby(_corpus(config), int.bit_length):
        if w > _DENSE_MAX + 1:
            sieve = None  # frees the tables
        orders, ones = (None, None) if sieve is None else next(sieve)
        while chunk := tuple(islice(same_degree, _CHUNK)):
            span = slice(chunk[0] >> 1, (chunk[-1] >> 1) + 1)
            tables = (None, None) if sieve is None else (orders[span], ones[span])
            yield config.order_bound, cap, chunk, *tables


def _scan_chunk(task: tuple) -> tuple[tuple[int, ...], list]:
    """The chunk's members, with (order, ones) for each n <= rev n and None for
    the rest, from the chunk's table slices if it has them, (None, None) past
    the bound and for 1."""
    bound, cap, members, orders, ones = task
    top = inf if bound is None else bound
    return members, [
        None if _reciprocal_int(n) < n
        else _counted(n, _order_int(n, bound) if n > 1 else None, 0, cap) if orders is None
        else _counted(n, D, ones[i], cap) if 0 < (D := orders[i]) <= top
        else (None, None)
        for i, n in enumerate(members)
    ]


def _ordered_map(fn: Callable, items: Iterable, jobs: int) -> Iterator:
    """fn over items, results in item order.

    Workers are capped at the core count.  A single one runs in this process;
    a pool takes one item at a time, so one costly item never shares a
    worker's chunk, and at most 8 * jobs are in flight, so a lazy input is not drained.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        yield from map(fn, items)
        return
    with multiprocessing.Pool(jobs) as pool:
        pending: deque = deque()
        for item in items:
            if len(pending) == 8 * jobs:
                yield pending.popleft().get()
            pending.append(pool.apply_async(fn, (item,)))
        while pending:
            yield pending.popleft().get()


def scan(
    config: ScanConfig,
    progress: Callable[[int, int], None] | None = None,
) -> Iterator[ScanRecord]:
    """Records for every odd index of the corpus, ordered by index, the same
    for every worker count.  f and rev f share the order and the cofactor
    counts, so only the member n <= rev n of each pair is computed, in lazy
    chunks (on a pool when jobs > 1); the other takes its (order, ones)."""
    stop = config.index_stop
    partners: dict[int, tuple[int | None, int | None]] = {}
    stats: dict = {}
    for members, pairs in _ordered_map(_scan_chunk, _chunks(config), config.jobs):
        if progress is not None:
            progress(members[0] // 2, stop // 2)
        for n, pair in zip(members, pairs):
            if pair is None:
                # rev f * rev f* = rev(1 + x^D) = 1 + x^D, and f | 1 + x^k iff rev f
                # does: the walk over the partner's cofactor proves this record too.
                pair = partners.pop(n)
            elif n < (m := _reciprocal_int(n)) < stop:
                partners[m] = pair
            yield _make_record(n, *pair, stats)
    if progress is not None:
        progress(stop // 2, stop // 2)


def figure_data(index_max: int = 4096) -> Iterator[FigureRow]:
    """(n, gamma) for every odd index n in [5, index_max).

    Indices 1 and 3 are excluded: 1 is degenerate and 3 is the lone gamma=1
    point, neither of which belongs on the density plot.
    """
    if index_max < 5:
        raise ValueError("index_max must be at least 5")
    recs = (rec for rec in scan(ScanConfig(index_max=index_max)) if rec.n >= 5)
    return (FigureRow(r.n, r.gamma, r.gamma.numerator / r.gamma.denominator) for r in recs)


def gap_census(degree_max: int, jobs: int = 1) -> list[GapCensusEntry]:
    """Largest observed |ell1 - ell0| per degree k = 1..degree_max.

    A degree passes when every record of it passes, which is the integer-exact
    form max_gap^2 <= 2^k; the float bound 2^(k/2) is carried for display.
    """
    if degree_max < 1:
        raise ValueError("degree_max must be >= 1")
    cfg = ScanConfig(degree_max=degree_max, jobs=jobs)
    ensure_bits(_order_ceiling(cfg) + 1)  # refused as a scan is, before any record
    maxima: dict[int, int] = {}
    for rec in scan(cfg):
        if rec.status == "ok" and rec.gap > maxima.get(rec.degree, -1):
            maxima[rec.degree] = rec.gap
    out = []
    for k in range(1, degree_max + 1):
        g = maxima.get(k, 0)
        out.append(GapCensusEntry(degree=k, max_gap=g, bound=2.0 ** (k / 2), ok=g * g <= 1 << k))
    return out


SCAN_COLUMNS = (
    "n", "poly", "degree", "order", "order_exact", "ell1", "ell0",
    "gamma_num", "gamma_den", "robust", "gap", "bound_ok", "status",
)

FIGURE_COLUMNS = ("n", "gamma_num", "gamma_den", "gamma_decimal")

_JSON = json.JSONEncoder(separators=(",", ":"))  # json.dumps would build one per line


def _scan_row(rec: ScanRecord) -> tuple:
    """The record's values in SCAN_COLUMNS order, gamma split in two."""
    g = rec.gamma
    num, den = (None, None) if g is None else (g.numerator, g.denominator)
    return (
        rec.n, rec.poly, rec.degree, rec.order, rec.order_exact, rec.ell1, rec.ell0,
        num, den, rec.robust, rec.gap, rec.bound_ok, rec.status,
    )


_BOOL_CELL = ("false", "true")


def _csv_cell(v: object) -> str:
    return "" if v is None else _BOOL_CELL[v] if type(v) is bool else str(v)


def write_scan_csv(records: Iterable[ScanRecord], out: TextIO) -> None:
    out.write(",".join(SCAN_COLUMNS) + "\n")
    tf = _BOOL_CELL
    tails: dict[tuple, tuple[Fraction, str]] = {}  # outcome -> (gamma, the text after degree)
    for rec in records:
        if rec.status == "ok":  # every field is set: three bools, gamma, and ints
            n, poly, d, D, exact, ell1, ell0, g, robust, gap, bound_ok, _ = rec
            made = tails.get(key := (D, exact, ell1, ell0, robust, gap, bound_ok))
            if made is None or made[0] is not g:  # text made from this very gamma object
                tails[key] = made = g, (
                    f"{D},{tf[exact]},{ell1},{ell0},{g.numerator},{g.denominator},"
                    f"{tf[robust]},{gap},{tf[bound_ok]},ok\n"
                )
            out.write(f"{n},{poly},{d},{made[1]}")
        else:
            out.write(",".join(map(_csv_cell, _scan_row(rec))) + "\n")


def write_scan_jsonl(records: Iterable[ScanRecord], out: TextIO) -> None:
    for rec in records:
        out.write(_JSON.encode(dict(zip(SCAN_COLUMNS, _scan_row(rec)))) + "\n")


def write_figure_csv(rows: Iterable[FigureRow], out: TextIO) -> None:
    out.write(",".join(FIGURE_COLUMNS) + "\n")
    for row in rows:
        out.write(
            f"{row.n},{row.gamma.numerator},{row.gamma.denominator},"
            f"{format(row.decimal, '.12g')}\n"
        )
