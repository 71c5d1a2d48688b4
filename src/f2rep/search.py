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
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import TextIO

from .gf2poly import _mul_int, _text_from_int
from .order_beta import _cofactor_int, _order_int, _stats

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
_BLOCK = 4096


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


@dataclass(frozen=True)
class ScanRecord:
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


def _record(n: int, order_bound: int | None) -> ScanRecord:
    text = _text_from_int(n)
    d = n.bit_length() - 1
    D = None if n == 1 else _order_int(n, order_bound)
    if D is None:
        return ScanRecord(
            n=n, poly=text, degree=d, order=None, order_exact=None,
            ell1=None, ell0=None, gamma=None, robust=None, gap=None,
            bound_ok=None, status="degenerate" if n == 1 else "unresolved",
        )
    q = _cofactor_int(n, D)
    assert _mul_int(n, q) == (1 << D) | 1
    ones, zeros, gamma, robust, gap, bound_ok = _stats(q, D, d)
    return ScanRecord(
        n=n, poly=text, degree=d, order=D, order_exact=True,
        ell1=ones, ell0=zeros, gamma=gamma,
        robust=robust, gap=gap, bound_ok=bound_ok, status="ok",
    )


def _scan_block(task: tuple[ScanConfig, int, int]) -> list[ScanRecord]:
    config, lo, hi = task
    shape = config.shape
    want = 3 if shape == "trinomial" else 4 if shape == "quadrinomial" else None
    bound = config.order_bound
    out = []
    for n in range(lo | 1, hi, 2):
        if want is not None and n.bit_count() != want:
            continue
        out.append(_record(n, bound))
    return out


def _ordered_map(fn: Callable, items: Iterable, jobs: int) -> Iterator:
    """fn over items, results in item order.

    jobs <= 1 runs in this process; otherwise a pool of `jobs` workers takes
    one item at a time, so one costly item never shares a worker's chunk,
    and at most 8 * jobs items are in flight, so a lazy input is not drained.
    """
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
    """Records for every odd index passing the filters, ordered by index.

    With jobs > 1 the index range splits into contiguous blocks handed to a
    process pool; block results merge back in order, so the output stream is
    identical to a single-process run.  Blocks are made as they are needed.
    """
    stop = config.index_stop
    starts = range(1, stop, _BLOCK)
    tasks = ((config, lo, min(lo + _BLOCK, stop)) for lo in starts)
    results = _ordered_map(_scan_block, tasks, config.jobs)
    for lo in starts:
        # Left unnamed, so a block's records are freed before the next block runs.
        yield from next(results)
        if progress is not None:
            # Blocks start at odd indices, so [1, hi) holds hi // 2 of them.
            progress(min(lo + _BLOCK, stop) // 2, stop // 2)


def figure_data(index_max: int = 4096) -> Iterator[FigureRow]:
    """(n, gamma) for every odd index n in [5, index_max).

    Indices 1 and 3 are excluded: 1 is degenerate and 3 is the lone gamma=1
    point, neither of which belongs on the density plot.
    """
    if index_max < 5:
        raise ValueError("index_max must be at least 5")
    return _figure_rows(index_max)


def _figure_rows(index_max: int) -> Iterator[FigureRow]:
    for n in range(5, index_max, 2):
        rec = _record(n, None)
        g = rec.gamma
        yield FigureRow(n=n, gamma=g, decimal=g.numerator / g.denominator)


def gap_census(
    degree_max: int,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> list[GapCensusEntry]:
    """Largest observed |ell1 - ell0| per degree k = 1..degree_max.

    A degree passes when every record of it passes, which is the integer-exact
    form max_gap^2 <= 2^k; the float bound 2^(k/2) is carried for display.
    """
    if degree_max < 1:
        raise ValueError("degree_max must be >= 1")
    maxima: dict[int, int] = {}
    failed: set[int] = set()
    cfg = ScanConfig(degree_max=degree_max, jobs=jobs)
    for rec in scan(cfg, progress=progress):
        if rec.status != "ok":
            continue
        if rec.gap > maxima.get(rec.degree, -1):
            maxima[rec.degree] = rec.gap
        if not rec.bound_ok:
            failed.add(rec.degree)
    out = []
    for k in range(1, degree_max + 1):
        g = maxima.get(k, 0)
        out.append(GapCensusEntry(degree=k, max_gap=g, bound=2.0 ** (k / 2), ok=k not in failed))
    return out


SCAN_COLUMNS = (
    "n", "poly", "degree", "order", "order_exact", "ell1", "ell0",
    "gamma_num", "gamma_den", "robust", "gap", "bound_ok", "status",
)

FIGURE_COLUMNS = ("n", "gamma_num", "gamma_den", "gamma_decimal")


def _scan_values(rec: ScanRecord) -> dict[str, object]:
    g = rec.gamma
    return {
        "n": rec.n,
        "poly": rec.poly,
        "degree": rec.degree,
        "order": rec.order,
        "order_exact": rec.order_exact,
        "ell1": rec.ell1,
        "ell0": rec.ell0,
        "gamma_num": None if g is None else g.numerator,
        "gamma_den": None if g is None else g.denominator,
        "robust": rec.robust,
        "gap": rec.gap,
        "bound_ok": rec.bound_ok,
        "status": rec.status,
    }


def _csv_cell(v: object) -> str:
    if v is None:
        return ""
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


def write_scan_csv(records: Iterable[ScanRecord], out: TextIO) -> None:
    out.write(",".join(SCAN_COLUMNS) + "\n")
    for rec in records:
        vals = _scan_values(rec)
        out.write(",".join(_csv_cell(vals[c]) for c in SCAN_COLUMNS) + "\n")


def write_scan_jsonl(records: Iterable[ScanRecord], out: TextIO) -> None:
    for rec in records:
        out.write(json.dumps(_scan_values(rec), separators=(",", ":")) + "\n")


def write_figure_csv(rows: Iterable[FigureRow], out: TextIO) -> None:
    out.write(",".join(FIGURE_COLUMNS) + "\n")
    for row in rows:
        out.write(
            f"{row.n},{row.gamma.numerator},{row.gamma.denominator},"
            f"{format(row.decimal, '.12g')}\n"
        )
