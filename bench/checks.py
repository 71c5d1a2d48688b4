"""Checks of each workload's output, computed apart from f2rep.

One output record (a scan row or a family line) is one operation.  A record
the output lacks is a failed operation; a record that is present but wrong,
or a corpus-level property that does not hold, makes the run incorrect.
The expected numbers come from gf2.py, from properties the method must have
(reciprocal invariance, ell1 + ell0 = D) and from the paper's theorems;
never from a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass, field

import gf2

SCAN_COLUMNS = (
    "n", "poly", "degree", "order", "order_exact", "ell1", "ell0",
    "gamma_num", "gamma_den", "robust", "gap", "bound_ok", "status",
)

# Records recomputed from scratch per run, drawn with random.Random(seed).
SAMPLE_SIZE = {"census": 24, "digitsets": 12}


@dataclass
class Report:
    expected: int
    present: int = 0
    problems: list[str] = field(default_factory=list)

    def bad(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)


def census_indices() -> list[int]:
    """Every polynomial with constant term 1 and degree <= 14."""
    return list(range(1, 1 << 15, 2))


def digitset_indices() -> list[int]:
    """Every digit set {0, a, b, c} with 0 < a < b < c <= 20."""
    return [n for n in range(1, 1 << 21, 2) if n.bit_count() == 4]


def _csv_value(cell: str) -> object:
    if cell == "":
        return None
    if cell in ("true", "false"):
        return cell == "true"
    return int(cell) if cell.lstrip("-").isdigit() else cell


def parse_scan(text: str, as_json: bool) -> list[dict]:
    if as_json:
        return [json.loads(line) for line in text.splitlines()]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != SCAN_COLUMNS:
        raise ValueError("missing or unexpected CSV header")
    return [
        {c: (v if c == "poly" else _csv_value(v)) for c, v in zip(SCAN_COLUMNS, row)}
        for row in rows[1:]
    ]


def _check_scan_record(rec: dict, rep: Report) -> None:
    n = rec["n"]
    where = f"n={n}"
    if set(rec) != set(SCAN_COLUMNS):
        rep.bad(f"{where}: fields {sorted(rec)}")
        return
    if gf2.parse_terms(rec["poly"]) != n:
        rep.bad(f"{where}: poly text {rec['poly']!r} is another polynomial")
    deg = n.bit_length() - 1
    if rec["degree"] != deg:
        rep.bad(f"{where}: degree {rec['degree']}")
    if n == 1:
        rest = [rec[c] for c in SCAN_COLUMNS[3:-1]]
        if rec["status"] != "degenerate" or any(v is not None for v in rest):
            rep.bad(f"{where}: the constant 1 is not reported degenerate")
        return
    if rec["status"] != "ok" or rec["order_exact"] is not True:
        rep.bad(f"{where}: status {rec['status']} exact {rec['order_exact']}")
        return
    D, ones, zeros = rec["order"], rec["ell1"], rec["ell0"]
    if gf2.order_certificate(n, D) != (True, True):
        rep.bad(f"{where}: {D} fails the order certificate")
    if ones + zeros != D or ones < 0 or zeros < 0:
        rep.bad(f"{where}: ell1 {ones} + ell0 {zeros} != D {D}")
    num, den = rec["gamma_num"], rec["gamma_den"]
    if math.gcd(num, den) != 1 or num * D != ones * den:
        rep.bad(f"{where}: gamma {num}/{den} is not ell1/D reduced")
    if rec["robust"] != (2 * ones > D + 1):
        rep.bad(f"{where}: robust {rec['robust']}")
    gap = abs(ones - zeros)
    if rec["gap"] != gap or rec["bound_ok"] is not True or gap * gap > 1 << deg:
        rep.bad(f"{where}: gap {rec['gap']} bound_ok {rec['bound_ok']} over 2^(deg/2)")


def check_scan(workload: str, text: str, seed: int) -> Report:
    """Checks shared by census (CSV) and digitsets (JSON lines)."""
    census = workload == "census"
    want = census_indices() if census else digitset_indices()
    rep = Report(expected=len(want))
    try:
        recs = parse_scan(text, as_json=not census)
    except ValueError as exc:
        rep.bad(f"unreadable output: {exc}")
        return rep
    got = [rec.get("n") for rec in recs]
    if got != want[: len(got)]:
        rep.bad("records are not the expected corpus in index order")
        return rep
    rep.present = len(recs)
    for rec in recs:
        _check_scan_record(rec, rep)
    # The corpus-wide checks below need every record.
    if rep.problems or rep.present < rep.expected:
        return rep
    ok = {rec["n"]: rec for rec in recs if rec["status"] == "ok"}
    # C3: reversing the coefficients keeps the order and the cofactor's ones.
    for n, rec in ok.items():
        other = ok.get(gf2.reverse(n))
        if other is None or (other["order"], other["ell1"]) != (rec["order"], rec["ell1"]):
            rep.bad(f"n={n}: (D, ell1) differs from its reciprocal's")
    sample = random.Random(seed).sample(sorted(ok), SAMPLE_SIZE[workload])
    recount = gf2.ell1_by_division if census else gf2.ell1_by_recurrence
    for n in sample:
        if recount(n, ok[n]["order"]) != ok[n]["ell1"]:
            rep.bad(f"n={n}: ell1 recomputed differs")
    if census:
        half = sum(
            1 for n, rec in ok.items()
            if n < 1 << 12 and (rec["gamma_num"], rec["gamma_den"]) == (1, 2)
        )
        if half != 421:
            rep.bad(f"{half} of the 2048 records below degree 12 have gamma 1/2, not 421")
    else:
        for r in (3, 4):
            for spec in family_specs(r):
                f = family_poly(*spec)
                period, c, d = family_prediction(r, spec[1])
                rec = ok[f]
                if (rec["order"], rec["ell1"], rec["ell0"], rec["robust"]) != (period, c, d, True):
                    rep.bad(f"family member {spec} (n={f}) lacks its predicted statistics")
    return rep


def family_specs(r: int) -> list[tuple[int, int, bool]]:
    return [(r, v, rec) for v in (1, 2) for rec in (False, True)]


def family_poly(r: int, variant: int, reciprocal: bool) -> int:
    """1 + x + x^(2^r-1) + x^(2^r+1) or 1 + x + x^(2^r) + x^(2^r+2),
    coefficient-reversed for the reciprocal member (equal exponents cancel)."""
    exps = (0, 1, 2**r - 1, 2**r + 1) if variant == 1 else (0, 1, 2**r, 2**r + 2)
    f = 0
    for e in exps:
        f ^= 1 << e
    return gf2.reverse(f) if reciprocal else f


def family_prediction(r: int, variant: int) -> tuple[int, int, int]:
    """The paper's period and cofactor counts (ell1, ell0)."""
    if variant == 1:
        return 4**r - 1, 4**r - 3**r, 3**r - 1
    return 4**r + 2**r + 1, 4**r - 3**r + 2**r, 3**r + 1


_FAMILY_LINE = re.compile(
    r"r=(\d+) variant=([12]) reciprocal=(true|false) period=(\d+) "
    r"divides=(true|false) exact=(true|false) beta=\((\d+),(\d+)\) "
    r"gamma=(\d+(?:/\d+)?) prediction=(true|false) "
    r"closed_form=(true|false|skipped) robust=(true|false)"
)


def check_families(text: str, r_max: int) -> Report:
    specs = [s for r in range(1, r_max + 1) for s in family_specs(r)]
    rep = Report(expected=len(specs))
    lines = text.splitlines()
    if len(lines) > len(specs):
        rep.bad(f"{len(lines)} lines for {len(specs)} members")
        return rep
    for (r, variant, reciprocal), line in zip(specs, lines):
        m = _FAMILY_LINE.fullmatch(line)
        where = f"r={r} variant={variant} reciprocal={reciprocal}"
        if m is None or (int(m[1]), int(m[2]), m[3] == "true") != (r, variant, reciprocal):
            rep.bad(f"{where}: unexpected line {line[:80]!r}")
            return rep
        rep.present += 1
        period, c, d = family_prediction(r, variant)
        divides, exact = gf2.order_certificate(family_poly(r, variant, reciprocal), period)
        gamma = f"{c // math.gcd(c, period)}/{period // math.gcd(c, period)}"
        want = (
            period, divides, exact, c, d, gamma, True,
            "skipped" if reciprocal else "true", 2 * c > period + 1,
        )
        have = (
            int(m[4]), m[5] == "true", m[6] == "true", int(m[7]), int(m[8]), m[9],
            m[10] == "true", m[11], m[12] == "true",
        )
        if not divides or have != want:
            rep.bad(f"{where}: {have} != {want}")
        if r >= 3 and not have[-1]:
            rep.bad(f"{where}: not robust")
    return rep
