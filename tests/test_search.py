"""Corpus scans: record content, determinism, presets, and the writers."""

from __future__ import annotations

import io
import json
import time
from array import array
from fractions import Fraction

import pytest

from f2rep import (
    BitCapExceeded,
    PRESETS,
    SCAN_COLUMNS,
    ScanConfig,
    ScanRecord,
    figure_data,
    gap_census,
    scan,
    write_figure_csv,
    write_scan_csv,
    write_scan_jsonl,
)
from f2rep import bit_cap, search
from f2rep.order_beta import _dense_orders, _order_int, _series_walk
from f2rep.search import _chunks, _corpus, _counted, _make_record, _order_ceiling, _pays, _work

from reference import ref_csv_row

_WEIGHT = {"all": None, "trinomial": 3, "quadrinomial": 4}


def _old_filter(config: ScanConfig) -> list[int]:
    """The corpus as the scan used to list it: every odd index, filtered by weight."""
    w = _WEIGHT[config.shape]
    return [n for n in range(1, config.index_stop, 2) if w is None or n.bit_count() == w]


def run(config: ScanConfig) -> list:
    return list(scan(config))


def _record(n: int, bound: int | None) -> tuple[int | None, int | None]:
    """(order, ones) of n found on its own: factored or stepped, then walked."""
    return _counted(n, None if n == 1 else _order_int(n, bound), 0, bit_cap())


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig()  # no extent
    with pytest.raises(ValueError):
        ScanConfig(index_max=100, degree_max=5)  # both extents
    with pytest.raises(ValueError):
        ScanConfig(index_max=1)
    with pytest.raises(ValueError):
        ScanConfig(degree_max=5, shape="pentanomial")
    with pytest.raises(ValueError):
        ScanConfig(degree_max=5, order_bound=0)
    with pytest.raises(ValueError):
        ScanConfig(degree_max=5, jobs=0)
    assert ScanConfig(degree_max=5).index_stop == 64
    assert ScanConfig(index_max=100).index_stop == 100


def test_scan_covers_exactly_the_odd_indices():
    recs = run(ScanConfig(index_max=64))
    assert [r.n for r in recs] == list(range(1, 64, 2))


def test_degenerate_constant_record():
    rec = run(ScanConfig(index_max=4))[0]
    assert rec.n == 1
    assert rec.status == "degenerate"
    assert rec.order is None and rec.gamma is None and rec.robust is None


def test_record_content_for_known_polynomials():
    by_n = {r.n: r for r in run(ScanConfig(degree_max=9))}
    rec = by_n[643]
    assert rec.poly == "x^9 + x^7 + x + 1"
    assert rec.degree == 9
    assert rec.order == 63
    assert rec.order_exact is True
    assert (rec.ell1, rec.ell0) == (37, 26)
    assert rec.gamma == Fraction(37, 63)
    assert rec.robust is True
    assert rec.gap == 11 and rec.bound_ok is True
    assert rec.status == "ok"

    rec = by_n[3]
    assert (rec.order, rec.ell1, rec.ell0, rec.gamma) == (1, 1, 0, Fraction(1))
    assert rec.robust is False

    rec = by_n[5]
    assert (rec.order, rec.gamma) == (2, Fraction(1, 2))


def test_order_bound_marks_unresolved():
    recs = run(ScanConfig(index_max=1024, order_bound=83))
    assert len(recs) == 512  # capped records are kept, not dropped
    by_status: dict[str, list] = {}
    for r in recs:
        by_status.setdefault(r.status, []).append(r)
    assert by_status["unresolved"]  # plenty of degree-<10 orders exceed 83
    assert all(r.order is None for r in by_status["unresolved"])
    assert all(r.order <= 83 for r in by_status["ok"])
    # Order 63 sits under the cap, so the worked example stays resolved.
    assert next(r for r in recs if r.n == 643).status == "ok"


def test_shape_filters():
    tri = run(ScanConfig(degree_max=8, shape="trinomial"))
    assert all(bin(r.n).count("1") == 3 for r in tri)
    quad = run(ScanConfig(degree_max=8, shape="quadrinomial"))
    assert all(bin(r.n).count("1") == 4 for r in quad)
    # Together with the other weights they partition the full scan.
    full = run(ScanConfig(degree_max=8))
    assert len(tri) == sum(1 for r in full if bin(r.n).count("1") == 3)


def test_parallel_scan_is_deterministic(pool):
    cfg1 = ScanConfig(index_max=3000, jobs=1)
    cfg2 = ScanConfig(index_max=3000, jobs=3)
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_scan_csv(scan(cfg1), buf1)
    write_scan_csv(scan(cfg2), buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_robust_trinomials_to_degree_14():
    recs = [r for r in run(PRESETS["trinomials19"]) if r.robust and r.degree <= 14]
    assert [(r.poly, r.order, r.ell1, r.ell0) for r in recs] == [
        ("x^14 + x^3 + 1", 5115, 2600, 2515),
        ("x^14 + x^11 + 1", 5115, 2600, 2515),
    ]


def test_robust_quadrinomials_to_degree_18():
    robust = [r for r in run(PRESETS["quadrinomials18"]) if r.robust]
    assert len(robust) == 86  # regression count
    have = {r.poly for r in robust}
    for p in (8, 16):  # family anchors 2^3 and 2^4 both fit in degree 18
        family = {
            f"x^{p + 1} + x^{p - 1} + x + 1",
            f"x^{p + 1} + x^{p} + x^2 + 1",
            f"x^{p + 2} + x^{p} + x + 1",
            f"x^{p + 2} + x^{p + 1} + x^2 + 1",
        }
        assert family <= have


def test_presets_cover_the_four_corpora():
    assert set(PRESETS) == {"trinomials19", "quadrinomials18", "degree14", "order83"}
    assert PRESETS["trinomials19"].shape == "trinomial"
    assert PRESETS["quadrinomials18"].degree_max == 18
    assert PRESETS["order83"].order_bound == 83


def test_csv_shape_and_encoding():
    buf = io.StringIO()
    write_scan_csv(scan(ScanConfig(index_max=8)), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(SCAN_COLUMNS)
    assert lines[1] == "1,1,0,,,,,,,,,,degenerate"
    assert lines[2] == "3,x + 1,1,1,true,1,0,1,1,false,1,true,ok"
    assert lines[3] == "5,x^2 + 1,2,2,true,1,1,1,2,false,0,true,ok"
    assert lines[4] == "7,x^2 + x + 1,2,3,true,2,1,2,3,false,1,true,ok"
    assert len(lines) == 5


def test_csv_rows_of_every_status_match_the_cell_by_cell_row():
    records = run(ScanConfig(degree_max=6))
    records += run(ScanConfig(degree_max=8, order_bound=20))  # unresolved past 20
    records += [
        # A scanned outcome with another gamma: its text must not come from the first.
        records[1]._replace(gamma=Fraction(1, 3)),
        # Hand-built: a period that is not the order, and ints that equal 0 and 1,
        # which a lookup keyed by True or False would print as false and true.
        ScanRecord(5, "x^2 + 1", 2, 4, False, 2, 2, Fraction(1, 2), False, 0, True, "ok"),
        ScanRecord(3, "x + 1", 1, 1, True, 1, 0, Fraction(1, 1), False, 1, False, "ok"),
        ScanRecord(7, "x^2 + x + 1", 2, 3, True, 0, 1, Fraction(0, 1), True, 1, True, "ok"),
    ]
    statuses = {rec.status for rec in records}
    assert statuses == {"ok", "unresolved", "degenerate"}
    assert {rec.robust for rec in records} == {True, False, None}
    buf = io.StringIO()
    write_scan_csv(records, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    assert lines[0] == ",".join(SCAN_COLUMNS) + "\n"
    assert lines[1:] == [ref_csv_row(rec) for rec in records]
    assert lines[-3] == "5,x^2 + 1,2,4,false,2,2,1,2,false,0,true,ok\n"
    assert lines[-2] == "3,x + 1,1,1,true,1,0,1,1,false,1,false,ok\n"
    assert lines[-1] == "7,x^2 + x + 1,2,3,true,0,1,0,1,true,1,true,ok\n"


def test_scan_record_is_a_named_tuple_of_twelve_fields(pool):
    assert ScanRecord._fields == (
        "n", "poly", "degree", "order", "order_exact", "ell1", "ell0",
        "gamma", "robust", "gap", "bound_ok", "status",
    )
    rec = run(ScanConfig(index_max=8))[3]
    assert rec == (7, "x^2 + x + 1", 2, 3, True, 2, 1, Fraction(2, 3), False, 1, True, "ok")
    with pytest.raises(AttributeError):
        rec.order = 4
    assert rec._replace(order=4).order == 4 and rec.order == 3
    assert run(ScanConfig(degree_max=10)) == run(ScanConfig(degree_max=10, jobs=2))


@pytest.mark.parametrize("shape", list(_WEIGHT))
@pytest.mark.parametrize("extent", [{"degree_max": 12}, {"index_max": 3000}, {"index_max": 4097}])
def test_a_scan_weighs_its_members_by_degree(shape, extent):
    config = ScanConfig(shape=shape, **extent)
    by_degree = [0] * (config.index_stop - 1).bit_length()
    for n in _corpus(config):
        by_degree[n.bit_length() - 1] += 1
    work = list(_work(config))
    assert [bits for _, bits in work] == [1 << d for d in range(len(by_degree))]
    if shape == "all" or "degree_max" in extent:
        assert [k for k, _ in work] == by_degree
    else:  # a shape counts the whole top degree that index_max cuts
        assert [k for k, _ in work][:-1] == by_degree[:-1] and work[-1][0] >= by_degree[-1]


def test_the_weight_of_a_scan_decides_its_pool():
    # Each member weighs 2^16 plus 2^d; a pool needs 2^29 in all.
    assert _pays([(1, (1 << 29) - (1 << 16))]) and not _pays([(1, (1 << 29) - (1 << 16) - 1)])
    many = ((1 << 12) - 1, 1 << 16)  # 2^29 - 2^17
    assert _pays([many, (1, 1 << 16)]) and not _pays([many, (1, (1 << 16) - 1)])
    # degree 13 (5.8e8) and 14 (1.25e9) start one; degree 12 (2.8e8) does not.
    heavy = [PRESETS["degree14"], ScanConfig(degree_max=13), ScanConfig(degree_max=21, shape="quadrinomial")]
    light = [ScanConfig(degree_max=12), ScanConfig(degree_max=20, shape="quadrinomial")]
    light += [PRESETS["trinomials19"], PRESETS["quadrinomials18"], ScanConfig(index_max=1 << 13)]
    assert [_pays(_work(c)) for c in heavy + light] == [True] * 3 + [False] * 5
    # The sum stops at the weight a pool needs, so a huge corpus is weighed at once.
    t0 = time.perf_counter()
    assert _pays(_work(ScanConfig(degree_max=10**8))) and _pays(_work(ScanConfig(index_max=1 << 10**6)))
    assert _pays(_work(ScanConfig(degree_max=10**8, shape="trinomial")))
    assert time.perf_counter() - t0 < 1


def test_dense_chunks_carry_table_slices():
    # Shape all up to the dense limit: each chunk carries its members' order
    # and count slices, index by index; other shapes carry none.
    sieve = _dense_orders()
    for _ in range(11):
        orders, ones = next(sieve)
    for task in _chunks(ScanConfig(degree_max=10, order_bound=83)):
        bound, cap, members, chunk_orders, chunk_ones = task
        assert (bound, cap) == (83, bit_cap())
        assert type(chunk_orders) is type(chunk_ones) is array
        assert list(chunk_orders) == [orders[n >> 1] for n in members]
        assert list(chunk_ones) == [ones[n >> 1] for n in members]
    for task in _chunks(ScanConfig(degree_max=10, shape="trinomial")):
        assert task[3:] == (None, None)


def test_jsonl_round_trips():
    buf = io.StringIO()
    write_scan_jsonl(scan(ScanConfig(index_max=8)), buf)
    rows = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert rows[0]["status"] == "degenerate"
    assert rows[0]["order"] is None
    assert rows[3] == {
        "n": 7, "poly": "x^2 + x + 1", "degree": 2, "order": 3,
        "order_exact": True, "ell1": 2, "ell0": 1, "gamma_num": 2,
        "gamma_den": 3, "robust": False, "gap": 1, "bound_ok": True,
        "status": "ok",
    }


def test_figure_data_rows():
    rows = list(figure_data(16))
    assert [r.n for r in rows] == [5, 7, 9, 11, 13, 15]
    by_n = {r.n: r for r in rows}
    assert by_n[5].gamma == Fraction(1, 2)
    assert by_n[5].decimal == 0.5
    with pytest.raises(ValueError):
        figure_data(4)


def test_figure_row_for_index_515():
    # 515 reads off as 1 + x + x^9; order 73, 28 odd residues (frozen oracle values).
    row = next(r for r in figure_data(520) if r.n == 515)
    assert row.gamma == Fraction(28, 73)


def test_figure_csv_format():
    buf = io.StringIO()
    write_figure_csv(figure_data(8), buf)
    assert buf.getvalue().splitlines() == [
        "n,gamma_num,gamma_den,gamma_decimal",
        "5,1,2,0.5",
        "7,2,3,0.666666666667",
    ]


def test_gap_census_small_degrees():
    entries = gap_census(6)
    assert [e.degree for e in entries] == [1, 2, 3, 4, 5, 6]
    assert all(e.ok for e in entries)
    # Degree 1: only 1+x, gap 1; bound 2^(1/2).
    assert entries[0].max_gap == 1
    # Every per-degree maximum is an actual gap of some record of that degree.
    by_degree = {}
    for rec in scan(ScanConfig(degree_max=6)):
        if rec.status == "ok":
            by_degree.setdefault(rec.degree, set()).add(rec.gap)
    for e in entries:
        assert e.max_gap in by_degree[e.degree]
        assert e.max_gap == max(by_degree[e.degree])


def test_gap_census_validation():
    with pytest.raises(ValueError):
        gap_census(0)


def test_progress_callback_counts_everything(pool):
    seen = []
    list(scan(ScanConfig(index_max=10000, jobs=2), progress=lambda d, t: seen.append((d, t))))
    assert seen[-1] == (5000, 5000)
    assert [d for d, _ in seen] == sorted(d for d, _ in seen)


@pytest.mark.parametrize("jobs", [1, 2])
def test_huge_scan_yields_its_first_record_at_once(jobs):
    # 2^41 indices: building every block, or every sieve table, up front would not finish.
    for shape, first_record in (("trinomial", (7, 3)), ("all", (1, None))):
        t0 = time.perf_counter()
        records = scan(ScanConfig(degree_max=40, shape=shape, jobs=jobs))
        first = next(records)
        records.close()
        assert time.perf_counter() - t0 < 1, shape
        assert (first.n, first.order) == first_record


# A limit of 6 splits the scan between the sieve and per-polynomial factoring;
# index_max 3000 and 4097 cut a degree slice.
@pytest.mark.parametrize("extent", [{"degree_max": 10}, {"index_max": 3000}, {"index_max": 4097}])
@pytest.mark.parametrize("bound", [None, 83])
@pytest.mark.parametrize("jobs", [1, 2])
def test_the_dense_limit_does_not_change_the_records(monkeypatch, pool, extent, bound, jobs):
    expected = run(ScanConfig(order_bound=bound, jobs=jobs, **extent))
    monkeypatch.setattr(search, "_DENSE_MAX", 6)
    assert run(ScanConfig(order_bound=bound, jobs=jobs, **extent)) == expected


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_sieve_grows_in_this_process_up_to_the_limit_only(monkeypatch, pool, jobs):
    # A table grown in a worker would never reach `grown`, which lives here.
    grown = []

    def dense_orders():
        for table, ones in _dense_orders():
            grown.append(len(table))
            yield table, ones

    def order_int(n, bound):
        if n < 1 << 7:
            raise AssertionError(f"{n} is factored but has its order from the sieve")
        return _order_int(n, bound)

    monkeypatch.setattr(search, "_DENSE_MAX", 6)
    monkeypatch.setattr(search, "_dense_orders", dense_orders)
    monkeypatch.setattr(search, "_order_int", order_int)
    assert len(run(ScanConfig(degree_max=9, jobs=jobs))) == 512
    assert grown == [1 << d for d in range(7)]  # degrees 0 .. 6, then the tables are dropped
    monkeypatch.setattr(search, "_order_int", _order_int)
    for shape in ("trinomial", "quadrinomial"):
        run(ScanConfig(degree_max=9, shape=shape))
    assert len(grown) == 7


def _counts_by_theorem(degree_max: int) -> dict[int, tuple[int, int]]:
    """(order, count) of every n up to degree_max that the sieve counts by theorem."""
    sieve = _dense_orders()
    for _ in range(degree_max + 1):
        orders, ones = next(sieve)
    return {2 * i + 1: (orders[i], w) for i, w in enumerate(ones) if w}


@pytest.mark.parametrize("jobs", [1, 2])
def test_members_counted_by_theorem_never_build_a_cofactor(monkeypatch, pool, jobs):
    config = ScanConfig(degree_max=12, jobs=jobs)
    expected = [_make_record(n, *_record(n, None), {}) for n in _old_filter(config)]
    covered = _counts_by_theorem(12)
    assert len(covered) == 1491

    def series_walk(n, N, marks):
        if n in covered:
            raise AssertionError(f"{n} has its count by theorem but built a cofactor")
        return _series_walk(n, N, marks)

    monkeypatch.setattr(search, "_series_walk", series_walk)
    assert run(config) == expected


def test_members_counted_by_theorem_past_the_order_bound_are_unresolved():
    covered = _counts_by_theorem(12)
    records = {rec.n: rec for rec in run(ScanConfig(degree_max=12, order_bound=83))}
    past = [n for n, (D, _) in covered.items() if D > 83]
    assert len(past) > 1000
    for n in past:
        assert (records[n].status, records[n].order, records[n].ell1) == ("unresolved", None, None)
    for n, (D, w) in covered.items():
        if D <= 83:
            assert (records[n].status, records[n].order, records[n].ell1) == ("ok", D, w)


def test_a_count_by_theorem_needs_its_period_proved(monkeypatch):
    # x^3 + x + 1 has order 7 and 4 ones; x^7 = 1 mod it proves the period 7.
    cap = bit_cap()
    assert _counted(11, 7, 4, cap) == (7, 4)
    # At 6, no period: neither the count given nor Newton's cofactor is taken.
    for w in (4, 0):
        with pytest.raises(ArithmeticError, match="6 is not a period of x\\^3 \\+ x \\+ 1"):
            _counted(11, 6, w, cap)
    monkeypatch.setattr(search, "_series_walk", lambda *a: pytest.fail("built a cofactor"))
    assert _counted(11, 7, 4, cap) == (7, 4)


def test_records_keep_their_statistics_per_degree():
    # One (ones, D) at degrees 1 and 10, where only bound_ok, gap^2 <= 2^d, differs.
    stats = {}
    low, high = _make_record(3, 9, 9, stats), _make_record(1025, 9, 9, stats)
    assert (low.bound_ok, high.bound_ok) == (False, True)
    assert (low, high) == (_make_record(3, 9, 9, {}), _make_record(1025, 9, 9, {}))


@pytest.mark.parametrize("shape", list(_WEIGHT))
@pytest.mark.parametrize("extent", [{"degree_max": 16}, {"index_max": 40000}, {"index_max": 4097}])
def test_corpus_lists_what_the_weight_filter_kept(shape, extent):
    config = ScanConfig(shape=shape, **extent)
    assert list(_corpus(config)) == _old_filter(config)


# index_max 3000 and 4097 cut a degree slice, so some partners lie past the stop.
@pytest.mark.parametrize("shape", list(_WEIGHT))
@pytest.mark.parametrize(
    "extent,bound,jobs",
    [
        ({"degree_max": 12}, None, 1),
        ({"index_max": 3000}, None, 1),
        ({"index_max": 4097}, None, 1),
        ({"degree_max": 12}, 83, 2),
        ({"index_max": 3000}, 83, 2),
        ({"degree_max": 12}, 63, 1),  # a bound that some orders meet exactly
    ],
)
def test_paired_scan_matches_a_record_per_index(pool, shape, extent, bound, jobs):
    config = ScanConfig(shape=shape, order_bound=bound, jobs=jobs, **extent)
    assert run(config) == [_make_record(n, *_record(n, bound), {}) for n in _old_filter(config)]


# Chunks of 7 put the partner rev n of a member in a later chunk.
@pytest.mark.parametrize("shape", list(_WEIGHT))
@pytest.mark.parametrize("bound", [None, 83])
@pytest.mark.parametrize("jobs", [1, 2])
def test_partners_in_later_chunks(monkeypatch, pool, shape, bound, jobs):
    monkeypatch.setattr(search, "_CHUNK", 7)
    config = ScanConfig(degree_max=10, shape=shape, order_bound=bound, jobs=jobs)
    assert run(config) == [_make_record(n, *_record(n, bound), {}) for n in _old_filter(config)]


@pytest.mark.parametrize("shape", list(_WEIGHT))
def test_order_ceiling_bounds_every_order_in_the_corpus(shape):
    orders = {rec.n: rec.order or 0 for rec in scan(ScanConfig(degree_max=11, shape=shape))}
    extents = [{"degree_max": d} for d in range(12)]
    extents += [{"index_max": stop} for stop in (2, 3, 4, 5, 9, 16, 17, 1000, 2049, 4096)]
    for extent in extents:
        config = ScanConfig(shape=shape, **extent)
        top = max((D for n, D in orders.items() if n < config.index_stop), default=0)
        ceiling = _order_ceiling(config)
        # Every degree has a primitive polynomial, so the ceiling of `all` is met.
        assert top == ceiling if shape == "all" else top <= ceiling, extent
        assert _order_ceiling(ScanConfig(shape=shape, order_bound=83, **extent)) == min(83, ceiling)
    # (1 + x)^3 is the one quadrinomial of degree 3, and its order 4 exceeds 2^2 - 1.
    assert _order_ceiling(ScanConfig(degree_max=3, shape="quadrinomial")) == _record(15, None)[0] == 4


def test_order_ceiling_past_the_cap_width_stands_in_a_smaller_refused_power(monkeypatch):
    monkeypatch.delenv("F2REP_BIT_CAP", raising=False)
    assert _order_ceiling(ScanConfig(degree_max=65)) == (1 << 65) - 1  # exact up to 65 bits
    assert _order_ceiling(ScanConfig(degree_max=10**8)) == (1 << 65) - 1
    assert _order_ceiling(ScanConfig(degree_max=10**8, shape="quadrinomial")) == (1 << 65) - 1
    assert _order_ceiling(ScanConfig(index_max=1 << 10**6)) == (1 << 65) - 1
    assert _order_ceiling(ScanConfig(degree_max=10**8, order_bound=83)) == 83
    monkeypatch.setenv("F2REP_BIT_CAP", str(1 << 100))  # a 101-bit cap
    assert _order_ceiling(ScanConfig(degree_max=102)) == (1 << 102) - 1
    assert _order_ceiling(ScanConfig(degree_max=10**8)) == (1 << 102) - 1


def test_gap_census_over_the_bit_cap_is_refused_before_any_record(monkeypatch):
    monkeypatch.setattr(search, "scan", lambda *a: pytest.fail("scanned"))
    monkeypatch.delenv("F2REP_BIT_CAP", raising=False)
    with pytest.raises(BitCapExceeded, match="needs about 1099511627776 coefficient bits"):
        gap_census(40)


# A library scan has no ceiling check in front of it: the first member whose
# order D reaches the cap is refused as ensure_bits(D + 1) words it, and every
# record before that member comes out.
_REFUSALS = [
    ("all", 100, 64, 128),  # order 127 at degree 7, from the sieve
    ("all", 255, 128, 256),  # order 255 at degree 8: an order equal to the cap
    ("trinomial", 20, 6, 22),  # orders found by factoring
    ("quadrinomial", 100, 35, 128),
]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("shape,cap,kept,size", _REFUSALS)
def test_a_library_scan_refuses_the_first_order_that_reaches_the_cap(
    monkeypatch, pool, jobs, shape, cap, kept, size
):
    monkeypatch.setenv("F2REP_BIT_CAP", str(cap))
    records = []
    with pytest.raises(BitCapExceeded) as exc:
        for rec in scan(ScanConfig(degree_max=8, shape=shape, jobs=jobs)):
            records.append(rec)
    assert str(exc.value) == (
        f"operation needs about {size} coefficient bits but the cap is {cap}"
        " (set F2REP_BIT_CAP to raise it)"
    )
    assert len(records) == kept


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_cap_changed_between_two_scans_takes_effect(monkeypatch, pool, jobs):
    config = ScanConfig(degree_max=8, jobs=jobs)
    monkeypatch.setenv("F2REP_BIT_CAP", "255")
    with pytest.raises(BitCapExceeded, match="about 256 coefficient bits but the cap is 255 "):
        run(config)
    monkeypatch.setenv("F2REP_BIT_CAP", "256")  # the largest order, 255, needs 256 bits
    assert len(run(config)) == 256
    monkeypatch.setenv("F2REP_BIT_CAP", "100")
    with pytest.raises(BitCapExceeded, match="about 128 coefficient bits but the cap is 100 "):
        run(config)


# The cap must reach forkserver and spawn workers in their tasks: see the
# start_method fixture in conftest.py.
def test_a_library_scan_refuses_at_the_cap_under_each_start_method(monkeypatch, start_method):
    for refusal in _REFUSALS:
        test_a_library_scan_refuses_the_first_order_that_reaches_the_cap(monkeypatch, None, 2, *refusal)


def test_a_cap_changed_between_two_scans_takes_effect_under_each_start_method(monkeypatch, start_method):
    test_a_cap_changed_between_two_scans_takes_effect(monkeypatch, None, 2)
