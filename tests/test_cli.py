"""End-to-end checks of the command-line surface via main(argv)."""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from f2rep import DigitSet, cli, families, gf2poly, order_beta, parse_poly, search
from f2rep.cli import main

from reference import ref_diatomic_row, ref_parity_series
from test_golden import GOLDEN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_order_command(capsys):
    code, out, err = run(capsys, "order", "x^9 + x^7 + x + 1")
    assert (code, out, err) == (0, "63\n", "")


def test_order_accepts_all_three_forms(capsys):
    for form in ("x^9 + x^7 + x + 1", "0x283", "@643"):
        assert run(capsys, "order", form)[1] == "63\n"


@pytest.mark.parametrize(
    "form",
    ["x^1600+1", "0x1" + "0" * 399 + "1", f"@{(1 << 1600) | 1}"],
    ids=["expression", "hex", "index"],
)
def test_order_holds_each_form_to_the_bit_cap(capsys, monkeypatch, form):
    monkeypatch.setenv("F2REP_BIT_CAP", "1000")
    assert run(capsys, "order", form) == (
        1,
        "",
        "error: operation needs about 1601 coefficient bits but the cap is 1000"
        " (set F2REP_BIT_CAP to raise it)\n",
    )


def test_order_refuses_an_index_past_the_decimal_digit_limit_and_names_hex(capsys):
    # 4,401 digits: Python's int() refuses decimal text past 4,300 digits.
    code, out, err = run(capsys, "order", "@1" + "0" * 4399 + "1")
    assert (code, out) == (1, "")
    assert err == (
        "error: polynomial index of 4401 digits is too long to read;"
        " give the polynomial in hex (0x...)\n"
    )


def test_repr_refuses_a_digit_past_the_decimal_digit_limit(capsys):
    # 4,400 digits, as in the index case above.
    code, out, err = run(capsys, "repr", "--set", "{0,1,1" + "0" * 4399 + "}", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "error: digit of 4400 digits is too long to read\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("order", "@²"), "bad polynomial index '@²'"),
        (("order", "x^²+1"), "bad exponent in term 'x^²'"),
        (("repr", "--set", "{0,1,²}", "--n", "3"), "bad digit '²' in digit set '{0,1,²}'"),
    ],
    ids=["index", "exponent", "digit"],
)
def test_non_ascii_digits_are_refused_in_the_parsers_words(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_beta_command_exact_line(capsys):
    code, out, _ = run(capsys, "beta", "x^9+x^7+x+1")
    assert code == 0
    assert out == "order=63 exact=true beta=(37,26) gamma=37/63 robust=true\n"


def test_beta_with_period_multiple(capsys):
    _, out, _ = run(capsys, "beta", "@643", "--period", "126")
    assert out == "order=126 exact=false beta=(74,52) gamma=37/63 robust=true\n"


def test_cofactor_formats_round_trip(capsys):
    _, expr, _ = run(capsys, "cofactor", "x^2 + x + 1")
    assert expr == "x + 1\n"
    _, hexed, _ = run(capsys, "cofactor", "x^2 + x + 1", "--format", "hex")
    assert hexed == "0x3\n"
    _, indexed, _ = run(capsys, "cofactor", "x^2 + x + 1", "--format", "index")
    assert indexed == "@3\n"
    assert parse_poly(hexed.strip()) == parse_poly(indexed.strip()) == parse_poly("x + 1")


def test_cofactor_explicit_period(capsys):
    _, out, _ = run(capsys, "cofactor", "x + 1", "--period", "2")
    assert out == "x + 1\n"


def test_family_verify_line(capsys):
    code, out, _ = run(capsys, "family", "verify", "--r", "3", "--variant", "1")
    assert code == 0
    assert out == (
        "r=3 variant=1 reciprocal=false period=63 divides=true exact=true "
        "beta=(37,26) gamma=37/63 prediction=true closed_form=true robust=true\n"
    )


def test_family_verify_reciprocal_skips_closed_form(capsys):
    _, out, _ = run(capsys, "family", "verify", "--r", "3", "--variant", "2", "--reciprocal")
    assert "closed_form=skipped" in out
    assert "beta=(45,28)" in out


def test_family_range_covers_all_members(capsys):
    _, out, _ = run(capsys, "family", "range", "--r-max", "3")
    lines = out.splitlines()
    assert len(lines) == 12  # 3 r values x 2 variants x 2 orientations
    assert lines[0].startswith("r=1 variant=1 reciprocal=false")
    assert lines[-1].startswith("r=3 variant=2 reciprocal=true")


def test_family_range_parallel_matches_serial(capsys):
    # The pool takes the pairs largest r first; the lines still come in r order.
    _, serial, _ = run(capsys, "family", "range", "--r-max", "6")
    _, parallel, _ = run(capsys, "family", "range", "--r-max", "6", "--jobs", "2")
    assert serial == parallel
    assert [line.split()[:3] for line in serial.splitlines()] == [
        [f"r={r}", f"variant={v}", f"reciprocal={recip}"]
        for r in range(1, 7) for v in (1, 2) for recip in ("false", "true")
    ]


def test_a_cap_changed_between_two_family_ranges_takes_effect_under_each_start_method(
    capsys, monkeypatch, start_method
):
    # The parent admits every pair under the cap of the run; a worker that read
    # the cap again would see the small one its forkserver started with.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool of 2 on any host
    monkeypatch.setenv("F2REP_BIT_CAP", "1000")
    code, small, err = run(capsys, "family", "range", "--r-max", "3", "--jobs", "2")
    assert (code, err) == (0, "")
    monkeypatch.delenv("F2REP_BIT_CAP")
    code, out, err = run(capsys, "family", "range", "--r-max", "6", "--jobs", "2")
    assert (code, err) == (0, "")
    assert out == run(capsys, "family", "range", "--r-max", "6")[1]
    assert out.startswith(small) and len(out.splitlines()) == 24


def test_family_range_builds_one_closed_form_per_pair_and_reverses_nothing(capsys, monkeypatch):
    # One walk over the closed form's windows per (r, variant), and no series 1/f.
    built = []
    real = families._h_windows
    monkeypatch.setattr(families, "_h_windows", lambda r, v: built.append((r, v)) or real(r, v))
    monkeypatch.setattr(families, "_series_walk", lambda f, N, marks: pytest.fail("the series ran"))
    for mod in (gf2poly, families, order_beta, search, cli):
        if hasattr(mod, "_reciprocal_int"):
            monkeypatch.setattr(mod, "_reciprocal_int", lambda a: pytest.fail("reversed"))
    code, out, _ = run(capsys, "family", "range", "--r-max", "6")
    assert (code, len(out.splitlines())) == (0, 24)
    assert sorted(built) == [(r, v) for r in range(1, 7) for v in (1, 2)]


def test_family_range_to_r13_fits_in_60_mb_of_address_space():
    # The walk holds about 2^18 bits of a closed form at a time; building the
    # 67 Mbit closed form of r = 13 and its product took 68 MB.
    src = str(Path(cli.__file__).resolve().parents[1])
    limit = 60_000 * 1024
    proc = subprocess.run(
        [sys.executable, "-m", "f2rep.cli", "family", "range", "--r-max", "13", "--allow-large-r"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "fadd2842e8a5d8dc0160fec80949a0b6eb3d6ddb9357074a6894018756c2f4f4"
    )


def test_scan_preset_robust_only(capsys):
    code, out, _ = run(capsys, "scan", "--preset", "trinomials19", "--robust-only")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].startswith("n,poly,degree,order,")
    assert len(lines) == 5
    assert [line.split(",")[1] for line in lines[1:]] == [
        "x^14 + x^3 + 1",
        "x^14 + x^11 + 1",
        "x^19 + x^9 + 1",
        "x^19 + x^10 + 1",
    ]


def test_scan_csv_flag_is_the_default(capsys):
    _, default, _ = run(capsys, "scan", "--index-max", "64")
    assert run(capsys, "scan", "--index-max", "64", "--csv")[1] == default


def test_scan_explicit_extent_json(capsys):
    _, out, _ = run(capsys, "scan", "--index-max", "8", "--json")
    lines = out.splitlines()
    assert len(lines) == 4
    assert '"status":"degenerate"' in lines[0]


def test_scan_requires_an_extent(capsys):
    code, _, err = run(capsys, "scan")
    assert code == 1
    assert "error:" in err


def test_scan_rejects_preset_plus_extent(capsys):
    code, _, err = run(capsys, "scan", "--preset", "degree14", "--index-max", "100")
    assert code == 1
    assert "not both" in err


@pytest.mark.parametrize(
    "preset,shape", [("degree14", "trinomial"), ("trinomials19", "quadrinomial")]
)
def test_scan_rejects_preset_plus_shape(capsys, preset, shape):
    code, out, err = run(capsys, "scan", "--preset", preset, "--shape", shape)
    assert (code, out) == (1, "")
    assert err == "error: give either --preset or --index-max/--degree-max/--shape, not both\n"


@pytest.mark.parametrize("command", ["scan", "figure"])
def test_an_out_path_that_cannot_be_opened_is_one_error_line(capsys, tmp_path, command):
    if command == "scan":
        argv = ["scan", "--preset", "trinomials19", "--out", str(tmp_path / "missing" / "x.csv")]
    else:
        argv = ["figure", "--max", "64", "--out", str(tmp_path)]  # a directory
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_jobs_are_capped_at_the_core_count(capsys, monkeypatch):
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def apply_async(self, fn, args):
            result = fn(*args)
            return SimpleNamespace(get=lambda: result)

    monkeypatch.setattr(search.multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = run(capsys, "scan", "--degree-max", "3")
    assert run(capsys, "scan", "--degree-max", "3", "--jobs", "100000") == serial
    assert sizes == [2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one, in this process
    assert run(capsys, "scan", "--degree-max", "3", "--jobs", "2") == serial
    assert sizes == [2]


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("stern", "--row", "17"), lambda: " ".join(map(str, ref_diatomic_row(17)))),
        (
            ("parity", "--set", "{0,1,2}", "--series", str(1 << 17)),
            lambda: "".join(map(str, ref_parity_series(DigitSet([0, 1, 2]), 1 << 17))),
        ),
    ],
)
def test_long_sequences_are_written_in_flat_memory(monkeypatch, tmp_path, argv, expected):
    # 2^17 terms held as lists of ints and strs peak past 9 MB; a stream holds one slice.
    path = tmp_path / "out.txt"
    with open(path, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        tracemalloc.start()
        try:
            assert main(list(argv)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert path.read_text() == expected() + "\n"


def test_scan_progress_goes_to_stderr(capsys):
    _, out, err = run(capsys, "scan", "--index-max", "100", "--progress")
    assert "scanned" in err
    assert "scanned" not in out


def test_scan_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "scan", "--index-max", "8", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text().startswith("n,poly,")


def test_figure_output(capsys):
    _, out, _ = run(capsys, "figure", "--max", "8")
    assert out.splitlines() == [
        "n,gamma_num,gamma_den,gamma_decimal",
        "5,1,2,0.5",
        "7,2,3,0.666666666667",
    ]


def test_repr_command(capsys):
    code, out, _ = run(capsys, "repr", "--set", "{0,1,2}", "--n", "4")
    assert (code, out) == (0, "3\n")


def test_parity_profile_default(capsys):
    _, out, _ = run(capsys, "parity", "--set", "{0,1,2}")
    assert out == "period=3 order_exact=true odd_count=2 odd_residues={0,1}\n"


def test_parity_profile_flag_is_the_default(capsys):
    _, default, _ = run(capsys, "parity", "--set", "{0,1,3}")
    assert run(capsys, "parity", "--set", "{0,1,3}", "--profile")[1] == default


def test_parity_series(capsys):
    _, out, _ = run(capsys, "parity", "--set", "{0,1,2}", "--series", "8")
    assert out == "11011011\n"


def test_stern_value_and_row(capsys):
    assert run(capsys, "stern", "--n", "11")[1] == "5\n"
    assert run(capsys, "stern", "--row", "2")[1] == "1 3 2 3 1\n"


def test_gapcheck_lines(capsys):
    _, out, _ = run(capsys, "gapcheck", "--degree-max", "3")
    lines = out.splitlines()
    assert lines[0] == "degree=1 max_gap=1 bound=1.41421 ok=true"
    assert len(lines) == 3
    assert all("ok=true" in line for line in lines)


@pytest.mark.parametrize(
    "argv,needle",
    [
        (("order", "x^2 + y"), "bad polynomial term 'y'"),
        (("order", "x^2 + x"), "constant term 1"),
        (("beta", "@0"), "constant term 1"),
        (("cofactor", "@643", "--period", "62"), "not a period"),
        (("repr", "--set", "{1,2}", "--n", "4"), "must contain 0"),
        (("repr", "--set", "{0,1,q}", "--n", "4"), "bad digit 'q'"),
        (("beta", "@643", "--period", "64"), "not a period: the polynomial does not divide 1 + x^64"),
        # 6006 = 2 * 3 * 7 * 11 * 13 is factored for the walk's marks, and 15 does not divide it.
        (("beta", "x^4+x+1", "--period", "6006"), "not a period: the polynomial does not divide 1 + x^6006"),
    ],
)
def test_errors_name_the_problem(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert needle in err


def test_beta_period_over_the_bit_cap_fails_fast(capsys, monkeypatch):
    # A prime period 2^61 - 1 of x + 1: it must be rejected by the bit cap
    # before N is factored for the walk's marks.
    monkeypatch.setattr(order_beta, "_prime_factors", lambda n: pytest.fail("factored"))
    code, out, err = run(capsys, "beta", "x+1", "--period", "2305843009213693951")
    assert (code, out) == (1, "")
    assert err.startswith("error: operation needs about 2305843009213693952 coefficient bits")


def test_bad_bit_cap_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("F2REP_BIT_CAP", "abc")
    code, out, err = run(capsys, "beta", "x^2 + x + 1")
    assert (code, out) == (1, "")
    assert err == "error: F2REP_BIT_CAP must be an integer, got 'abc'\n"


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("argv", [("order", "x+1"), ("scan", "--degree-max", "2")])
def test_a_bit_cap_below_one_is_refused(capsys, monkeypatch, cap, argv):
    monkeypatch.setenv("F2REP_BIT_CAP", cap)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: F2REP_BIT_CAP must be at least 1, got '{cap}'\n"


def test_parity_of_zero_alone_names_the_set(capsys):
    code, out, err = run(capsys, "parity", "--set", "{0}")
    assert (code, out) == (1, "")
    assert err == (
        "error: digit set {0} has phi = 1: f(0) = 1 and f(n) = 0 for every n >= 1,"
        " so its count parity is not purely periodic\n"
    )
    assert run(capsys, "repr", "--set", "{0}", "--n", "0") == (0, "1\n", "")
    assert run(capsys, "repr", "--set", "{0}", "--n", "5") == (0, "0\n", "")


@pytest.mark.parametrize(
    "poly,D",
    [
        ("x^39+x^4+1", (1 << 39) - 1),
        ("x^63+x+1", (1 << 63) - 1),
        ("x^89+x^38+1", (1 << 89) - 1),  # Mersenne prime orders
        ("x^127+x+1", (1 << 127) - 1),
    ],
)
def test_order_of_primitive_trinomials_past_the_scan(capsys, poly, D):
    assert run(capsys, "order", poly) == (0, f"{D}\n", "")


def test_order_that_needs_an_unfactorable_mersenne_number_fails_fast(capsys):
    # x^71 + x^6 + 1 is irreducible; 2^71 - 1 has two prime factors past 2^20.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "order", "x^71+x^6+1")
    assert time.perf_counter() - t0 < 2
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot factor {(1 << 71) - 1}")


def test_family_range_over_the_bit_cap_fails_before_any_member(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_verify_admitted", lambda *a, **k: calls.append(a))
    monkeypatch.setenv("F2REP_BIT_CAP", "20000")
    code, out, err = run(capsys, "family", "range", "--r-max", "8")
    assert (code, out, calls) == (1, "", [])
    # r = 8, variant 1 is the first member over the cap.
    assert err.startswith(f"error: operation needs about {4**8 - 1 + 8} coefficient bits")


def test_poly_text_over_the_bit_cap_fails_before_building_it(capsys, monkeypatch):
    monkeypatch.setenv("F2REP_BIT_CAP", "1000")
    code, out, err = run(capsys, "order", "x^5000 + 1")
    assert (code, out) == (1, "")
    assert err == (
        "error: operation needs about 5001 coefficient bits but the cap is 1000"
        " (set F2REP_BIT_CAP to raise it)\n"
    )


def test_family_verify_far_past_the_bit_cap_names_the_cap(capsys, monkeypatch):
    # 4^8000 has 4,817 digits: the refusal must not try to print it.
    monkeypatch.delenv("F2REP_BIT_CAP", raising=False)
    code, out, err = run(capsys, "family", "verify", "--r", "8000", "--variant", "1", "--allow-large-r")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200
    assert "the cap is 268435456" in err


@pytest.mark.parametrize(
    "argv",
    [("family", "verify", "--r", "11", "--variant", "1"), ("family", "range", "--r-max", "11")],
    ids=["verify", "range"],
)
def test_family_over_the_ceiling_names_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: r=11 is above the exact-order ceiling 10; pass --allow-large-r")


def test_family_range_with_a_huge_r_max_stops_at_the_first_refused_member(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_verify_admitted", lambda *a, **k: calls.append(a))
    monkeypatch.delenv("F2REP_BIT_CAP", raising=False)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "family", "range", "--r-max", "1000000", "--allow-large-r")
    assert time.perf_counter() - t0 < 1
    assert (code, out, calls) == (1, "", [])
    assert err == (
        "error: operation needs about 268435463 coefficient bits but the cap is 268435456"
        " (set F2REP_BIT_CAP to raise it)\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--jobs", "0"), "jobs must be >= 1"),
        (("--jobs", "-2"), "jobs must be >= 1"),
        (("--r-max", "0"), "r_max must be >= 1"),
        (("--r-max", "-1"), "r_max must be >= 1"),
    ],
)
def test_family_range_refuses_an_empty_range_or_no_workers(capsys, monkeypatch, argv, message):
    calls = []
    monkeypatch.setattr(cli, "_verify_admitted", lambda *a, **k: calls.append(a))
    assert run(capsys, "family", "range", *argv) == (1, "", f"error: {message}\n")
    assert calls == []


def test_parity_series_over_the_bit_cap_fails_fast(capsys, monkeypatch):
    monkeypatch.setenv("F2REP_BIT_CAP", "1000")
    assert run(capsys, "parity", "--set", "{0,1,2}", "--series", "1000")[0] == 0
    code, out, err = run(capsys, "parity", "--set", "{0,1,2}", "--series", "1001")
    assert (code, out) == (1, "")
    assert err.startswith("error: operation needs about 1001 coefficient bits but the cap is 1000")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_over_the_bit_cap_fails_with_the_cap_message(capsys, monkeypatch, jobs):
    # Degree 12 can hold orders up to 4095, so the scan is refused before its first record.
    monkeypatch.setenv("F2REP_BIT_CAP", "1000")
    code, _, err = run(capsys, "scan", "--degree-max", "12", "--jobs", jobs)
    assert code == 1
    assert err.startswith("error: operation needs about")
    assert err.endswith("coefficient bits but the cap is 1000 (set F2REP_BIT_CAP to raise it)\n")


@pytest.mark.parametrize(
    "cap,argv,size",
    [
        # x^24 + x^4 + x^3 + ... may reach order 2^24 - 1: refused before degree 2.
        ("1048576", ("scan", "--degree-max", "24", "--shape", "trinomial"), 1 << 24),
        # Quadrinomials of degree 22 are (1 + x) g: orders up to 2^21 - 1.
        ("1048576", ("scan", "--degree-max", "22", "--shape", "quadrinomial"), 1 << 21),
        ("1000", ("figure", "--max", "4096"), 2048),
    ],
)
def test_scan_and_figure_refuse_before_the_header(capsys, monkeypatch, tmp_path, cap, argv, size):
    monkeypatch.setenv("F2REP_BIT_CAP", cap)
    message = (
        f"error: operation needs about {size} coefficient bits but the cap is {cap}"
        " (set F2REP_BIT_CAP to raise it)\n"
    )
    assert run(capsys, *argv) == (1, "", message)
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_text("earlier run\n")
    assert run(capsys, *argv, "--out", str(fresh)) == (1, "", message)
    assert run(capsys, *argv, "--out", str(kept)) == (1, "", message)
    assert not fresh.exists()
    assert kept.read_text() == "earlier run\n"


def test_figure_refuses_a_small_max_before_opening_out(capsys, tmp_path):
    out = tmp_path / "figure.csv"
    assert run(capsys, "figure", "--max", "3", "--out", str(out)) == (
        1, "", "error: index_max must be at least 5\n"
    )
    assert not out.exists()


def test_scan_that_fits_the_cap_exactly_runs(capsys, monkeypatch):
    # Every trinomial of degree <= 11 has order <= 2047, a cofactor of 2048 bits.
    monkeypatch.setenv("F2REP_BIT_CAP", "2048")
    code, out, err = run(capsys, "scan", "--degree-max", "11", "--shape", "trinomial")
    assert (code, err) == (0, "")
    assert out.count("\n") == 1 + 55
    monkeypatch.setenv("F2REP_BIT_CAP", "2047")
    assert run(capsys, "scan", "--degree-max", "11", "--shape", "trinomial")[:2] == (1, "")


def test_parity_of_a_digit_set_over_the_cap_fails_fast(capsys, monkeypatch):
    monkeypatch.setenv("F2REP_BIT_CAP", "1000")
    t0 = time.perf_counter()
    assert run(capsys, "parity", "--set", "{0,1,30000}") == (
        1,
        "",
        "error: operation needs about 30001 coefficient bits but the cap is 1000"
        " (set F2REP_BIT_CAP to raise it)\n",
    )
    assert time.perf_counter() - t0 < 1
    # Counting and the parity series build no phi, so the set still works there.
    assert run(capsys, "repr", "--set", "{0,1,30000}", "--n", "90000") == (0, "4\n", "")
    assert run(capsys, "parity", "--set", "{0,1,30000}", "--series", "8") == (0, "11111111\n", "")


def test_scan_preset_with_an_order_bound_is_the_bounded_preset(capsys):
    code, bounded, _ = run(capsys, "scan", "--preset", "degree14", "--order-bound", "83")
    assert code == 0
    assert hashlib.sha256(bounded.encode()).hexdigest() == GOLDEN[("scan", "--preset", "order83")]


def test_a_closed_pipe_ends_the_scan_quietly():
    # `f2rep scan ... | head -1`: the reader leaves after one line.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "f2rep.cli", "scan", "--preset", "degree14"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"n,poly,degree,")
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_unknown_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["order"])  # missing the polynomial
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_emitted_polynomials_reparse(capsys):
    # The three output forms of one cofactor must re-parse to one value.
    seen = set()
    for fmt in ("expr", "hex", "index"):
        _, out, _ = run(capsys, "cofactor", "x^9 + x^7 + x + 1", "--format", fmt)
        seen.add(parse_poly(out.strip()))
    assert len(seen) == 1
    assert seen.pop().bits.bit_count() == 37


@pytest.mark.parametrize(
    "cap,degree,size",
    [
        # Degree 40 may hold orders up to 2^40 - 1; walking it would take 2^39 records.
        (None, "40", 1 << 40),
        ("1000", "12", 1 << 12),
    ],
)
def test_gapcheck_over_the_bit_cap_is_refused_before_any_work(capsys, monkeypatch, cap, degree, size):
    if cap is None:
        monkeypatch.delenv("F2REP_BIT_CAP", raising=False)
    else:
        monkeypatch.setenv("F2REP_BIT_CAP", cap)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "gapcheck", "--degree-max", degree)
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (1, "")
    assert err == (
        f"error: operation needs about {size} coefficient bits but the cap is {cap or 1 << 28}"
        " (set F2REP_BIT_CAP to raise it)\n"
    )


def test_a_huge_scan_degree_is_refused_from_the_degree_alone(capsys, monkeypatch):
    # 2^(d+1) for d = 10^8 is a 12.5 MB int: the refusal must not build it.
    monkeypatch.delenv("F2REP_BIT_CAP", raising=False)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "scan", "--degree-max", "100000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == (
        "error: operation needs more than 2^64 coefficient bits but the cap is 268435456"
        " (set F2REP_BIT_CAP to raise it)\n"
    )
    assert peak < 1 << 20
