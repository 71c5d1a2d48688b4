"""The package's public names, built from each module's __all__."""

from __future__ import annotations

import inspect

import f2rep

PUBLIC = {
    "BetaReport", "BitCapExceeded", "DigitSet", "EXACT_ORDER_CEILING", "F2Poly",
    "FIGURE_COLUMNS", "FamilyPrediction", "FamilySpec", "FamilyVerdict", "FigureRow",
    "GapCensusEntry", "PRESETS",
    "ParityProfile", "SCAN_COLUMNS", "ScanConfig", "ScanRecord",
    "beta", "beta_N", "bit_cap", "build_family", "cofactor",
    "count_representations", "diatomic_row", "ensure_bits",
    "family_prediction", "figure_data", "gap_census",
    "order", "parity_profile", "parity_series", "parse_poly", "phi",
    "scan", "stern", "verify_family",
    "write_figure_csv", "write_scan_csv", "write_scan_jsonl",
}

# Second spellings and test-only helpers that left the API: a * b, divmod(a, b),
# F2Poly(n) and beta(f).robust stay; the family identities live in tests/reference.py,
# and so does the whole-int family cofactor h_closed_form, as ref_h_closed_form.
# Names only tests called: p.bits.bit_count() counts terms, the private kernels
# _reciprocal_int and _modpow_x_int reverse and exponentiate, beta and gap_census
# give the coordinate gap, and scan --order-bound runs _order_int(bits, bound).
REMOVED = {
    "mul", "divrem", "from_index", "is_robust", "one_plus_x_pow", "g_product",
    "ab_lemma_check", "glaisher_sum", "odd_binomial_count",
    "ell1", "ell0", "reciprocal", "modpow_x", "coordinate_gap_bound_check", "GapCheck",
    "OrderBoundExceeded", "h_closed_form",
}


def test_public_names_are_pinned():
    assert len(f2rep.__all__) == len(PUBLIC) == 38
    assert set(f2rep.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in f2rep.__all__:
        assert getattr(f2rep, name) is not None
    assert f2rep.build_family is f2rep.families.build_family
    assert not hasattr(f2rep, "build")


def test_removed_names_are_gone():
    modules = (f2rep, f2rep.gf2poly, f2rep.order_beta, f2rep.families)
    assert not [(m.__name__, n) for m in modules for n in REMOVED if hasattr(m, n)]
    # p * p stands for substitute_x2, (p.bits >> i) & 1 for coefficient, p.bits for index.
    assert not [n for n in ("substitute_x2", "coefficient", "index") if hasattr(f2rep.F2Poly, n)]
    assert list(inspect.signature(f2rep.order).parameters) == ["f"]
