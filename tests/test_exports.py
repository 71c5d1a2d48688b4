"""The package's public names, built from each module's __all__."""

from __future__ import annotations

import f2rep

PUBLIC = {
    "BetaReport", "BitCapExceeded", "DigitSet", "EXACT_ORDER_CEILING", "F2Poly",
    "FIGURE_COLUMNS", "FamilyPrediction", "FamilySpec", "FamilyVerdict", "FigureRow",
    "GapCensusEntry", "GapCheck", "OrderBoundExceeded", "PRESETS",
    "ParityProfile", "SCAN_COLUMNS", "ScanConfig", "ScanRecord", "ab_lemma_check",
    "beta", "beta_N", "bit_cap", "build_family", "cofactor", "coordinate_gap_bound_check",
    "count_representations", "diatomic_row", "divrem", "ell0", "ell1", "ensure_bits",
    "family_prediction", "figure_data", "from_index", "g_product", "gap_census",
    "glaisher_sum", "h_closed_form", "is_robust", "modpow_x", "mul", "odd_binomial_count",
    "one_plus_x_pow", "order", "parity_profile", "parity_series", "parse_poly", "phi",
    "reciprocal", "scan", "stern", "verify_family",
    "write_figure_csv", "write_scan_csv", "write_scan_jsonl",
}


def test_public_names_are_pinned():
    assert len(f2rep.__all__) == len(PUBLIC)
    assert set(f2rep.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in f2rep.__all__:
        assert getattr(f2rep, name) is not None
    assert f2rep.build_family is f2rep.families.build
    assert not hasattr(f2rep, "build")
