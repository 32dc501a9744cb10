"""Randomized property suites, 1000 cases each (seeded, reproducible)."""

from propsuites import (
    check_abductive_subset,
    check_chapman_kolmogorov,
    check_classification_matches_reachability,
    check_classification_partition,
    check_factor_threshold_relation,
    check_forward_paths_vs_bruteforce,
    check_gathered_trellis,
    check_memorylessness,
    check_power_stochasticity,
    check_rank_matches_diagnose,
    check_revision_matches_definitions,
    check_revision_paths_spelled,
    check_revision_ranking_and_zeros,
    check_threshold_monotonicity,
    check_trellis_vs_bruteforce,
)

CASES = 1000


def test_chapman_kolmogorov():
    check_chapman_kolmogorov(CASES)


def test_power_stochasticity():
    check_power_stochasticity(CASES)


def test_geometric_memorylessness():
    check_memorylessness(CASES)


def test_abductive_subset_of_consistency():
    check_abductive_subset(CASES)


def test_trellis_matches_bruteforce():
    check_trellis_vs_bruteforce(CASES)


def test_forward_paths_match_bruteforce():
    check_forward_paths_vs_bruteforce(CASES)


def test_gathered_trellis_matches_definitions():
    check_gathered_trellis(CASES)


def test_threshold_monotonicity():
    check_threshold_monotonicity(CASES)


def test_revision_preserves_ranking_and_zeros():
    check_revision_ranking_and_zeros(CASES)


def test_revision_matches_definitions():
    check_revision_matches_definitions(CASES)


def test_revision_paths_spelled_at_every_span():
    check_revision_paths_spelled(CASES)


def test_rank_matches_diagnose():
    check_rank_matches_diagnose(CASES)


def test_per_component_factors_bound_global():
    check_factor_threshold_relation(CASES)


def test_classification_partitions_modes():
    check_classification_partition(CASES)


def test_classification_matches_reachability():
    check_classification_matches_reachability(CASES)
