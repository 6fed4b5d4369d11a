"""Tests for PFD discovery, its configuration, the lattice, generalization,
and the brute-force reference algorithm (Section 4 of the paper)."""

import pytest

from repro.dataset.relation import Relation
from repro.discovery import (
    CandidateLattice,
    DiscoveryConfig,
    PFDDiscoverer,
    brute_force_discover,
    default_decision_function,
    discover_pfds,
    enumerate_substring_groups,
    generalize_tableau,
)
from repro.discovery.brute_force import SubstringGroup
from repro.exceptions import DiscoveryError


@pytest.fixture
def running_example():
    """Table 6 of the paper (the Example 8 running example)."""
    rows = [
        ("Tayseer Fahmi", "Egypt", "F"),
        ("Tayseer Qasem", "Yemen", "M"),
        ("Tayseer Salem", "Egypt", "F"),
        ("Tayseer Saeed", "Yemen", "M"),
        ("Noor Wagdi", "Egypt", "M"),
        ("Noor Shadi", "Yemen", "F"),
        ("Noor Hisham", "Egypt", "M"),
        ("Noor Hashim", "Yemen", "F"),
        ("Esmat Qadhi", "Yemen", "M"),
        ("Esmat Farahat", "Egypt", "F"),
    ]
    return Relation.from_rows(["name", "country", "gender"], rows, name="Running")


@pytest.fixture
def zip_city_table():
    rows = []
    for prefix, city in (("900", "Los Angeles"), ("606", "Chicago"), ("100", "New York")):
        for index in range(20):
            rows.append((f"{prefix}{index:02d}", city))
    return Relation.from_rows(["zip", "city"], rows, name="Zip")


class TestDiscoveryConfig:
    def test_defaults_match_paper(self):
        config = DiscoveryConfig()
        assert config.min_support == 5
        assert config.noise_ratio == pytest.approx(0.05)
        assert config.min_coverage == pytest.approx(0.10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_support": 0},
            {"noise_ratio": 1.0},
            {"noise_ratio": -0.1},
            {"min_coverage": 1.5},
            {"max_lhs_size": 0},
            {"max_tableau_rows": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(DiscoveryError):
            DiscoveryConfig(**kwargs)

    def test_required_rhs_agreement(self):
        config = DiscoveryConfig(noise_ratio=0.05)
        assert config.required_rhs_agreement(100) == 95
        assert config.required_rhs_agreement(10) == 9
        # Tiny groups must still be decided by a strict majority, not a tie.
        assert config.required_rhs_agreement(2) == 2
        strict = DiscoveryConfig(noise_ratio=0.0)
        assert strict.required_rhs_agreement(10) == 10

    def test_with_overrides(self):
        config = DiscoveryConfig().with_overrides(min_support=2)
        assert config.min_support == 2
        assert config.noise_ratio == pytest.approx(0.05)

    def test_generalization_noise_defaults_to_noise(self):
        assert DiscoveryConfig(noise_ratio=0.07).effective_generalization_noise == 0.07
        assert DiscoveryConfig(generalization_noise_ratio=0.02).effective_generalization_noise == 0.02


class TestCandidateLattice:
    def test_level_one_excludes_trivial(self):
        lattice = CandidateLattice(["a", "b", "c"])
        candidates = list(lattice.level(1))
        assert (("a",), "a") not in candidates
        assert (("a",), "b") in candidates
        assert len(candidates) == 6

    def test_mark_satisfied_prunes_supersets(self):
        lattice = CandidateLattice(["a", "b", "c"])
        lattice.mark_satisfied(("a",), "c")
        level2 = list(lattice.level(2))
        assert (("a", "b"), "c") not in level2


class TestPFDDiscovery:
    def test_zip_city_variable_pfd(self, zip_city_table):
        result = discover_pfds(zip_city_table, DiscoveryConfig(min_support=5))
        dependency = result.dependency_for(("zip",), "city")
        assert dependency is not None
        assert dependency.is_variable
        assert dependency.coverage == pytest.approx(1.0)
        assert dependency.pfd.holds_on(zip_city_table)

    def test_constant_pfds_without_generalization(self, zip_city_table):
        config = DiscoveryConfig(min_support=5, generalize=False)
        result = discover_pfds(zip_city_table, config)
        dependency = result.dependency_for(("zip",), "city")
        assert dependency is not None
        assert not dependency.is_variable
        assert len(dependency.pfd.tableau) == 3  # one row per zip prefix

    def test_multi_lhs_running_example(self, running_example):
        config = DiscoveryConfig(min_support=2, min_coverage=0.10, max_lhs_size=2)
        result = PFDDiscoverer(config).discover(running_example)
        dependency = result.dependency_for(("name", "country"), "gender")
        assert dependency is not None
        assert dependency.pfd.holds_on(running_example)

    def test_single_lhs_insufficient_in_running_example(self, running_example):
        # With K=2 no single attribute determines gender (Example 8).
        config = DiscoveryConfig(min_support=2, min_coverage=0.10, max_lhs_size=1)
        result = PFDDiscoverer(config).discover(running_example)
        assert result.dependency_for(("name",), "gender") is None
        assert result.dependency_for(("country",), "gender") is None

    def test_discovered_pfds_tolerate_noise(self, zip_city_table):
        dirty = zip_city_table.copy()
        dirty.set_cell(0, "city", "New York")  # a single error
        result = discover_pfds(dirty, DiscoveryConfig(min_support=5, noise_ratio=0.05))
        dependency = result.dependency_for(("zip",), "city")
        assert dependency is not None
        # The discovered PFD flags the dirty cell as a violation.
        violations = dependency.pfd.violations(dirty)
        suspect_rows = {cell.row_id for v in violations for cell in v.suspect_cells}
        assert 0 in suspect_rows

    def test_result_bookkeeping(self, zip_city_table):
        result = discover_pfds(zip_city_table)
        assert result.relation_name == "Zip"
        assert result.candidate_count >= 2
        assert result.index_entries > 0
        assert result.runtime_seconds >= 0
        assert "Zip" in result.summary()

    def test_include_exclude_attributes(self, zip_city_table):
        config = DiscoveryConfig(min_support=5, exclude_attributes=("city",))
        result = discover_pfds(zip_city_table, config)
        assert not result.dependencies
        config = DiscoveryConfig(min_support=5, include_attributes=("zip", "city"))
        assert discover_pfds(zip_city_table, config).dependencies

    def test_min_coverage_filters(self, zip_city_table):
        config = DiscoveryConfig(min_support=30, min_coverage=0.9)
        result = discover_pfds(zip_city_table, config)
        assert result.dependency_for(("zip",), "city") is None


class TestGeneralization:
    def test_generalize_constant_tableau(self, zip_city_table):
        config = DiscoveryConfig(min_support=5, generalize=False)
        result = discover_pfds(zip_city_table, config)
        dependency = result.dependency_for(("zip",), "city")
        outcome = generalize_tableau(
            zip_city_table, ("zip",), ("city",), dependency.pfd.tableau,
            DiscoveryConfig(min_support=5),
        )
        assert outcome.succeeded
        assert outcome.pfd.is_variable
        assert outcome.pfd.holds_on(zip_city_table)

    def test_generalization_rejected_when_too_noisy(self, zip_city_table):
        dirty = zip_city_table.copy()
        for row_id in range(0, 18):
            dirty.set_cell(row_id, "city", f"Wrong {row_id}")
        config = DiscoveryConfig(min_support=5, generalize=False, noise_ratio=0.4)
        result = discover_pfds(dirty, config)
        dependency = result.dependency_for(("zip",), "city")
        if dependency is None:
            return
        outcome = generalize_tableau(
            dirty, ("zip",), ("city",), dependency.pfd.tableau,
            DiscoveryConfig(min_support=5, noise_ratio=0.01),
        )
        assert not outcome.succeeded

    def test_single_row_tableau_not_generalized(self, zip_city_table):
        from repro.core.tableau import PatternTableau

        outcome = generalize_tableau(
            zip_city_table, ("zip",), ("city",),
            PatternTableau([{"zip": r"{{900}}\D{2}", "city": r"Los\ Angeles"}]),
            DiscoveryConfig(),
        )
        assert not outcome.succeeded


class TestBruteForce:
    @pytest.fixture
    def small_names(self):
        return Relation.from_rows(
            ["name", "gender"],
            [
                ("John Charles", "M"),
                ("John Bosco", "M"),
                ("Susan Orlean", "F"),
                ("Susan Boyle", "F"),
            ],
            name="Name",
        )

    def test_substring_enumeration(self, small_names):
        groups = enumerate_substring_groups(small_names, "name", "gender")
        by_text = {group.substring: group for group in groups}
        assert by_text["John"].support == 2
        assert set(by_text["John"].rhs_values) == {"M"}
        assert by_text["Susan"].support == 2

    def test_decision_function(self):
        good = SubstringGroup("John", ("M", "M"), (0, 1))
        bad = SubstringGroup("a", ("M", "F", "M", "F", "X", "Y"), (0, 1, 2, 3, 4, 5))
        assert default_decision_function(good)
        assert not default_decision_function(bad)

    def test_brute_force_finds_first_names_and_junk(self, small_names):
        result = brute_force_discover(small_names, "name", "gender", min_support=2)
        assert result.pfd is not None
        accepted_texts = {group.substring for group in result.accepted}
        # True positives (challenge C3: also many meaningless substrings).
        assert "John" in accepted_texts
        assert "Susan" in accepted_texts
        assert len(accepted_texts) > 2
        # Challenge C3: the junk rows (e.g. a single shared letter with a tied
        # majority) make the brute-force PFD self-contradictory on clean data.
        assert not result.pfd.holds_on(small_names)

    def test_brute_force_size_limit(self):
        big = Relation.from_rows(["a", "b"], [(f"v{i}", "x") for i in range(600)])
        with pytest.raises(DiscoveryError):
            enumerate_substring_groups(big, "a", "b")
