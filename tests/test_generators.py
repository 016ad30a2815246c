"""Ultrametric space constructors: dendrograms, the two universal samples,
the level family, and the proof triangles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import subspace
from ultrapreserve.generators import (
    DuplicatePoint,
    DuplicateValue,
    InvalidParameters,
    LevelSequence,
    NotInDomain,
    UniversalPoint,
    dplus2_space,
    dplus_space,
    random_ultrametric,
    tbu_noncompact_truncation,
    triangle_equilateral,
    triangle_isosceles,
)
from ultrapreserve.spaces import (
    are_isometric_small,
    covering_number,
    distance_spectrum,
    is_ultrametric,
    min_positive_distance,
)


class TestRandomUltrametric:
    def test_single_point(self):
        space = random_ultrametric(1, seed=5)
        assert len(space) == 1 and space.dist[0, 0] == 0.0

    def test_three_points_two_largest_equal(self):
        space = random_ultrametric(3, seed=42)
        a, b, c = sorted([space.dist[0, 1], space.dist[0, 2], space.dist[1, 2]])
        assert b == c

    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    def test_always_ultrametric(self, n, seed):
        ok, violation = is_ultrametric(random_ultrametric(n, seed))
        assert ok, violation

    def test_same_seed_bit_identical(self):
        a = random_ultrametric(9, seed=123)
        b = random_ultrametric(9, seed=123)
        assert a == b

    def test_at_most_n_minus_1_distinct_distances(self):
        space = random_ultrametric(12, seed=9)
        assert len(distance_spectrum(space)) <= 11

    def test_uniform_level_distribution(self):
        space = random_ultrametric(6, seed=1, level_distribution="uniform")
        assert is_ultrametric(space)[0]
        assert max(distance_spectrum(space)) <= 1.0

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            random_ultrametric(0)
        with pytest.raises(ValueError):
            random_ultrametric(4, level_distribution="cauchy")


class TestDplusSpace:
    def test_pair_takes_max(self):
        space = dplus_space([2.0, 3.0])
        assert space.dist[0, 1] == 3.0

    def test_three_values(self):
        # pairwise maxes of {0,1,2}: (0,1)->1, (0,2)->2, (1,2)->2
        space = dplus_space([0.0, 1.0, 2.0])
        assert sorted(distance_spectrum(space)) == [1.0, 2.0]
        assert is_ultrametric(space)[0]

    def test_singleton(self):
        assert len(dplus_space([5.0])) == 1

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateValue):
            dplus_space([1.0, 1.0])

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.0])
    def test_values_off_the_half_line_rejected(self, bad):
        with pytest.raises(NotInDomain, match="finite and >= 0"):
            dplus_space([1.0, bad])

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=8, unique=True))
    def test_always_ultrametric(self, values):
        assert is_ultrametric(dplus_space(values))[0]

    def test_spectrum_matches_pair_enumeration(self):
        values = [0.5, 1.0, 4.0, 8.0]
        space = dplus_space(values)
        expected = sorted({max(a, b) for i, a in enumerate(values) for b in values[i + 1:]})
        assert list(distance_spectrum(space)) == expected


class TestDplus2Space:
    def test_pair_takes_coordinate_max(self):
        space = dplus2_space([(0.0, 1.0), (2.0, 0.0)])
        assert space.dist[0, 1] == 2.0

    def test_equilateral_triangle(self):
        d0 = 5.0
        space = dplus2_space([(0.0, 0.0), (0.0, d0), (d0, 0.0)])
        assert distance_spectrum(space) == (5.0,)

    def test_domain_enforced(self):
        with pytest.raises(NotInDomain):
            dplus2_space([(1.0, 1.0)])
        with pytest.raises(NotInDomain):
            UniversalPoint(2.0, 3.0)

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePoint):
            dplus2_space([(0.0, 1.0), (0.0, 1.0)])


class TestLevelFamily:
    def test_three_level_matrix(self):
        space, levels = tbu_noncompact_truncation(3, 0.5)
        assert levels.values == (0.5, 0.25, 0.125)
        expected = [
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.25],
            [0.5, 0.25, 0.0],
        ]
        assert np.array_equal(space.dist, np.array(expected))

    def test_spectrum_drops_last_level(self):
        space, levels = tbu_noncompact_truncation(6, 0.5)
        assert distance_spectrum(space) == tuple(sorted(levels.values[:-1]))

    def test_one_ball_at_top_level(self):
        space, levels = tbu_noncompact_truncation(5, 0.5)
        assert covering_number(space, levels.values[0]) == 1

    def test_min_positive_is_second_smallest_level(self):
        space, levels = tbu_noncompact_truncation(5, 0.5)
        assert min_positive_distance(space) == levels.values[-2]

    def test_truncation_consistency(self):
        longer, _ = tbu_noncompact_truncation(6, 0.5)
        shorter, _ = tbu_noncompact_truncation(5, 0.5)
        ok, _ = are_isometric_small(subspace(longer, range(5)), shorter)
        assert ok

    def test_mirrored_adds_equilateral_triangles(self):
        space, _ = tbu_noncompact_truncation(2, 0.5, include_mirrored=True)
        assert len(space) == 4
        assert is_ultrametric(space)[0]

    @given(st.integers(2, 9), st.sampled_from([0.25, 0.5, 0.75]))
    def test_always_ultrametric(self, n, ratio):
        space, _ = tbu_noncompact_truncation(n, ratio)
        assert is_ultrametric(space)[0]

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            tbu_noncompact_truncation(1, 0.5)
        with pytest.raises(ValueError):
            tbu_noncompact_truncation(4, 1.5)


class TestTriangles:
    def test_equilateral(self):
        assert distance_spectrum(triangle_equilateral(5.0)) == (5.0,)

    def test_isosceles_two_largest_equal(self):
        space = triangle_isosceles(1.0, 2.0)
        assert sorted([space.dist[0, 1], space.dist[0, 2], space.dist[1, 2]]) == [1.0, 2.0, 2.0]
        assert is_ultrametric(space)[0]

    def test_ordering_precondition(self):
        with pytest.raises(InvalidParameters):
            triangle_isosceles(3.0, 2.0)
        with pytest.raises(InvalidParameters):
            triangle_equilateral(0.0)

    def test_degenerate_isosceles_is_equilateral(self):
        space = triangle_isosceles(2.0, 2.0)
        assert distance_spectrum(space) == (2.0,)


class TestLevelSequence:
    def test_strict_decrease_enforced(self):
        with pytest.raises(InvalidParameters):
            LevelSequence((0.5, 0.5))
        with pytest.raises(InvalidParameters):
            LevelSequence((0.25, 0.5))
        with pytest.raises(InvalidParameters):
            LevelSequence((0.5, 0.0))
