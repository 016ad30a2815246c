"""Distance-matrix validation, predicates, spectra, covering numbers, and
isometry search.

Independent oracles used here:
  * `three_subset_ultrametric` — exhaustive check over all 3-point subspaces;
  * `first_violation_oracle` — the first violating triple of distinct points
    by a plain triple loop, for both predicates on any matrix;
  * `component_covering` — for ultrametric spaces, d(x,y) <= eps is
    transitive, so the minimum net size equals the number of connected
    components of the threshold graph;
  * frozen expected values are derived by direct pair enumeration in the
    comments where they appear.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given

from conftest import ultrametric_spaces
from ultrapreserve.generators import dplus_space, random_ultrametric, tbu_noncompact_truncation
from ultrapreserve.parser import parse_function_spec
from ultrapreserve.spaces import (
    AsymmetricEntry,
    FiniteSemimetricSpace,
    NonFiniteEntry,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    NotAmenableOnSpectrum,
    NotSquare,
    SpaceValidationError,
    TooFewPoints,
    TooLarge,
    TripleViolation,
    apply_function,
    are_isometric_small,
    covering_number,
    distance_spectrum,
    is_metric,
    is_ultrametric,
    min_positive_distance,
    minimum_covering_number,
    subspace,
    validate_space,
)


def sides(a, b, c):
    """3-point space with d(x0,x1)=a, d(x0,x2)=b, d(x1,x2)=c."""
    return validate_space([[0, a, b], [a, 0, c], [b, c, 0]])


def three_subset_ultrametric(space) -> bool:
    """Oracle: a space is ultrametric iff every 3-point subspace is."""
    n = len(space)
    if n < 3:
        return True
    for combo in itertools.combinations(range(n), 3):
        sub = subspace(space, combo)
        d = sub.dist
        vals = sorted([d[0, 1], d[0, 2], d[1, 2]])
        if vals[2] > vals[1]:  # two largest sides must agree
            return False
    return True


def first_violation_oracle(d, strong: bool):
    """Oracle: lexicographically first (i, j, k), all distinct, with
    d[i, j] > max(d[i, k], d[k, j]) (strong) or d[i, k] + d[k, j]."""
    n = d.shape[0]
    for i, j, k in itertools.product(range(n), repeat=3):
        if len({i, j, k}) < 3:
            continue
        rhs = max(d[i, k], d[k, j]) if strong else d[i, k] + d[k, j]
        if d[i, j] > rhs:
            kind = "strong_triangle" if strong else "triangle"
            return TripleViolation((i, j, k), float(d[i, j]), float(rhs), kind)
    return None


def oracle_matrices(kind: str, count: int = 120, seed: int = 0):
    """Seeded corpus: valid ultrametrics, ultrametrics with one entry planted
    above the maximum, and unvalidated integer matrices (negative entries,
    zero entries and nonzero diagonals included)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 8))
        if kind == "unvalidated":
            yield rng.integers(-2, 4, size=(n, n)).astype(float)
            continue
        d = np.array(random_ultrametric(n, int(rng.integers(2**32))).dist)
        if kind == "planted" and n >= 2:
            a, b = (int(x) for x in rng.choice(n, 2, replace=False))
            d[a, b] = d[b, a] = d.max() * float(rng.choice([1.5, 2.5, 4.0]))
        yield d


def component_covering(space, eps) -> int:
    """Oracle: component count of the threshold graph d <= eps."""
    n = len(space)
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        while stack:
            v = stack.pop()
            if seen[v]:
                continue
            seen[v] = True
            stack.extend(w for w in range(n) if space.dist[v, w] <= eps and not seen[w])
    return count


class TestValidation:
    def test_smallest_metric_space(self):
        space = validate_space([[0, 1], [1, 0]])
        assert space.labels == ("x0", "x1")
        assert space.dist[0, 1] == 1.0

    def test_asymmetric_entry(self):
        with pytest.raises(AsymmetricEntry) as exc:
            validate_space([[0, 1], [2, 0]])
        assert exc.value.indices == (0, 1)

    def test_nonpositive_off_diagonal(self):
        with pytest.raises(NonpositiveOffDiagonal) as exc:
            validate_space([[0, 0], [0, 0]])
        assert exc.value.indices == (0, 1)

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal):
            validate_space([[1, 1], [1, 0]])

    def test_non_finite_entry(self):
        with pytest.raises(NonFiniteEntry):
            validate_space([[0, np.nan], [np.nan, 0]])

    @pytest.mark.parametrize("matrix, message", [
        ([[0, 1e999], [1e999, 0]], "entry (0,1) is not finite: inf"),
        ([[0, 1], [2, 0]], "entry (0,1) = 1.0 but (1,0) = 2.0"),
        ([[0.5, 1], [1, 0]], "diagonal entry (0,0) = 0.5, expected 0"),
        ([[0, -1], [-1, 0]], "off-diagonal entry (0,1) = -1.0, expected > 0"),
    ])
    def test_messages_print_plain_floats(self, matrix, message):
        with pytest.raises(SpaceValidationError) as exc:
            validate_space(matrix)
        assert str(exc.value) == message

    def test_not_square(self):
        with pytest.raises(NotSquare):
            validate_space([[0, 1, 2], [1, 0, 2]])

    def test_matrix_is_frozen(self):
        space = validate_space([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            space.dist[0, 1] = 5.0


class TestPredicates:
    def test_two_largest_equal_is_ultrametric(self):
        ok, violation = is_ultrametric(sides(1, 2, 2))
        assert ok and violation is None

    def test_strictly_increasing_sides_violate(self):
        ok, violation = is_ultrametric(sides(1, 2, 3))
        assert not ok
        # first ordered violating triple by enumeration: d(1,2)=3 > max(1,2)
        assert violation == TripleViolation((1, 2, 0), 3.0, 2.0, "strong_triangle")

    def test_small_spaces_trivially_ultrametric(self):
        assert is_ultrametric(validate_space([[0.0]]))[0]
        assert is_ultrametric(validate_space([[0, 5], [5, 0]]))[0]

    def test_degenerate_triangle_is_metric(self):
        assert is_metric(sides(1, 1, 2))[0]

    def test_long_side_violates_triangle(self):
        ok, violation = is_metric(sides(1, 1, 3))
        assert not ok
        assert violation == TripleViolation((1, 2, 0), 3.0, 2.0, "triangle")

    @given(ultrametric_spaces(max_points=10))
    def test_ultrametric_implies_metric(self, space):
        assert is_ultrametric(space)[0]
        assert is_metric(space)[0]

    @given(ultrametric_spaces(min_points=3, max_points=8))
    def test_agrees_with_three_subset_oracle(self, space):
        assert is_ultrametric(space)[0] == three_subset_ultrametric(space)

    def test_three_subset_oracle_on_perturbed_space(self):
        space = sides(1, 2, 3)
        assert not three_subset_ultrametric(space)
        assert not is_ultrametric(space)[0]

    @pytest.mark.parametrize("kind", ["valid", "planted", "unvalidated"])
    def test_first_violation_matches_triple_loop(self, kind):
        for d in oracle_matrices(kind):
            space = FiniteSemimetricSpace([f"x{i}" for i in range(len(d))], d)
            for predicate, strong in ((is_ultrametric, True), (is_metric, False)):
                want = first_violation_oracle(d, strong)
                assert predicate(space) == (want is None, want)

    @pytest.mark.parametrize("predicate", [is_ultrametric, is_metric])
    def test_degenerate_triples_are_ignored(self, predicate):
        # d[0,0] = 1 > 0 only on triples that repeat a point
        space = FiniteSemimetricSpace(("a", "b"), [[1, 0], [0, 1]])
        assert predicate(space) == (True, None)

    def test_negative_diagonal_breaks_only_degenerate_triangles(self):
        # d[0,1] = 1 > d[0,1] + d[1,1] = 0 needs k == j
        space = FiniteSemimetricSpace(("a", "b", "c"), [[0, 1, 1], [1, -1, 1], [1, 1, 0]])
        assert is_metric(space) == (True, None)


class TestSpectra:
    def test_isosceles_spectrum(self):
        assert distance_spectrum(sides(1, 2, 2)) == (1.0, 2.0)

    def test_equilateral_spectrum(self):
        assert distance_spectrum(sides(5, 5, 5)) == (5.0,)

    def test_single_point_empty(self):
        assert distance_spectrum(validate_space([[0.0]])) == ()

    def test_min_positive(self):
        assert min_positive_distance(sides(1, 2, 2)) == 1.0

    def test_min_positive_dplus(self):
        # pairs of {1,2,3} under max: (1,2)->2, (1,3)->3, (2,3)->3; min is 2
        assert min_positive_distance(dplus_space([1.0, 2.0, 3.0])) == 2.0

    def test_min_positive_level_family(self):
        # levels (1/2, 1/4, 1/8): closest pair is the two smallest, max = 1/4
        space, _ = tbu_noncompact_truncation(3, 0.5)
        assert min_positive_distance(space) == 0.25

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            min_positive_distance(validate_space([[0.0]]))


class TestApplyFunction:
    def test_identity_is_noop(self):
        space = sides(1, 2, 2)
        image = apply_function(space, parse_function_spec("t"))
        assert image == space

    def test_sqrt_preserves_ultrametricity(self):
        image = apply_function(sides(1, 4, 4), parse_function_spec("pow(t, 0.5)"))
        assert distance_spectrum(image) == (1.0, 2.0)
        assert is_ultrametric(image)[0]

    def test_inversion_breaks_strong_triangle(self):
        # f(1)=5, f(2)=3 on sides (2,2,1) gives sides (3,3,5)
        f = parse_function_spec("piecewise { [0,1): t; [1,2): 5; [2,inf): 3 }")
        before = validate_space([[0, 2, 1], [2, 0, 2], [1, 2, 0]])
        image = apply_function(before, f)
        assert sorted(distance_spectrum(image)) == [3.0, 5.0]
        assert not is_ultrametric(image)[0]

    def test_zero_image_rejected(self):
        space = sides(0.5, 0.5, 0.5)
        with pytest.raises(NotAmenableOnSpectrum):
            apply_function(space, parse_function_spec("max(0, t - 1)"))

    def test_nonzero_origin_rejected(self):
        with pytest.raises(NotAmenableOnSpectrum):
            apply_function(sides(1, 1, 1), parse_function_spec("t + 1"))


class TestCoveringNumbers:
    def test_one_ball_at_max_distance(self):
        space = sides(1, 2, 2)
        assert covering_number(space, 2.0) == 1
        assert covering_number(space, 10.0) == 1

    def test_all_isolated_below_min(self):
        space = sides(1, 2, 2)
        assert covering_number(space, 0.1) == 3

    def test_level_family_at_three_sixteenths(self):
        # levels 1/2 and 1/4 exceed 3/16 and are isolated; one ball for the rest
        space, _ = tbu_noncompact_truncation(4, 0.5)
        assert covering_number(space, 3.0 / 16.0) == 3
        assert minimum_covering_number(space, 3.0 / 16.0) == 3

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            covering_number(sides(1, 2, 2), 0.0)

    def test_brute_force_cap(self):
        space = tbu_noncompact_truncation(13, 0.5)[0]
        with pytest.raises(TooLarge):
            minimum_covering_number(space, 0.5, max_points=12)

    @given(ultrametric_spaces(min_points=2, max_points=7))
    def test_greedy_equals_minimum_and_components(self, space):
        spectrum = distance_spectrum(space)
        probes = [spectrum[0] / 2] + list(spectrum) + [spectrum[-1] * 2]
        for eps in probes:
            greedy = covering_number(space, eps)
            assert greedy == minimum_covering_number(space, eps)
            assert greedy == component_covering(space, eps)

    @given(ultrametric_spaces(min_points=2, max_points=10))
    def test_nonincreasing_in_eps_and_max_rule(self, space):
        spectrum = distance_spectrum(space)
        probes = sorted([spectrum[0] / 2] + list(spectrum) + [spectrum[-1] * 2])
        counts = [covering_number(space, eps) for eps in probes]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        dmax = spectrum[-1]
        assert covering_number(space, dmax) == 1
        assert covering_number(space, np.nextafter(dmax, 0.0)) > 1


class TestIsometry:
    def test_self_isometry_is_identity(self):
        space = sides(1, 2, 2)
        ok, bijection = are_isometric_small(space, space)
        assert ok and bijection == {"x0": "x0", "x1": "x1", "x2": "x2"}

    def test_relabeled_spaces_match(self):
        a = sides(1, 2, 2)
        b = sides(2, 2, 1)
        ok, bijection = are_isometric_small(a, b)
        assert ok
        assert sorted(bijection) == ["x0", "x1", "x2"]

    def test_different_spectra_differ(self):
        ok, bijection = are_isometric_small(sides(1, 2, 2), sides(1, 3, 3))
        assert not ok and bijection is None

    def test_size_cap(self):
        space = tbu_noncompact_truncation(9, 0.5)[0]
        with pytest.raises(TooLarge):
            are_isometric_small(space, space)

    def test_size_mismatch(self):
        ok, _ = are_isometric_small(sides(1, 2, 2), validate_space([[0, 1], [1, 0]]))
        assert not ok

    def test_bijection_transports_distances(self):
        a = sides(1, 2, 2)
        b = FiniteSemimetricSpace(("p", "q", "r"), [[0, 2, 2], [2, 0, 1], [2, 1, 0]])
        ok, bijection = are_isometric_small(a, b)
        assert ok
        la, lb = list(a.labels), list(b.labels)
        for i in range(3):
            for j in range(3):
                bi, bj = lb.index(bijection[la[i]]), lb.index(bijection[la[j]])
                assert a.dist[i, j] == b.dist[bi, bj]
