"""Distance-matrix validation, predicates, spectra, covering numbers, and
isometry search.

Independent oracles used here:
  * `three_subset_ultrametric` — exhaustive check over all 3-point subspaces;
  * `first_violation_oracle` — the first violating triple of distinct points
    by a plain triple loop, for both predicates on any matrix;
  * `isometry_by_numpy_search` — the exhaustive isometry search with one
    numpy comparison of the permuted matrix per permutation;
  * `component_covering` — for ultrametric spaces, d(x,y) <= eps is
    transitive, so the minimum net size equals the number of connected
    components of the threshold graph;
  * frozen expected values are derived by direct pair enumeration in the
    comments where they appear.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import subspace, ultrametric_spaces
from ultrapreserve.expr import NegativeInput, UndefinedValue
from ultrapreserve.generators import (
    dplus_space,
    random_ultrametric,
    tbu_noncompact_truncation,
    triangle_isosceles,
)
from ultrapreserve.parser import parse_function_spec
from ultrapreserve.spaces import (
    AsymmetricEntry,
    FiniteSemimetricSpace,
    NonFiniteEntry,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    NotAmenableOnSpectrum,
    NotSquare,
    PRIM_MIN_POINTS,
    SCAN_BLOCK_ENTRIES,
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
    validate_space,
    _equals_subdominant,
    _first_violating_triple,
    _upper,
)


APPLY_SPECS = [
    "t",
    "pow(t, 0.5)",
    "pow(t, 3) + cantor_hat(t)",
    "min(t, 1) * 3",
    "piecewise { [0,0.5): t; [0.5,inf): 2 * t + 1 }",
]


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
    d[i, j] > max(d[i, k], d[k, j]) (strong) or d[i, k] + d[k, j]. Every
    ordered pair (i, j) is visited in turn and compared against all k at
    once; max propagates NaN, as np.maximum does."""
    n = d.shape[0]
    combine = np.maximum if strong else np.add
    for i, j in itertools.permutations(range(n), 2):
        rhs = combine(d[i], d[:, j])  # rhs[k] = combine(d[i, k], d[k, j])
        bad = d[i, j] > rhs
        bad[i] = bad[j] = False
        if bad.any():
            k = int(bad.argmax())
            kind = "strong_triangle" if strong else "triangle"
            return TripleViolation((i, j, k), float(d[i, j]), float(rhs[k]), kind)
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


def scan_block(n: int) -> int:
    """First indices per numpy call of the triple scan at size n."""
    return max(1, SCAN_BLOCK_ENTRIES // (n * n))


def block_plant_matrices(n: int, seed: int):
    """(name, matrix) pairs at a size the scan splits into several blocks: a
    seeded ultrametric with d(r, b) raised to 4 * max at the first row of the
    second block, the last row of the first block and the last row overall,
    one-sided (only row r can then start a violation) or mirrored from
    r < b, and, where a block holds more than one row, two plants in one
    block whose later row has the smaller j."""
    rng = np.random.default_rng(seed)
    d = np.array(random_ultrametric(n, int(rng.integers(2**32))).dist)
    block = scan_block(n)
    assert n > block  # more than one block
    yield "none", d
    for where, r in (("block_first", block), ("block_last", block - 1), ("last", n - 1)):
        b = int(rng.integers(n - 1))
        b += b >= r  # any point but r
        planted = d.copy()
        planted[r, b] = 4 * d.max()
        yield f"{where}_one_sided", planted
        if r < n - 1:  # mirrored from r < b: r is still the first index
            b = int(rng.integers(r + 1, n))
            planted = d.copy()
            planted[r, b] = planted[b, r] = 4 * d.max()
            yield f"{where}_mirrored", planted
    if block > 1:
        both = d.copy()
        both[block, n - 1] = both[block + 1, 0] = 4 * d.max()
        yield "two_in_one_block", both


def unvalidated_block_matrices(n: int, seed: int):
    """(name, matrix) pairs over several blocks that no validation would
    pass: NaN entries, negative and large positive diagonals (violations
    only on triples that repeat a point), each also with a real violation
    planted one-sided in the last row."""
    rng = np.random.default_rng(seed)
    d = np.array(random_ultrametric(n, int(rng.integers(2**32))).dist)
    nan = d.copy()
    for i, j in rng.integers(n, size=(n, 2)):
        nan[i, j] = np.nan
    negative = d.copy()
    np.fill_diagonal(negative, -1.0)
    large = d.copy()
    np.fill_diagonal(large, 8 * d.max())
    mixed = d.copy()
    np.fill_diagonal(mixed, np.where(np.arange(n) % 3, -1.0, 9 * d.max()))
    for name, m in (("nan", nan), ("negative_diagonal", negative),
                    ("large_diagonal", large), ("mixed_diagonal", mixed)):
        yield name, m
        planted = m.copy()
        planted[n - 1, int(rng.integers(n - 1))] = 16 * d.max()
        yield f"{name}_planted_last", planted


def isometry_by_numpy_search(a, b):
    """Oracle: the first bijection in lexicographic permutation order that
    carries a.dist onto b.dist under np.array_equal, after the spectra (by
    np.triu_indices) agree."""
    n = len(a)
    if n != len(b):
        return False, None
    iu = np.triu_indices(n, 1)
    if tuple(np.unique(a.dist[iu]).tolist()) != tuple(np.unique(b.dist[iu]).tolist()):
        return False, None
    for perm in itertools.permutations(range(n)):
        idx = list(perm)
        if np.array_equal(a.dist, b.dist[np.ix_(idx, idx)]):
            return True, {a.labels[i]: b.labels[perm[i]] for i in range(n)}
    return False, None


def isometry_pairs(count: int = 300, seed: int = 0):
    """Seeded pairs of unvalidated spaces with at most 6 points: relabelled
    copies of ultrametrics and of tied-level matrices, independent tied-level
    matrices whose spectra often agree, and copies carrying -0.0 or NaN."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, 7))
        if case % 2:
            d = rng.integers(1, 3, size=(n, n)).astype(float)  # two tied levels
            d = np.triu(d, 1) + np.triu(d, 1).T
        else:
            d = np.array(random_ultrametric(n, int(rng.integers(2**32))).dist)
        kind = case % 5
        if kind == 2:  # a vanished pair, and every zero signed on one side only
            i, j = (int(x) for x in rng.integers(n, size=2))
            d[i, j] = d[j, i] = 0.0
        perm = rng.permutation(n)
        labels = [f"p{i}" for i in rng.permutation(n)]
        e = d[np.ix_(perm, perm)]
        if kind == 1:  # independent tied levels: isometric or not
            e = rng.integers(1, 3, size=(n, n)).astype(float)
            e = np.triu(e, 1) + np.triu(e, 1).T
        elif kind == 2:
            e = np.where(e == 0.0, -0.0, e)
        elif kind == 3:  # NaN on the diagonal, off it, or both sides
            e, d = e.copy(), d.copy()
            i, j = (int(x) for x in rng.integers(n, size=2))
            e[i, j] = np.nan
            if rng.random() < 0.5:
                d[i, i] = np.nan
        yield (FiniteSemimetricSpace([f"x{i}" for i in range(n)], d),
               FiniteSemimetricSpace(labels, e))


def prim_order(d):
    """Points in the order Prim's algorithm from point 0 adds them."""
    n = d.shape[0]
    order = [0]
    key = d[0].astype(float)
    for _ in range(n - 1):
        key[order] = np.inf
        order.append(int(key.argmin()))
        key = np.minimum(key, d[order[-1]])
    return order


def prescreen_matrices(n: int, seed: int):
    """(name, matrix) pairs at size n for the ultrametric prescreen: passes
    with and without ties, shifted copies with negative entries and nonzero
    diagonals, violations planted at early, middle and late Prim positions,
    and asymmetric or non-finite matrices that must bypass it."""
    rng = np.random.default_rng(seed)
    d = np.array(random_ultrametric(n, int(rng.integers(2**32))).dist)
    order = prim_order(d)
    levels = np.unique(d)
    few = (np.searchsorted(levels, d) * 3 // len(levels) + 1.0) * (d > 0)
    yield "random", d
    yield "few_levels", few
    yield "shifted", d - np.median(levels)
    yield "shifted_few_levels", few - 2.0
    for where, pos in (("early", 1), ("middle", n // 2), ("late", n - 1)):
        # v joins after u, so the prescreen meets d[v, u] when v joins
        u, v = order[pos - 1], order[pos]
        planted = d.copy()
        planted[u, v] = planted[v, u] = 4 * d.max()
        yield f"planted_{where}", planted
        tied = few.copy()
        tied[u, v] = tied[v, u] = 5.0
        yield f"planted_{where}_few_levels", tied
    raised = d.copy()
    raised[0, order[-1]] = 4 * d.max()  # Prim's row checks read only d[order[-1], 0]
    yield "asymmetric_raised", raised
    lowered = d.copy()
    lowered[order[-1], order[-2]] /= 2
    yield "asymmetric_lowered", lowered
    nan = d.copy()
    last = order[-1]
    nan[0, last] = nan[last, 0] = np.nan  # Prim would add `last` first, across NaN
    nan[order[1], last] = nan[last, order[1]] = 4 * d.max()
    yield "nan_and_planted", nan
    # Prim from 0 never crosses the infinite entries into the second half
    first, second = order[: n // 2], order[n // 2:]
    inf = d.copy()
    inf[np.ix_(first, second)] = inf[np.ix_(second, first)] = np.inf
    inf[second[0], second[1]] = inf[second[1], second[0]] = 4 * d.max()
    yield "inf_and_planted", inf


def validate_by_double_loop(matrix):
    """Reference: the entry-by-entry validation loop, in row-major order."""
    m = np.array(matrix, dtype=float)
    n = m.shape[0]
    for i in range(n):
        for j in range(n):
            v = m[i, j]
            if not np.isfinite(v):
                raise NonFiniteEntry(i, j, v)
            if i == j:
                if v != 0.0:
                    raise NonzeroDiagonal(i, v)
            elif i < j:
                if v <= 0.0:
                    raise NonpositiveOffDiagonal(i, j, v)
                if m[j, i] != v:
                    raise AsymmetricEntry(i, j, v, m[j, i])


def defective_matrices(count: int = 300, seed: int = 0):
    """Seeded ultrametrics with a defect planted at each of two to four
    distinct point pairs: non-finite or nonpositive entries (on one side or
    both), nonzero diagonals and one-sided changes."""
    rng = np.random.default_rng(seed)
    nonfinite = [np.nan, np.inf, -np.inf]
    for _ in range(count):
        n = int(rng.integers(2, 9))
        d = np.array(random_ultrametric(n, int(rng.integers(2**32))).dist)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        for p in rng.choice(len(pairs), size=min(int(rng.integers(2, 5)), len(pairs)),
                            replace=False):
            i, j = pairs[p] if rng.random() < 0.5 else pairs[p][::-1]
            kind = int(rng.integers(3))
            if i == j:
                d[i, i] = [0.5, -1.0, *nonfinite][int(rng.integers(5))]
            elif kind == 2:
                d[i, j] *= 2
            else:
                values = nonfinite if kind == 0 else [0.0, -0.0, -1.0]
                d[i, j] = values[int(rng.integers(3))]
                if rng.random() < 0.5:
                    d[j, i] = d[i, j]
        yield d


def minimum_net_by_rows(space, eps) -> int:
    """Reference: exhaustive net search over boolean rows of d <= eps."""
    within = space.dist <= eps
    n = len(space)
    for k in range(1, n + 1):
        for centers in itertools.combinations(range(n), k):
            if within[list(centers)].any(axis=0).all():
                return k


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

    def test_matches_the_double_loop_on_defective_matrices(self):
        for d in defective_matrices():
            with pytest.raises(SpaceValidationError) as want:
                validate_by_double_loop(d)
            with pytest.raises(SpaceValidationError) as got:
                validate_space(d)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
            assert got.value.indices == want.value.indices

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

    @pytest.mark.parametrize("n", [PRIM_MIN_POINTS - 1, PRIM_MIN_POINTS,
                                   2 * PRIM_MIN_POINTS, 362])
    def test_prescreen_matches_the_scan_and_the_triple_loop(self, n):
        for name, d in prescreen_matrices(n, seed=n):
            space = FiniteSemimetricSpace([f"x{i}" for i in range(n)], d)
            want = first_violation_oracle(d, strong=True)
            assert _first_violating_triple(d, np.maximum, "strong_triangle") == want, name
            assert is_ultrametric(space) == (want is None, want), name
            if np.isfinite(d).all() and np.array_equal(d, d.T):
                # a rejection names a violating triple, so the prescreen is exact
                assert _equals_subdominant(d) is (want is None), name

    @pytest.mark.parametrize("n", [45, 64, 100])
    def test_block_scan_matches_the_triple_loop(self, n):
        for name, d in block_plant_matrices(n, seed=n):
            for combine, strong in ((np.maximum, True), (np.add, False)):
                kind = "strong_triangle" if strong else "triangle"
                want = first_violation_oracle(d, strong)
                assert _first_violating_triple(d, combine, kind) == want, (name, kind)
                if name != "none":
                    assert want is not None, name

    @pytest.mark.parametrize("n", [45, 64])
    def test_block_scan_on_unvalidated_matrices(self, n):
        for name, d in unvalidated_block_matrices(n, seed=n):
            for combine, strong in ((np.maximum, True), (np.add, False)):
                kind = "strong_triangle" if strong else "triangle"
                want = first_violation_oracle(d, strong)
                assert _first_violating_triple(d, combine, kind) == want, (name, kind)
                if name.endswith("diagonal"):
                    assert want is None, name  # only triples that repeat a point
                if name.endswith("planted_last"):
                    assert want.indices[0] == n - 1, name

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
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64])
    def test_upper_mask_reads_triu_indices_in_order(self, n):
        d = np.random.default_rng(n).normal(size=(n, n))
        assert np.array_equal(d[_upper(n)], d[np.triu_indices(n, 1)])

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

    def test_origin_decides_before_the_spectrum(self):
        # 0 joins the spectrum's batch, but its failure still raises first
        space = triangle_isosceles(0.5, 1.5)
        f = parse_function_spec("piecewise { [0,1): t + 1; [1,inf): pow(t - 2, 0.5) }")
        with pytest.raises(NotAmenableOnSpectrum, match=r"^f\(0\.0\) = 1\.0: "):
            apply_function(space, f)
        with pytest.raises(UndefinedValue, match=r"^pow\(-1\.0, 0\.5\) has no real value$"):
            apply_function(space, parse_function_spec("pow(t - 1, 0.5)"))

    @given(ultrametric_spaces(max_points=12), st.sampled_from(APPLY_SPECS))
    def test_bit_identical_to_one_scalar_call_per_value(self, space, text):
        f = parse_function_spec(text)
        got = apply_function(space, f)
        want = np.zeros_like(space.dist)
        for v in distance_spectrum(space):
            want[space.dist == v] = f(v)
        assert got.labels == space.labels
        assert np.array_equal(got.dist.view(np.int64), want.view(np.int64))

    def test_smallest_failing_value_decides_the_error(self):
        # f(0.5) = 0 is not amenable; f(1.5) has no real value. The batch
        # evaluates both, and the error still names 0.5, as a scan would.
        f = parse_function_spec("piecewise { [0,1): t - t; [1,inf): pow(t - 2, 0.5) }")
        with pytest.raises(NotAmenableOnSpectrum) as exc:
            apply_function(triangle_isosceles(0.5, 1.5), f)
        assert (exc.value.value, exc.value.image) == (0.5, 0.0)
        assert str(exc.value) == "f(0.5) = 0.0: transform would not yield a semimetric"

    def test_undefined_value_raises_the_scalar_error(self):
        f = parse_function_spec("piecewise { [0,1): t; [1,inf): pow(t - 2, 0.5) }")
        with pytest.raises(UndefinedValue) as scalar:
            f(1.5)
        with pytest.raises(UndefinedValue) as exc:
            apply_function(triangle_isosceles(0.5, 1.5), f)
        assert str(exc.value) == str(scalar.value)

    def test_negative_entry_raises_as_the_scalar_call(self):
        space = FiniteSemimetricSpace(("a", "b"), [[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(NegativeInput):
            apply_function(space, parse_function_spec("t * t"))

    def test_one_point_space(self):
        space = validate_space([[0.0]])
        assert apply_function(space, parse_function_spec("t + t")) == space


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

    @pytest.mark.parametrize("count", [covering_number, minimum_covering_number])
    def test_nan_eps_is_not_positive(self, count):
        with pytest.raises(ValueError, match=r"^eps must be positive, got nan$"):
            count(sides(1, 2, 2), float("nan"))

    @pytest.mark.parametrize("count", [covering_number, minimum_covering_number])
    def test_diagonal_above_eps_is_rejected(self, count):
        # no ball of radius 0.5 covers its own centre, so no net exists
        space = FiniteSemimetricSpace(("a", "b"), [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match=r"^diagonal entry \(0,0\) = 1\.0 exceeds eps = 0\.5"):
            count(space, 0.5)
        assert count(space, 1.0) == 2  # each ball covers its centre only
        assert count(space, 2.0) == 1

    def test_brute_force_cap(self):
        space = tbu_noncompact_truncation(13, 0.5)[0]
        with pytest.raises(TooLarge):
            minimum_covering_number(space, 0.5, max_points=12)

    def test_minimum_matches_the_row_search_on_arbitrary_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(150):
            n = int(rng.integers(1, 9))
            d = rng.integers(0, 5, size=(n, n)).astype(float)
            np.fill_diagonal(d, 0.0)
            space = FiniteSemimetricSpace([f"x{i}" for i in range(n)], d)
            for eps in (0.5, 1.0, 2.0, 3.5):
                assert minimum_covering_number(space, eps) == minimum_net_by_rows(space, eps)

    def test_minimum_past_64_points(self):
        # two clusters of 35 at distance 4, distance 1 inside: ball bits
        # above 63 must stay exact for the two-ball net to cover
        n = 70
        d = np.where((np.arange(n)[:, None] < 35) == (np.arange(n) < 35), 1.0, 4.0)
        np.fill_diagonal(d, 0.0)
        space = validate_space(d)
        assert minimum_covering_number(space, 1.0, max_points=n) == 2
        assert minimum_covering_number(space, 4.0, max_points=n) == 1

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

    def test_matches_the_numpy_search(self):
        outcomes = set()
        for a, b in isometry_pairs():
            got = are_isometric_small(a, b)
            want = isometry_by_numpy_search(a, b)
            assert got == want, (a.dist.tolist(), b.dist.tolist())
            if want[1] is not None:
                assert list(got[1].items()) == list(want[1].items())
            outcomes.add(want[0])
        assert outcomes == {True, False}

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
