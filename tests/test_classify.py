"""Preservation-class verdicts and the aggregated report."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_expr import _trees
from ultrapreserve import classify
from ultrapreserve.classify import (
    _sample_triangle_triples,
    _sample_two_largest_equal,
    check_minmax_equation,
    check_triplet_preservation,
    classification_report,
    classify_strongly_preserving,
    classify_ultrametric_preserving,
    find_minmax_violation,
    minmax_equation_holds,
    triangle_triplet_holds,
)
from ultrapreserve.cli import main
from ultrapreserve.expr import FunctionSpec, FunctionSpecError
from ultrapreserve.generators import random_ultrametric
from ultrapreserve.parser import parse_function_spec
from ultrapreserve.properties import check_increasing, verify_witness
from ultrapreserve.spaces import apply_function, is_ultrametric
from ultrapreserve.suite import inversion_family, preserving_pool


def spec(text):
    return parse_function_spec(text)


INVERSION = "piecewise { [0,1): t; [1,2): 5; [2,inf): 3 }"


class TestUltrametricPreserving:
    def test_identity_exact(self):
        v = classify_ultrametric_preserving(spec("t"))
        assert v.holds and v.exact

    def test_cantor_exact(self):
        v = classify_ultrametric_preserving(spec("cantor_hat(t)"))
        assert v.holds and v.exact

    def test_square_preserves(self):
        assert classify_ultrametric_preserving(spec("t * t")).holds

    def test_inversion_fails_with_inner_witness(self):
        v = classify_ultrametric_preserving(spec(INVERSION))
        assert v.fails
        assert v.witness["f_t1"] > v.witness["f_t2"]

    def test_planted_zero_fails(self):
        v = classify_ultrametric_preserving(spec("max(0, t - 1)"))
        assert v.fails and v.witness["f_t"] == 0.0


class TestStronglyPreserving:
    def test_identity_holds(self):
        assert classify_strongly_preserving(spec("t")).holds

    def test_cantor_holds(self):
        v = classify_strongly_preserving(spec("cantor_hat(t)"))
        assert v.holds and v.exact

    def test_step_function_fails_on_continuity(self):
        v = classify_strongly_preserving(spec("step_above(1)"))
        assert v.fails and v.exact
        assert v.witness["right_limit"] == 1.0

    def test_implies_ultrametric_preserving(self):
        for source in ("t", "cantor_hat(t)", "pow(t, 2)", "step_above(1)", INVERSION):
            pt = classify_strongly_preserving(spec(source))
            pu = classify_ultrametric_preserving(spec(source))
            assert not pt.holds or pu.holds


class TestMetricPreservingSufficient:
    @staticmethod
    def verdict(source):
        return classification_report(spec(source), seed=1).metric_preserving_sufficient

    def test_identity_holds(self):
        assert self.verdict("t").holds

    def test_cantor_holds(self):
        assert self.verdict("cantor_hat(t)").holds

    def test_square_fails_subadditivity(self):
        v = self.verdict("t * t")
        assert v.fails and (v.witness["x"], v.witness["y"]) == (1.0, 1.0)


class TestTripletPreservation:
    def test_identity_holds(self):
        assert check_triplet_preservation(spec("t"), samples=2000, seed=2).holds

    def test_square_fails_on_flat_triangle(self):
        v = check_triplet_preservation(spec("t * t"), samples=2000, seed=2)
        assert v.fails
        w = v.witness
        assert (w["p"], w["q"], w["l"]) == (1.0, 1.0, 2.0)
        assert (w["f_p"], w["f_q"], w["f_l"]) == (1.0, 1.0, 4.0)
        assert triangle_triplet_holds(w["p"], w["q"], w["l"])
        assert not triangle_triplet_holds(w["f_p"], w["f_q"], w["f_l"])

    def test_cantor_holds_across_budget(self):
        assert check_triplet_preservation(spec("cantor_hat(t)"), samples=4000, seed=2).holds


class TestMinmaxEquation:
    def test_identity_holds(self):
        assert check_minmax_equation(spec("t"), samples=2000, seed=3).holds

    def test_step_function_holds(self):
        # constant positive images: min of pairwise maxes equals the max
        assert check_minmax_equation(spec("step_above(1)"), samples=2000, seed=3).holds

    def test_inversion_violates_on_directed_triple(self):
        witness = find_minmax_violation(spec(INVERSION), check_increasing(spec(INVERSION)))
        assert witness is not None
        p, q, l = witness["p"], witness["q"], witness["l"]
        assert minmax_equation_holds(p, q, l)
        assert not minmax_equation_holds(witness["f_p"], witness["f_q"], witness["f_l"])

    def test_escalates_with_monotonicity_witness(self):
        # the violation is the decrease t1 < t2 of the monotonicity verdict
        increasing = check_increasing(spec(INVERSION))
        witness = find_minmax_violation(spec(INVERSION), increasing)
        assert (witness["p"], witness["q"]) == (increasing.witness["t1"], increasing.witness["t2"])
        assert witness["p"] < witness["q"] == witness["l"]
        assert not minmax_equation_holds(witness["f_p"], witness["f_q"], witness["f_l"])

    def test_members_never_violate(self):
        witness = find_minmax_violation(spec("pow(t, 3)"), check_increasing(spec("pow(t, 3)")))
        assert witness is None


CASE_A = "t - (t - cantor_hat(t)) * (0.0 - t)"
CASE_D = ("min(1e+308 - t, cantor_hat(t) - 1e+308)"
          " - max(step_above(0.0), t) * (step_above(1e+308) + t)")


class TestMinmaxIsMonotonicity:
    """The report's min-max verdict is its monotonicity verdict, rendered: on
    (a, b, b) with a <= b the image equation reads f(a) <= f(b)."""

    @settings(max_examples=200)
    @given(_trees)
    def test_minmax_verdict_is_the_increasing_verdict(self, node):
        try:
            s = spec(FunctionSpec.from_node(node).source)
            report = classification_report(s, seed=0, budget=256)
        except FunctionSpecError:
            return
        minmax, increasing = report.minmax_equation, check_increasing(s)
        assert (minmax.status, minmax.exact, minmax.budget_used) == (
            increasing.status, increasing.exact, increasing.budget_used)
        if minmax.fails:
            w = minmax.witness
            assert w["p"] < w["q"] == w["l"]
            assert verify_witness(s, w, "minmax_equation")

    def test_inversion_at_zero_renders_from_the_grid(self):
        minmax = classification_report(spec("(t - 1) * step_above(1)"), seed=0).minmax_equation
        assert minmax.fails and minmax.exact
        w = minmax.witness
        assert (w["p"], w["q"], w["l"]) == (0.0, 2.0**-60, 2.0**-60)

    def test_case_a_holds_in_both_columns_within_budget(self):
        report = classification_report(spec(CASE_A), seed=0)
        for verdict in (report.ultrametric_preserving, report.minmax_equation):
            assert verdict.holds and not verdict.exact

    def test_case_d_witness_is_finite_and_the_infimum_is_not(self, capsys):
        report = classification_report(spec(CASE_D), seed=0)
        w = report.minmax_equation.witness
        assert all(math.isfinite(v) for v in w.values())
        assert report.inf_on_positive.estimate == -math.inf
        assert main(["classify", CASE_D]) == 1  # strict JSON refuses the -inf
        assert capsys.readouterr().out == ""


class TestReport:
    def test_all_holds_for_identity(self):
        report = classification_report(spec("t"), seed=11, budget=512)
        assert report.ultrametric_preserving.holds
        assert report.strongly_preserving.holds
        assert report.metric_preserving_sufficient.holds
        assert report.triplet_preservation.holds
        assert report.minmax_equation.holds
        assert report.inf_on_positive.estimate == 0.0

    def test_step_function_splits_the_classes(self):
        report = classification_report(spec("step_above(1)"), seed=11, budget=512)
        assert report.ultrametric_preserving.holds
        assert report.strongly_preserving.fails
        assert report.inf_on_positive.estimate == 1.0 and report.inf_on_positive.exact

    def test_cantor_report(self):
        report = classification_report(spec("cantor_hat(t)"), seed=11, budget=512)
        assert report.ultrametric_preserving.holds
        assert report.strongly_preserving.holds
        assert report.metric_preserving_sufficient.holds

    def test_notes_list_equal_classes(self):
        report = classification_report(spec("t"), seed=0, budget=64)
        equal = report.notes["strongly_preserving_equivalent_to"]
        assert equal == [
            "compactness_preserving",
            "total_boundedness_preserving",
            "compact_to_totally_bounded_preserving",
            "non_uniform_discreteness_preserving",
        ]

    def test_json_round_trip_and_fields(self):
        report = classification_report(spec("t * t"), seed=11, budget=512)
        doc = json.loads(json.dumps(report.to_json()))
        for key in ("ultrametric_preserving", "strongly_preserving",
                    "metric_preserving_sufficient", "triplet_preservation",
                    "minmax_equation"):
            verdict = doc["verdicts"][key]
            assert {"status", "witness", "budget_used", "exact", "seed"} <= verdict.keys()
        assert doc["seed"] == 11

    def test_deterministic_given_seed(self):
        a = classification_report(spec("cantor_hat(t)"), seed=5, budget=256)
        b = classification_report(spec("cantor_hat(t)"), seed=5, budget=256)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("text", ["t", INVERSION, "t - t", "step_above(1)"])
    def test_each_base_property_is_decided_once(self, monkeypatch, text):
        calls = {}
        for name in ("check_increasing", "check_amenable", "check_continuous_at_zero"):
            def counted(*args, _check=getattr(classify, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _check(*args, **kwargs)

            monkeypatch.setattr(classify, name, counted)
        classification_report(spec(text), seed=0, budget=64)
        assert calls == {
            "check_increasing": 1, "check_amenable": 1, "check_continuous_at_zero": 1,
        }


class TestConsistencyInvariants:
    @settings(max_examples=20)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 12))
    def test_certified_members_preserve_random_spaces(self, seed, n):
        pool = preserving_pool()
        f = pool[seed % len(pool)]
        space = random_ultrametric(n, seed)
        assert is_ultrametric(apply_function(space, f))[0]

    def test_certified_members_pass_minmax(self):
        for k, f in enumerate(preserving_pool()):
            assert check_minmax_equation(f, samples=500, seed=k).holds

    def test_non_members_found_by_directed_search(self):
        for f in inversion_family():
            assert find_minmax_violation(f, check_increasing(f)) is not None


class TestTriangleSampler:
    @pytest.mark.parametrize("count", [1, 300, 4096, 10_000])
    def test_rows_are_sorted_triangle_triples(self, count):
        for seed in range(200):
            rows = _sample_triangle_triples(np.random.default_rng(seed), count)
            assert rows.shape == (count, 3)
            a, b, c = rows.T
            assert triangle_triplet_holds(a, b, c).all(), seed
            assert ((a <= b) & (b <= c) & (c <= a + b)).all(), seed

    @pytest.mark.parametrize("count", [1, 300, 4096, 10_000])
    def test_same_seed_same_rows(self, count):
        for seed in (0, 1, 199):
            got = _sample_triangle_triples(np.random.default_rng(seed), count)
            again = _sample_triangle_triples(np.random.default_rng(seed), count)
            assert np.array_equal(got.view(np.int64), again.view(np.int64))

    def test_u_at_one_still_holds(self):
        # the sampler draws u < 1; u = 1 gives the boundary row c = fl(a + b)
        for seed in range(20):
            a, b, _ = _sample_triangle_triples(np.random.default_rng(seed), 10_000).T
            assert triangle_triplet_holds(a, b, b + a * 1.0).all(), seed

    def test_count_zero_draws_nothing(self):
        rng = np.random.default_rng(0)
        assert _sample_triangle_triples(rng, 0).shape == (0, 3)
        assert rng.uniform() == np.random.default_rng(0).uniform()


def sample_two_largest_equal_by_sort(rng, count):
    """Reference: the sampler as first written, ordering each pair by a sort."""
    a, b = np.sort(classify.log_uniform(rng, (count, 2)), axis=1).T
    return rng.permuted(np.column_stack([a, b, b]), axis=1)


class TestTwoLargestEqualSampler:
    @pytest.mark.parametrize("count", [0, 1, 300, 10_000])
    def test_bit_identical_to_the_sorting_sampler(self, count):
        for seed in (0, 1, 2, 17, 199, 2**40 + 3):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _sample_two_largest_equal(rng, count)
            want = sample_two_largest_equal_by_sort(reference, count)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), seed
            assert rng.uniform() == reference.uniform()  # the streams stay in step


GOLDEN = Path(__file__).parent / "golden" / "classify_seed0.json"


class TestGoldenReports:
    """`classify --seed 0` on the script catalog and the inversion family,
    byte for byte, with triangle triples drawn directly (no rejection)."""

    golden = json.loads(GOLDEN.read_text())

    def test_covers_the_inversion_family(self):
        assert {s.source for s in inversion_family()} <= {e["function"] for e in self.golden}

    @pytest.mark.parametrize("entry", golden, ids=lambda e: e["function"])
    def test_stdout_and_exit_code(self, capsys, entry):
        code = main(["classify", entry["function"], "--seed", "0"])
        captured = capsys.readouterr()
        assert code == entry["exit_code"] and captured.err == ""
        assert captured.out == json.dumps(entry["report"], indent=2) + "\n"
