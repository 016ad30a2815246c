"""Analytic property checks: amenability, monotonicity, subadditivity,
continuity at zero, and the positive infimum report."""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings

from test_expr import _trees
from ultrapreserve.classify import check_minmax_equation, classification_report, derive_seed
from ultrapreserve.cli import main
from ultrapreserve.expr import FunctionSpec, UndefinedValue, breakpoints
from ultrapreserve.parser import parse_function_spec
from ultrapreserve.properties import (
    BREAKPOINT_OFFSET,
    PROBE_GRID,
    check_amenable,
    check_continuous_at_zero,
    check_increasing,
    check_subadditive,
    inf_on_positive,
    probe_points,
    verify_witness,
)


def spec(text):
    return parse_function_spec(text)


@pytest.mark.parametrize(
    "text",
    [
        "t",
        "cantor_hat(t)",
        "piecewise { [0,1): t; [1,2): 5; [2,inf): 3 }",
        "piecewise { [0,0]: 0; (0,inf): t + 1 }",
        "piecewise { [0,1e-300): t; [1e-300,1e308): 2; [1e308,inf): 3 }",
        "step_above(1) + piecewise { [0,1): t; [1,inf): 1 }",
    ],
)
@pytest.mark.parametrize("include_zero", [False, True])
def test_probe_points_is_the_sorted_probe_set(text, include_zero):
    s = spec(text)
    pts = set(PROBE_GRID.tolist()) | ({0.0} if include_zero else set())
    for b in breakpoints(s.root):
        for c in (b - BREAKPOINT_OFFSET, b, b + BREAKPOINT_OFFSET):
            if c > 0 and math.isfinite(c):
                pts.add(c)
    assert probe_points(s, include_zero).tolist() == sorted(pts)


class TestAmenable:
    def test_identity_exact(self):
        v = check_amenable(spec("t"))
        assert v.holds and v.exact

    def test_cantor_exact(self):
        v = check_amenable(spec("cantor_hat(t)"))
        assert v.holds and v.exact

    def test_constant_zero_fails(self):
        v = check_amenable(spec("0"))
        assert v.fails
        assert v.witness["f_t"] == 0.0 and v.witness["t"] > 0
        assert verify_witness(spec("0"), v.witness, "ultrametric_preserving")

    def test_planted_zero_fails(self):
        s = spec("max(0, t - 1)")
        v = check_amenable(s)
        assert v.fails
        assert s(v.witness["t"]) == 0.0
        assert verify_witness(s, v.witness, "ultrametric_preserving")

    def test_nonzero_at_origin_fails(self):
        v = check_amenable(spec("t + 1"))
        assert v.fails and v.witness["t"] == 0.0 and v.witness["f_t"] == 1.0

    def test_certificate_marks_a_grid_clean_holds_exact(self):
        v = check_amenable(spec("t"))
        assert v.budget_used == 242  # f(0) and the 241 grid points

    @pytest.mark.parametrize(
        "text", ["pow(step_above(1e-300), 1.5)", "1e-300 * 1e-300", "pow(1e-300, 1.5)"]
    )
    def test_certified_positive_that_underflows_fails(self, text):
        # positive over the reals, 0 in floats at every t > 0
        s = spec(text)
        v = check_amenable(s)
        assert v.fails and v.witness == {"t": 2.0**-60, "f_t": 0.0}
        assert verify_witness(s, v.witness, "ultrametric_preserving")


class TestIncreasing:
    def test_identity_symbolic(self):
        v = check_increasing(spec("t"))
        assert v.holds and v.exact and v.budget_used == 0

    def test_cantor_symbolic(self):
        v = check_increasing(spec("cantor_hat(t)"))
        assert v.holds and v.exact

    def test_inversion_fails_and_reverifies(self):
        s = spec("piecewise { [0,1): t; [1,2): 5; [2,inf): 3 }")
        v = check_increasing(s)
        assert v.fails
        assert v.witness["t1"] < v.witness["t2"]
        assert v.witness["f_t1"] > v.witness["f_t2"]
        assert verify_witness(s, v.witness, "ultrametric_preserving")

    def test_witness_is_the_first_inversion(self):
        # the smallest t1 with any later, smaller value, and the first such t2
        v = check_increasing(spec("piecewise { [0,1): t; [1,2): 5; [2,inf): 3 }"))
        assert v.witness == {"t1": 1.0, "f_t1": 5.0, "t2": 2.0, "f_t2": 3.0}
        v = check_increasing(spec("piecewise { [0,1): t; [1,2): 2; [2,inf): 0.25 }"))
        assert v.witness == {  # t1 is the grid point 2**-1.5
            "t1": 0.3535533905932738, "f_t1": 0.3535533905932738, "t2": 2.0, "f_t2": 0.25,
        }

    def test_piecewise_monotone_holds_within_budget(self):
        # every piece rises and the boundary values rise, so the fold certifies it
        v = check_increasing(spec("piecewise { [0,0]: 0; (0,inf): t + 1 }"))
        assert v.holds and v.exact and v.budget_used == 0

    def test_piecewise_with_a_rising_piece_may_still_fall(self):
        v = check_increasing(spec("piecewise { [0,1): t + 1; [1,inf): t }"))
        assert v.fails and v.witness["t2"] == 1.0


class TestSubadditive:
    def test_identity_holds(self):
        assert check_subadditive(spec("t"), budget=512, seed=1).holds

    def test_square_fails_on_fixed_probe(self):
        v = check_subadditive(spec("t * t"), budget=512, seed=1)
        assert v.fails
        assert (v.witness["x"], v.witness["y"]) == (1.0, 1.0)
        assert v.witness["f_sum"] == 4.0
        assert verify_witness(spec("t * t"), v.witness, "metric_preserving_sufficient")

    def test_cantor_holds_across_budget(self):
        v = check_subadditive(spec("cantor_hat(t)"), budget=10_000, seed=3)
        assert v.holds
        assert v.seed == 3

    def test_sqrt_holds(self):
        assert check_subadditive(spec("pow(t, 0.5)"), budget=4096, seed=5).holds

    def test_jumps_fail_at_every_seed(self):
        """Misses per jump spec over 300 report seeds: independent log-uniform
        pairs rarely sum to just past the jump, so the fixed probe (b/2, b/2)
        at each breakpoint b decides."""
        jumps = ["piecewise { [0,1): t; [1,inf): 4 }",
                 "piecewise { [0,1000): t; [1000,inf): 4000 }",
                 "piecewise { [0,0.001): t; [0.001,inf): 0.004 }"]
        misses = {
            text: sum(check_subadditive(spec(text), 4096, derive_seed(k, 0)).holds
                      for k in range(300))
            for text in jumps
        }
        assert misses == dict.fromkeys(jumps, 0)


class TestContinuousAtZero:
    def test_identity_exact(self):
        v = check_continuous_at_zero(spec("t"))
        assert v.holds and v.exact

    def test_step_above_fails_with_dyadic_witness(self):
        s = spec("step_above(1)")
        v = check_continuous_at_zero(s)
        assert v.fails and v.exact
        assert v.witness == {"t": 2.0**-60, "f_t": 1.0, "f_0": 0.0, "right_limit": 1.0}
        assert verify_witness(s, v.witness, "strongly_preserving")

    @pytest.mark.parametrize("a", [2.0**-10, 0.5, 1.0, 3.0, 2.0**10])
    def test_step_family_always_fails(self, a):
        v = check_continuous_at_zero(spec(f"step_above({a!r})"))
        assert v.fails and v.witness["right_limit"] == a

    def test_cantor_holds(self):
        v = check_continuous_at_zero(spec("cantor_hat(t)"))
        assert v.holds and v.exact

    def test_shifted_piecewise_fails(self):
        v = check_continuous_at_zero(spec("piecewise { [0,0]: 0; (0,inf): t + 1 }"))
        assert v.fails and v.witness["right_limit"] == 1.0

    def test_uncomputable_limit_raises(self):
        # sqrt(t - 1e-300) is undefined on (0, 1e-300), below every grid point
        with pytest.raises(UndefinedValue, match="no computable right limit at 0"):
            check_continuous_at_zero(spec("pow(t - step_above(1e-300), 0.5)"))


class TestInfOnPositive:
    def test_step_above_exact(self):
        assert inf_on_positive(spec("step_above(1)")).estimate == 1.0
        assert inf_on_positive(spec("step_above(1)")).exact

    def test_identity_exact_zero(self):
        bound = inf_on_positive(spec("t"))
        assert bound.estimate == 0.0 and bound.exact

    def test_piecewise_left_endpoint(self):
        bound = inf_on_positive(spec("piecewise { [0,0]: 0; (0,inf): t + 0.5 }"))
        assert bound.estimate == 0.5 and bound.exact

    def test_piecewise_inner_left_endpoint(self):
        # the infimum of the second piece is its value at t = 1
        bound = inf_on_positive(spec("piecewise { [0,1): t + 3; [1,inf): pow(t, 0.5) }"))
        assert bound.estimate == 1.0 and bound.exact

    def test_non_monotone_is_numeric(self):
        bound = inf_on_positive(spec("pow(t - 1, 2)"))
        assert not bound.exact
        assert bound.estimate == 0.0

    def test_planted_zero_is_exact(self):
        # t - 1 rises, so max(0, t - 1) does and starts at its infimum
        bound = inf_on_positive(spec("max(0, t - 1)"))
        assert bound.estimate == 0.0 and bound.exact

    def test_open_end_of_a_nested_piecewise_is_no_infimum(self):
        # the inner piecewise is 0 at t = 1 but 5 on (1, inf)
        inner = "piecewise { [0,1]: 0; (1,inf): 5 }"
        bound = inf_on_positive(spec(f"piecewise {{ [0,1]: 7; (1,inf): {inner} }}"))
        assert bound.estimate == 5.0 and not bound.exact


class TestVerifyTripleWitness:
    def test_real_triangle_witness_accepted(self):
        w = {"p": 1.0, "q": 1.0, "l": 2.0, "f_p": 1.0, "f_q": 1.0, "f_l": 4.0}
        assert verify_witness(spec("t * t"), w, "triplet_preservation")

    def test_forged_triple_rejected(self):
        # the identity keeps (1, 1, 2) a triangle; the recorded image is made up
        forged = {"p": 1.0, "q": 1.0, "l": 2.0, "f_p": 1.0, "f_q": 1.0, "f_l": 4.0}
        assert not verify_witness(spec("t"), forged, "triplet_preservation")

    def test_triple_whose_image_holds_rejected(self):
        w = {"p": 1.0, "q": 1.0, "l": 2.0, "f_p": 1.0, "f_q": 1.0, "f_l": 2.0}
        assert not verify_witness(spec("t"), w, "triplet_preservation")

    def test_overflowing_image_sum_decides_as_inf_without_a_warning(self):
        # f_q = f_l = -inf: 2 * max and the image sum overflow
        s = spec(
            "min(1e+308 - t, cantor_hat(t) - 1e+308)"
            " - max(step_above(0.0), t) * (step_above(1e+308) + t)"
        )
        w = check_minmax_equation(s, 4096, derive_seed(0, 2)).witness
        assert w["f_q"] == w["f_l"] == -math.inf
        assert verify_witness(s, w, "minmax_equation")


CLASSIFY_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "classify_seed0.json").read_text()
)
FAILING_GOLDEN_VERDICTS = [
    (entry["function"], key, verdict["witness"])
    for entry in CLASSIFY_GOLDEN
    for key, verdict in entry["report"]["verdicts"].items()
    if verdict["status"] == "fails_with_witness"
]


class TestWitnessReplay:
    """`verify_witness` replays the check behind a verdict key on the
    witness's own points; these forgeries all passed the hand-written
    predicates it replaced."""

    def test_continuity_witness_that_proves_nothing_is_rejected(self):
        forged = {"t": 2.0**-60, "f_t": 2.0**-60, "f_0": 0.0, "right_limit": 0.0}
        assert not verify_witness(spec("t"), forged, "strongly_preserving")

    def test_subadditivity_witness_with_made_up_images_is_rejected(self):
        forged = {"x": 1.0, "y": 1.0, "f_x": 123.0, "f_y": 0.0, "f_sum": -5.0}
        assert not verify_witness(spec("t * t"), forged, "metric_preserving_sufficient")
        real = check_subadditive(spec("t * t"), budget=8, seed=0).witness
        assert verify_witness(spec("t * t"), real, "metric_preserving_sufficient")

    def test_witness_of_another_property_is_rejected(self):
        s = spec("piecewise { [0,2): 5; [2,inf): 3 }")
        w = {"p": 1.5, "q": 2.5, "l": 2.5, "f_p": 5.0, "f_q": 3.0, "f_l": 3.0}
        assert verify_witness(s, w, "minmax_equation")
        assert not verify_witness(s, w, "triplet_preservation")

    def test_triple_outside_the_hypothesis_is_rejected(self):
        # (1, 1, 5) is no triangle, though t * t breaks the inequality on it
        w = {"p": 1.0, "q": 1.0, "l": 5.0, "f_p": 1.0, "f_q": 1.0, "f_l": 25.0}
        assert not verify_witness(spec("t * t"), w, "triplet_preservation")

    def test_a_verdict_key_admits_only_its_own_checks(self):
        s = spec("step_above(1)")
        w = check_continuous_at_zero(s).witness
        assert verify_witness(s, w, "strongly_preserving")
        assert not verify_witness(s, w, "ultrametric_preserving")

    @pytest.mark.parametrize("bad", [None, [], {}, {"t": "zero", "f_t": 1.0}, {"t1": -1.0}])
    def test_malformed_witness_is_rejected_without_an_error(self, bad):
        for key in ("ultrametric_preserving", "strongly_preserving",
                    "metric_preserving_sufficient", "triplet_preservation", "minmax_equation"):
            assert verify_witness(spec("t + 1"), bad, key) is False

    @pytest.mark.parametrize(
        "function, key, witness", FAILING_GOLDEN_VERDICTS,
        ids=[f"{f}:{k}" for f, k, _ in FAILING_GOLDEN_VERDICTS],
    )
    def test_golden_witness_replays_and_pins_every_image(self, function, key, witness):
        """Every stored image value is pinned. A nudged point may still be a
        genuine violation (f can be flat there), so points are not."""
        s = spec(function)
        assert verify_witness(s, witness, key)
        for name in witness:
            if name.startswith("f_") or name == "right_limit":
                nudged = {**witness, name: math.nextafter(witness[name], math.inf)}
                assert not verify_witness(s, nudged, key), name


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_every_witness_classify_emits_replays(node):
    """Each failing verdict in a document `classify` emits re-verifies
    under its own key; a tree the parser refuses exits 1 and emits none."""
    source = FunctionSpec.from_node(node).source
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["classify", source, "--budget", "256"])
    if code == 1:
        return
    for key, verdict in json.loads(out.getvalue())["verdicts"].items():
        if verdict["status"] == "fails_with_witness":
            assert verify_witness(spec(source), verdict["witness"], key), key
