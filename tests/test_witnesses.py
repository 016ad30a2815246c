"""Counterexample certificates and three-point universal embeddings."""

import contextlib
import copy
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_expr import _trees
from ultrapreserve.classify import classify_ultrametric_preserving
from ultrapreserve.cli import main
from ultrapreserve.expr import FunctionSpec
from ultrapreserve.generators import (
    dplus2_space,
    random_ultrametric,
    triangle_equilateral,
)
from ultrapreserve.parser import parse_function_spec
from ultrapreserve.spaces import (
    FiniteSemimetricSpace,
    NonpositiveOffDiagonal,
    PositivityViolation,
    TripleViolation,
    are_isometric_small,
    covering_number,
    distance_spectrum,
    is_ultrametric,
    validate_space,
)
from ultrapreserve.suite import inversion_family, preserving_pool, zero_family
from ultrapreserve.witnesses import (
    NotUltrametric,
    PreconditionFailed,
    SpectrumNotEmbeddable,
    WitnessCertificate,
    WrongSize,
    embed_three_point_tbu,
    embed_three_point_universal,
    verify_certificate,
    witness_not_strongly_preserving,
    witness_not_ultrametric_preserving,
)


def spec(text):
    return parse_function_spec(text)


INVERSION = "piecewise { [0,1): t; [1,2): 5; [2,inf): 3 }"


CASE_B = "pow(step_above(1e-300), 1.5)"  # f(t) = 1e-450 over the reals, 0 in floats
CASE_C = "1 + min(1, t * 1e300) * 1e308 * 10"  # f(0) = 1, f = inf on every positive grid point
AGREEMENT_SPECS = [
    *zero_family(),
    *inversion_family(),
    *preserving_pool(),
    spec("max(0, t - 2.842170943040401e-14)"),  # vanishes only on [0, 2**-45]
    # f(0) != 0 on specs increasing and positive on the grid
    spec("t + 1"),
    spec("1"),
    spec("pow(t, 0)"),
    spec("step_above(1) + t + 0.5"),
    spec("step_above(1)"),
    spec("max(0, t - 1)"),
    spec(INVERSION),
    spec(CASE_B),
    spec(CASE_C),
    spec("1e-300 * 1e-300"),  # 1e-600 over the reals, 0 in floats
    spec("pow(1e-300, 1.5)"),
    spec("(t - 1) * step_above(1)"),  # f(0) = -0.0, then f(2**-60) = -1
    spec("1 + t * 1e308 * 10"),
    spec("max(0, 1 - t)"),
    spec("t - 1"),
    spec("2 - t"),
    spec("0 - t"),
    spec("1 + piecewise { [0,1): t; [1,2): 5; [2,inf): 3 }"),  # f(0) = 1, inverted at 1
    spec("piecewise { [0,1): t; [1,2): 1; [2,inf): 0 - t }"),  # f(0) = 0, negative from 2
    spec("piecewise { [0,1): t; [1,2): 5; [2,inf): 0 }"),  # an inversion down to zero
    spec("t - (t - cantor_hat(t)) * (0.0 - t)"),
    spec("step_above(1e+308) * step_above(1e+308)"),
    spec(
        "min(1e+308 - t, cantor_hat(t) - 1e+308)"
        " - max(step_above(0.0), t) * (step_above(1e+308) + t)"
    ),
]


def _run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _assert_witness_renders_classify(f: FunctionSpec) -> None:
    """Where classify exits 0 or 2, `witness --mode pu` exits 4 or 0. An
    emitted certificate re-verifies, its image is f of its source space
    entry by entry, the diagonal included, and it sits on the points of
    classify's verdict witness."""
    classify_code, _ = _run("classify", f.source)
    witness_code, out = _run("witness", f.source, "--mode", "pu")
    if classify_code in (0, 2):
        assert witness_code == {0: 4, 2: 0}[classify_code], f.source
    if witness_code != 0:
        return
    w = classify_ultrametric_preserving(f).witness
    cert = witness_not_ultrametric_preserving(f)
    assert json.loads(out) == json.loads(json.dumps(cert.to_json()))
    assert verify_certificate(cert), f.source
    before, after = cert.space_before.dist, cert.space_after.dist
    assert after.tobytes() == f.values(before).tobytes(), f.source
    if cert.kind == "nonzero_diagonal":
        assert w.get("t", w.get("t1")) == 0.0 and cert.parameters == {}
        assert before.tolist() == [[0.0]] and f(0.0) != 0.0
    if cert.kind == "equilateral_zero":
        assert cert.parameters == {"c": w["t"] if "t" in w else w["t2"]}
    if cert.kind == "isosceles_inversion":
        assert cert.parameters == {"c1": w["t1"], "c2": w["t2"]}


@pytest.mark.parametrize("f", AGREEMENT_SPECS, ids=lambda f: f.source)
def test_classify_and_witness_agree(f):
    """classify exits 2 exactly when `witness --mode pu` finds a certificate."""
    assert classify_ultrametric_preserving(f).fails == (
        witness_not_ultrametric_preserving(f) is not None
    )
    _assert_witness_renders_classify(f)


@settings(max_examples=200)
@given(_trees)
def test_witness_renders_the_classify_verdict_on_random_trees(node):
    # a tree the parser refuses (a negative constant) exits 1 on both commands
    _assert_witness_renders_classify(FunctionSpec.from_node(node))


@pytest.mark.parametrize(
    "text, kind, parameters",
    [
        (CASE_C, "nonzero_diagonal", {}),
        (CASE_B, "equilateral_zero", {"c": 2.0**-60}),
        ("1e-300 * 1e-300", "equilateral_zero", {"c": 2.0**-60}),
        ("(t - 1) * step_above(1)", "equilateral_zero", {"c": 2.0**-60}),
        ("1 + t * 1e308 * 10", "nonzero_diagonal", {}),
    ],
)
def test_pinned_disagreements_now_agree(text, kind, parameters):
    assert _run("classify", text)[0] == 2
    code, out = _run("witness", text, "--mode", "pu")
    doc = json.loads(out)
    assert code == 0 and doc["kind"] == kind and doc["parameters"] == parameters


CASE_F = "(step_above(1e+308) + step_above(1e+308)) * t"  # inf on (0, inf) in floats


def test_zero_factor_makes_an_overflowed_product_continuous():
    """The right limit at 0 is 0 * (an overflowed 2e308), 0 over the reals,
    so continuity holds exactly and the report is strict JSON."""
    code, out = _run("classify", CASE_F)
    verdict = json.loads(out)["verdicts"]["strongly_preserving"]
    assert code == 0 and verdict["status"] == "holds" and verdict["exact"]
    assert _run("witness", CASE_F, "--mode", "pu")[0] == 4


GOLDEN = Path(__file__).parent / "golden" / "witness_seed0.json"


class TestGoldenWitnesses:
    """`witness --mode pu` on the specs of the classify golden, the zero
    family and the preserving pool, plus `--mode pt` on two step functions,
    byte for byte as captured at commit 2b86ab0."""

    golden = json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("entry", golden, ids=lambda e: f"{e['mode']}:{e['function']}")
    def test_stdout_and_exit_code(self, capsys, entry):
        code = main(["witness", entry["function"], "--mode", entry["mode"]])
        captured = capsys.readouterr()
        assert code == entry["exit_code"] and captured.err == ""
        assert captured.out == json.dumps(entry["output"], indent=2) + "\n"


class TestNotUltrametricPreserving:
    def test_planted_zero_gives_equilateral(self):
        f = spec("max(0, t - 1)")
        cert = witness_not_ultrametric_preserving(f)
        assert cert.kind == "equilateral_zero"
        # deterministic winner: the smallest grid point, 2**-60
        assert cert.parameters["c"] == 2.0**-60
        assert f(cert.parameters["c"]) == 0.0
        with pytest.raises(NonpositiveOffDiagonal):
            validate_space(cert.space_after.dist, cert.space_after.labels)
        assert verify_certificate(cert)

    def test_inversion_gives_isosceles(self):
        cert = witness_not_ultrametric_preserving(spec(INVERSION))
        assert cert.kind == "isosceles_inversion"
        assert (cert.parameters["c1"], cert.parameters["c2"]) == (1.0, 2.0)
        assert sorted(distance_spectrum(cert.space_after)) == [3.0, 5.0]
        assert cert.violation.lhs == 5.0 and cert.violation.rhs == 3.0
        assert verify_certificate(cert)

    def test_before_space_is_ultrametric_after_is_not(self):
        cert = witness_not_ultrametric_preserving(spec(INVERSION))
        assert is_ultrametric(cert.space_before)[0]
        assert not is_ultrametric(cert.space_after)[0]

    def test_member_has_no_witness(self):
        assert witness_not_ultrametric_preserving(spec("t")) is None
        assert witness_not_ultrametric_preserving(spec("cantor_hat(t)")) is None

    def test_curated_families_classify_cleanly(self):
        for f in zero_family():
            cert = witness_not_ultrametric_preserving(f)
            assert cert is not None and cert.kind == "equilateral_zero"
            assert verify_certificate(cert)
        for f in inversion_family():
            cert = witness_not_ultrametric_preserving(f)
            assert cert is not None and cert.kind == "isosceles_inversion"
            assert verify_certificate(cert)
        for f in preserving_pool():
            assert witness_not_ultrametric_preserving(f) is None

    def test_nonzero_value_at_zero_lands_on_the_diagonal(self):
        cert = witness_not_ultrametric_preserving(spec("t + 1"))
        assert cert.kind == "nonzero_diagonal"
        assert cert.space_before == FiniteSemimetricSpace(("x1",), [[0.0]])
        assert cert.space_after.dist.tolist() == [[1.0]]
        assert cert.violation == {"type": "nonzero_diagonal", "indices": [0, 0], "value": 1.0}
        assert cert.parameters == {}
        assert verify_certificate(cert)

    def test_forged_nonzero_diagonal_is_rejected(self):
        cert = witness_not_ultrametric_preserving(spec("t + 1"))
        forged = dataclasses.replace(cert, violation={**cert.violation, "value": 2.0})
        assert not verify_certificate(forged)
        zero = dataclasses.replace(cert, space_after=cert.space_before)
        assert not verify_certificate(zero)

    def test_certificate_serializes(self):
        import json

        cert = witness_not_ultrametric_preserving(spec(INVERSION))
        doc = json.loads(json.dumps(cert.to_json()))
        assert doc["kind"] == "isosceles_inversion"
        assert doc["violation"]["type"] == "strong_triangle"
        assert doc["space_before"]["labels"] == ["x1", "x2", "x3"]


def _certificate_from_json(doc: dict) -> WitnessCertificate:
    """Rebuild a certificate from its JSON document alone."""
    v = doc["violation"]
    if v["type"] == "positivity":
        violation = PositivityViolation(*v["indices"], v["value"])
    elif v["type"] == "strong_triangle":
        violation = TripleViolation(tuple(v["indices"]), v["lhs"], v["rhs"], v["type"])
    else:
        violation = v
    before, after = (
        FiniteSemimetricSpace(doc[k]["labels"], doc[k]["dist"])
        for k in ("space_before", "space_after")
    )
    return WitnessCertificate(
        doc["kind"], doc["function"], before, after, violation, doc["parameters"]
    )


def _number_paths(node, path=()):
    """Paths to every number inside a JSON value."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _number_paths(v, (*path, k))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _number_paths(v, (*path, i))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _nudged(doc: dict, path: tuple) -> dict:
    doc = copy.deepcopy(doc)
    *head, last = path
    node = doc
    for k in head:
        node = node[k]
    node[last] = math.nextafter(node[last], math.inf)
    return doc


GOLDEN_CERTIFICATES = [
    e["output"] for e in json.loads(GOLDEN.read_text()) if "kind" in e["output"]
]


class TestCertificateReplay:
    """`verify_certificate` replays the rule that built a certificate; these
    forgeries all passed the per-kind predicates it replaced."""

    @pytest.mark.parametrize(
        "source, mode, forged_function",
        [
            (INVERSION, "pu", "t"),
            ("max(0, t - 1)", "pu", "pow(t, 0.5)"),
            ("t + 1", "pu", "t"),
            ("step_above(1)", "pt", "cantor_hat(t)"),
        ],
    )
    def test_relabelled_certificate_is_rejected(self, source, mode, forged_function):
        if mode == "pu":
            cert = witness_not_ultrametric_preserving(spec(source))
        else:
            cert = witness_not_strongly_preserving(spec(source), n_levels=8)
        assert verify_certificate(cert)
        assert not verify_certificate(dataclasses.replace(cert, function=forged_function))

    def test_non_ultrametric_source_is_rejected(self):
        cert = witness_not_ultrametric_preserving(spec(INVERSION))
        before = validate_space([[0, 2, 1], [2, 0, 0.5], [1, 0.5, 0]], cert.space_before.labels)
        assert not is_ultrametric(before)[0]
        assert not verify_certificate(dataclasses.replace(cert, space_before=before))

    def test_covering_table_over_a_non_ultrametric_source_is_rejected(self):
        cert = witness_not_strongly_preserving(spec("step_above(1)"), n_levels=4)
        before = validate_space([[0, 1, 2, 2], [1, 0, 1.5, 2], [2, 1.5, 0, 2], [2, 2, 2, 0]])
        after = FiniteSemimetricSpace(before.labels, spec("step_above(1)").values(before.dist))
        table = {**cert.violation, "covering_before": covering_number(before, 0.25),
                 "covering_after": covering_number(after, 0.5)}
        assert not is_ultrametric(before)[0] and table["covering_after"] == 4
        forged = dataclasses.replace(cert, space_before=before, space_after=after, violation=table)
        assert not verify_certificate(forged)

    @pytest.mark.parametrize(
        "forgery",
        [
            {"level_sequence": [9.0], "ratio": 0.75, "levels": 99},
            {"level_sequence": [9.0]},
            {"ratio": 0.75},
            {"levels": 99},
            {"levels": 10**12},
        ],
    )
    def test_covering_parameters_must_rebuild_the_source(self, forgery):
        cert = witness_not_strongly_preserving(spec("step_above(1)"), n_levels=8)
        sequence = cert.parameters["level_sequence"]
        if "level_sequence" in forgery:
            forgery = {**forgery, "level_sequence": [9.0, *sequence[1:]]}
        forged = dataclasses.replace(cert, parameters={**cert.parameters, **forgery})
        assert verify_certificate(cert) and not verify_certificate(forged)

    def test_image_is_f_of_the_source_diagonal_included(self):
        cert = witness_not_ultrametric_preserving(spec("1 + " + INVERSION))
        assert cert.kind == "isosceles_inversion"
        assert cert.space_after.dist.tolist() == [[1, 4, 6], [4, 1, 4], [6, 4, 1]]
        assert verify_certificate(cert)
        cert = witness_not_ultrametric_preserving(spec("(t - 1) * step_above(1)"))
        assert cert.kind == "equilateral_zero"
        assert all(math.copysign(1.0, x) == -1.0 for x in np.diagonal(cert.space_after.dist))
        assert verify_certificate(cert)

    def test_infinite_value_at_zero_verifies_without_an_error(self):
        f = spec("pow(1e308, 3) + t")
        cert = witness_not_ultrametric_preserving(f)
        assert cert.kind == "nonzero_diagonal" and cert.space_after.dist.tolist() == [[math.inf]]
        assert verify_certificate(cert) is True
        assert _run("witness", f.source, "--mode", "pu")[0] == 1  # strict JSON refuses inf

    @pytest.mark.parametrize(
        "change",
        [
            {"function": "t +"},
            {"function": None},
            {"parameters": {"c1": 2.0}},
            {"parameters": None},
            {"violation": None},
            {"kind": "no_such_kind"},
            {"space_before": FiniteSemimetricSpace(("a", "a"), [[0, 1], [1, 0]])},
            {"space_before": FiniteSemimetricSpace(("x1",), [[math.nan]])},
        ],
    )
    def test_malformed_certificate_is_rejected_without_an_error(self, change):
        cert = witness_not_ultrametric_preserving(spec(INVERSION))
        assert verify_certificate(dataclasses.replace(cert, **change)) is False

    @pytest.mark.parametrize(
        "doc", GOLDEN_CERTIFICATES, ids=lambda d: f"{d['kind']}:{d['function']}"
    )
    def test_golden_certificate_replays_and_pins_every_number(self, doc):
        assert verify_certificate(_certificate_from_json(doc))
        for part in ["space_before", "space_after", "violation", "parameters"]:
            for path in _number_paths(doc[part], (part,)):
                assert not verify_certificate(_certificate_from_json(_nudged(doc, path))), path


class TestNotStronglyPreserving:
    def test_step_function_divergence_table(self):
        cert = witness_not_strongly_preserving(spec("step_above(1)"), n_levels=8)
        table = cert.violation
        assert table["covering_before"] == 2 and table["eps_before"] == 0.25
        assert table["covering_after"] == 8 and table["eps_after"] == 0.5
        assert verify_certificate(cert)

    def test_shifted_piecewise_isolates_all_points(self):
        f = spec("piecewise { [0,0]: 0; (0,inf): t + 1 }")
        cert = witness_not_strongly_preserving(f, n_levels=6)
        assert cert.violation["covering_after"] == 6
        assert covering_number(cert.space_after, 0.5) == 6

    def test_identity_has_no_witness(self):
        assert witness_not_strongly_preserving(spec("t"), n_levels=6) is None

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionFailed):
            witness_not_strongly_preserving(spec(INVERSION))

    def test_divergence_grows_with_truncation(self):
        f = spec("step_above(1)")
        befores = set()
        for n in (4, 8, 16, 32):
            cert = witness_not_strongly_preserving(f, n_levels=n)
            assert cert.violation["covering_after"] == n
            befores.add(cert.violation["covering_before"])
        assert befores == {2}


class TestUniversalEmbedding:
    def test_two_value_spectrum(self):
        space = validate_space([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        pts = embed_three_point_universal(space)
        assert [(p.s, p.t) for p in pts] == [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]

    def test_equilateral_uses_mirrored_point(self):
        pts = embed_three_point_universal(triangle_equilateral(5.0))
        assert [(p.s, p.t) for p in pts] == [(0.0, 0.0), (0.0, 5.0), (5.0, 0.0)]

    def test_non_ultrametric_rejected(self):
        with pytest.raises(NotUltrametric):
            embed_three_point_universal(validate_space([[0, 1, 3], [1, 0, 2], [3, 2, 0]]))

    def test_wrong_size_rejected(self):
        with pytest.raises(WrongSize):
            embed_three_point_universal(validate_space([[0, 1], [1, 0]]))

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_random_spaces_embed_isometrically(self, seed):
        space = random_ultrametric(3, seed)
        pts = embed_three_point_universal(space)
        ok, _ = are_isometric_small(space, dplus2_space(pts))
        assert ok


class TestLevelFamilyEmbedding:
    def test_two_value_dyadic_spectrum(self):
        space = validate_space([[0, 0.5, 0.5], [0.5, 0, 0.25], [0.5, 0.25, 0]])
        pts, levels = embed_three_point_tbu(space, ratio=0.5)
        assert [(p.s, p.t) for p in pts] == [(0.0, 0.5), (0.0, 0.25), (0.0, 0.125)]
        assert levels.values == (0.5, 0.25, 0.125)
        ok, _ = are_isometric_small(space, dplus2_space(pts))
        assert ok

    def test_equilateral_spectrum(self):
        pts, levels = embed_three_point_tbu(triangle_equilateral(0.5), ratio=0.5)
        assert [(p.s, p.t) for p in pts] == [(0.0, 0.5), (0.5, 0.0), (0.0, 0.25)]
        assert levels.values == (0.5, 0.25)

    def test_wide_gap_builds_intermediate_levels(self):
        space = validate_space([[0, 1, 1], [1, 0, 0.125], [1, 0.125, 0]])
        pts, levels = embed_three_point_tbu(space, ratio=0.5)
        assert levels.values == (1.0, 0.5, 0.25, 0.125, 0.0625)
        ok, _ = are_isometric_small(space, dplus2_space(pts))
        assert ok

    def test_non_power_spectrum_rejected(self):
        space = validate_space(
            [[0, 1 / 3, 1 / 3], [1 / 3, 0, 1 / 7], [1 / 3, 1 / 7, 0]]
        )
        with pytest.raises(SpectrumNotEmbeddable):
            embed_three_point_tbu(space, ratio=0.5)

    def test_nondyadic_spectrum_embeds_when_ratio_matches(self):
        # spectrum {1/3 used twice}: one-value case needs no power matching
        third = 1.0 / 3.0
        pts, levels = embed_three_point_tbu(triangle_equilateral(third), ratio=0.5)
        assert levels.values[0] == third
        ok, _ = are_isometric_small(triangle_equilateral(third), dplus2_space(pts))
        assert ok

    def test_ratio_validated(self):
        with pytest.raises(ValueError):
            embed_three_point_tbu(triangle_equilateral(1.0), ratio=1.0)
