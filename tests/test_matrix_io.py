"""Matrix file formats: JSON primary, CSV secondary, shortest-decimal output."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ultrapreserve.cli import main
from ultrapreserve.generators import dplus2_space, random_ultrametric
from ultrapreserve.matrix_io import (
    csv_chunks,
    json_chunks,
    load_space,
    save_space,
    space_from_csv,
    space_from_dict,
    space_json_chunks,
    space_to_dict,
)
from ultrapreserve.spaces import FiniteSemimetricSpace, SpaceValidationError, validate_space

# -0.0 and 0.0 compare equal but print apart; the rest are the extreme magnitudes
EDGE_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0]


@pytest.fixture
def space():
    return validate_space([[0, 0.1, 2], [0.1, 0, 2], [2, 2, 0]], ["a", "b", "c"])


def test_json_round_trip(space, tmp_path):
    path = tmp_path / "m.json"
    save_space(space, path)
    assert load_space(path) == space


def test_csv_round_trip(space, tmp_path):
    path = tmp_path / "m.csv"
    save_space(space, path, fmt="csv")
    assert load_space(path) == space


def test_shortest_decimal_rendering(space):
    text = "".join(csv_chunks(space))
    assert "0.1" in text and "0.1000000" not in text
    doc = json.dumps(space_to_dict(space))
    assert '"dist": [[0.0, 0.1, 2.0]' in doc


def test_labels_with_commas_survive_csv():
    space = dplus2_space([(0.0, 1.0), (2.0, 0.0)])
    assert space.labels == ("(0.0,1.0)", "(2.0,0.0)")
    again = space_from_csv("".join(csv_chunks(space)))
    assert again == space


def test_provenance_is_optional_extra(space):
    doc = space_to_dict(space, provenance={"generator": "manual"})
    assert doc["provenance"]["generator"] == "manual"
    assert space_from_dict(doc) == space  # readers ignore the extra block


def test_sniffing_without_suffix(space, tmp_path):
    path = tmp_path / "matrix"
    path.write_text(json.dumps(space_to_dict(space)))
    assert load_space(path) == space
    path.write_text("".join(csv_chunks(space)))
    assert load_space(path) == space


def test_invalid_document_raises():
    with pytest.raises(SpaceValidationError):
        space_from_dict({"labels": ["a"]})
    with pytest.raises(SpaceValidationError):
        space_from_csv("")


def test_non_finite_distance_is_not_saved(tmp_path):
    path = tmp_path / "inf.json"
    space = FiniteSemimetricSpace(("a", "b"), [[0.0, float("inf")], [float("inf"), 0.0]])
    with pytest.raises(SpaceValidationError, match="non-finite"):
        save_space(space, path)
    assert not path.exists()


def test_non_finite_distance_is_not_saved_as_csv(tmp_path):
    path = tmp_path / "inf.csv"
    space = FiniteSemimetricSpace(("a", "b"), [[0.0, float("inf")], [float("inf"), 0.0]])
    with pytest.raises(SpaceValidationError, match=r"entry \(0,1\) is not finite: inf"):
        save_space(space, path, fmt="csv")
    assert not path.exists()


# ---------------------------------------------------------------------------
# The streaming writers against the stock encoders, byte for byte


def stock_json(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def stock_csv(space) -> str:
    """The per-entry CSV writer the streaming one replaced: the oracle."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(space.labels)
    for row in space.dist:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


def assert_writers_match(space, provenance=None):
    assert "".join(space_json_chunks(space, provenance)) == stock_json(
        space_to_dict(space, provenance))
    doc = {"matrix": {"labels": list(space.labels), "dist": None}, "summary": {"dist": [1.5]}}
    expected = stock_json({"matrix": space_to_dict(space), "summary": {"dist": [1.5]}})
    assert "".join(json_chunks(doc, space.dist)) == expected
    assert "".join(csv_chunks(space)) == stock_csv(space)


@st.composite
def matrices(draw):
    """Unvalidated square matrices of 0..6 points with ties, signed zeros and
    extreme magnitudes, under labels that need escaping in JSON and CSV."""
    n = draw(st.integers(0, 6))
    pool = draw(st.lists(st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False,
                                                                    allow_infinity=False),
                         min_size=1, max_size=4))
    cells = draw(st.lists(st.sampled_from(pool), min_size=n * n, max_size=n * n))
    labels = draw(st.lists(st.text(max_size=4), min_size=n, max_size=n))
    return FiniteSemimetricSpace(labels, np.array(cells, dtype=float).reshape(n, n))


@given(matrices(), st.none() | st.dictionaries(st.text(max_size=3), st.integers() | st.floats(
    allow_nan=False, allow_infinity=False), max_size=3))
@example(FiniteSemimetricSpace(["a", "b"], [[-0.0, 0.0], [0.0, -0.0]]), None)
@example(FiniteSemimetricSpace([',"\n'], [[1.7976931348623157e308]]), {"dist": None})
@example(FiniteSemimetricSpace(['"dist": null', "\\"], np.eye(2)), None)
def test_writers_are_byte_identical_to_the_stock_encoders(space, provenance):
    assert_writers_match(space, provenance)


@pytest.mark.parametrize("n", [1, 2, 3, 362])
def test_writers_match_on_random_ultrametrics(n):
    space = random_ultrametric(n, 20 + n)
    assert_writers_match(space, {"generator": "random", "seed": 20 + n, "parameters": {"n": n}})


def test_writers_keep_the_matrix_shape_edge_cases():
    for dist in (np.zeros((0, 0)), np.zeros((2, 0)), np.full((3, 3), 5e-324)):
        assert_writers_match(FiniteSemimetricSpace([f"x{i}" for i in range(len(dist))], dist))


@pytest.mark.parametrize("argv", [
    ["random", "--n", "1", "--seed", "3"],
    ["random", "--n", "17", "--seed", "5", "--level-distribution", "uniform"],
    ["dplus", "--values", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308"],
    ["dplus2", "--points", "0,1", "2,0"],
    ["tbu", "--levels", "5", "--mirrored"],
    ["isosceles", "--c1", "1", "--c2", "2"],
])
def test_generate_documents_match_the_stock_encoder(capsys, argv):
    assert main(["generate", *argv]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == stock_json(doc)
    space = space_from_dict(doc)
    assert main(["generate", *argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == stock_csv(space)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_save_leaves_an_existing_file_alone(tmp_path, fmt):
    path = tmp_path / f"kept.{fmt}"
    path.write_text("kept\n")
    space = FiniteSemimetricSpace(("a", "b"), [[0.0, 1.0], [float("inf"), 0.0]])
    with pytest.raises(SpaceValidationError, match="non-finite|not finite"):
        save_space(space, path, fmt=fmt)
    assert path.read_text() == "kept\n"
    with pytest.raises(ValueError, match=r"entry \(1,0\) is not finite: inf"):
        json_chunks({"dist": None}, space.dist)
