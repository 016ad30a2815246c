"""Matrix file formats: JSON primary, CSV secondary, shortest-decimal output."""

import json

import pytest

from ultrapreserve.generators import dplus2_space
from ultrapreserve.matrix_io import (
    load_space,
    save_space,
    space_from_csv,
    space_from_dict,
    space_to_csv,
    space_to_dict,
)
from ultrapreserve.spaces import FiniteSemimetricSpace, SpaceValidationError, validate_space


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
    text = space_to_csv(space)
    assert "0.1" in text and "0.1000000" not in text
    doc = json.dumps(space_to_dict(space))
    assert '"dist": [[0.0, 0.1, 2.0]' in doc


def test_labels_with_commas_survive_csv():
    space = dplus2_space([(0.0, 1.0), (2.0, 0.0)])
    assert space.labels == ("(0.0,1.0)", "(2.0,0.0)")
    again = space_from_csv(space_to_csv(space))
    assert again == space


def test_provenance_is_optional_extra(space):
    doc = space_to_dict(space, provenance={"generator": "manual"})
    assert doc["provenance"]["generator"] == "manual"
    assert space_from_dict(doc) == space  # readers ignore the extra block


def test_sniffing_without_suffix(space, tmp_path):
    path = tmp_path / "matrix"
    path.write_text(json.dumps(space_to_dict(space)))
    assert load_space(path) == space
    path.write_text(space_to_csv(space))
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
