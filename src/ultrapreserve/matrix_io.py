"""Reading and writing distance matrices.

JSON is the primary format: ``{"labels": [...], "dist": [[...]]}``, with an
optional ``provenance`` block (generator name, seed, parameters). CSV is
accepted as input and available as output: one header row of n labels, then
n rows of n numbers. Writers render distances as shortest round-trip
decimals.

The matrix writers stream: `json_chunks` and `csv_chunks` check every value
before they return, then render the matrix one row per chunk, taking the
repr of each distinct value once. An n-point ultrametric has at most n - 1
distinct positive distances, so this is the cost of its spectrum, not of its
n^2 entries. The JSON text is byte for byte that of
``json.dumps(doc, indent=2, allow_nan=False) + "\n"``.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .spaces import FiniteSemimetricSpace, NonFiniteEntry, SpaceValidationError, validate_space


def space_to_dict(space: FiniteSemimetricSpace, provenance: Optional[dict] = None) -> dict:
    doc = {
        "labels": list(space.labels),
        "dist": space.dist.tolist(),
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def space_from_dict(doc: dict) -> FiniteSemimetricSpace:
    try:
        labels = doc["labels"]
        dist = doc["dist"]
    except (KeyError, TypeError) as exc:
        raise SpaceValidationError(f"matrix document needs 'labels' and 'dist': {exc}")
    return validate_space(dist, labels)


def _check_finite(dist: np.ndarray) -> None:
    bad = np.argwhere(~np.isfinite(dist))
    if bad.size:
        i, j = bad[0].tolist()
        raise NonFiniteEntry(i, j, dist[i, j])


def _rendered_rows(dist: np.ndarray, sep: str) -> Iterator[str]:
    """Each row of a 2-D float matrix as its entries' reprs joined by sep.
    Distinct values are found on the int64 bit view, so -0.0 and 0.0 keep
    their own reprs."""
    bits, inverse = np.unique(dist.ravel().view(np.int64), return_inverse=True)
    table = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    for row in inverse.reshape(dist.shape):
        yield sep.join(table[row].tolist())


def json_chunks(doc: dict, dist: np.ndarray) -> Iterator[str]:
    """The text of json.dumps(doc, indent=2, allow_nan=False) + "\n" in
    chunks, with the 2-D float matrix dist in place of the None value of
    doc's first "dist" key. A non-finite number in doc or dist raises
    ValueError here, before any chunk is rendered."""
    head, found, tail = json.dumps(doc, indent=2, allow_nan=False).partition('"dist": null')
    if not found:
        raise TypeError('doc has no "dist": None member')
    _check_finite(dist)
    return _json_matrix_chunks(head, dist, tail)


def _json_matrix_chunks(head: str, dist: np.ndarray, tail: str) -> Iterator[str]:
    outer = head[head.rindex("\n") + 1:]
    row, cell = outer + "  ", outer + "    "
    if not len(dist):
        yield f'{head}"dist": []{tail}\n'
        return
    yield f'{head}"dist": ['
    for i, text in enumerate(_rendered_rows(dist, ",\n" + cell)):
        body = f"[\n{cell}{text}\n{row}]" if text else "[]"
        yield f"{',' if i else ''}\n{row}{body}"
    yield f"\n{outer}]{tail}\n"


def space_json_chunks(space: FiniteSemimetricSpace,
                      provenance: Optional[dict] = None) -> Iterator[str]:
    """json_chunks of space_to_dict(space, provenance)."""
    doc = {"labels": list(space.labels), "dist": None}
    if provenance is not None:
        doc["provenance"] = provenance
    return json_chunks(doc, space.dist)


def csv_chunks(space: FiniteSemimetricSpace) -> Iterator[str]:
    """CSV text of a space in chunks; a non-finite entry raises
    NonFiniteEntry here, as reading the text back would."""
    _check_finite(space.dist)
    return _csv_chunks(space)


def _csv_chunks(space: FiniteSemimetricSpace) -> Iterator[str]:
    header = io.StringIO()
    csv.writer(header).writerow(space.labels)
    yield header.getvalue()
    for text in _rendered_rows(space.dist, ","):  # a repr never needs csv quoting
        yield text + "\r\n"


def write_chunks(chunks: Iterable[str], path: Union[str, Path, None]) -> None:
    """Write text chunks to the file at path, or to sys.stdout when path is
    None or empty."""
    if not path:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w") as fh:
        fh.writelines(chunks)


def space_from_csv(text: str) -> FiniteSemimetricSpace:
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise SpaceValidationError("empty CSV matrix")
    labels = [cell.strip() for cell in rows[0]]
    matrix = [[float(cell) for cell in row] for row in rows[1:]]
    return validate_space(matrix, labels)


def load_space(path: Union[str, Path]) -> FiniteSemimetricSpace:
    """Load a matrix file, sniffing JSON vs CSV from the suffix or content."""
    path = Path(path)
    text = path.read_text()
    suffix = path.suffix.lower()
    if suffix == ".json":
        return space_from_dict(json.loads(text))
    if suffix == ".csv":
        return space_from_csv(text)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return space_from_dict(json.loads(text))
    return space_from_csv(text)


def save_space(
    space: FiniteSemimetricSpace,
    path: Union[str, Path],
    fmt: str = "json",
    provenance: Optional[dict] = None,
) -> None:
    path = Path(path)
    if fmt == "json":
        try:
            chunks = space_json_chunks(space, provenance)
        except ValueError:
            raise SpaceValidationError(
                f"cannot save {path}: a non-finite number has no strict JSON form"
            ) from None
    elif fmt == "csv":
        chunks = csv_chunks(space)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    write_chunks(chunks, path)
