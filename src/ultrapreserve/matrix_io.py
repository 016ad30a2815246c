"""Reading and writing distance matrices.

JSON is the primary format: ``{"labels": [...], "dist": [[...]]}``, with an
optional ``provenance`` block (generator name, seed, parameters). CSV is
accepted as input and available as output: one header row of n labels, then
n rows of n numbers. Writers render distances as shortest round-trip
decimals.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .spaces import FiniteSemimetricSpace, NonFiniteEntry, SpaceValidationError, validate_space


def space_to_dict(space: FiniteSemimetricSpace, provenance: Optional[dict] = None) -> dict:
    doc = {
        "labels": list(space.labels),
        "dist": [[float(v) for v in row] for row in space.dist],
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


def space_to_csv(space: FiniteSemimetricSpace) -> str:
    """CSV text of a space whose entries are all finite; a non-finite entry
    raises NonFiniteEntry, as reading the text back would."""
    bad = np.argwhere(~np.isfinite(space.dist))
    if bad.size:
        i, j = bad[0].tolist()
        raise NonFiniteEntry(i, j, space.dist[i, j])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(space.labels)
    for row in space.dist:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


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
            text = json.dumps(space_to_dict(space, provenance), indent=2, allow_nan=False)
        except ValueError:
            raise SpaceValidationError(
                f"cannot save {path}: a non-finite number has no strict JSON form"
            ) from None
        path.write_text(text + "\n")
    elif fmt == "csv":
        path.write_text(space_to_csv(space))
    else:
        raise ValueError(f"unknown format {fmt!r}")
