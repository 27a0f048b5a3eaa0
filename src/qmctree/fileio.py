"""Operator files: JSON with explicit [re, im] entries, row-major,
big-endian multi-index.  Floats round-trip bit-exactly (repr serialization).

Tree-description files are JSON objects with ``labels``, ``dims``,
``edges`` (a list of label pairs) and ``marginals`` (a map from "X,Y"
edge keys to operator-file paths).
"""

from __future__ import annotations

import json

import numpy as np

from .layout import LayoutError, SubsystemLayout
from .states import DensityOperator
from .tree import QuantumTree


class FileFormatError(ValueError):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise FileFormatError(message)


def _load_object(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path}: invalid JSON at line {err.lineno}") from err
    except RecursionError as err:
        raise FileFormatError(f"{path}: JSON nested too deeply") from err
    except OSError as err:
        raise FileFormatError(f"{path}: {err}") from err
    _require(isinstance(data, dict), f"{path}: top level must be an object")
    return data


def _layout_from_dict(data: dict, *fields) -> SubsystemLayout:
    """The layout of a file object that must also hold ``fields``."""
    for key in ("labels", "dims", *fields):
        _require(key in data, f"missing field {key!r}")
    labels = data["labels"]
    _require(
        isinstance(labels, list) and all(isinstance(l, str) for l in labels),
        "labels must be a list of strings",
    )
    dims = data["dims"]
    _require(
        isinstance(dims, list) and all(type(d) is int for d in dims),  # no bools
        "dims must be a list of integers",
    )
    try:
        return SubsystemLayout(tuple(labels), tuple(dims))
    except LayoutError as err:
        raise FileFormatError(f"bad layout: {err}") from err


def _checked_matrix(layout: SubsystemLayout, matrix) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    _require(
        matrix.shape == (layout.dim, layout.dim),
        f"matrix shape {matrix.shape} does not match layout dim {layout.dim}",
    )
    return matrix


def operator_to_dict(layout: SubsystemLayout, matrix: np.ndarray) -> dict:
    matrix = _checked_matrix(layout, matrix)
    return {
        "labels": list(layout.labels),
        "dims": list(layout.dims),
        "matrix": np.stack([matrix.real, matrix.imag], -1).tolist(),
    }


def operator_from_dict(data: dict) -> tuple[SubsystemLayout, np.ndarray]:
    layout = _layout_from_dict(data, "matrix")
    d = layout.dim
    message = f"matrix must be {d} rows of {d} [re, im] number pairs"
    try:
        entries = np.array(data["matrix"])
    except ValueError as err:  # ragged nesting
        raise FileFormatError(message) from err
    _require(entries.shape == (d, d, 2) and entries.dtype.kind in "biuf", message)
    return layout, entries.astype(float).view(complex)[..., 0]


# the text before each float of a d x d matrix of [re, im] pairs, by its
# place: the matrix's first, an imaginary part, a real part in a row, a
# row's first real part; then the same four with the float's minus sign
_SEPARATORS = np.array(["[[[", ", ", "], [", "]], [[",
                        "[[[-", ", -", "], [-", "]], [[-"], dtype=object)


def _matrix_text(matrix: np.ndarray) -> str:
    """``json.dumps`` of ``matrix`` as d rows of d [re, im] pairs, byte for
    byte, with one float text per distinct magnitude rather than per entry
    (a Hermitian matrix has about half as many): json formats the sorted
    magnitudes, NaN and Infinity included, and each entry's sign goes into
    the separator before it."""
    d = len(matrix)
    parts = np.stack([matrix.real, matrix.imag], -1).ravel()
    magnitudes, index = np.unique(np.abs(parts), return_inverse=True)
    texts = np.array(json.dumps(magnitudes.tolist())[1:-1].split(", "), dtype=object)
    kind = np.ones(parts.size, dtype=np.uint8)
    grid = kind.reshape(d, d, 2)
    grid[:, 1:, 0] = 2
    grid[1:, 0, 0] = 3
    grid[0, 0, 0] = 0
    kind[np.signbit(parts) & ~np.isnan(parts)] += 4  # json writes every NaN unsigned
    tokens = np.empty((parts.size, 2), dtype=object)
    tokens[:, 0] = _SEPARATORS[kind]
    tokens[:, 1] = texts[index]
    return "".join(tokens.ravel().tolist()) + "]]]"


def write_operator(path, layout: SubsystemLayout, matrix: np.ndarray):
    """Write the file that ``json.dumps(operator_to_dict(layout, matrix))``
    and a newline make, without building its nested lists."""
    matrix = _checked_matrix(layout, matrix)
    text = (f'{{"labels": {json.dumps(list(layout.labels))}, '
            f'"dims": {json.dumps(list(layout.dims))}, '
            f'"matrix": {_matrix_text(matrix)}}}\n')
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise FileFormatError(f"{path}: {err}") from err


def read_operator(path) -> tuple[SubsystemLayout, np.ndarray]:
    data = _load_object(path)
    try:
        return operator_from_dict(data)
    except FileFormatError as err:
        raise FileFormatError(f"{path}: {err}") from err


def write_density(path, state: DensityOperator):
    write_operator(path, state.layout, state.matrix)


def read_density(path) -> DensityOperator:
    layout, matrix = read_operator(path)
    try:
        return DensityOperator(layout, matrix)
    except ValueError as err:
        raise FileFormatError(f"{path}: not a density operator: {err}") from err


def read_tree_description(path) -> QuantumTree:
    """A tree-description file with the edge marginals it references."""
    data = _load_object(path)
    try:
        layout = _layout_from_dict(data, "edges", "marginals")
        edges, refs = data["edges"], data["marginals"]
        _require(
            isinstance(edges, list) and all(
                isinstance(e, list) and len(e) == 2
                and all(isinstance(l, str) for l in e)
                for e in edges
            ),
            "edges must be a list of [label, label] pairs",
        )
        _require(
            isinstance(refs, dict)
            and all(isinstance(ref, str) for ref in refs.values()),
            "marginals must map \"X,Y\" edge keys to operator-file paths",
        )
    except FileFormatError as err:
        raise FileFormatError(f"{path}: {err}") from err
    marginals = {
        tuple(sorted(key.split(","))): read_density(ref)
        for key, ref in refs.items()
    }
    return QuantumTree(layout, [tuple(e) for e in edges], marginals)
