"""Versioned JSON document formats and a minimal schema validator.

Every document embeds its schema identifier under the ``"schema"`` key.  The
matching JSON-schema files ship with the package under ``schemas/`` and use
a small subset of JSON Schema (type, const, enum, minimum, required,
properties, items), which :func:`validate_document` implements directly so
that consumers need no third-party validator.

Serialization is deterministic: sorted keys, two-space indent, trailing
newline.  Permutations serialize as 1-based image lists.  The tuple and
structure-set builders hold their images and squares as integer arrays;
:func:`dumps` writes an array as the JSON list of its ``tolist()``, and
:func:`validate_document` checks it as that list.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Optional

import numpy as np

from .errors import UsageError
from .randmodel import CertificateReport, InvolutionTuple, McResult
from .structure import StructureSet, _squares, validate as validate_squares

SCHEMA_TUPLE = "bmwgroups.tuple.v1"
SCHEMA_STRUCTURE_SET = "bmwgroups.structure_set.v1"
SCHEMA_REPORT = "bmwgroups.report.v1"
SCHEMA_ESTIMATE = "bmwgroups.estimate.v1"

_SCHEMA_FILES = {
    SCHEMA_TUPLE: "tuple.v1.json",
    SCHEMA_STRUCTURE_SET: "structure_set.v1.json",
    SCHEMA_REPORT: "report.v1.json",
    SCHEMA_ESTIMATE: "estimate.v1.json",
}


def dumps(doc: dict) -> str:
    """Deterministic JSON text for a document.

    The text is ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline,
    byte for byte, where an ``np.ndarray`` counts as its ``tolist()``.
    ``indent`` would select the stdlib's pure-Python encoder, slow on long
    image lists, so this writer lays out a non-empty 1-D or 2-D integer
    array with entries in ``0 .. 2**20 - 1`` in one pass: it gathers the
    entries' decimals from one cached table and joins them with their
    separators.  Other arrays are written from their ``tolist()``, a list of
    plain ints is joined in one pass, and every other scalar goes to
    ``json.dumps``.  Keys must be strings.
    """
    return _dumps(doc, "\n") + "\n"


def json_default(value):
    """``default`` hook for ``json.dumps``: an ndarray encodes as its ``tolist()``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# _decimals[v] is str(v); grown on demand to the largest entry written, never past the limit
_DECIMAL_LIMIT = 1 << 20
_decimals = np.empty(0, dtype=object)


def _decimal_table(top: int) -> np.ndarray:
    global _decimals
    have = len(_decimals)
    if top >= have:
        grown = np.empty(top + 1, dtype=object)
        grown[:have] = _decimals
        grown[have:] = list(map(str, range(have, top + 1)))
        _decimals = grown
    return _decimals


def _int_array(arr: np.ndarray, newline: str, decimals: np.ndarray) -> str:
    """The indented JSON of a non-empty 1-D or 2-D array, read from its entries' decimals."""
    inner = newline + "  "
    if arr.ndim == 1:
        arr, head, within, between = arr[None], "[" + inner, "," + inner, ""
        tail = newline + "]"
    else:
        inner2 = inner + "  "
        head, within = "[" + inner + "[" + inner2, "," + inner2
        between, tail = inner + "]," + inner + "[" + inner2, inner + "]" + newline + "]"
    # each entry followed by its separator: within a row, between rows or the closing tail
    cells = np.empty(arr.shape + (2,), dtype=object)
    cells[..., 0] = decimals[arr]
    cells[..., 1] = within
    cells[:-1, -1, 1] = between
    cells[-1, -1, 1] = tail
    return head + "".join(cells.ravel().tolist())


def _dumps(value, newline: str) -> str:
    inner = newline + "  "
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iu" and value.size and value.ndim in (1, 2) and value.min() >= 0:
            top = int(value.max())
            if top < _DECIMAL_LIMIT:
                return _int_array(value, newline, _decimal_table(top))
        return _dumps(value.tolist(), newline)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            items = map(str, value)
        else:
            items = (_dumps(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(k, str) for k in value):
            raise TypeError("document keys must be strings")
        items = (json.dumps(k) + ": " + _dumps(value[k], inner) for k in sorted(value))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(value)


def load_schema(schema_id: str) -> dict:
    try:
        filename = _SCHEMA_FILES[schema_id]
    except KeyError:
        raise UsageError(f"unknown schema {schema_id!r}") from None
    text = resources.files("bmwgroups").joinpath("schemas", filename).read_text()
    return json.loads(text)


def _plain(value):
    """An ndarray as its ``tolist()``; anything else as it is."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def _check(instance, schema, path: str):
    instance = _plain(instance)
    if "const" in schema and instance != schema["const"]:
        raise UsageError(f"{path}: expected {schema['const']!r}, got {instance!r}")
    if "enum" in schema and instance not in schema["enum"]:
        raise UsageError(f"{path}: {instance!r} not in {schema['enum']}")
    if "type" in schema:
        expected = schema["type"]
        options = expected if isinstance(expected, list) else [expected]
        checks = {
            "object": lambda v: isinstance(v, dict),
            "array": lambda v: isinstance(v, list),
            "string": lambda v: isinstance(v, str),
            "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
            "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
            "boolean": lambda v: isinstance(v, bool),
            "null": lambda v: v is None,
        }
        if not any(checks[t](instance) for t in options):
            raise UsageError(f"{path}: expected type {expected}, got {type(instance).__name__}")
    if "minimum" in schema and isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if instance < schema["minimum"]:
            raise UsageError(f"{path}: {instance} below minimum {schema['minimum']}")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                raise UsageError(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                _check(instance[key], sub, f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        for idx, item in enumerate(instance):
            _check(item, schema["items"], f"{path}[{idx}]")


def validate_document(doc: dict) -> str:
    """Validate a document against its embedded schema; returns the schema id.

    An ndarray in the document is checked as its ``tolist()``.
    """
    if not isinstance(doc, dict) or "schema" not in doc:
        raise UsageError("document has no 'schema' field")
    schema_id = doc["schema"]
    _check(doc, load_schema(schema_id), "$")
    return schema_id


# -- tuples ------------------------------------------------------------------------


def tuple_document(t: InvolutionTuple, seed: Optional[int] = None) -> dict:
    """The tuple document; ``"involutions"`` is the tuple's read-only ``(m, n)`` image array."""
    doc = {
        "schema": SCHEMA_TUPLE,
        "m": t.m,
        "n": t.n,
        "involutions": t.images,
    }
    if seed is not None:
        doc["seed"] = seed
    return doc


def tuple_from_document(doc: dict) -> InvolutionTuple:
    validate_document(doc)
    if doc["schema"] != SCHEMA_TUPLE:
        raise UsageError(f"expected a {SCHEMA_TUPLE} document")
    t = InvolutionTuple(_plain(doc["involutions"]))
    if (t.m, t.n) != (doc["m"], doc["n"]):
        raise UsageError("tuple document header disagrees with its involutions")
    return t


# -- structure sets -----------------------------------------------------------------


def structure_set_document(
    s: StructureSet, families: Optional[dict] = None, seed: Optional[int] = None
) -> dict:
    """The structure-set document, with the squares as arrays.

    ``"squares"`` is the set's sorted ``(s, 4)`` int64 array of canonical
    squares, and each family's squares are a ``(k, 4)`` int64 array.
    """
    doc = {
        "schema": SCHEMA_STRUCTURE_SET,
        "m": s.m,
        "n": s.n,
        "squares": _squares(s._partners),
    }
    if families is not None:
        doc["families"] = {
            fam: np.array(sqs, dtype=np.int64).reshape(-1, 4)
            for fam, sqs in sorted(families.items())
        }
    if seed is not None:
        doc["seed"] = seed
    return doc


def structure_set_from_document(doc: dict) -> StructureSet:
    validate_document(doc)
    if doc["schema"] != SCHEMA_STRUCTURE_SET:
        raise UsageError(f"expected a {SCHEMA_STRUCTURE_SET} document")
    return validate_squares(doc["m"], doc["n"], doc["squares"])


# -- reports and estimates -------------------------------------------------------------


def report_document(rep: CertificateReport) -> dict:
    doc = rep.to_dict()
    doc["schema"] = SCHEMA_REPORT
    return doc


def estimate_document(result: McResult) -> dict:
    doc = result.to_dict()
    doc["schema"] = SCHEMA_ESTIMATE
    return doc
