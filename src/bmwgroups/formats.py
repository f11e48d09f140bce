"""Versioned JSON document formats and a minimal schema validator.

Every document embeds its schema identifier under the ``"schema"`` key.  The
matching JSON-schema files ship with the package under ``schemas/`` and use
a small subset of JSON Schema (type, const, enum, minimum, required,
properties, items), which :func:`validate_document` implements directly so
that consumers need no third-party validator.

Serialization is deterministic: sorted keys, two-space indent, trailing
newline.  Permutations serialize as 1-based image lists.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Optional

from .errors import UsageError
from .randmodel import CertificateReport, InvolutionTuple, McResult
from .structure import StructureSet, validate as validate_squares

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
    byte for byte.  ``indent`` would select the stdlib's pure-Python encoder,
    slow on long image lists, so this writer joins a list of plain ints in
    one pass and hands every other scalar to ``json.dumps``.  Keys must be
    strings.
    """
    return _dumps(doc, "\n") + "\n"


def _dumps(value, newline: str) -> str:
    inner = newline + "  "
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


def _check(instance, schema, path: str):
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
    """Validate a document against its embedded schema; returns the schema id."""
    if not isinstance(doc, dict) or "schema" not in doc:
        raise UsageError("document has no 'schema' field")
    schema_id = doc["schema"]
    _check(doc, load_schema(schema_id), "$")
    return schema_id


# -- tuples ------------------------------------------------------------------------


def tuple_document(t: InvolutionTuple, seed: Optional[int] = None) -> dict:
    doc = {
        "schema": SCHEMA_TUPLE,
        "m": t.m,
        "n": t.n,
        "involutions": t.images.tolist(),
    }
    if seed is not None:
        doc["seed"] = seed
    return doc


def tuple_from_document(doc: dict) -> InvolutionTuple:
    validate_document(doc)
    if doc["schema"] != SCHEMA_TUPLE:
        raise UsageError(f"expected a {SCHEMA_TUPLE} document")
    t = InvolutionTuple.from_images(doc["involutions"])
    if (t.m, t.n) != (doc["m"], doc["n"]):
        raise UsageError("tuple document header disagrees with its involutions")
    return t


# -- structure sets -----------------------------------------------------------------


def structure_set_document(
    s: StructureSet, families: Optional[dict] = None, seed: Optional[int] = None
) -> dict:
    doc = s.to_dict()
    doc["schema"] = SCHEMA_STRUCTURE_SET
    if families is not None:
        doc["families"] = {
            fam: [list(sq) for sq in sqs] for fam, sqs in sorted(families.items())
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
