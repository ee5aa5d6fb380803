"""Shared exception types, and the two checked readers of JSON documents:
`from_object` for config entries, `read_document` for persisted files."""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from pathlib import Path


class ExocastError(Exception):
    """Base class for all package-specific errors."""


class DegenerateRangeError(ExocastError, ValueError):
    """A min-max transform was asked to operate on a constant series."""


class UndefinedCorrelationError(ExocastError, ValueError):
    """Correlation requested against a constant (zero-variance) input."""


class MissingValueError(ExocastError, ValueError):
    """A model-facing operation received a series that still has gaps."""


class InsufficientDataError(ExocastError, ValueError):
    """Not enough observations for the requested model structure."""


class ConvergenceFailureError(ExocastError, RuntimeError):
    """An iterative solver ran out of budget.

    Carries the best iterate found so far in ``best`` so callers can decide
    whether to use it anyway.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class SelectionError(ExocastError, RuntimeError):
    """A feature-selection method could not produce any result."""


class GridSearchError(ExocastError, RuntimeError):
    """Every candidate in an order grid failed to fit or forecast."""


class NotCachedError(ExocastError, FileNotFoundError):
    """A cache lookup found nothing under the given root."""


class PayloadError(ExocastError, ValueError):
    """A remote payload (catalog or dataset) could not be parsed."""


class ConfigError(ExocastError, ValueError):
    """An experiment config file is missing, unreadable or not a valid config."""


class SchemaError(ExocastError, ValueError):
    """A persisted document names a schema this version cannot read."""


def from_object(cls, doc, where: str, convert=None, renamed=None):
    """`cls` built from the JSON object `doc`. Its keys are `cls`'s fields,
    under the JSON name `renamed` gives a field, if any. A field without a
    default is required, and `convert[key]` maps that key's value first. A
    misspelt key is an error, never a silent fallback to a default."""
    if not isinstance(doc, dict):
        raise TypeError(f"{where} must be a JSON object")
    renamed, convert = renamed or {}, convert or {}
    by_key = {renamed.get(f.name, f.name): f for f in fields(cls)}
    unknown = sorted(set(doc) - set(by_key))
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    missing = [key for key, f in by_key.items()
               if key not in doc and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(missing)}")
    return cls(**{by_key[key].name: convert.get(key, lambda v: v)(v) for key, v in doc.items()})


def read_document(path: str | Path, schema: str) -> dict:
    """The JSON object in the file `path`; SchemaError naming the file unless
    it is an object whose "schema" is `schema`."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: a {schema} document is a JSON object, not {type(doc).__name__}")
    if doc.get("schema") != schema:
        raise SchemaError(f"{path}: schema {doc.get('schema')!r} is not {schema}")
    return doc
