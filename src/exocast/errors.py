"""Shared exception types, and the one codec of JSON documents: `to_object`
writes a dataclass as a JSON object and `from_object` reads it back, for
config entries and persisted files alike; `write_document` writes a
persisted file in one step, and `read_document` reads it and turns whatever
it cannot use into a SchemaError naming the file. `parse_json` is their
parser: it refuses the non-finite constants that `json.loads` accepts, and
numbers beyond the float range, which it would read as infinite.
The codec owns a month's JSON form: a YYYY-MM string, read by `Month.parse`
and written by `str`. `check_kind` is the one rule that a config entry takes
only its kind's keys."""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import MISSING, fields, is_dataclass
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
    """An iterative solver ran out of budget, or could not certify its result."""


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


def to_object(obj, convert=None, renamed=None) -> dict:
    """The JSON object of the dataclass `obj` that `from_object` reads back:
    its fields in order, each under the JSON name `renamed` gives it, if any.
    `convert[key]` maps a value that is not None, a month is written by its
    annotation's rule (see _WRITES) and a nested dataclass by `to_object`;
    tuples become JSON arrays when dumped."""
    renamed, convert = renamed or {}, convert or {}
    doc = {}
    for f in fields(obj):
        key, value = renamed.get(f.name, f.name), getattr(obj, f.name)
        if value is not None and key in convert:
            value = convert[key](value)
        elif value is not None and f.type in _WRITES:
            value = _WRITES[f.type](value)
        elif is_dataclass(value):
            value = to_object(value)
        doc[key] = value
    return doc


def _tuples(value):
    """`value` with every JSON array in it read as a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _array_of(item):
    """The test that a value is a JSON array whose every item passes `item`."""
    return lambda v: isinstance(v, (list, tuple)) and all(map(item, v))


def _numbers(*also):
    """The test, at C speed, that a value is an array whose items are numbers
    or of the types `also`; true and false are not numbers."""
    return lambda v: isinstance(v, (list, tuple)) and set(map(type, v)) <= {int, float, *also}


def _pair(first, second):
    """The test that a value is a two-item array whose items pass `first` and `second`."""
    return lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and first(v[0]) and second(v[1])


_strings = _array_of(_is_str)

# What a field of each annotation takes, in words and as a test; a field
# of any other annotation takes any value.
_TAKES = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", _is_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", _is_str),
    "str | None": ("a string or null", lambda v: v is None or _is_str(v)),
    "tuple[str, ...]": ("an array of strings", _strings),
    "Month": ("a YYYY-MM string", _is_str),
    "Month | None": ("a YYYY-MM string or null", lambda v: v is None or _is_str(v)),
    "tuple[Month, ...]": ("an array of YYYY-MM strings", _strings),
    "tuple[float, ...]": ("an array of numbers", _numbers()),
    "tuple[float | None, ...]": ("an array of numbers or nulls", _numbers(type(None))),
    "tuple[tuple[float, ...], ...]": ("an array of arrays of numbers", _array_of(_numbers())),
    # a SelectionTrace's entries and failures
    "tuple[tuple[tuple[str, ...], float], ...]": ("an array of [ids, score] pairs",
                                                  _array_of(_pair(_strings, _is_number))),
    "tuple[tuple[tuple[str, ...], str], ...]": ("an array of [ids, message] pairs",
                                                _array_of(_pair(_strings, _is_str))),
}
# How `to_object` writes a value of each annotation that is not None, if
# not as it is.
_WRITES = {"Month": str, "Month | None": str, "tuple[Month, ...]": lambda v: list(map(str, v))}


@functools.cache
def _reads() -> dict:
    """How `from_object` reads a value of each annotation, if not by
    `_tuples`, which an array of numbers needs no walk of."""
    from .series import Month  # series imports this module, so Month is imported here, once
    return {"Month": Month.parse, "Month | None": Month.parse,
            "tuple[Month, ...]": lambda v: tuple(map(Month.parse, v)),
            "tuple[float, ...]": tuple, "tuple[float | None, ...]": tuple}


def _wrong_type(f, value) -> str | None:
    """Why `value` cannot fill the field `f` (see _TAKES), or None if it can."""
    words, takes = _TAKES.get(getattr(f.type, "__name__", f.type), (None, None))
    return None if takes is None or takes(value) else f"must be {words}, got {json.dumps(value)}"


def from_object(cls, doc, where: str, convert=None, renamed=None):
    """`cls` built from the JSON object `doc`. Its keys are `cls`'s fields,
    under the JSON name `renamed` gives a field, if any. A field without a
    default is required, and `convert[key]` maps that key's value first; a
    null stays None for a field whose annotation allows None, a month is
    read by `Month.parse` and any other value has its arrays read as tuples.
    A field annotated `int`, `float`, `bool`, `str`, `Month`, an array of
    these or a selection trace's pairs takes only a value of that JSON type
    (see _TAKES; `str | None` and `Month | None` also take null): an integer
    is never a float, even 2.0, nor true or false, and a number is never
    true or false. A misspelt key is an error, never a silent fallback to a
    default."""
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
    wrong = [f"{key} {why}" for key, v in doc.items() if (why := _wrong_type(by_key[key], v))]
    if wrong:
        raise TypeError(f"{where} {wrong[0]}")
    return cls(**{
        by_key[key].name: v if v is None and str(by_key[key].type).endswith("| None")
        else (convert.get(key) or _reads().get(by_key[key].type, _tuples))(v)
        for key, v in doc.items()
    })


def check_kind(spec, kind: str, kinds: dict, what: str, label=None, renamed=None) -> None:
    """ValueError unless `kind` is a key of `kinds` and every field of `spec`
    with a default that `kinds[kind]` does not list still holds it, naming the
    kind, the `what` entry's `label` if any and the key `renamed` gives it."""
    named = "" if label is None else f" {label!r}"
    if kind not in kinds:
        raise ValueError(f"{what}{named} has unknown kind {kind!r}" if named else f"unknown {what} {kind!r}")
    for f in fields(spec):
        if f.name not in kinds[kind] and f.default is not MISSING and getattr(spec, f.name) != f.default:
            raise ValueError(f"{kind} {what}{named} takes no {(renamed or {}).get(f.name, f.name)}")


def _non_finite(name: str):
    raise ValueError(f"the non-finite value {name} is not JSON")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"the number {text} is beyond the float range")
    return value


def _finite_int(text: str) -> int:
    _finite_float(text)  # an integer no float holds is beyond the float range too
    return int(text)


def parse_json(text: str):
    """`text` parsed as JSON; Infinity, -Infinity, NaN and a number beyond
    the float range, such as 1e999 or a 1 followed by 400 zeros, are a
    ValueError, as is any other text that is not JSON."""
    return json.loads(text, parse_constant=_non_finite, parse_float=_finite_float,
                      parse_int=_finite_int)


def write_document(path: str | Path, schema: str, doc: dict, listed: str | None = None) -> Path:
    """Write `doc` under `schema` to `path` as compact JSON. With `listed`,
    the first line holds the schema and the other keys of `doc`, and each
    entry of the array `doc[listed]` follows on a line of its own. The text
    goes to a temp file that then replaces `path`, so `path` holds the
    previous document or this one, never part of one."""
    head = {"schema": schema, **{key: value for key, value in doc.items() if key != listed}}
    text = json.dumps(head)
    if listed is not None:
        entries = ",".join("\n" + json.dumps(entry) for entry in doc[listed])
        text = f'{text[:-1]}, "{listed}": [{entries}\n]}}\n'
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


def read_document(path: str | Path, schema: str | tuple[str, ...], build=None, doc=None,
                  retired=None):
    """`build` applied to the JSON object in the file `path` without its
    "schema", which must be `schema` (one of them, for a tuple); the whole
    object without `build`. `doc`, if given, is the file's parsed text.
    Text that is not JSON (see `parse_json`), a value that is not an object,
    another schema and a document `build` cannot read (a key missing,
    unknown or malformed) raise SchemaError naming the file; `retired` maps
    an earlier schema to what to do instead of reading it."""
    schemas = schema if isinstance(schema, tuple) else (schema,)
    try:
        doc = parse_json(Path(path).read_text()) if doc is None else doc
        if not isinstance(doc, dict):
            raise TypeError(f"a {' or '.join(schemas)} document is a JSON object, "
                            f"not {type(doc).__name__}")
        found = doc.get("schema")
        if found not in schemas:
            hint = next((f"; {hint}" for old, hint in (retired or {}).items() if old == found), "")
            raise ValueError(f"schema {found!r} is not {' or '.join(schemas)}{hint}")
        if build is None:
            return doc
        return build({key: value for key, value in doc.items() if key != "schema"})
    except KeyError as exc:
        raise SchemaError(f"{path}: lacks {exc.args[0]}") from exc
    except (LookupError, TypeError, ValueError) as exc:  # a JSON syntax error is a ValueError
        raise SchemaError(f"{path}: {exc}") from exc
