"""Validation against the package's own JSON Schemas.

``config.schema.json`` and ``report.schema.json`` use a small part of JSON
Schema Draft 7, and only that part is implemented here, with the meaning
``jsonschema`` 4.x gives it:

- ``type``: ``bool`` is never ``integer`` or ``number``, and a float with an
  integral value (``1.0``, ``1e300``) is an ``integer``;
- ``enum`` and ``const``: ``true`` does not equal ``1``;
- ``minimum``, ``maximum``, ``exclusiveMinimum``, ``exclusiveMaximum``
  (a value that is not a number passes), ``minLength`` and ``minItems``;
- ``items`` (one schema for every item), ``properties``, ``required`` and
  ``additionalProperties`` (``true`` or ``false``);
- ``$ref`` to ``#/definitions/{name}``, whose sibling keywords are ignored;
- the annotations ``title`` and ``default`` anywhere, and ``$schema``,
  ``$id`` and ``definitions`` at the root; validation ignores them, as
  Draft 7 does.

A schema that uses any other keyword, or a keyword's argument of the wrong
kind, is rejected when it loads, so a later edit to a schema cannot pass
unchecked. Each packaged schema is loaded and checked once per process.
"""

import json
import numbers
import operator
import re
from functools import cache
from importlib import resources
from typing import Optional

from .errors import InvalidArgumentError


def _is_number(value) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}


def _is_count(arg) -> bool:
    return isinstance(arg, int) and not isinstance(arg, bool) and arg >= 0


# What each keyword's argument must be; a subschema argument is checked by
# ``_check_subschema``.
_ARGUMENTS = {
    "type": lambda a: (a in _TYPES if isinstance(a, str) else
                       isinstance(a, list) and a and all(t in _TYPES for t in a)),
    "enum": lambda a: isinstance(a, list),
    "const": lambda a: True,
    **dict.fromkeys(_BOUNDS, _is_number),
    "minLength": _is_count,
    "minItems": _is_count,
    "items": lambda a: isinstance(a, dict),
    "properties": lambda a: isinstance(a, dict) and all(isinstance(s, dict) for s in a.values()),
    "required": lambda a: isinstance(a, list) and all(isinstance(n, str) for n in a),
    "additionalProperties": lambda a: isinstance(a, bool),
    "$ref": lambda a: isinstance(a, str),
    "title": lambda a: isinstance(a, str),
    "default": lambda a: True,
}
_ROOT_ONLY = {"$schema", "$id", "definitions"}
_PLAIN_KEY = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _equal(one, two) -> bool:
    # JSON equality: ``true`` and ``1`` differ, ``1`` and ``1.0`` do not.
    if one is two:
        return True
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, list) and isinstance(two, list):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, dict) and isinstance(two, dict):
        return len(one) == len(two) and all(k in two and _equal(v, two[k])
                                            for k, v in one.items())
    if isinstance(one, bool) or isinstance(two, bool):
        return False
    return one == two


def _child(path: str, key) -> str:
    """The JSONPath of ``key`` under ``path``, spelled as jsonschema spells it."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    if _PLAIN_KEY.match(key):
        return f"{path}.{key}"
    return path + "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']"


class Schema:
    """A checked schema document that validates instances against itself."""

    def __init__(self, document: dict, name: str = "schema"):
        if not isinstance(document, dict):
            raise InvalidArgumentError(f"{name}: a schema must be a JSON object")
        self.document = document
        self.name = name
        self._definitions = document.get("definitions", {})
        if not isinstance(self._definitions, dict):
            raise InvalidArgumentError(f"{name}: definitions must be an object")
        for key, sub in self._definitions.items():
            self._check_subschema(sub, f"#/definitions/{key}")
        self._check_subschema(document, "#", root=True)

    def _check_subschema(self, node, where: str, root: bool = False) -> None:
        if not isinstance(node, dict):
            raise InvalidArgumentError(f"{self.name}: subschema at {where} must be an object")
        for key, arg in node.items():
            if key in _ROOT_ONLY and root:
                continue
            if key not in _ARGUMENTS:
                raise InvalidArgumentError(
                    f"{self.name}: keyword {key!r} at {where} is not supported")
            if not _ARGUMENTS[key](arg):
                raise InvalidArgumentError(
                    f"{self.name}: invalid argument {arg!r} to {key!r} at {where}")
        ref = node.get("$ref")
        if ref is not None and self._target(ref) is None:
            raise InvalidArgumentError(f"{self.name}: unresolvable $ref {ref!r} at {where}")
        for key, sub in node.get("properties", {}).items():
            self._check_subschema(sub, f"{where}/properties/{key}")
        if "items" in node:
            self._check_subschema(node["items"], f"{where}/items")

    def _target(self, ref: str) -> Optional[dict]:
        prefix, _, name = ref.partition("#/definitions/")
        return None if prefix else self._definitions.get(name)

    def first_error(self, instance) -> Optional[tuple]:
        """``(json_path, message)`` of the error whose path sorts first, the
        earliest found among equals, or None if ``instance`` is valid."""
        errors = []
        self._collect(self.document, instance, "$", errors)
        return min(errors, key=operator.itemgetter(0)) if errors else None

    def _collect(self, schema: dict, value, path: str, errors: list) -> None:
        if "$ref" in schema:
            return self._collect(self._target(schema["$ref"]), value, path, errors)
        for key, arg in schema.items():
            if key == "type":
                types = [arg] if isinstance(arg, str) else arg
                if not any(_TYPES[t](value) for t in types):
                    errors.append((path, f"{value!r} is not of type "
                                         f"{', '.join(map(repr, types))}"))
            elif key == "enum":
                if not any(_equal(each, value) for each in arg):
                    errors.append((path, f"{value!r} is not one of {arg!r}"))
            elif key == "const":
                if not _equal(value, arg):
                    errors.append((path, f"{arg!r} was expected"))
            elif key in _BOUNDS:
                fails, text = _BOUNDS[key]
                if _is_number(value) and fails(value, arg):
                    errors.append((path, f"{value!r} is {text} {arg!r}"))
            elif key in ("minLength", "minItems"):
                kind = str if key == "minLength" else list
                if isinstance(value, kind) and len(value) < arg:
                    short = "should be non-empty" if arg == 1 else "is too short"
                    errors.append((path, f"{value!r} {short}"))
            elif not isinstance(value, list if key == "items" else dict):
                continue  # each keyword below applies to one container type only
            elif key == "items":
                for index, item in enumerate(value):
                    self._collect(arg, item, _child(path, index), errors)
            elif key == "properties":
                for name, sub in arg.items():
                    if name in value:
                        self._collect(sub, value[name], _child(path, name), errors)
            elif key == "required":
                errors.extend((path, f"{name!r} is a required property")
                              for name in arg if name not in value)
            elif key == "additionalProperties" and not arg:
                extras = sorted((k for k in value if k not in schema.get("properties", {})),
                                key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    errors.append((path, "Additional properties are not allowed "
                                         f"({', '.join(map(repr, extras))} {verb} unexpected)"))


@cache
def load(name: str) -> Schema:
    """The packaged schema ``pfge/schemas/{name}``, read and checked once."""
    text = resources.files("pfge.schemas").joinpath(name).read_text()
    return Schema(json.loads(text), name)
