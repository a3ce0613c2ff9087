r"""JSON serialization for profiles, assignments and reports.

Rationals travel as strings "p/q" so that files round-trip exactly.  An
input string must match `-?[0-9]+(/[0-9]+|\.[0-9]+)?` over ASCII digits:
"p/q", an integer "k" or a plain decimal such as "0.25", with an optional
leading minus and nothing else (no spaces, "+", underscores, exponents, or
a decimal point without digits on both sides), so every supported Python
reads the same strings.  Schema violations raise `SchemaError` carrying
the JSON path of the offending element.

Profile files::

    {"objects": ["o1", ...], "quota": 2, "preferences": {"1": ["o1", ...], ...}}

Assignment files::

    {"matrix": {"1": {"o1": "7/8", ...}, ...}}
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Any

from .model import Instance, PreferenceProfile, RandomAssignment


class SchemaError(Exception):
    """Input file violates the expected schema; `path` locates the problem."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def parse_rational(value: Any, path: str) -> Fraction:
    """Parse "p/q", "k" or a plain decimal such as "0.25" into an exact rational.
    Other spellings are refused before `Fraction`, which reads more of them (a
    different set on each Python) and would build 10**9999999 from "1e9999999"."""
    if isinstance(value, bool):
        raise SchemaError(path, f"expected a rational string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise SchemaError(path, f"floating point value {value!r} is not allowed")
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a rational string, got {type(value).__name__}")
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?", value):
        raise SchemaError(path, f"malformed rational {value!r} (expected p/q, k or a decimal)")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, f"malformed rational {value!r} ({exc})") from None


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _require(data: Any, key: str, kind: type) -> Any:
    """The value at `key` of the top-level object `data`, which must be a `kind`."""
    if not isinstance(data, dict):
        raise SchemaError("$", f"expected an object, got {type(data).__name__}")
    if key not in data:
        raise SchemaError(key, "missing")
    value = data[key]
    if not isinstance(value, kind):
        raise SchemaError(key, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def profile_from_data(data: Any, relaxed: bool = False) -> PreferenceProfile:
    objects = _require(data, "objects", list)
    for j, o in enumerate(objects):
        if not isinstance(o, str):
            raise SchemaError(f"objects[{j}]", "object ids must be strings")
    if not objects:
        raise SchemaError("objects", "at least one object is required")
    if len(set(objects)) != len(objects):
        raise SchemaError("objects", "duplicate object ids")
    quota = _require(data, "quota", int)
    prefs = _require(data, "preferences", dict)
    if not prefs:
        raise SchemaError("preferences", "at least one agent is required")
    agents = tuple(prefs.keys())
    orders = []
    for agent in agents:
        order = prefs[agent]
        path = f"preferences.{agent}"
        if not isinstance(order, list) or not all(isinstance(o, str) for o in order):
            raise SchemaError(path, "preference list must be a list of object ids")
        if sorted(order) != sorted(objects):
            raise SchemaError(
                path, "preference list is not a strict order over the object set"
            )
        orders.append(order)
    if set(agents) & set(objects):
        raise SchemaError("preferences", "agent and object ids must be disjoint")
    try:
        instance = Instance(agents, objects, quota, relaxed=relaxed)
    except ValueError as exc:  # what is left to refuse concerns the quota
        raise SchemaError("quota", str(exc)) from None
    return PreferenceProfile(instance, orders)


def profile_to_data(profile: PreferenceProfile) -> dict:
    inst = profile.instance
    return {
        "objects": list(inst.objects),
        "quota": inst.quota,
        "preferences": {
            agent: list(order) for agent, order in zip(inst.agents, profile.orders)
        },
    }


def assignment_from_data(data: Any, instance: Instance) -> RandomAssignment:
    matrix = _require(data, "matrix", dict)
    if set(matrix.keys()) != set(instance.agents):
        raise SchemaError("matrix", "agent keys must match the instance's agent set")
    rows = []
    for agent in instance.agents:
        row_data = matrix[agent]
        path = f"matrix.{agent}"
        if not isinstance(row_data, dict):
            raise SchemaError(path, "row must map objects to rationals")
        if set(row_data.keys()) != set(instance.objects):
            raise SchemaError(path, "object keys must match the instance's object set")
        rows.append(
            tuple(
                parse_rational(row_data[obj], f"{path}.{obj}")
                for obj in instance.objects
            )
        )
    return RandomAssignment(instance, tuple(rows))


def assignment_to_data(assignment: RandomAssignment) -> dict:
    inst = assignment.instance
    return {
        "matrix": {
            agent: {
                obj: format_rational(v)
                for obj, v in zip(inst.objects, row)
            }
            for agent, row in zip(inst.agents, assignment.matrix)
        }
    }


def canonical_dumps(data: Any) -> str:
    """Stable JSON encoding used for files and byte-identical round trips."""
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def _load_json(source: str | Path) -> Any:
    text = Path(source).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise SchemaError("$", "invalid JSON: nested too deeply") from None


def load_profile(source: str | Path, relaxed: bool = False) -> PreferenceProfile:
    return profile_from_data(_load_json(source), relaxed=relaxed)


def load_assignment(source: str | Path, instance: Instance) -> RandomAssignment:
    return assignment_from_data(_load_json(source), instance)
