r"""JSON serialization for profiles, assignments and reports.

Rationals travel as strings "p/q" so that files round-trip exactly.  An
input string must match `-?[0-9]+(/[0-9]+|\.[0-9]+)?` over ASCII digits:
"p/q", an integer "k" or a plain decimal such as "0.25", with an optional
leading minus and nothing else (no spaces, "+", underscores, exponents, or
a decimal point without digits on both sides), so every supported Python
reads the same strings.  Schema violations raise `SchemaError` carrying
the JSON path of the offending element.

Assignments cross this edge on integers.  `parse_pair` is the one parser
of that grammar, and it holds every refusal; it reads an entry as a
reduced pair (p, q).  `assignment_from_data` parses each distinct string
of a file once and builds the assignment with
`RandomAssignment.from_numerators` over the lcm of the q's, and
`assignment_to_data` writes each entry from `numerators` over
`denominator`, one string per distinct numerator.  Neither builds a
`Fraction`.

Profile files::

    {"objects": ["o1", ...], "quota": 2, "preferences": {"1": ["o1", ...], ...}}

The quota must be ceil(m/n), or it is refused at `quota`.  An unbalanced
profile (n does not divide m) loads; whatever needs balance refuses it.

Assignment files::

    {"matrix": {"1": {"o1": "7/8", ...}, ...}}
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
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


#: The one grammar of a rational string: sign, whole part, then "/q" or ".digits".
_RATIONAL = re.compile(r"(-?)([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def parse_pair(value: Any, path: str) -> tuple[int, int]:
    """Parse "p/q", "k", a plain decimal such as "0.25" or a JSON integer into
    the reduced pair (p, q), q > 0, of the rational it spells.
    Other spellings are refused before any arithmetic: `Fraction` reads more
    of them (a different set on each Python) and would build 10**9999999
    from "1e9999999"."""
    if isinstance(value, bool):
        raise SchemaError(path, f"expected a rational string, got {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        raise SchemaError(path, f"floating point value {value!r} is not allowed")
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a rational string, got {type(value).__name__}")
    match = _RATIONAL.fullmatch(value)
    if match is None:
        raise SchemaError(path, f"malformed rational {_echo(value)} (expected p/q, k or a decimal)")
    sign, whole, over, decimals = match.groups()
    try:
        if decimals is None:
            p, q = int(sign + whole), int(over or 1)
        else:  # the sign is read apart, as "-0.5" has the whole part 0
            q = 10 ** len(decimals)
            p = int(whole) * q + int(decimals)
            if sign:
                p = -p
    except ValueError:  # a part longer than int() reads from a string
        limit = sys.get_int_max_str_digits()
        raise SchemaError(
            path, f"rational {_echo(value)}: an integer of more than {limit} digits"
        ) from None
    if not q:
        raise SchemaError(path, f"malformed rational {_echo(value)} (Fraction({p}, 0))")
    g = math.gcd(p, q)
    return p // g, q // g


#: The longest input string a refusal repeats in full.
ECHO_LIMIT = 40


def _echo(text: str) -> str:
    """`text` as a refusal quotes it: whole when short, else its first
    ECHO_LIMIT characters and its length."""
    if len(text) <= ECHO_LIMIT:
        return repr(text)
    return f"{text[:ECHO_LIMIT]!r}... ({len(text)} characters)"


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


def profile_from_data(data: Any) -> PreferenceProfile:
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
        instance = Instance(agents, objects, quota)
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
    """The assignment of `data`, its entries parsed by `parse_pair`, each
    distinct string once, and scaled to the lcm of their denominators."""
    matrix = _require(data, "matrix", dict)
    if set(matrix.keys()) != set(instance.agents):
        raise SchemaError("matrix", "agent keys must match the instance's agent set")
    pairs: dict[str, tuple[int, int]] = {}
    rows = []
    for agent in instance.agents:
        row_data = matrix[agent]
        path = f"matrix.{agent}"
        if not isinstance(row_data, dict):
            raise SchemaError(path, "row must map objects to rationals")
        if set(row_data.keys()) != set(instance.objects):
            raise SchemaError(path, "object keys must match the instance's object set")
        row = []
        for obj in instance.objects:
            value = row_data[obj]
            pair = pairs.get(value) if type(value) is str else None
            if pair is None:
                pair = parse_pair(value, f"{path}.{obj}")
                if type(value) is str:
                    pairs[value] = pair
            row.append(pair)
        rows.append(row)
    d = math.lcm(*(q for row in rows for _, q in row))
    return RandomAssignment.from_numerators(
        instance, [[p * (d // q) for p, q in row] for row in rows], d
    )


def assignment_to_data(assignment: RandomAssignment) -> dict:
    """Each entry as `format_rational` writes it, built from the integer view:
    one string per distinct numerator, reduced by its gcd with the denominator."""
    inst, d = assignment.instance, assignment.denominator
    text = {}
    for v in set(itertools.chain.from_iterable(assignment.numerators)):
        g = math.gcd(v, d)
        text[v] = str(v // g) if g == d else f"{v // g}/{d // g}"
    return {
        "matrix": {
            agent: dict(zip(inst.objects, map(text.__getitem__, row)))
            for agent, row in zip(inst.agents, assignment.numerators)
        }
    }


def canonical_dumps(data: Any) -> str:
    """Stable JSON encoding used for files and byte-identical round trips."""
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's members as a dict, refusing a key given twice, whose
    earlier values `json` would silently drop."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise SchemaError("$", f"key {repeated!r} appears twice in one object")
    return data


def _load_json(source: str | Path) -> Any:
    try:
        text = Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError("$", f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise SchemaError("$", "invalid JSON: nested too deeply") from None
    except ValueError:  # an integer longer than int() reads from a string
        limit = sys.get_int_max_str_digits()
        raise SchemaError("$", f"invalid JSON: an integer of more than {limit} digits") from None


def load_profile(source: str | Path) -> PreferenceProfile:
    return profile_from_data(_load_json(source))


def load_assignment(source: str | Path, instance: Instance) -> RandomAssignment:
    return assignment_from_data(_load_json(source), instance)
