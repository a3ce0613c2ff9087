"""JSON round trips and schema error reporting."""

import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudra.model import Instance, PreferenceProfile, RandomAssignment
from mudra.serialize import (
    SchemaError,
    _echo,
    assignment_from_data,
    assignment_to_data,
    canonical_dumps,
    format_rational,
    load_assignment,
    load_profile,
    parse_pair,
    profile_from_data,
    profile_to_data,
)

F = Fraction

PROFILE_DATA = {
    "objects": ["o1", "o2", "o3", "o4"],
    "quota": 2,
    "preferences": {
        "1": ["o1", "o2", "o3", "o4"],
        "2": ["o3", "o2", "o4", "o1"],
    },
}


class TestRationals:
    def test_fraction_string(self):
        assert parse_pair("7/8", "x") == (7, 8)

    def test_plain_integer_forms(self):
        assert parse_pair("2", "x") == (2, 1)
        assert parse_pair(2, "x") == (2, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(SchemaError, match="7/0"):
            parse_pair("7/0", "x")

    def test_garbage_rejected(self):
        with pytest.raises(SchemaError, match="malformed"):
            parse_pair("seven eighths", "x")

    def test_plain_decimal_accepted(self):
        assert parse_pair("0.25", "x") == (1, 4)
        assert parse_pair("-1.5", "x") == (-3, 2)

    @pytest.mark.parametrize("text", ["1e10000000", "1E10000000", "2.5e-3"])
    def test_exponents_refused_before_any_arithmetic(self, text):
        # Fraction("1e10000000") builds a 33-Mbit numerator in seconds.
        started = time.perf_counter()
        with pytest.raises(SchemaError, match="malformed rational"):
            parse_pair(text, "matrix.1.o1")
        assert time.perf_counter() - started < 0.1

    @pytest.mark.parametrize(
        "text, value",
        [
            ("7/8", F(7, 8)), ("-7/8", F(-7, 8)), ("12", F(12)), ("-3", F(-3)),
            ("0.25", F(1, 4)), ("-1.5", F(-3, 2)), ("007/8", F(7, 8)),
            # `Fraction` reads each of these on some supported Python only,
            # or on all of them though the file format never allowed it.
            ("1_0", None), ("1 / 2", None), ("\u0661/2", None), (" 1/2 ", None),
            ("+1/2", None), (".5", None), ("5.", None), ("1/-2", None), ("1.5/2", None),
            ("1/2\n", None), ("", None), ("nan", None), ("inf", None),
            ("1e10000000", None), ("1E10000000", None), ("2.5e-3", None),
            # well formed, but past the default int conversion limit of 4,300 digits
            pytest.param("1" * 5000, "an integer of more than", id="5000-digits"),
            ("1/0", None),
        ],
    )
    def test_one_grammar_on_every_python(self, text, value):
        """A `Fraction` is read as its reduced pair; None is refused as
        malformed, and a string is the refusal's text."""
        if isinstance(value, Fraction):
            assert parse_pair(text, "x") == (value.numerator, value.denominator)
            return
        with pytest.raises(SchemaError, match=value or "malformed rational"):
            parse_pair(text, "x")

    def test_floats_rejected(self):
        with pytest.raises(SchemaError, match="floating point"):
            parse_pair(0.5, "x")

    @pytest.mark.parametrize("value, kind", [(None, "NoneType"), (["1/2"], "list")])
    def test_non_string_values_rejected(self, value, kind):
        with pytest.raises(SchemaError, match=f"expected a rational string, got {kind}"):
            parse_pair(value, "x")

    def test_error_carries_path(self):
        with pytest.raises(SchemaError) as err:
            parse_pair("1/0", "matrix.1.o2")
        assert err.value.path == "matrix.1.o2"

    def test_format_round_trip(self):
        for v in (F(7, 8), F(0), F(3), F(-1, 2)):
            assert parse_pair(format_rational(v), "x") == (v.numerator, v.denominator)


class TestProfileSchema:
    def test_round_trip(self):
        profile = profile_from_data(PROFILE_DATA)
        assert profile.instance.agents == ("1", "2")
        assert profile.order_of("2") == ("o3", "o2", "o4", "o1")
        assert profile_to_data(profile) == PROFILE_DATA

    def test_canonical_dump_is_stable(self):
        profile = profile_from_data(PROFILE_DATA)
        assert canonical_dumps(profile_to_data(profile)) == canonical_dumps(
            profile_to_data(profile)
        )

    def test_missing_key(self):
        with pytest.raises(SchemaError, match="quota"):
            profile_from_data({"objects": ["o1"], "preferences": {"1": ["o1"]}})

    def test_duplicate_objects(self):
        data = dict(PROFILE_DATA, objects=["o1", "o1", "o3", "o4"])
        with pytest.raises(SchemaError, match="duplicate"):
            profile_from_data(data)

    def test_preferences_must_be_permutations(self):
        data = dict(
            PROFILE_DATA,
            preferences={
                "1": ["o1", "o2", "o3", "o4"],
                "2": ["o3", "o2", "o4", "o4"],
            },
        )
        with pytest.raises(SchemaError, match="preferences.2"):
            profile_from_data(data)

    def test_quota_mismatch_reported_as_schema_error(self):
        data = dict(PROFILE_DATA, quota=3)
        with pytest.raises(SchemaError, match="quota"):
            profile_from_data(data)

    @pytest.mark.parametrize(
        "changes, path, message",
        [
            ({"objects": [], "preferences": {"1": []}}, "objects", "at least one object"),
            (
                {"preferences": {"o1": ["o1", "o2", "o3", "o4"], "2": ["o1", "o2", "o3", "o4"]}},
                "preferences", "agent and object ids must be disjoint",
            ),
            ({"quota": 3}, "quota", "cannot be split"),
        ],
    )
    def test_instance_errors_name_the_field_at_fault(self, tmp_path, changes, path, message):
        """From data and from a file, each error carries the path of its field."""
        data = dict(PROFILE_DATA, **changes)
        target = tmp_path / "p.json"
        target.write_text(canonical_dumps(data), encoding="utf-8")
        for load in (lambda: profile_from_data(data), lambda: load_profile(target)):
            with pytest.raises(SchemaError, match=message) as err:
                load()
            assert err.value.path == path

    def test_leftover_objects_load_with_the_ceiling_quota(self):
        data = {
            "objects": ["o1", "o2", "o3"],
            "quota": 2,
            "preferences": {"1": ["o1", "o2", "o3"], "2": ["o3", "o2", "o1"]},
        }
        assert profile_from_data(data).instance.quota == 2
        for quota in (1, 3):
            with pytest.raises(SchemaError, match=r"ceil\(m/n\) = 2") as err:
                profile_from_data(dict(data, quota=quota))
            assert err.value.path == "quota"
        with pytest.raises(TypeError):
            profile_from_data(data, relaxed=True)


class TestAssignmentSchema:
    def setup_method(self):
        self.profile = profile_from_data(PROFILE_DATA)
        self.instance = self.profile.instance

    def test_round_trip(self):
        data = {
            "matrix": {
                "1": {"o1": "7/8", "o2": "1/2", "o3": "1/4", "o4": "3/8"},
                "2": {"o1": "1/8", "o2": "1/2", "o3": "3/4", "o4": "5/8"},
            }
        }
        p = assignment_from_data(data, self.instance)
        assert p.entry("1", "o1") == F(7, 8)
        assert assignment_to_data(p) == data

    def test_agent_keys_must_match(self):
        data = {"matrix": {"1": {}, "3": {}}}
        with pytest.raises(SchemaError, match="agent keys"):
            assignment_from_data(data, self.instance)

    def test_object_keys_must_match(self):
        data = {
            "matrix": {
                "1": {"o1": "1", "o2": "1"},
                "2": {"o1": "0", "o2": "0"},
            }
        }
        with pytest.raises(SchemaError, match="matrix.1"):
            assignment_from_data(data, self.instance)

    def test_entry_errors_carry_paths(self):
        data = {
            "matrix": {
                "1": {"o1": "1/0", "o2": "0", "o3": "0", "o4": "0"},
                "2": {"o1": "0", "o2": "1", "o3": "1", "o4": "1"},
            }
        }
        with pytest.raises(SchemaError) as err:
            assignment_from_data(data, self.instance)
        assert err.value.path == "matrix.1.o1"


class TestFileRoundTrips:
    def test_profile_file(self, tmp_path):
        target = tmp_path / "profile.json"
        profile = profile_from_data(PROFILE_DATA)
        target.write_text(canonical_dumps(profile_to_data(profile)))
        assert load_profile(target).orders == profile.orders
        # byte-identical canonical form when the loaded profile is written again
        assert canonical_dumps(profile_to_data(load_profile(target))) == target.read_text()

    def test_assignment_file(self, tmp_path):
        profile = profile_from_data(PROFILE_DATA)
        half = F(1, 2)
        p = RandomAssignment(
            profile.instance,
            ((half, half, half, half), (half, half, half, half)),
        )
        target = tmp_path / "assignment.json"
        target.write_text(canonical_dumps(assignment_to_data(p)))
        assert load_assignment(target, profile.instance).matrix == p.matrix


@st.composite
def profiles(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    quota = draw(st.integers(min_value=1, max_value=2))
    objects = tuple(f"o{j}" for j in range(1, n * quota + 1))
    inst = Instance(
        agents=tuple(str(i) for i in range(1, n + 1)),
        objects=objects,
        quota=quota,
    )
    orders = tuple(tuple(draw(st.permutations(objects))) for _ in inst.agents)
    return PreferenceProfile(inst, orders)


@given(profiles())
def test_any_profile_round_trips(profile):
    assert profile_from_data(profile_to_data(profile)).orders == profile.orders


denominators = st.integers(min_value=1, max_value=12)
numerators = st.integers(min_value=0, max_value=12)


@given(st.lists(st.builds(F, numerators, denominators), min_size=4, max_size=4))
def test_any_rational_row_round_trips(values):
    # shape is all that matters for serialization; feasibility is separate
    inst = Instance(agents=("1",), objects=("a", "b", "c", "d"), quota=4)
    p = RandomAssignment(inst, (tuple(values),))
    assert assignment_from_data(assignment_to_data(p), inst).matrix == p.matrix


def fraction_parse(value, path):
    """The `Fraction` reading that `parse_pair` replaced, kept as its oracle:
    the grammar checked by a regex, then `Fraction` reads the string."""
    if isinstance(value, bool):
        raise SchemaError(path, f"expected a rational string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise SchemaError(path, f"floating point value {value!r} is not allowed")
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a rational string, got {type(value).__name__}")
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?", value):
        raise SchemaError(path, f"malformed rational {_echo(value)} (expected p/q, k or a decimal)")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise SchemaError(path, f"malformed rational {_echo(value)} ({exc})") from None
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise SchemaError(
            path, f"rational {_echo(value)}: an integer of more than {limit} digits"
        ) from None


def fraction_assignment(data, instance):
    """The assignment the oracle reads: each row's entries in object order,
    then the `Fraction` constructor."""
    rows = []
    for agent in instance.agents:
        row = data["matrix"][agent]
        rows.append([fraction_parse(row[o], f"matrix.{agent}.{o}") for o in instance.objects])
    return RandomAssignment(instance, rows)


def pair_parse(value, path):
    """`parse_pair`'s reduced pair as a `Fraction`, to compare with the oracle."""
    return Fraction(*parse_pair(value, path))


def outcome(read, *args):
    """What `read(*args)` gives: ("value", v) or ("refused", path, message)."""
    try:
        return "value", read(*args)
    except SchemaError as err:
        return "refused", err.path, err.message


digits = st.text(alphabet="0123456789", min_size=1, max_size=12)
#: Every accepted spelling: p/q, k and decimals, leading zeros and minus
#: signs included, and JSON integers.
spellings = st.one_of(
    st.builds("{}{}/{}".format, st.sampled_from(["", "-"]), digits, digits.filter(int)),
    st.builds("{}{}.{}".format, st.sampled_from(["", "-"]), digits, digits),
    st.builds("{}{}".format, st.sampled_from(["", "-"]), digits),
    st.integers(min_value=-(10**30), max_value=10**30),
)
#: Zero denominators, near misses of the grammar and values of the wrong JSON type.
near_misses = st.one_of(
    st.builds("{}{}/{}".format, st.sampled_from(["", "-"]), digits, st.text("0", min_size=1)),
    st.text(alphabet="0123456789-/.+e _", max_size=12),
    st.text(max_size=3),
    st.sampled_from([True, False, None, 0.5, 1.0, ["1/2"], {"p": 1}, "1" * 50, "1/" + "0" * 45]),
)


@settings(max_examples=400)
@given(spellings)
def test_the_integer_parser_reads_what_fraction_reads(value):
    expected = fraction_parse(value, "x")
    assert parse_pair(value, "x") == (expected.numerator, expected.denominator)


@settings(max_examples=400)
@given(st.one_of(spellings, near_misses))
def test_the_integer_parser_refuses_what_the_oracle_refuses(value):
    expected = outcome(fraction_parse, value, "matrix.1.o2")
    assert outcome(pair_parse, value, "matrix.1.o2") == expected


@pytest.mark.parametrize(
    "text",
    ["1" * 4301, "-" + "1" * 4301, "1/" + "1" * 4301, "1." + "1" * 4301, "1" * 4301 + ".5",
     "0." + "1" * 4300, "1" * 4300 + "/0", "-007/0", "-0/0", "-0.50", "0000.000"],
)
def test_digit_limits_and_zero_denominators_match_the_oracle(text):
    assert outcome(pair_parse, text, "x") == outcome(fraction_parse, text, "x")


@settings(max_examples=200)
@given(st.lists(st.one_of(spellings, near_misses), min_size=6, max_size=6))
def test_a_file_reads_or_is_refused_as_the_oracle_reads_it(entries):
    """Equal assignments, or the same first bad entry in row order."""
    inst = Instance(agents=("1", "2"), objects=("a", "b", "c"), quota=2)
    data = {"matrix": {"1": dict(zip("abc", entries[:3])), "2": dict(zip("abc", entries[3:]))}}
    assert outcome(assignment_from_data, data, inst) == outcome(fraction_assignment, data, inst)


@given(
    st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=6, max_size=6),
    st.integers(min_value=1, max_value=10**4),
)
def test_written_entries_are_the_strings_of_their_fractions(values, d):
    inst = Instance(agents=("1", "2"), objects=("a", "b", "c"), quota=2)
    p = RandomAssignment.from_numerators(inst, [values[:3], values[3:]], d)
    matrix = assignment_to_data(p)["matrix"]
    assert [list(row.values()) for row in matrix.values()] == [
        [str(Fraction(v, d)) for v in values[:3]], [str(Fraction(v, d)) for v in values[3:]]
    ]
