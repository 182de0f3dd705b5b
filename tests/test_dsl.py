"""Text and JSON front ends: grammar, diagnostics, round-trips."""

from __future__ import annotations

import copy
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS, STAR_SET, star_obj
from occob.dsl import (
    Document,
    document_to_dict,
    from_json,
    parse,
    parse_cycles,
    serialize,
    to_json,
)
from occob.errors import DslError, DslSyntaxError, DslValidationError
from occob.objects import Circle, GeneralObject, Interval
from occob.sampling import sample_document


class TestParseBasics:
    def test_reference_object_line(self):
        doc = parse("object n = [O, I(*,*), I(*,*), I(*,*)] sigma (2 3)(4);")
        obj = doc.objects["n"]
        assert [type(e).__name__ for e in obj.entries] == [
            "Circle",
            "Interval",
            "Interval",
            "Interval",
        ]
        assert obj.sigma.cycle_string() == "(2 3)(4)"

    def test_empty_object(self):
        doc = parse("object e = [];")
        assert doc.objects["e"].entries == ()

    def test_comments_and_whitespace(self):
        text = "# leading note\nobject a = [ O ] ; # trailing\n\n"
        assert "a" in parse(text).objects

    def test_sigma_id(self):
        doc = parse("object a = [I(*,*)] sigma id;")
        assert doc.objects["a"].sigma.is_identity

    def test_single_brane_mode_allows_bare_labels(self):
        text = (
            "object x = [I(*,*)];\n"
            "cobordism c : x -> x {\n"
            "  component { genus 0; mixed [in 1, arc, out 1, arc]; }\n"
            "}\n"
        )
        doc = parse(text)
        assert doc.branes == STAR_SET

    def test_declared_branes_require_labels(self):
        text = (
            "branes a, b;\nobject x = [O];\n"
            "cobordism c : x -> x {\n"
            "  component { genus 0; in 1; out 1; window; }\n"
            "}\n"
        )
        with pytest.raises(DslSyntaxError):
            parse(text)

    def test_rev_token(self):
        text = (
            "object x = [I(*,*)];\n"
            "cobordism c : x -> x {\n"
            "  component { genus 0; mixed [in 1 rev, arc, out 1 rev, arc]; }\n"
            "}\n"
        )
        cob = parse(text).cobordisms["c"].cobordism
        (comp,) = cob.components
        refs = [e for e in comp.boundary[0].cycle if hasattr(e, "rev")]
        # in defaults to rev=True, so the token turns it off; out the converse.
        assert {(r.side, r.rev) for r in refs} == {("in", False), ("out", True)}


class TestDiagnostics:
    def assert_position(self, exc: DslError):
        assert exc.line is not None and exc.column is not None
        assert "line" in str(exc)

    def test_missing_semicolon(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("object a = [O]\nobject b = [];")
        self.assert_position(err.value)

    def test_unknown_name_in_header(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("object a = [O];\ncobordism c : a -> ghost {\n}")
        self.assert_position(err.value)

    def test_duplicate_object_name(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("object a = [O];\nobject a = [];")
        self.assert_position(err.value)

    def test_keyword_cannot_name_an_object(self):
        with pytest.raises(DslSyntaxError):
            parse("object component = [];")

    def test_branes_must_come_first(self):
        with pytest.raises(DslSyntaxError):
            parse("object a = [];\nbranes x;")

    def test_undeclared_brane_label(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("branes a;\nobject x = [I(a,z)];")
        self.assert_position(err.value)

    def test_sigma_on_non_interval_is_validation_error(self):
        with pytest.raises(DslValidationError) as err:
            parse("object x = [O, I(*,*)] sigma (1 2);")
        self.assert_position(err.value)

    def test_invalid_cobordism_is_validation_error(self):
        text = (
            "object x = [O];\n"
            "cobordism c : x -> x {\n  component { genus 0; in 1; }\n}\n"
        )
        with pytest.raises(DslValidationError) as err:
            parse(text)
        assert err.value.violations
        self.assert_position(err.value)

    def test_illegal_character(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("object x@ = [O];")
        self.assert_position(err.value)

    def test_non_ascii_digit(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("object a = [I(*,*)] sigma (\N{SUPERSCRIPT TWO});")
        assert (err.value.line, err.value.column) == (1, 28)


class TestSerialize:
    def test_byte_stable_round_trip(self, rng):
        for _ in range(25):
            doc = sample_document(rng, branes=("a", "b"))
            text = serialize(doc)
            assert serialize(parse(text)) == text

    def test_single_brane_docs_omit_branes_line(self):
        doc = Document(branes=STAR_SET)
        doc.objects["a"] = star_obj("O")
        assert "branes" not in serialize(doc)

    def test_multi_brane_docs_declare_branes(self):
        doc = Document(branes=frozenset({"b", "a"}))
        text = serialize(doc)
        assert text.startswith("branes a, b;")

    def test_identity_sigma_is_omitted(self):
        doc = Document(branes=STAR_SET)
        doc.objects["a"] = star_obj("II")
        assert "sigma" not in serialize(doc)

    def test_ends_with_newline(self, rng):
        doc = sample_document(rng)
        assert serialize(doc).endswith("\n")


class TestJson:
    def test_round_trip(self, rng):
        for _ in range(10):
            doc = sample_document(rng, branes=("a", "b", "c"))
            js = to_json(doc)
            again = from_json(js)
            assert serialize(again) == serialize(doc)

    def test_format_tag(self, rng):
        payload = json.loads(to_json(sample_document(rng)))
        assert payload["format"] == 1

    def test_deterministic(self, rng):
        doc = sample_document(rng)
        assert to_json(doc) == to_json(from_json(to_json(doc)))

    def test_malformed_json_raises_syntax(self):
        with pytest.raises(DslSyntaxError):
            from_json("{not json")

    def test_wrong_format_tag(self):
        with pytest.raises(DslSyntaxError):
            from_json(json.dumps({"format": 99}))

    def test_omitted_rev_takes_the_default(self):
        data = document_to_dict(parse(JSON_BASE))
        for entry in _node(data, _S_REF[:-1]):
            entry.pop("rev", None)
        assert serialize(from_json(data)) == serialize(parse(JSON_BASE))


JSON_BASE = """\
object c = [O];
object p = [I(*,*)] sigma (1);
cobordism S : p -> p { component { genus 0; mixed [in 1, arc, out 1, arc]; } }
cobordism T : c -> c { component { genus 1; in 1; out 1; window; } }
"""


def _rename(table: dict, old: str, new: str) -> None:
    table[new] = table.pop(old)


def _node(data, path: tuple):
    for key in path:
        data = data[key]
    return data


def _set(path: tuple, value):
    def mutate(data):
        _node(data, path[:-1])[path[-1]] = value

    return mutate


_S_REF = ("cobordisms", "S", "components", 0, "boundary", 0, "entries", 0)
_T_COMP = ("cobordisms", "T", "components", 0)


@pytest.mark.parametrize(
    "mutate, path",
    [
        (_set(_T_COMP + ("genus",), -1), "$.cobordisms.T.components[0].genus"),
        (_set(("branes",), []), "$.branes"),
        (
            _set(("objects", "p", "entries", 0, "left"), "z"),
            "$.objects.p.entries[0].left",
        ),
        (_set(("objects", "p", "sigma"), [[1, 1]]), "$.objects.p.sigma"),
        (lambda d: _rename(d["objects"], "c", "object"), "$.objects.object"),
        (lambda d: _rename(d["objects"], "c", "a b"), '$.objects["a b"]'),
        (_set(_T_COMP + ("genus",), True), "$.cobordisms.T.components[0].genus"),
        (
            _set(_T_COMP + ("boundary", 0, "index"), 1.0),
            "$.cobordisms.T.components[0].boundary[0].index",
        ),
        (_set(("branes",), ["a,b"]), "$.branes[0]"),
        (_set(("branes",), "ab"), "$.branes"),
        (
            _set(_S_REF + ("rev",), "*"),
            "$.cobordisms.S.components[0].boundary[0].entries[0].rev",
        ),
        (_set(_T_COMP + ("boundary",), []), "$.cobordisms.T"),
    ],
    ids=[
        "negative-genus",
        "empty-branes",
        "undeclared-interval-brane",
        "bad-sigma-cycle",
        "keyword-name",
        "name-with-space",
        "bool-genus",
        "float-index",
        "brane-with-comma",
        "branes-string",
        "rev-string",
        "invalid-cobordism",
    ],
)
def test_from_json_faults_name_their_path(mutate, path):
    data = document_to_dict(parse(JSON_BASE))
    mutate(data)
    with pytest.raises((DslSyntaxError, DslValidationError)) as err:
        from_json(data)
    assert str(err.value).startswith(f"at {path}: "), str(err.value)


def _mutation_sites(node, path=()):
    """("key", path) for each dict key and ("leaf", path) for each leaf."""
    if isinstance(node, dict) and node:
        for key, child in node.items():
            yield "key", path + (key,)
            yield from _mutation_sites(child, path + (key,))
    elif isinstance(node, list) and node:
        for i, child in enumerate(node):
            yield from _mutation_sites(child, path + (i,))
    else:
        yield "leaf", path


_NAMES = ["", "*", "a", "b", "l", "z", "a b", "a,b", "x#", "object", "in", "arc",
          "\N{SUPERSCRIPT TWO}", "src1", "tgt1", "cob1", "type", "index", "rev"]
_LEAVES = st.one_of(
    st.integers(-2, 6),
    st.booleans(),
    st.sampled_from([1.0, None, [], {}, [1], ["a"], [[1]], {"type": "circle"}]),
    st.sampled_from(_NAMES),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**16), st.data())
def test_from_json_is_total_and_faithful_under_mutation(seed, data):
    original = document_to_dict(sample_document(random.Random(seed)))
    kind, path = data.draw(st.sampled_from(list(_mutation_sites(original))))
    mutated = copy.deepcopy(original)
    if kind == "key":
        new = data.draw(st.sampled_from(_NAMES + ["format", "branes", "genus"]))
        _rename(_node(mutated, path[:-1]), path[-1], new)
    else:
        _set(path, data.draw(_LEAVES))(mutated)
    try:
        doc = from_json(mutated)
    except DslError:
        return
    text = serialize(doc)
    again = parse(text)
    assert serialize(again) == text
    assert again.objects == doc.objects and again.branes == doc.branes


class TestParseCycles:
    def test_id(self):
        assert list(parse_cycles("id")) == []

    def test_cycles(self):
        assert [list(c) for c in parse_cycles("(2 3)(4)")] == [[2, 3], [4]]

    def test_rejects_garbage(self):
        with pytest.raises(DslSyntaxError):
            parse_cycles("(2 3")


class TestCorpus:
    def test_roundtrip_files_are_canonical(self):
        files = sorted((CORPUS / "roundtrip").glob("*.occ"))
        assert len(files) == 50
        for path in files:
            text = path.read_text(encoding="utf-8")
            assert serialize(parse(text)) == text, path.name

    def test_malformed_files_fail_with_position(self):
        files = sorted((CORPUS / "malformed").glob("*.occ"))
        assert len(files) >= 20
        for path in files:
            with pytest.raises(DslSyntaxError) as err:
                parse(path.read_text(encoding="utf-8"))
            assert err.value.line is not None, path.name


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="obj ceti[]{}(),;:*#\n->123IOarcwindow=", max_size=120))
@example("object a = [O];")
@example("cobordism")
def test_parser_total_over_junk(text):
    try:
        parse(text)
    except DslError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=80))
def test_parser_total_over_arbitrary_text(text):
    try:
        parse(text)
    except DslError:
        pass
