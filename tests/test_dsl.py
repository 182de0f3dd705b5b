"""Text and JSON front ends: grammar, diagnostics, round-trips."""

from __future__ import annotations

import copy
import importlib.util
import itertools
import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS, REPO, STAR_SET, star_obj
from occob import dsl
from occob.calculus import compose, identity, realize, stabilize
from occob.dsl import (
    _KEYWORDS,
    CobordismDef,
    Document,
    _is_int,
    _is_word,
    _locate,
    _tokenize,
    from_json,
    is_name,
    parse,
    parse_cycles,
    serialize,
    to_json,
)
from occob.errors import DslError, DslSyntaxError, DslValidationError, InvalidValueError
from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation
from occob.sampling import sample_document
from occob.surfaces import (
    Closed,
    Cobordism,
    Component,
    IntervalRef,
    Mixed,
    validate,
)
from reference_dsl import _is_name, outcome, reference_parse
from reference_json import document_to_dict

LONG = "1" * 5000  # past the interpreter's int conversion limit


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

    @pytest.mark.parametrize("labels", ["ab", "abcdef"])
    def test_windows_are_counted_per_brane(self, labels):
        order = labels[::-1] + labels[:2]
        text = (
            f"branes {', '.join(labels)};\nobject c = [O];\n"
            "cobordism t : c -> c {\n  component {\n    genus 0;\n    in 1;\n"
            + "".join(f"    window {b};\n" for b in order)
            + "    out 1;\n  }\n}\n"
        )
        counts = tuple((b, 1 + (b in labels[:2])) for b in labels)
        doc = parse(text)
        for read in (doc, from_json(to_json(doc))):
            assert read.cobordisms["t"].cobordism.components[0].windows == counts

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

    @pytest.mark.parametrize(
        "text, line, column",
        [
            (f"object a = [I(*,*)] sigma ({LONG});", 1, 28),
            (
                f"object c = [O];\ncobordism x : c -> c {{\ncomponent {{\ngenus {LONG}",
                4,
                7,
            ),
            (
                f"object c = [O];\ncobordism x : c -> c {{\n"
                f"component {{ genus 0;\nin {LONG};",
                4,
                4,
            ),
            (
                f"object i = [I(*,*)];\ncobordism x : i -> i {{\n"
                f"component {{ genus 0;\nmixed [in 1, arc, out {LONG}",
                4,
                23,
            ),
        ],
        ids=["sigma", "genus", "index", "ref-index"],
    )
    def test_over_long_integer_is_a_syntax_error(self, text, line, column):
        with pytest.raises(DslSyntaxError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert "integer literal of 5000 digits is too long" in str(err.value)

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


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The character-loop tokenizer ``_tokenize`` replaced: (kind, value, line, col)."""
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "-":
            if i + 1 < n and text[i + 1] == ">":
                toks.append(("ARROW", "->", line, col))
                i += 2
                col += 2
            else:
                raise DslSyntaxError("stray '-' (expected '->')", line, col)
        elif ch in ",;:=[]{}()":
            toks.append((ch, ch, line, col))
            i += 1
            col += 1
        elif ch == "*":
            toks.append(("STAR", "*", line, col))
            i += 1
            col += 1
        elif "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("WORD", text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(("EOF", "", line, col))
    return toks


_KINDS = {"": "EOF", "*": "STAR", "->": "ARROW", **{c: c for c in ",;:=[]{}()"}}


def _kind(value: str) -> str:
    """The token kind the parser reads off a token string."""
    if value in _KINDS:
        return _KINDS[value]
    return "INT" if _is_int(value) else "WORD" if _is_word(value) else "bad"


def positioned(text: str) -> list[tuple[str, str, int, int]]:
    """``_tokenize`` with each token's kind, and line and column from ``_locate``."""
    values = _tokenize(text) + [""]
    return [(_kind(v), v, *_locate(text, k)) for k, v in enumerate(values)]


TOKEN_POSITIONS = [
    ("a\tb", [("WORD", "a", 1, 1), ("WORD", "b", 1, 3), ("EOF", "", 1, 4)]),
    ("a\r\nb", [("WORD", "a", 1, 1), ("WORD", "b", 2, 1), ("EOF", "", 2, 2)]),
    ("1a", [("INT", "1", 1, 1), ("WORD", "a", 1, 2), ("EOF", "", 1, 3)]),
    ("a\N{SUPERSCRIPT TWO}", [("WORD", "a\N{SUPERSCRIPT TWO}", 1, 1), ("EOF", "", 1, 3)]),
    (
        "x ->y*(",
        [
            ("WORD", "x", 1, 1),
            ("ARROW", "->", 1, 3),
            ("WORD", "y", 1, 5),
            ("STAR", "*", 1, 6),
            ("(", "(", 1, 7),
            ("EOF", "", 1, 8),
        ],
    ),
    # A comment does not advance the column, so EOF keeps the column
    # where a trailing comment starts.
    ("a # comment", [("WORD", "a", 1, 1), ("EOF", "", 1, 3)]),
    ("a\n  # c", [("WORD", "a", 1, 1), ("EOF", "", 2, 3)]),
    # One blank-free chunk that holds several tokens.
    (
        "s->t",
        [("WORD", "s", 1, 1), ("ARROW", "->", 1, 2), ("WORD", "t", 1, 4), ("EOF", "", 1, 5)],
    ),
    ("12ab", [("INT", "12", 1, 1), ("WORD", "ab", 1, 3), ("EOF", "", 1, 5)]),
]

TOKEN_ERRORS = [
    ("\N{SUPERSCRIPT TWO}", 1, 1, "unexpected character"),
    ("x \N{ROMAN NUMERAL TWELVE}", 1, 3, "unexpected character"),
    ("\t\N{ARABIC-INDIC DIGIT THREE}", 1, 2, "unexpected character"),
    ("a\r\n - b", 2, 2, "stray '-'"),
    ("a\x0bb", 1, 2, "unexpected character"),
    ("a\n\x0c", 2, 1, "unexpected character"),
    ("a \xa0", 1, 3, "unexpected character"),
    # Characters the split path must refuse: blanks to ``str.split`` that
    # the grammar rejects, and characters that start no token.
    ("a\x1cb", 1, 2, "unexpected character"),
    ("a\x1fb", 1, 2, "unexpected character"),
    ("x>y", 1, 2, "unexpected character"),
    ("a\x7f", 1, 2, "unexpected character"),
]


class TestTokenPositions:
    @pytest.mark.parametrize(("text", "tokens"), TOKEN_POSITIONS)
    def test_kind_value_line_column(self, text, tokens):
        assert positioned(text) == tokens
        assert reference_tokenize(text) == tokens

    @pytest.mark.parametrize(("text", "line", "column", "message"), TOKEN_ERRORS)
    def test_errors_point_at_the_character(self, text, line, column, message):
        for tokenize in (_tokenize, reference_tokenize):
            with pytest.raises(DslSyntaxError) as err:
                tokenize(text)
            assert (err.value.line, err.value.column) == (line, column)
            assert message in str(err.value)

    def test_json_errors_carry_a_path_not_a_position(self):
        with pytest.raises(DslSyntaxError) as err:
            from_json(json.dumps({"format": 1, "objects": {"x": {"entries": 3}}}))
        assert (err.value.line, err.value.column) == (0, 0)
        assert str(err.value).startswith("at $.objects.x.entries: ")


_ROUNDTRIP_TEXTS = [
    p.read_text(encoding="utf-8") for p in sorted((CORPUS / "roundtrip").glob("*.occ"))
]
_JUNK = (
    " \t\r\n\x0b\x0c\xa0\u2028\N{SUPERSCRIPT TWO}\N{ROMAN NUMERAL TWELVE}"
    "\N{ARABIC-INDIC DIGIT THREE}\xe9#->*_,;:=[]{}()aIO019\x1c\x1f\x7f>!-"
)


def _assert_matches_reference(text: str) -> None:
    try:
        reference = reference_tokenize(text)
    except DslSyntaxError as exc:
        with pytest.raises(DslSyntaxError) as err:
            _tokenize(text)
        got = (str(err.value), err.value.line, err.value.column)
        assert got == (str(exc), exc.line, exc.column)
        return
    assert _tokenize(text) == [value for _, value, _, _ in reference[:-1]]
    assert positioned(text) == reference


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_ROUNDTRIP_TEXTS),
    st.lists(
        st.tuples(st.floats(0, 1), st.integers(0, 3), st.text(_JUNK, max_size=3)),
        max_size=4,
    ),
)
def test_tokens_match_the_reference_on_mutated_corpus(text, edits):
    for where, cut, insert in edits:
        i = int(where * len(text))
        text = text[:i] + insert + text[i + cut :]
    _assert_matches_reference(text)


@settings(max_examples=300, deadline=None)
@given(st.text(_JUNK, max_size=60))
@example("a # c\n\t->b")
@example("x#y")
def test_tokens_match_the_reference_on_junk(text):
    _assert_matches_reference(text)


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


def _refuses_a_true(rng: random.Random, c: Cobordism) -> bool:
    """Whether ``c`` has a genus or an index of 1.  If it has, the
    constructor of one of them, picked at random, is checked to refuse
    ``True`` in its place."""
    makers = []
    for comp in c.components:
        if comp.genus == 1:
            makers.append(lambda boundary=comp.boundary: Component(True, boundary))
        for circ in comp.boundary:
            if isinstance(circ, Closed) and circ.index == 1:
                makers.append(lambda side=circ.side: Closed(side, True))
            elif isinstance(circ, Mixed):
                makers += [
                    lambda e=e: IntervalRef(e.side, True, e.rev)
                    for e in circ.cycle
                    if isinstance(e, IntervalRef) and e.index == 1
                ]
    if not makers:
        return False
    with pytest.raises(InvalidValueError):
        rng.choice(makers)()
    return True


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

    def test_what_validate_accepts_reads_back_the_same(self, rng):
        """Every document whose cobordisms pass ``validate`` reads back from
        its JSON text as a document with the same texts.  ``True`` in place
        of a genus or an index of 1 never gets that far: its constructor
        refuses it."""
        checked = refused = 0
        for _ in range(300):
            doc = sample_document(rng)
            for d in doc.cobordisms.values():
                if rng.random() < 0.25:
                    refused += _refuses_a_true(rng, d.cobordism)
            if any(validate(d.cobordism) for d in doc.cobordisms.values()):
                continue
            text = to_json(doc)
            again = from_json(text)
            assert (to_json(again), serialize(again)) == (text, serialize(doc))
            checked += 1
        assert checked > 100 and refused > 100

    def test_malformed_json_raises_syntax(self):
        with pytest.raises(DslSyntaxError):
            from_json("{not json")

    def test_wrong_format_tag(self):
        with pytest.raises(DslSyntaxError):
            from_json(json.dumps({"format": 99}))

    def test_omitted_rev_takes_the_default(self):
        data = document_to_dict(parse(JSON_BASE))
        for entry in _node(data, _S_ENTRIES):
            entry.pop("rev", None)
        doc = from_json(data)
        assert serialize(doc) == serialize(parse(JSON_BASE))
        (circle,) = doc.cobordisms["S"].cobordism.components[0].boundary
        refs = {(e.side, e.rev) for e in circle.cycle if isinstance(e, IntervalRef)}
        assert refs == {("in", True), ("out", False)}


def reference_json(doc: Document) -> str:
    return json.dumps(document_to_dict(doc), indent=2, sort_keys=True) + "\n"


def _pipeline_document(name: str, n: int) -> Document:
    """The result document of a ``large_interfaces`` benchmark shape.

    Object ``X`` of n entries and the canonical ``compose(realize(X),
    identity(X))``, stabilized 5n/4 times for ``tower``, named ``R``.
    """
    branes = ("a", "b") if name == "tower" else (STAR,)
    if name == "circles":
        x = GeneralObject(branes, [Circle()] * n)
    elif name == "tower":
        x = GeneralObject(branes, [Circle()])
    else:
        images = list(range(1, n + 1))
        if name == "perm":
            random.Random(n).shuffle(images)
        else:
            images = images[1:] + images[:1]
        sigma = Permutation(dict(zip(range(1, n + 1), images)))
        x = GeneralObject(branes, [Interval(STAR, STAR)] * n, sigma)
    r = realize(x)
    result = compose(r, identity(x))
    for _ in range(n * 5 // 4 if name == "tower" else 0):
        result = stabilize(result)
    doc = Document(branes=frozenset(branes), objects={"C": r.target, "X": x})
    doc.cobordisms["R"] = CobordismDef("X", "C", result)
    return doc


class TestToJsonReference:
    """``to_json`` writes the text of ``json.dumps`` on the reference dict."""

    @pytest.mark.parametrize("branes", [(STAR,), ("a", "b"), ("a", "b", "c")])
    def test_sampled_documents(self, rng, branes):
        for _ in range(40):
            doc = sample_document(rng, branes=branes)
            assert to_json(doc) == reference_json(doc)

    @pytest.mark.parametrize(
        "objects",
        [{}, {"c": star_obj("O"), "i": star_obj("II", [[1, 2]])}, {"e": star_obj("")}],
        ids=["empty", "objects-only", "no-entries"],
    )
    def test_documents_without_cobordisms(self, objects):
        doc = Document(branes=STAR_SET, objects=objects)
        assert to_json(doc) == reference_json(doc)

    @pytest.mark.parametrize("shape", ["cycle", "perm", "circles", "tower"])
    def test_benchmark_shapes(self, shape):
        doc = _pipeline_document(shape, 24)
        assert to_json(doc) == reference_json(doc)
        assert serialize(from_json(to_json(doc))) == serialize(doc)


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


_S_ENTRIES = ("cobordisms", "S", "components", 0, "boundary", 0, "entries")
_S_REF, _S_ARC, _S_OUT = (_S_ENTRIES + (k,) for k in range(3))
_T_COMP = ("cobordisms", "T", "components", 0)


def _drop(path: tuple):
    def mutate(data):
        del _node(data, path[:-1])[path[-1]]

    return mutate


@pytest.mark.parametrize(
    "mutate, path, message",
    [
        (_set(_T_COMP + ("genus",), -1), "$.cobordisms.T.components[0].genus", None),
        (_set(("branes",), []), "$.branes", None),
        (
            _set(("objects", "p", "entries", 0, "left"), "z"),
            "$.objects.p.entries[0].left",
            None,
        ),
        (_set(("objects", "p", "sigma"), [[1, 1]]), "$.objects.p.sigma", None),
        (lambda d: _rename(d["objects"], "c", "object"), "$.objects.object", None),
        (lambda d: _rename(d["objects"], "c", "a b"), '$.objects["a b"]', None),
        (_set(_T_COMP + ("genus",), True), "$.cobordisms.T.components[0].genus", None),
        (
            _set(_T_COMP + ("boundary", 0, "index"), 1.0),
            "$.cobordisms.T.components[0].boundary[0].index",
            None,
        ),
        (_set(("branes",), ["a,b"]), "$.branes[0]", None),
        (_set(("branes",), "ab"), "$.branes", None),
        (
            _set(_S_REF + ("rev",), "*"),
            "$.cobordisms.S.components[0].boundary[0].entries[0].rev",
            None,
        ),
        (_set(_T_COMP + ("boundary",), []), "$.cobordisms.T", None),
        (
            _drop(_S_ARC + ("brane",)),
            "$.cobordisms.S.components[0].boundary[0].entries[1]",
            "missing field 'brane'",
        ),
        (
            _set(_S_ARC + ("brane",), "z"),
            "$.cobordisms.S.components[0].boundary[0].entries[1].brane",
            "brane 'z' is not declared",
        ),
        (
            _set(("objects", "p", "entries", 0, "right"), ["*"]),
            "$.objects.p.entries[0].right",
            "expected a string, got an array",
        ),
        (
            _set(_S_REF + ("index",), True),
            "$.cobordisms.S.components[0].boundary[0].entries[0].index",
            "expected a non-negative integer, got true",
        ),
        (
            _set(_S_OUT + ("rev",), 1),
            "$.cobordisms.S.components[0].boundary[0].entries[2].rev",
            "expected true or false, got 1",
        ),
        (
            _set(_S_ENTRIES, {}),
            "$.cobordisms.S.components[0].boundary[0].entries",
            "expected an array, got an object",
        ),
        (
            _set(_S_REF, []),
            "$.cobordisms.S.components[0].boundary[0].entries[0]",
            "expected an object, got an array",
        ),
        (
            _set(_T_COMP + ("boundary", 2, "brane"), 5),
            "$.cobordisms.T.components[0].boundary[2].brane",
            "expected a string, got 5",
        ),
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
        "arc-without-brane",
        "undeclared-arc-brane",
        "interval-right-not-a-string",
        "bool-ref-index",
        "int-out-ref-rev",
        "entries-object",
        "mixed-entry-list",
        "window-brane-int",
    ],
)
def test_from_json_faults_name_their_path(mutate, path, message):
    """Each fault names its path; the ones with a message are pinned to it."""
    data = document_to_dict(parse(JSON_BASE))
    mutate(data)
    with pytest.raises((DslSyntaxError, DslValidationError)) as err:
        from_json(data)
    assert str(err.value).startswith(f"at {path}: "), str(err.value)
    if message is not None:
        assert str(err.value) == f"at {path}: {message}"


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

    def test_rejects_over_long_integer(self):
        with pytest.raises(DslSyntaxError) as err:
            parse_cycles(f"(2 {LONG})")
        assert (err.value.line, err.value.column) == (1, 4)

    @pytest.mark.parametrize("text", [5, None, b"(1 2)"], ids=repr)
    def test_rejects_a_value_that_is_not_a_str(self, text):
        message = f"^expected a str, got {type(text).__name__}$"
        with pytest.raises(InvalidValueError, match=message):
            parse_cycles(text)


class TestCorpus:
    def test_roundtrip_files_are_canonical(self):
        files = sorted((CORPUS / "roundtrip").glob("*.occ"))
        assert len(files) == 50
        for path in files:
            text = path.read_text(encoding="utf-8")
            assert serialize(parse(text)) == text, path.name

    def test_roundtrip_files_never_reach_the_regex_tokenizer(self, monkeypatch):
        """Every corpus text takes the split path of ``_tokenize``."""

        class _NoFindall:
            def findall(self, text):
                raise AssertionError("the findall path was taken")

        monkeypatch.setattr(dsl, "_TOKEN", _NoFindall())
        for text in _ROUNDTRIP_TEXTS:
            assert serialize(parse(text)) == text

    def test_every_prefix_parses_or_raises_a_dsl_error(self):
        """Lookahead in the parser never reads past the end of input, and
        each prefix reads as the item-by-item reference parser reads it.

        A prefix that ends in whitespace has the tokens of the prefix
        before that whitespace, so the parsers meet the same tokens; only
        the parser under test reads it.
        """
        for text in _ROUNDTRIP_TEXTS:
            for k in range(len(text) + 1):
                got = outcome(parse, text[:k])
                assert type(got) is str or issubclass(got[0], DslError), got
                if k == len(text) or not text[k - 1].isspace():
                    assert got == outcome(reference_parse, text[:k]), text[:k]

    def test_malformed_files_fail_with_position(self):
        files = sorted((CORPUS / "malformed").glob("*.occ"))
        assert len(files) >= 20
        for path in files:
            with pytest.raises(DslSyntaxError) as err:
                parse(path.read_text(encoding="utf-8"))
            assert err.value.line, path.name

    def test_the_generator_reproduces_the_checked_in_corpus(self):
        """``scripts/gen_corpus.py`` writes these files byte for byte."""
        script = REPO / "scripts" / "gen_corpus.py"
        spec = importlib.util.spec_from_file_location("gen_corpus", script)
        gen_corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen_corpus)
        generated = {
            path: text.encode("utf-8")
            for path, text in gen_corpus.corpus_files().items()
        }
        checked_in = {
            path.relative_to(CORPUS).as_posix(): path.read_bytes()
            for kind in ("roundtrip", "malformed")
            for path in (CORPUS / kind).iterdir()
        }
        assert generated == checked_in


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


class Name(str):
    pass


# Letters, "_", ASCII and other decimal digits, digits and numerals that are
# word characters but not decimal digits, symbols, "#" and whitespace.
_ALPHABET = "aZ_09é²١ⅷ𝟘*->#·( \t\n\u00a0"


@pytest.mark.parametrize("brane", [False, True])
def test_is_name_agrees_with_the_parser(brane):
    """``is_name`` against the reference's, which runs the parser, on every
    string of up to three characters of ``_ALPHABET`` and on keywords."""
    texts = [
        "".join(chars)
        for k in range(4)
        for chars in itertools.product(_ALPHABET, repeat=k)
    ]
    texts += sorted(_KEYWORDS) + [Name("ab"), Name("in"), Name("*"), 5, None, b"ab"]
    for text in texts:
        assert is_name(text, brane) == _is_name(text, brane), repr(text)


_ONE_A = GeneralObject({"a"}, [Circle()])
_TWO_A = GeneralObject({"a"}, [Circle(), Circle()])


def _between(source: str, target: str, objects: dict) -> Document:
    cob = identity(_ONE_A)
    return Document(frozenset({"a"}), objects, {"c": CobordismDef(source, target, cob)})


# Documents that both readers refuse, or read as another document, each with
# the message the writers raise in its place.
UNWRITABLE = {
    "no branes": (
        lambda: Document(branes=frozenset()),
        "a document declares at least one brane label",
    ),
    "a repeated brane": (
        lambda: Document(branes=["a", "a"]),
        "brane 'a' is declared twice",
    ),
    "an object over undeclared branes": (
        lambda: Document(frozenset({"a"}), {"o": GeneralObject({"a", "b"}, [])}),
        "object 'o' is over other branes than the document declares",
    ),
    "an unknown endpoint": (
        lambda: _between("x", "y", {"x": _ONE_A}),
        "cobordism 'c': unknown object 'y'",
    ),
    "an endpoint that is not the cobordism's": (
        lambda: _between("x", "y", {"x": _ONE_A, "y": _TWO_A}),
        "cobordism 'c': object 'y' is not its target",
    ),
}


@pytest.mark.parametrize("writer", [serialize, to_json])
@pytest.mark.parametrize("form", list(UNWRITABLE))
def test_writers_refuse_what_the_readers_would_not_read_back(writer, form):
    make, message = UNWRITABLE[form]
    with pytest.raises(InvalidValueError, match=f"^{re.escape(message)}$"):
        writer(make())


@pytest.mark.parametrize("writer", [serialize, to_json])
def test_writers_check_names_before_the_document(writer):
    """An unhashable label is named by its type, never hashed to find a
    repeat."""
    with pytest.raises(InvalidValueError, match="^expected a string, got list$"):
        writer(Document(branes=[["a"], ["a"]]))
