"""Text format for objects and cobordisms, plus a JSON mirror.

Grammar (whitespace-insensitive, ``#`` comments to end of line, all
indices 1-based)::

    doc      := branes? (objectdef | cobdef)*
    branes   := "branes" IDENT ("," IDENT)* ";"
    objectdef:= "object" IDENT "=" "[" (entry ("," entry)*)? "]"
                ("sigma" cycles)? ";"
    entry    := "O" | "I(" IDENT "," IDENT ")"
    cycles   := "id" | ("(" INT+ ")")+
    cobdef   := "cobordism" IDENT ":" IDENT "->" IDENT "{" comp* "}"
    comp     := "component" "{" "genus" INT ";" bline* "}"
    bline    := ("in" INT | "out" INT | "window" IDENT
                | "mixed" "[" mentry ("," mentry)* "]") ";"
    mentry   := ("in"|"out") INT ("rev")? | "arc" IDENT

An omitted ``sigma`` clause means the identity.  Without a ``branes``
declaration the document is in single-brane mode: the brane set is
``{"*"}`` and ``arc`` and ``window`` may appear bare.  A ``rev`` flag
toggles an interval reference away from its side's default traversal
direction (incoming references are reversed by default, outgoing are
not).

Both front ends hand their values to one document builder, so they
fail the same way.  Failures raise ``DslSyntaxError`` (tokens, grammar,
JSON field types, unresolved or duplicate names, undeclared branes) or
``DslValidationError`` (parsed but structurally invalid).  Text errors
carry a 1-based line and column; JSON errors name the offending field by
a message prefix such as ``at $.cobordisms.T.components[0].genus: ``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from occob.classify import canonicalize
from occob.errors import DslError, DslSyntaxError, DslValidationError
from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation
from occob.surfaces import (
    IN,
    OUT,
    Arc,
    Cobordism,
    Component,
    InClosed,
    IntervalRef,
    Mixed,
    OutClosed,
    Window,
    default_rev,
    validate,
)

__all__ = [
    "Document",
    "CobordismDef",
    "parse",
    "serialize",
    "parse_cycles",
    "to_json",
    "from_json",
]


@dataclass(frozen=True, slots=True)
class CobordismDef:
    """A named cobordism with the object names it was declared between."""

    source_name: str
    target_name: str
    cobordism: Cobordism


@dataclass(slots=True)
class Document:
    branes: frozenset[str]
    objects: dict[str, GeneralObject] = field(default_factory=dict)
    cobordisms: dict[str, CobordismDef] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# tokens

_PUNCT = {",", ";", ":", "=", "[", "]", "{", "}", "(", ")"}
_KEYWORDS = {
    "branes",
    "object",
    "cobordism",
    "component",
    "genus",
    "sigma",
    "mixed",
    "window",
    "arc",
    "rev",
    "id",
    "in",
    "out",
}


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str  # WORD INT STAR ARROW punct EOF
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
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
                toks.append(_Tok("ARROW", "->", line, col))
                i += 2
                col += 2
            else:
                raise DslSyntaxError("stray '-' (expected '->')", line, col)
        elif ch in _PUNCT:
            toks.append(_Tok(ch, ch, line, col))
            i += 1
            col += 1
        elif ch == "*":
            toks.append(_Tok("STAR", STAR, line, col))
            i += 1
            col += 1
        elif "0" <= ch <= "9":  # not isdigit(), which accepts digits int() rejects
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(_Tok("INT", text[i:j], line, col))
            col += j - i
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("WORD", text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# document builder
#
# The only code that turns front-end values into a Document.  Each check
# takes the location ``where`` of the value: a token for text, or for JSON
# the tuple of keys and indices leading to it, which is formatted into a
# path only when an error is raised.


def _fail(where, message: str, cls: type[DslError] = DslSyntaxError, **kwargs):
    if isinstance(where, _Tok):
        raise cls(message, where.line, where.col, **kwargs)
    path = "".join(
        f".{k}"
        if isinstance(k, str) and k.isidentifier()
        else f"[{json.dumps(k, default=repr)}]"
        for k in where
    )
    raise cls(f"at ${path}: {message}", **kwargs)


class _Builder:
    """Checks front-end values while assembling them into ``doc``."""

    def __init__(self, branes: list[str], where):
        if not branes:
            _fail(where, "the brane list is empty")
        dup = sorted(b for b, n in Counter(branes).items() if n > 1)
        if dup:
            _fail(where, f"brane {dup[0]!r} declared twice")
        self.doc = Document(branes=frozenset(branes))

    def brane(self, label: str, where) -> str:
        if label not in self.doc.branes:
            _fail(where, f"brane {label!r} is not declared")
        return label

    def new_name(self, what: str, name: str, where) -> None:
        """Reject a second ``what`` ("object" or "cobordism") called ``name``."""
        if name in (self.doc.objects if what == "object" else self.doc.cobordisms):
            _fail(where, f"{what} {name!r} already defined")

    def object_ref(self, name: str, where) -> str:
        if name not in self.doc.objects:
            _fail(where, f"unknown object {name!r}")
        return name

    def add_object(self, name: str, entries: list, cycles, where) -> None:
        """Define ``name``; ``cycles`` None means the identity sigma."""
        sigma = None
        if cycles is not None:
            positions = tuple(
                i for i, e in enumerate(entries, start=1) if isinstance(e, Interval)
            )
            try:
                sigma = Permutation.from_cycles(cycles, positions)
            except ValueError as exc:
                _fail(where, f"object {name!r}: {exc}", DslValidationError)
        self.doc.objects[name] = GeneralObject(self.doc.branes, entries, sigma)

    def add_cobordism(
        self, name: str, where, source: str, target: str, components: list
    ) -> None:
        """Define ``name`` between the already resolved objects, if valid."""
        objects = self.doc.objects
        cob = Cobordism(objects[source], objects[target], components)
        violations = validate(cob)
        if violations:
            listing = "; ".join(str(v) for v in violations[:4])
            more = "" if len(violations) <= 4 else f" (+{len(violations) - 4} more)"
            message = f"cobordism {name!r} is invalid: {listing}{more}"
            _fail(where, message, DslValidationError, violations=violations)
        self.doc.cobordisms[name] = CobordismDef(source, target, cob)


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def advance(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def fail(self, message: str, tok: _Tok | None = None):
        t = tok or self.peek()
        raise DslSyntaxError(message, t.line, t.col)

    def expect(self, kind: str, what: str | None = None) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            shown = what or repr(kind)
            got = t.value or "end of input"
            self.fail(f"expected {shown}, got {got!r}", t)
        return self.advance()

    def expect_word(self, word: str) -> _Tok:
        t = self.peek()
        if t.kind != "WORD" or t.value != word:
            self.fail(f"expected {word!r}, got {t.value or 'end of input'!r}", t)
        return self.advance()

    def expect_int(self) -> int:
        return int(self.expect("INT", "an integer").value)

    # names ----------------------------------------------------------------

    def name(self, what: str) -> _Tok:
        t = self.peek()
        if t.kind != "WORD":
            self.fail(f"expected {what}, got {t.value or 'end of input'!r}", t)
        if t.value in _KEYWORDS:
            self.fail(f"keyword {t.value!r} cannot be used as {what}", t)
        return self.advance()

    def brane_name(self) -> _Tok:
        t = self.peek()
        if t.kind == "STAR":
            return self.advance()
        return self.name("a brane label")

    # document -------------------------------------------------------------

    def document(self) -> Document:
        self.build = self.branes_decl()
        while True:
            t = self.peek()
            if t.kind == "EOF":
                break
            if t.kind == "WORD" and t.value == "object":
                self.objectdef()
            elif t.kind == "WORD" and t.value == "cobordism":
                self.cobdef()
            elif t.kind == "WORD" and t.value == "branes":
                self.fail("a branes declaration must come first", t)
            else:
                self.fail(
                    f"expected 'object' or 'cobordism', got {t.value or 'end of input'!r}",
                    t,
                )
        return self.build.doc

    def branes_decl(self) -> _Builder:
        t = self.peek()
        self.single_brane = not (t.kind == "WORD" and t.value == "branes")
        if self.single_brane:
            return _Builder([STAR], t)
        self.advance()
        labels = [self.brane_name().value]
        while self.peek().kind == ",":
            self.advance()
            labels.append(self.brane_name().value)
        self.expect(";")
        return _Builder(labels, t)

    def check_brane(self, tok: _Tok) -> str:
        return self.build.brane(tok.value, tok)

    # objects --------------------------------------------------------------

    def objectdef(self) -> None:
        self.expect_word("object")
        name_tok = self.name("an object name")
        self.build.new_name("object", name_tok.value, name_tok)
        self.expect("=")
        self.expect("[")
        entries = []
        if self.peek().kind != "]":
            entries.append(self.entry())
            while self.peek().kind == ",":
                self.advance()
                entries.append(self.entry())
        self.expect("]")
        cycles = None
        sigma_tok = self.peek()
        if sigma_tok.kind == "WORD" and sigma_tok.value == "sigma":
            self.advance()
            cycles = self.cycles()
        self.expect(";")
        self.build.add_object(name_tok.value, entries, cycles, sigma_tok)

    def entry(self):
        t = self.peek()
        if t.kind == "WORD" and t.value == "O":
            self.advance()
            return Circle()
        if t.kind == "WORD" and t.value == "I":
            self.advance()
            self.expect("(")
            left = self.check_brane(self.brane_name())
            self.expect(",")
            right = self.check_brane(self.brane_name())
            self.expect(")")
            return Interval(left, right)
        self.fail(f"expected 'O' or 'I(..)', got {t.value or 'end of input'!r}", t)

    def cycles(self) -> list[tuple[int, ...]]:
        t = self.peek()
        if t.kind == "WORD" and t.value == "id":
            self.advance()
            return []
        if t.kind != "(":
            self.fail(
                f"expected 'id' or a cycle '(..)', got {t.value or 'end of input'!r}",
                t,
            )
        out = []
        while self.peek().kind == "(":
            self.advance()
            cyc = [self.expect_int()]
            while self.peek().kind == "INT":
                cyc.append(self.expect_int())
            self.expect(")")
            out.append(tuple(cyc))
        return out

    # cobordisms -----------------------------------------------------------

    def resolve_object(self, tok: _Tok) -> str:
        return self.build.object_ref(tok.value, tok)

    def cobdef(self) -> None:
        self.expect_word("cobordism")
        name_tok = self.name("a cobordism name")
        self.build.new_name("cobordism", name_tok.value, name_tok)
        self.expect(":")
        src_tok = self.name("a source object name")
        self.expect("ARROW", "'->'")
        tgt_tok = self.name("a target object name")
        source = self.resolve_object(src_tok)
        target = self.resolve_object(tgt_tok)
        self.expect("{")
        comps = []
        while self.peek().kind == "WORD" and self.peek().value == "component":
            comps.append(self.component())
        self.expect("}")
        self.build.add_cobordism(name_tok.value, name_tok, source, target, comps)

    def component(self) -> Component:
        self.expect_word("component")
        self.expect("{")
        self.expect_word("genus")
        genus = self.expect_int()
        self.expect(";")
        boundary = []
        while not (self.peek().kind == "}"):
            boundary.append(self.bline())
        self.expect("}")
        return Component(genus, boundary)

    def bline(self):
        t = self.peek()
        if t.kind != "WORD":
            self.fail(
                f"expected a boundary line, got {t.value or 'end of input'!r}", t
            )
        if t.value == "in" or t.value == "out":
            self.advance()
            index = self.expect_int()
            self.expect(";")
            return InClosed(index) if t.value == "in" else OutClosed(index)
        if t.value == "window":
            self.advance()
            brane = self.optional_brane(context="window")
            self.expect(";")
            return Window(brane)
        if t.value == "mixed":
            self.advance()
            self.expect("[")
            entries = [self.mentry()]
            while self.peek().kind == ",":
                self.advance()
                entries.append(self.mentry())
            self.expect("]")
            self.expect(";")
            return Mixed(entries)
        self.fail(
            f"expected 'in', 'out', 'window', or 'mixed', got {t.value!r}", t
        )

    def optional_brane(self, context: str) -> str:
        t = self.peek()
        if t.kind in (";", ",", "]"):
            if self.single_brane:
                return STAR
            self.fail(f"{context} needs a brane label", t)
        return self.check_brane(self.brane_name())

    def mentry(self):
        t = self.peek()
        if t.kind == "WORD" and t.value in (IN, OUT):
            self.advance()
            index = self.expect_int()
            rev = default_rev(t.value)
            nxt = self.peek()
            if nxt.kind == "WORD" and nxt.value == "rev":
                self.advance()
                rev = not rev
            return IntervalRef(t.value, index, rev)
        if t.kind == "WORD" and t.value == "arc":
            self.advance()
            return Arc(self.optional_brane(context="arc"))
        self.fail(
            f"expected 'in', 'out', or 'arc', got {t.value or 'end of input'!r}", t
        )


def parse(text: str) -> Document:
    """Parse a document; every cobordism in the result passes validation."""
    return _Parser(text).document()


def parse_cycles(text: str) -> list[tuple[int, ...]]:
    """Parse standalone cycle notation, e.g. ``(2 3)(4)`` or ``id``."""
    p = _Parser(text)
    out = p.cycles()
    t = p.peek()
    if t.kind != "EOF":
        p.fail(f"unexpected trailing input {t.value!r}", t)
    return out


# ---------------------------------------------------------------------------
# serializer


def _fmt_brane(brane: str, single: bool, prefix: str = " ") -> str:
    return "" if single and brane == STAR else f"{prefix}{brane}"


def _fmt_entry(e) -> str:
    return "O" if isinstance(e, Circle) else f"I({e.left},{e.right})"


def _fmt_sigma(sigma: Permutation) -> str:
    if sigma.is_identity:
        return ""
    return " sigma " + "".join(
        "(" + " ".join(str(x) for x in cyc) + ")" for cyc in sigma.cycles()
    )


def _fmt_mixed_entry(e, single: bool) -> str:
    if isinstance(e, Arc):
        return "arc" + _fmt_brane(e.brane, single)
    rev = "" if e.rev == default_rev(e.side) else " rev"
    return f"{e.side} {e.index}{rev}"


def _fmt_bline(circ, single: bool) -> str:
    if isinstance(circ, InClosed):
        return f"in {circ.index};"
    if isinstance(circ, OutClosed):
        return f"out {circ.index};"
    if isinstance(circ, Window):
        return f"window{_fmt_brane(circ.brane, single)};"
    inner = ", ".join(_fmt_mixed_entry(e, single) for e in circ.cycle)
    return f"mixed [{inner}];"


def serialize(doc: Document) -> str:
    """Deterministic canonical text: sorted names, canonical cobordisms.

    Serializing, parsing, and serializing again is byte-stable.
    """
    single = doc.branes == frozenset({STAR})
    blocks: list[str] = []
    if not single:
        blocks.append("branes " + ", ".join(sorted(doc.branes)) + ";")
    for name in sorted(doc.objects):
        obj = doc.objects[name]
        entries = ", ".join(_fmt_entry(e) for e in obj.entries)
        blocks.append(f"object {name} = [{entries}]{_fmt_sigma(obj.sigma)};")
    for name in sorted(doc.cobordisms):
        d = doc.cobordisms[name]
        canonical = canonicalize(d.cobordism).cobordism
        lines = [f"cobordism {name} : {d.source_name} -> {d.target_name} {{"]
        for comp in canonical.components:
            lines.append("  component {")
            lines.append(f"    genus {comp.genus};")
            for circ in comp.boundary:
                lines.append("    " + _fmt_bline(circ, single))
            lines.append("  }")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


# ---------------------------------------------------------------------------
# JSON mirror


def _entry_to_json(e) -> dict:
    if isinstance(e, Circle):
        return {"type": "circle"}
    return {"type": "interval", "left": e.left, "right": e.right}


def _mixed_entry_to_json(e) -> dict:
    if isinstance(e, Arc):
        return {"type": "arc", "brane": e.brane}
    return {"type": e.side, "index": e.index, "rev": e.rev}


def _circle_to_json(circ) -> dict:
    if isinstance(circ, InClosed):
        return {"type": "in", "index": circ.index}
    if isinstance(circ, OutClosed):
        return {"type": "out", "index": circ.index}
    if isinstance(circ, Window):
        return {"type": "window", "brane": circ.brane}
    return {
        "type": "mixed",
        "entries": [_mixed_entry_to_json(e) for e in circ.cycle],
    }


def document_to_dict(doc: Document) -> dict:
    return {
        "format": 1,
        "branes": sorted(doc.branes),
        "objects": {
            name: {
                "entries": [_entry_to_json(e) for e in obj.entries],
                "sigma": [list(c) for c in obj.sigma.cycles()],
            }
            for name, obj in doc.objects.items()
        },
        "cobordisms": {
            name: {
                "source": d.source_name,
                "target": d.target_name,
                "components": [
                    {
                        "genus": comp.genus,
                        "boundary": [
                            _circle_to_json(circ) for circ in comp.boundary
                        ],
                    }
                    for comp in canonicalize(d.cobordism).cobordism.components
                ],
            }
            for name, d in doc.cobordisms.items()
        },
    }


def to_json(doc: Document) -> str:
    """Stable JSON encoding mirroring the text format."""
    return json.dumps(document_to_dict(doc), indent=2, sort_keys=True) + "\n"


_JSON_KINDS = {
    int: "a non-negative integer",
    bool: "true or false",
    str: "a string",
    list: "an array",
    dict: "an object",
}
_REQUIRED = object()


def _shown(value) -> str:
    if type(value) in (dict, list):
        return _JSON_KINDS[type(value)]
    return json.dumps(value, default=repr)


def _field(data, key, kind: type, where: tuple, default=_REQUIRED):
    """``data[key]``, checked to be of JSON type ``kind``; ``data`` is at ``where``.

    Integers must be non-negative and not bool.  A missing key gives
    ``default`` or, when there is none, an error.
    """
    try:
        value = data[key]
    except KeyError:
        if default is _REQUIRED:
            _fail(where, f"missing field {key!r}")
        return default
    if kind is int:
        ok = type(value) is int and value >= 0
    else:
        ok = isinstance(value, kind)
    if not ok:
        _fail(where + (key,), f"expected {_JSON_KINDS[kind]}, got {_shown(value)}")
    return value


def _items(data, key, kind: type, where: tuple, default=()) -> list:
    """``(where, item)`` for each item of the array ``data[key]``."""
    items = _field(data, key, list, where, default)
    where += (key,)
    return [(where + (i,), _field(items, i, kind, where)) for i in range(len(items))]


def _json_name(value, where: tuple, what: str, brane: bool = False) -> str:
    """``value`` if the text grammar reads it as one name token.

    That is a WORD that is not a keyword, or ``*`` for a brane label, so
    the text written by ``serialize`` parses back to the same name.
    """
    if isinstance(value, str):
        try:
            p = _Parser(value)
            tok = p.brane_name() if brane else p.name(what)
        except DslSyntaxError:
            pass
        else:
            if tok.value == value:
                return value
    _fail(where, f"{_shown(value)} cannot be used as {what}")


def _json_brane(build: _Builder, data, where: tuple, key: str = "brane") -> str:
    return build.brane(_field(data, key, str, where), where + (key,))


def _entry_from_json(build: _Builder, where: tuple, data: dict):
    kind = _field(data, "type", str, where)
    if kind == "circle":
        return Circle()
    if kind == "interval":
        return Interval(
            _json_brane(build, data, where, "left"),
            _json_brane(build, data, where, "right"),
        )
    _fail(where + ("type",), f"unknown entry type {kind!r}")


def _mixed_entry_from_json(build: _Builder, where: tuple, data: dict):
    kind = _field(data, "type", str, where)
    if kind == "arc":
        return Arc(_json_brane(build, data, where))
    if kind in (IN, OUT):
        rev = _field(data, "rev", bool, where, default_rev(kind))
        return IntervalRef(kind, _field(data, "index", int, where), rev)
    _fail(where + ("type",), f"unknown mixed entry type {kind!r}")


def _circle_from_json(build: _Builder, where: tuple, data: dict):
    kind = _field(data, "type", str, where)
    if kind == "in":
        return InClosed(_field(data, "index", int, where))
    if kind == "out":
        return OutClosed(_field(data, "index", int, where))
    if kind == "window":
        return Window(_json_brane(build, data, where))
    if kind == "mixed":
        return Mixed(
            _mixed_entry_from_json(build, w, e)
            for w, e in _items(data, "entries", dict, where, _REQUIRED)
        )
    _fail(where + ("type",), f"unknown boundary circle type {kind!r}")


def from_json(source: str | dict) -> Document:
    """Inverse of ``to_json``; applies the same checks as ``parse``.

    Errors name the offending field by its JSON path, for example
    ``at $.objects.a.entries[0].left: brane 'z' is not declared``.
    """
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise DslSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
        except (ValueError, RecursionError) as exc:  # too many digits, too deep
            raise DslSyntaxError(f"unreadable JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        _fail((), f"expected an object, got {_shown(data)}")
    fmt = _field(data, "format", int, ())
    if fmt != 1:
        _fail(("format",), f"unsupported format {fmt}")
    labels = _items(data, "branes", str, (), [STAR])
    branes = [_json_name(b, w, "a brane label", brane=True) for w, b in labels]
    build = _Builder(branes, ("branes",))
    objects = _field(data, "objects", dict, (), {})
    for name in objects:
        where = ("objects", name)
        name = _json_name(name, where, "an object name")
        spec = _field(objects, name, dict, ("objects",))
        entries = [
            _entry_from_json(build, w, e)
            for w, e in _items(spec, "entries", dict, where)
        ]
        cycles = [
            tuple(_field(cycle, i, int, w) for i in range(len(cycle)))
            for w, cycle in _items(spec, "sigma", list, where)
        ]
        build.add_object(name, entries, cycles, where + ("sigma",))
    cobordisms = _field(data, "cobordisms", dict, (), {})
    for name in cobordisms:
        where = ("cobordisms", name)
        name = _json_name(name, where, "a cobordism name")
        spec = _field(cobordisms, name, dict, ("cobordisms",))
        source, target = (
            build.object_ref(_field(spec, key, str, where), where + (key,))
            for key in ("source", "target")
        )
        components = [
            Component(
                _field(comp, "genus", int, w),
                [
                    _circle_from_json(build, cw, circ)
                    for cw, circ in _items(comp, "boundary", dict, w)
                ],
            )
            for w, comp in _items(spec, "components", dict, where)
        ]
        build.add_cobordism(name, where, source, target, components)
    return build.doc
