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
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

from occob.classify import canonicalize
from occob.errors import DslError, DslSyntaxError, DslValidationError, InvalidValueError
from occob.errors import wrong_type
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
    "is_name",
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
#
# A token is the string it matched.  Its kind is read off the string, and
# its line and column are worked out from the text only when an error is
# raised.

_SYMBOLS = {",", ";", ":", "=", "[", "]", "{", "}", "(", ")", STAR, "->"}
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
# Whitespace is exactly space, tab, CR and LF; every other character is
# part of some lexeme, so that a bad one can be reported.  ``\w`` is the
# word rule (``isalnum()`` or ``_``), but it also matches digits such as
# ``²`` that may not start a word, so ``_tokenize`` checks each first
# character.
_LEXEME = r"->|[0-9]+|\w+|[^ \t\r\n]"
_COMMENT = re.compile(r"#[^\n]*")
_TOKEN = re.compile(_LEXEME)
# ``int()`` reads a literal this short whatever the interpreter's digit limit.
_SHORT_INT = sys.int_info.str_digits_check_threshold
_LOCATE = re.compile(rf"#[^\n]*|{_LEXEME}")


def _is_int(t: str) -> bool:
    return "0" <= t[:1] <= "9"  # not isdigit(), which accepts digits int() rejects


def _is_word(t: str) -> bool:
    return t[:1].isalpha() or t[:1] == "_"


def _tokenize(text: str) -> list[str]:
    toks = _TOKEN.findall(_COMMENT.sub("", text))
    bad = {t for t in set(toks) if not (t in _SYMBOLS or _is_int(t) or _is_word(t))}
    if bad:
        k = next(k for k, t in enumerate(toks) if t in bad)
        t = toks[k]
        message = (
            "stray '-' (expected '->')"
            if t == "-"
            else f"unexpected character {t[0]!r}"
        )
        raise DslSyntaxError(message, *_locate(text, k))
    return toks


def _locate(text: str, k: int) -> tuple[int, int]:
    """1-based line and column of token ``k`` of ``text``, or of its end."""
    starts = (m.start() for m in _LOCATE.finditer(text) if m[0][0] != "#")
    pos = next(islice(starts, k, None), None)
    if pos is None:  # the end, where a trailing comment does not count
        pos = text.find("#", text.rfind("\n") + 1)
        if pos < 0:
            pos = len(text)
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


# ---------------------------------------------------------------------------
# document builder
#
# The only code that turns front-end values into a Document.  Each check
# takes the location ``where`` of the value: for text the index of its
# token, or for JSON the tuple of keys and indices leading to it.  Either
# becomes a line and column or a path only when an error is raised.


def _fail(where: tuple, message: str, cls: type[DslError] = DslSyntaxError, **kwargs):
    path = "".join(
        f".{k}"
        if isinstance(k, str) and k.isidentifier()
        else f"[{json.dumps(k, default=repr)}]"
        for k in where
    )
    raise cls(f"at ${path}: {message}", **kwargs)


class _Builder:
    """Checks front-end values while assembling them into ``doc``.

    ``text`` is the document text that token indices refer to.
    """

    def __init__(self, branes: list[str], where, text: str = ""):
        self.text = text
        if not branes:
            self.fail(where, "the brane list is empty")
        dup = sorted(b for b, n in Counter(branes).items() if n > 1)
        if dup:
            self.fail(where, f"brane {dup[0]!r} declared twice")
        self.doc = Document(branes=frozenset(branes))

    def fail(self, where, message: str, cls=DslSyntaxError, **kwargs):
        if isinstance(where, int):
            raise cls(message, *_locate(self.text, where), **kwargs)
        _fail(where, message, cls, **kwargs)

    def brane(self, label: str, where) -> str:
        if label not in self.doc.branes:
            self.fail(where, f"brane {label!r} is not declared")
        return label

    def new_name(self, what: str, name: str, where) -> None:
        """Reject a second ``what`` ("object" or "cobordism") called ``name``."""
        if name in (self.doc.objects if what == "object" else self.doc.cobordisms):
            self.fail(where, f"{what} {name!r} already defined")

    def object_ref(self, name: str, where) -> str:
        if name not in self.doc.objects:
            self.fail(where, f"unknown object {name!r}")
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
            except InvalidValueError as exc:
                self.fail(where, f"object {name!r}: {exc}", DslValidationError)
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
            self.fail(where, message, DslValidationError, violations=violations)
        self.doc.cobordisms[name] = CobordismDef(source, target, cob)


# ---------------------------------------------------------------------------
# parser
#
# Tokens are strings, and the empty string is the end of input.  Errors
# point at the current token unless they come from the builder, which is
# handed the index of the token that a value was read from.


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.toks.append("")
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos]

    def advance(self) -> str:
        t = self.toks[self.pos]
        if t:
            self.pos += 1
        return t

    def fail(self, message: str):
        raise DslSyntaxError(message, *_locate(self.text, self.pos))

    def expect(self, value: str) -> None:
        t = self.peek()
        if t != value:
            self.fail(f"expected {value!r}, got {t or 'end of input'!r}")
        self.pos += 1

    def expect_int(self) -> int:
        t = self.peek()
        if not _is_int(t):
            self.fail(f"expected an integer, got {t or 'end of input'!r}")
        try:
            value = int(t)
        except ValueError:  # longer than the interpreter's digit limit
            self.fail(f"integer literal of {len(t)} digits is too long")
        self.pos += 1
        return value

    # names ----------------------------------------------------------------

    def name(self, what: str) -> str:
        t = self.peek()
        if not _is_word(t):
            self.fail(f"expected {what}, got {t or 'end of input'!r}")
        if t in _KEYWORDS:
            self.fail(f"keyword {t!r} cannot be used as {what}")
        return self.advance()

    def brane_name(self) -> str:
        if self.peek() == STAR:
            return self.advance()
        return self.name("a brane label")

    # document -------------------------------------------------------------

    def document(self) -> Document:
        self.build = self.branes_decl()
        while t := self.peek():
            if t == "object":
                self.objectdef()
            elif t == "cobordism":
                self.cobdef()
            elif t == "branes":
                self.fail("a branes declaration must come first")
            else:
                self.fail(f"expected 'object' or 'cobordism', got {t!r}")
        return self.build.doc

    def branes_decl(self) -> _Builder:
        at = self.pos
        self.single_brane = self.peek() != "branes"
        if self.single_brane:
            return _Builder([STAR], at, self.text)
        self.advance()
        labels = [self.brane_name()]
        while self.peek() == ",":
            self.advance()
            labels.append(self.brane_name())
        self.expect(";")
        return _Builder(labels, at, self.text)

    def brane(self) -> str:
        at = self.pos
        return self.build.brane(self.brane_name(), at)

    # objects --------------------------------------------------------------

    def objectdef(self) -> None:
        self.expect("object")
        at = self.pos
        name = self.name("an object name")
        self.build.new_name("object", name, at)
        self.expect("=")
        self.expect("[")
        entries = self.entries() if self.peek() != "]" else []
        self.expect("]")
        cycles = None
        sigma_at = self.pos
        if self.peek() == "sigma":
            self.advance()
            cycles = self.cycles()
        self.expect(";")
        self.build.add_object(name, entries, cycles, sigma_at)

    # The list productions read an item of the plain form straight from
    # ``self.toks`` and hand any other to the method for one item, at its
    # index.  Each lookahead past a token is taken only once that token is
    # known not to be the end of input.

    def entries(self) -> list:
        """``entry ("," entry)*``."""
        toks, branes = self.toks, self.build.doc.branes
        out = []
        k = self.pos
        while True:
            t = toks[k]
            if t == "O":
                out.append(Circle())
                k += 1
            elif (
                t == "I"
                and toks[k + 1] == "("
                and toks[k + 2] in branes
                and toks[k + 3] == ","
                and toks[k + 4] in branes
                and toks[k + 5] == ")"
            ):
                out.append(Interval(toks[k + 2], toks[k + 4]))
                k += 6
            else:
                self.pos = k
                out.append(self.entry())
                k = self.pos
            if toks[k] != ",":
                self.pos = k
                return out
            k += 1

    def entry(self):
        t = self.peek()
        if t == "O":
            self.advance()
            return Circle()
        if t == "I":
            self.advance()
            self.expect("(")
            left = self.brane()
            self.expect(",")
            right = self.brane()
            self.expect(")")
            return Interval(left, right)
        self.fail(f"expected 'O' or 'I(..)', got {t or 'end of input'!r}")

    def cycles(self) -> list[tuple[int, ...]]:
        t = self.peek()
        if t == "id":
            self.advance()
            return []
        if t != "(":
            self.fail(f"expected 'id' or a cycle '(..)', got {t or 'end of input'!r}")
        toks = self.toks
        out = []
        k = self.pos
        while toks[k] == "(":
            start = k = k + 1
            while "0" <= toks[k][:1] <= "9" and len(toks[k]) <= _SHORT_INT:
                k += 1
            if start < k and toks[k] == ")":
                out.append(tuple(map(int, toks[start:k])))
                k += 1
            else:
                self.pos = start - 1
                out.append(self.cycle())
                k = self.pos
        self.pos = k
        return out

    def cycle(self) -> tuple[int, ...]:
        self.expect("(")
        cyc = [self.expect_int()]
        while _is_int(self.peek()):
            cyc.append(self.expect_int())
        self.expect(")")
        return tuple(cyc)

    # cobordisms -----------------------------------------------------------

    def cobdef(self) -> None:
        self.expect("cobordism")
        at = self.pos
        name = self.name("a cobordism name")
        self.build.new_name("cobordism", name, at)
        self.expect(":")
        src_at = self.pos
        source = self.name("a source object name")
        self.expect("->")
        tgt_at = self.pos
        target = self.name("a target object name")
        source = self.build.object_ref(source, src_at)
        target = self.build.object_ref(target, tgt_at)
        self.expect("{")
        comps = []
        while self.peek() == "component":
            comps.append(self.component())
        self.expect("}")
        self.build.add_cobordism(name, at, source, target, comps)

    def component(self) -> Component:
        self.expect("component")
        self.expect("{")
        self.expect("genus")
        genus = self.expect_int()
        self.expect(";")
        toks, branes = self.toks, self.build.doc.branes
        boundary = []
        k = self.pos
        while (t := toks[k]) != "}":
            if t == "in" or t == "out":
                n = toks[k + 1]
                if "0" <= n[:1] <= "9" and len(n) <= _SHORT_INT and toks[k + 2] == ";":
                    index = int(n)
                    boundary.append(InClosed(index) if t == "in" else OutClosed(index))
                    k += 3
                    continue
            elif t == "window":
                b = toks[k + 1]
                if b in branes and toks[k + 2] == ";":
                    boundary.append(Window(b))
                    k += 3
                    continue
                if b == ";" and self.single_brane:
                    boundary.append(Window(STAR))
                    k += 2
                    continue
            self.pos = k
            boundary.append(self.bline())
            k = self.pos
        self.pos = k
        self.expect("}")
        return Component(genus, boundary)

    def bline(self):
        t = self.peek()
        if not _is_word(t):
            self.fail(f"expected a boundary line, got {t or 'end of input'!r}")
        if t == "in" or t == "out":
            self.advance()
            index = self.expect_int()
            self.expect(";")
            return InClosed(index) if t == "in" else OutClosed(index)
        if t == "window":
            self.advance()
            brane = self.optional_brane(context="window")
            self.expect(";")
            return Window(brane)
        if t == "mixed":
            self.advance()
            self.expect("[")
            entries = self.mentries()
            self.expect("]")
            self.expect(";")
            return Mixed(entries)
        self.fail(f"expected 'in', 'out', 'window', or 'mixed', got {t!r}")

    def optional_brane(self, context: str) -> str:
        if self.peek() in (";", ",", "]"):
            if self.single_brane:
                return STAR
            self.fail(f"{context} needs a brane label")
        return self.brane()

    def mentries(self) -> list:
        """``mentry ("," mentry)*``, read as ``entries`` reads its list."""
        toks, branes = self.toks, self.build.doc.branes
        out = []
        k = self.pos
        while True:
            t = toks[k]
            e = None
            if t == IN or t == OUT:
                n = toks[k + 1]
                if "0" <= n[:1] <= "9" and len(n) <= _SHORT_INT:
                    rev = t == IN
                    if toks[k + 2] == "rev":
                        rev = not rev
                        k += 1
                    e = IntervalRef(t, int(n), rev)
                    k += 2
            elif t == "arc":
                b = toks[k + 1]
                if b in branes:
                    e = Arc(b)
                    k += 2
                elif self.single_brane and (b == "," or b == "]"):
                    e = Arc(STAR)
                    k += 1
            if e is None:
                self.pos = k
                e = self.mentry()
                k = self.pos
            out.append(e)
            if toks[k] != ",":
                self.pos = k
                return out
            k += 1

    def mentry(self):
        t = self.peek()
        if t == IN or t == OUT:
            self.advance()
            index = self.expect_int()
            rev = default_rev(t)
            if self.peek() == "rev":
                self.advance()
                rev = not rev
            return IntervalRef(t, index, rev)
        if t == "arc":
            self.advance()
            return Arc(self.optional_brane(context="arc"))
        self.fail(f"expected 'in', 'out', or 'arc', got {t or 'end of input'!r}")


def parse(text: str) -> Document:
    """Parse a document; every cobordism in the result passes validation."""
    if type(text) is not str:
        raise wrong_type(str, text)
    return _Parser(text).document()


def parse_cycles(text: str) -> list[tuple[int, ...]]:
    """Parse standalone cycle notation, e.g. ``(2 3)(4)`` or ``id``."""
    p = _Parser(text)
    out = p.cycles()
    if p.peek():
        p.fail(f"unexpected trailing input {p.peek()!r}")
    return out


# ---------------------------------------------------------------------------
# serializer


def _fmt_brane(brane: str, single: bool, prefix: str = " ") -> str:
    return "" if single and brane == STAR else f"{prefix}{brane}"


def _fmt_entry(e) -> str:
    return "O" if isinstance(e, Circle) else f"I({e.left},{e.right})"


def _fmt_sigma(sigma: Permutation) -> str:
    return "" if sigma.is_identity else " sigma " + sigma.cycle_string()


def _fmt_mixed_entry(e, single: bool) -> str:
    if isinstance(e, Arc):
        return "arc" + _fmt_brane(e.brane, single)
    rev = "" if e.rev == (e.side == IN) else " rev"  # default_rev(e.side), inline
    return f"{e.side} {_decimal(e.index)}{rev}"


def _fmt_bline(circ, single: bool) -> str:
    if isinstance(circ, InClosed):
        return f"in {_decimal(circ.index)};"
    if isinstance(circ, OutClosed):
        return f"out {_decimal(circ.index)};"
    if isinstance(circ, Window):
        return f"window{_fmt_brane(circ.brane, single)};"
    inner = ", ".join(_fmt_mixed_entry(e, single) for e in circ.cycle)
    return f"mixed [{inner}];"


def _decimal(n: int) -> str:
    """``n`` in decimal, or ``InvalidValueError`` for an integer longer
    than the interpreter writes."""
    try:
        return int.__repr__(n)
    except ValueError:
        raise InvalidValueError(
            f"an integer of {n.bit_length()} bits is too long to write in decimal"
        ) from None


def serialize(doc: Document) -> str:
    """Deterministic canonical text: sorted names, canonical cobordisms.

    Serializing, parsing, and serializing again is byte-stable.
    """
    if type(doc) is not Document:
        raise wrong_type(Document, doc)
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
            lines.append(f"    genus {_decimal(comp.genus)};")
            for circ in comp.boundary:
                lines.append("    " + _fmt_bline(circ, single))
            lines.append("  }")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


# ---------------------------------------------------------------------------
# JSON mirror
#
# ``to_json`` writes the text of ``json.dumps(d, indent=2, sort_keys=True)``
# for the document's dict ``d`` without building ``d``.  Each kind of node
# has a template at its fixed depth with its keys in sorted order.  A
# template's first slot takes the separator before the node: "[" or "{"
# for the first item of an array or object, "," for the others.

_OBJECT = """%s
    %s: {
      "entries": """
_CIRCLE = """%s
        {
          "type": "circle"
        }"""
_INTERVAL = """%s
        {
          "left": %s,
          "right": %s,
          "type": "interval"
        }"""
_SIGMA = """,
      "sigma": """
_OBJECT_END = """
    }"""
_CYCLE = """%s
        [
          %s
        ]"""
_COBORDISM = """%s
    %s: {
      "components": """
_COMPONENT = """%s
        {
          "boundary": """
_IN_OUT = """%s
            {
              "index": %s,
              "type": "%s"
            }"""
_WINDOW = """%s
            {
              "brane": %s,
              "type": "window"
            }"""
_MIXED = """%s
            {
              "entries": """
_MIXED_END = """,
              "type": "mixed"
            }"""
_REF = """%s
                {
                  "index": %s,
                  "rev": %s,
                  "type": %s
                }"""
_ARC = """%s
                {
                  "brane": %s,
                  "type": "arc"
                }"""
_GENUS = """,
          "genus": %s
        }"""
_ENDPOINTS = """,
      "source": %s,
      "target": %s
    }"""


def _close(sep: str, end: str) -> str:
    """``end`` of an array or object after items, or its empty form."""
    return end if sep == "," else sep + end[-1]


def to_json(doc: Document) -> str:
    """Stable JSON encoding mirroring the text format.

    The text is exactly that of ``json.dumps(data, indent=2,
    sort_keys=True)`` for the document's data.
    """
    if type(doc) is not Document:
        raise wrong_type(Document, doc)
    # Canonicalize first: an invalid cobordism raises before anything of
    # the document is written.
    forms = {
        name: canonicalize(d.cobordism).cobordism
        for name, d in doc.cobordisms.items()
    }
    out = ['{\n  "branes": ']
    w = out.append
    _write_json(sorted(doc.branes), "\n  ", w)
    w(',\n  "cobordisms": ')
    sep = "{"
    for name in sorted(forms):
        w(_COBORDISM % (sep, _key(name)))
        csep = "["
        for comp in forms[name].components:
            w(_COMPONENT % csep)
            bsep = "["
            for circ in comp.boundary:
                if isinstance(circ, InClosed):
                    w(_IN_OUT % (bsep, _value(circ.index, _NL14), "in"))
                elif isinstance(circ, OutClosed):
                    w(_IN_OUT % (bsep, _value(circ.index, _NL14), "out"))
                elif isinstance(circ, Window):
                    w(_WINDOW % (bsep, _value(circ.brane, _NL14)))
                else:
                    w(_MIXED % bsep)
                    esep = "["
                    for e in circ.cycle:
                        if isinstance(e, Arc):
                            w(_ARC % (esep, _value(e.brane, _NL18)))
                        else:
                            # An entry of no reference kind fails on .side.
                            side, index, rev = e.side, e.index, e.rev
                            w(_REF % (esep, _value(index, _NL18),
                                      _value(rev, _NL18), _value(side, _NL18)))
                        esep = ","
                    w(_close(esep, "\n              ]"))
                    w(_MIXED_END)
                bsep = ","
            w(_close(bsep, "\n          ]"))
            w(_GENUS % _value(comp.genus, _NL10))
            csep = ","
        d = doc.cobordisms[name]
        w(_close(csep, "\n      ]"))
        w(_ENDPOINTS % (_value(d.source_name, _NL6), _value(d.target_name, _NL6)))
        sep = ","
    w(_close(sep, "\n  }"))
    w(',\n  "format": 1,\n  "objects": ')
    sep = "{"
    for name in sorted(doc.objects):
        obj = doc.objects[name]
        w(_OBJECT % (sep, _key(name)))
        esep = "["
        for e in obj.entries:
            if isinstance(e, Circle):
                w(_CIRCLE % esep)
            else:
                w(_INTERVAL % (esep, _quote(e.left), _quote(e.right)))
            esep = ","
        w(_close(esep, "\n      ]"))
        w(_SIGMA)
        csep = "["
        for cycle in obj.sigma.cycles():
            w(_CYCLE % (csep, ",\n          ".join(map(_decimal, cycle))))
            csep = ","
        w(_close(csep, "\n      ]"))
        w(_OBJECT_END)
        sep = ","
    w(_close(sep, "\n  }"))
    w("\n}\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii
_NL6, _NL10, _NL14, _NL18 = ("\n" + " " * k for k in (6, 10, 14, 18))


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _quote(key)


def _value(value, newline: str) -> str:
    """``value`` as ``_write_json`` writes it where ``newline`` starts its line."""
    if type(value) is int:
        return _decimal(value)
    if type(value) is str:
        return _quote(value)
    if type(value) is bool:
        return "true" if value else "false"
    out: list[str] = []
    _write_json(value, newline, out.append)
    return "".join(out)


def _dump_json(value) -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``.

    Only for dicts with str keys, lists, str, int and bool; anything else
    raises ``TypeError``.  ``json`` itself falls back to its pure-Python
    encoder whenever ``indent`` is set.
    """
    out: list[str] = []
    _write_json(value, "\n", out.append)
    return "".join(out)


def _write_json(value, newline: str, write) -> None:
    if isinstance(value, str):
        write(_quote(value))
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(_decimal(value))
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            write(sep + _key(key) + ": ")
            _write_json(item, inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(value, list):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            write(sep)
            _write_json(item, inner, write)
            sep = "," + inner
        write(newline + "]")
    else:
        raise TypeError(f"{type(value).__name__} is not written as JSON")


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


def is_name(value, brane: bool = False) -> bool:
    """Whether the text grammar reads ``value`` as one name token.

    That is a WORD that is not a keyword, or ``*`` for a brane label, so
    the text written by ``serialize`` parses back to the same name.
    """
    if not isinstance(value, str):
        return False
    try:
        p = _Parser(value)
        name = p.brane_name() if brane else p.name("a name")
    except DslSyntaxError:
        return False
    return name == value


def _json_name(value, where: tuple, what: str, brane: bool = False) -> str:
    if not is_name(value, brane):
        _fail(where, f"{_shown(value)} cannot be used as {what}")
    return value


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


def _read_object(branes: frozenset, spec) -> tuple[list, list] | None:
    """An object's entries and sigma cycles, read without per-field calls.

    None as soon as a value fails a check or is not of the exact type
    ``json.loads`` gives; the caller then reads ``spec`` again through
    ``_field``, which raises with the value's path or accepts it.
    """
    if type(spec) is not dict:
        return None
    items, sigma = spec.get("entries", []), spec.get("sigma", [])
    if type(items) is not list or type(sigma) is not list:
        return None
    entries = []
    for e in items:
        kind = e.get("type") if type(e) is dict else None
        if type(kind) is not str:
            return None
        if kind == "circle":
            entries.append(Circle())
        elif kind == "interval":
            left, right = e.get("left"), e.get("right")
            if not (type(left) is str and left in branes
                    and type(right) is str and right in branes):
                return None
            entries.append(Interval(left, right))
        else:
            return None
    cycles = []
    for cycle in sigma:
        if type(cycle) is not list:
            return None
        for i in cycle:
            if type(i) is not int or i < 0:
                return None
        cycles.append(tuple(cycle))
    return entries, cycles


def _read_components(branes: frozenset, spec: dict) -> list | None:
    """A cobordism's components, read as ``_read_object`` reads an object."""
    if type(spec) is not dict:
        return None
    comps = spec.get("components", [])
    if type(comps) is not list:
        return None
    out = []
    for comp in comps:
        if type(comp) is not dict:
            return None
        genus, boundary = comp.get("genus"), comp.get("boundary", [])
        if type(genus) is not int or genus < 0 or type(boundary) is not list:
            return None
        circles = []
        for circ in boundary:
            kind = circ.get("type") if type(circ) is dict else None
            if type(kind) is not str:
                return None
            if kind == "mixed":
                items = circ.get("entries")
                if type(items) is not list:
                    return None
                cycle = []
                for e in items:
                    side = e.get("type") if type(e) is dict else None
                    if type(side) is not str:
                        return None
                    if side == "arc":
                        brane = e.get("brane")
                        if type(brane) is not str or brane not in branes:
                            return None
                        cycle.append(Arc(brane))
                    elif side == IN or side == OUT:
                        index, rev = e.get("index"), e.get("rev", side == IN)
                        if type(index) is not int or index < 0 or type(rev) is not bool:
                            return None
                        cycle.append(IntervalRef(side, index, rev))
                    else:
                        return None
                circles.append(Mixed(cycle))
            elif kind == "in" or kind == "out":
                index = circ.get("index")
                if type(index) is not int or index < 0:
                    return None
                circles.append(InClosed(index) if kind == "in" else OutClosed(index))
            elif kind == "window":
                brane = circ.get("brane")
                if type(brane) is not str or brane not in branes:
                    return None
                circles.append(Window(brane))
            else:
                return None
        out.append(Component(genus, circles))
    return out


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
        read = _read_object(build.doc.branes, spec)
        if read is None:
            read = (
                [
                    _entry_from_json(build, w, e)
                    for w, e in _items(spec, "entries", dict, where)
                ],
                [
                    tuple(_field(cycle, i, int, w) for i in range(len(cycle)))
                    for w, cycle in _items(spec, "sigma", list, where)
                ],
            )
        build.add_object(name, *read, where + ("sigma",))
    cobordisms = _field(data, "cobordisms", dict, (), {})
    for name in cobordisms:
        where = ("cobordisms", name)
        name = _json_name(name, where, "a cobordism name")
        spec = _field(cobordisms, name, dict, ("cobordisms",))
        source, target = (
            build.object_ref(_field(spec, key, str, where), where + (key,))
            for key in ("source", "target")
        )
        components = _read_components(build.doc.branes, spec)
        if components is None:
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
