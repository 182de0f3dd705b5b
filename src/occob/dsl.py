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
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import NoReturn

from occob.classify import canonicalize
from occob.errors import DslError, DslSyntaxError, DslValidationError, InvalidValueError
from occob.errors import not_iterable, shown, wrong_type
from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation, _object
from occob.surfaces import (
    IN,
    OUT,
    Arc,
    Closed,
    Cobordism,
    Component,
    _closed,
    _cobordism,
    _component,
    _mixed,
    _ref,
    validate,
)

__all__ = [
    "Document",
    "CobordismDef",
    "parse",
    "serialize",
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
#
# ``_tokenize`` has two paths that give the same list.  The fast one pads
# each one-character symbol with blanks, splits the text on blanks and
# keeps the chunks if every distinct one is exactly one token: "->", an
# integer, an ASCII word or a symbol, tested by one ``fullmatch`` over
# the distinct chunks joined by spaces.  Its precondition is that the
# text, comments stripped, splits no other way: it is ASCII and holds
# none of ``\x0b \x0c \x1c-\x1f``, which ``str.split`` takes for blanks
# and the grammar for bad characters.  Any other text, and any with a
# chunk such as "s->t", "12ab" or "x>y", goes through ``findall`` and
# the check of each distinct token's kind, which raise every error.

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
_WORD = re.compile(r"\w+")
_LOCATE = re.compile(rf"#[^\n]*|{_LEXEME}")
_PADDED = [(s, f" {s} ") for s in ",;:=[]{}()*"]
_ONE = r"(?:->|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[,;:=\[\]{}()*])"
_CHUNKS = re.compile(rf"(?:{_ONE}(?: {_ONE})*)?")
_SPLIT_BLANKS = "\x0b\x0c\x1c\x1d\x1e\x1f"


def _is_int(t: str) -> bool:
    return "0" <= t[:1] <= "9"  # not isdigit(), which accepts digits int() rejects


def _is_word(t: str) -> bool:
    return t[:1].isalpha() or t[:1] == "_"


def _tokenize(text: str) -> list[str]:
    code = _COMMENT.sub("", text) if "#" in text else text
    if code.isascii() and not any(map(code.__contains__, _SPLIT_BLANKS)):
        padded = code
        for s, blanked in _PADDED:
            padded = padded.replace(s, blanked)
        toks = padded.split()
        if _CHUNKS.fullmatch(" ".join(set(toks))):
            return toks
    toks = _TOKEN.findall(code)
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
# The front ends check each value where they read it, and store a side as
# the constant ``IN`` or ``OUT``, so what they build is assembled without
# the constructors' checks (see ``surfaces``); ``Permutation.from_cycles``
# and ``validate`` still run on it.


def _fail(where: tuple, message: str, cls: type[DslError] = DslSyntaxError, **kwargs):
    path = "".join(
        f".{k}"
        if isinstance(k, str) and k.isidentifier()
        else f"[{json.dumps(k, default=repr)}]"
        for k in where
    )
    raise cls(f"at ${path}: {message}", **kwargs)


# The one circle entry, shared by every document.
_CIRCLE_ENTRY = Circle()


def _tally(branes: list[str]) -> tuple[tuple[str, int], ...]:
    """The brane of each window read, counted as a component stores them."""
    if not branes:
        return ()
    return tuple(sorted(Counter(branes).items()))


class _Builder:
    """Checks front-end values while assembling them into ``doc``.

    ``text`` is the document text that token indices refer to.  The front
    ends take each arc from ``arc``, which holds one value per declared
    brane, and each interval from ``intervals``, which holds per declared
    left label one value per right label met.  Each table has exactly the
    declared labels as keys.
    """

    def __init__(self, branes: list[str], where, text: str = ""):
        self.text = text
        # A str subclass, which ``from_json`` accepts, is kept as the str it
        # holds: ``Arc`` and a window count take an exact ``str``.
        branes = list(map(str.__str__, branes))
        if not branes:
            self.fail(where, "the brane list is empty")
        if len(set(branes)) < len(branes):
            dup = min(b for b, n in Counter(branes).items() if n > 1)
            self.fail(where, f"brane {dup!r} declared twice")
        self.doc = Document(branes=frozenset(branes))
        self.arc = {b: Arc(b) for b in branes}
        self.intervals: dict[str, dict[str, Interval]] = {b: {} for b in branes}

    def fail(self, where, message: str, cls=DslSyntaxError, **kwargs):
        if isinstance(where, int):
            raise cls(message, *_locate(self.text, where), **kwargs)
        _fail(where, message, cls, **kwargs)

    def brane(self, label: str, where) -> str:
        """The declared label equal to ``label``: an exact ``str``."""
        if label not in self.doc.branes:
            self.fail(where, f"brane {label!r} is not declared")
        return self.arc[label].brane

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
        positions = tuple(
            i for i, e in enumerate(entries, start=1) if type(e) is Interval
        )
        pairs = tuple(zip(positions, positions))
        if cycles is not None:
            try:
                pairs = Permutation.from_cycles(cycles, positions).pairs
            except InvalidValueError as exc:
                self.fail(where, f"object {name!r}: {exc}", DslValidationError)
        self.doc.objects[name] = _object(self.doc.branes, tuple(entries), pairs)

    def add_cobordism(
        self, name: str, where, source: str, target: str, components: list
    ) -> None:
        """Define ``name`` between the already resolved objects, if valid."""
        objects = self.doc.objects
        cob = _cobordism(objects[source], objects[target], tuple(components))
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
# point at the token that broke the grammar; the builder is handed the
# index of the token that a value was read from.
#
# Each production, of a statement or of a list, takes the index of its
# first token and returns what it read together with the index after it;
# a statement's production hands what it read to the builder and returns
# the index alone.  It reads its tokens straight from ``self.toks`` by
# index and checks each token where it reads it.  It calls a method only
# to raise an error at the token that broke the grammar, to read an
# integer literal past the interpreter's digit limit, which ``int()``
# refuses, or to hand a checked value to the builder or to the production
# of a list.  A token past another is read only once that other is known
# not to be the end of input.  ``document`` and ``cobdef`` have checked
# the keyword that starts a statement or a component, so its production
# reads on from the token after it.


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.toks.append("")

    def fail(self, message: str, k: int) -> NoReturn:
        """Raise ``DslSyntaxError`` at token ``k``."""
        raise DslSyntaxError(message, *_locate(self.text, k))

    def expected(self, what: str, k: int) -> NoReturn:
        self.fail(f"expected {what}, got {self.toks[k] or 'end of input'!r}", k)

    def integer(self, k: int) -> int:
        """Token ``k`` as an integer, raising unless ``int()`` reads it as one."""
        t = self.toks[k]
        if not _is_int(t):
            self.expected("an integer", k)
        try:
            return int(t)
        except ValueError:  # longer than the interpreter's digit limit
            self.fail(f"integer literal of {len(t)} digits is too long", k)

    # names ----------------------------------------------------------------
    #
    # A name is a word that is not a keyword; a brane label is a name or "*".

    def bad_name(self, what: str, k: int) -> NoReturn:
        """Raise the error for token ``k``, which is no name."""
        t = self.toks[k]
        if t in _KEYWORDS:
            self.fail(f"keyword {t!r} cannot be used as {what}", k)
        self.expected(what, k)

    def bad_brane(self, k: int) -> NoReturn:
        """Raise the error for token ``k``, which is no declared brane label."""
        label = self.toks[k]
        if label != STAR and (label in _KEYWORDS or not _is_word(label)):
            self.bad_name("a brane label", k)
        self.build.fail(k, f"brane {label!r} is not declared")

    # document -------------------------------------------------------------

    def document(self) -> Document:
        self.build, k = self.branes_decl(0)
        toks = self.toks
        while t := toks[k]:
            if t == "object":
                k = self.objectdef(k)
            elif t == "cobordism":
                k = self.cobdef(k)
            elif t == "branes":
                self.fail("a branes declaration must come first", k)
            else:
                self.fail(f"expected 'object' or 'cobordism', got {t!r}", k)
        return self.build.doc

    def branes_decl(self, k: int) -> tuple[_Builder, int]:
        """``("branes" label ("," label)* ";")?``."""
        toks = self.toks
        at = k
        self.single_brane = toks[k] != "branes"
        if self.single_brane:
            return _Builder([STAR], at, self.text), k
        labels = []
        while True:
            t = toks[k + 1]
            if t != STAR and (t in _KEYWORDS or not _is_word(t)):
                self.bad_name("a brane label", k + 1)
            labels.append(t)
            k += 2
            if toks[k] != ",":
                break
        if toks[k] != ";":
            self.expected("';'", k)
        return _Builder(labels, at, self.text), k + 1

    # objects --------------------------------------------------------------

    def objectdef(self, k: int) -> int:
        """``"object" NAME "=" "[" entries? "]" ("sigma" cycles)? ";"``."""
        toks = self.toks
        at = k + 1
        name = toks[at]
        if name in _KEYWORDS or not _is_word(name):
            self.bad_name("an object name", at)
        self.build.new_name("object", name, at)
        if toks[at + 1] != "=":
            self.expected("'='", at + 1)
        if toks[at + 2] != "[":
            self.expected("'['", at + 2)
        k = at + 3
        entries = []
        if toks[k] != "]":
            entries, k = self.entries(k)
            if toks[k] != "]":
                self.expected("']'", k)
        cycles = None
        sigma_at = k = k + 1
        if toks[k] == "sigma":
            cycles, k = self.cycles(k + 1)
        if toks[k] != ";":
            self.expected("';'", k)
        self.build.add_object(name, entries, cycles, sigma_at)
        return k + 1

    def entries(self, k: int) -> tuple[list, int]:
        """``entry ("," entry)*``."""
        toks, branes, intervals = self.toks, self.build.doc.branes, self.build.intervals
        out = []
        while True:
            t = toks[k]
            if t == "O":
                out.append(_CIRCLE_ENTRY)
                k += 1
            elif t == "I":
                if toks[k + 1] != "(":
                    self.expected("'('", k + 1)
                row = intervals.get(toks[k + 2])
                if row is None:
                    self.bad_brane(k + 2)
                if toks[k + 3] != ",":
                    self.expected("','", k + 3)
                right = toks[k + 4]
                if right not in branes:
                    self.bad_brane(k + 4)
                if toks[k + 5] != ")":
                    self.expected("')'", k + 5)
                iv = row.get(right)
                if iv is None:
                    iv = row[right] = Interval(toks[k + 2], right)
                out.append(iv)
                k += 6
            else:
                self.expected("'O' or 'I(..)'", k)
            if toks[k] != ",":
                return out, k
            k += 1

    def cycles(self, k: int) -> tuple[list[tuple[int, ...]], int]:
        """``"id" | ("(" INT+ ")")+``."""
        toks = self.toks
        if toks[k] == "id":
            return [], k + 1
        if toks[k] != "(":
            self.expected("'id' or a cycle '(..)'", k)
        out = []
        while toks[k] == "(":
            start = k = k + 1
            while "0" <= toks[k][:1] <= "9":
                k += 1
            if k == start:
                self.expected("an integer", k)
            try:
                out.append(tuple(map(int, toks[start:k])))
            except ValueError:  # past the digit limit: integer() raises at the first
                out.append(tuple(map(self.integer, range(start, k))))
            if toks[k] != ")":
                self.expected("')'", k)
            k += 1
        return out, k

    # cobordisms -----------------------------------------------------------

    def cobdef(self, k: int) -> int:
        """``"cobordism" NAME ":" NAME "->" NAME "{" component* "}"``."""
        toks = self.toks
        at = k + 1
        name = toks[at]
        if name in _KEYWORDS or not _is_word(name):
            self.bad_name("a cobordism name", at)
        self.build.new_name("cobordism", name, at)
        if toks[at + 1] != ":":
            self.expected("':'", at + 1)
        source = toks[at + 2]
        if source in _KEYWORDS or not _is_word(source):
            self.bad_name("a source object name", at + 2)
        if toks[at + 3] != "->":
            self.expected("'->'", at + 3)
        target = toks[at + 4]
        if target in _KEYWORDS or not _is_word(target):
            self.bad_name("a target object name", at + 4)
        source = self.build.object_ref(source, at + 2)
        target = self.build.object_ref(target, at + 4)
        if toks[at + 5] != "{":
            self.expected("'{'", at + 5)
        k = at + 6
        comps = []
        while toks[k] == "component":
            comp, k = self.component(k)
            comps.append(comp)
        if toks[k] != "}":
            self.expected("'}'", k)
        self.build.add_cobordism(name, at, source, target, comps)
        return k + 1

    def component(self, k: int) -> tuple[Component, int]:
        """``"component" "{" "genus" INT ";" bline* "}"``."""
        toks, arcs, single = self.toks, self.build.arc, self.single_brane
        k += 1
        if toks[k] != "{":
            self.expected("'{'", k)
        if toks[k + 1] != "genus":
            self.expected("'genus'", k + 1)
        try:
            genus = int(toks[k + 2])
        except ValueError:  # not an integer literal, or past the digit limit
            genus = self.integer(k + 2)
        if toks[k + 3] != ";":
            self.expected("';'", k + 3)
        boundary, windows = [], []
        k += 4
        while (t := toks[k]) != "}":
            if t == "in" or t == "out":
                try:
                    index = int(toks[k + 1])
                except ValueError:  # not an integer literal, or past the digit limit
                    index = self.integer(k + 1)
                if toks[k + 2] != ";":
                    self.expected("';'", k + 2)
                boundary.append(_closed(IN if t == IN else OUT, index))
                k += 3
            elif t == "window":
                b = toks[k + 1]
                if b in arcs:
                    k += 2
                elif b == ";" or b == "," or b == "]":
                    if not single:
                        self.fail("window needs a brane label", k + 1)
                    b = STAR
                    k += 1
                else:
                    self.bad_brane(k + 1)
                if toks[k] != ";":
                    self.expected("';'", k)
                windows.append(b)
                k += 1
            elif t == "mixed":
                if toks[k + 1] != "[":
                    self.expected("'['", k + 1)
                cycle, k = self.mentries(k + 2)
                if toks[k] != "]":
                    self.expected("']'", k)
                if toks[k + 1] != ";":
                    self.expected("';'", k + 1)
                boundary.append(_mixed(tuple(cycle)))
                k += 2
            elif _is_word(t):
                self.fail(f"expected 'in', 'out', 'window', or 'mixed', got {t!r}", k)
            else:
                self.expected("a boundary line", k)
        return _component(genus, tuple(boundary), _tally(windows)), k + 1

    def mentries(self, k: int) -> tuple[list, int]:
        """``mentry ("," mentry)*``."""
        toks, arcs, single = self.toks, self.build.arc, self.single_brane
        out = []
        while True:
            t = toks[k]
            if t == IN or t == OUT:
                try:
                    index = int(toks[k + 1])
                except ValueError:  # not an integer literal, or past the digit limit
                    index = self.integer(k + 1)
                rev = t == IN  # default_rev(t), inline
                side = IN if rev else OUT
                if toks[k + 2] == "rev":
                    rev = not rev
                    k += 1
                out.append(_ref(side, index, rev))
                k += 2
            elif t == "arc":
                b = toks[k + 1]
                arc = arcs.get(b)
                if arc is not None:
                    k += 2
                elif b == "," or b == "]" or b == ";":
                    if not single:
                        self.fail("arc needs a brane label", k + 1)
                    arc = arcs[STAR]
                    k += 1
                else:
                    self.bad_brane(k + 1)
                out.append(arc)
            else:
                self.expected("'in', 'out', or 'arc'", k)
            if toks[k] != ",":
                return out, k
            k += 1


def parse(text: str) -> Document:
    """Parse a document; every cobordism in the result passes validation."""
    if type(text) is not str:
        raise wrong_type(str, text)
    return _Parser(text).document()


def parse_cycles(text: str) -> list[tuple[int, ...]]:
    """Parse standalone cycle notation, e.g. ``(2 3)(4)`` or ``id``."""
    if type(text) is not str:
        raise wrong_type(str, text)
    p = _Parser(text)
    out, k = p.cycles(0)
    if t := p.toks[k]:
        p.fail(f"unexpected trailing input {t!r}", k)
    return out


# ---------------------------------------------------------------------------
# serializer


def _fmt_brane(brane: str, single: bool) -> str:
    return "" if single and brane == STAR else f" {brane}"


def _fmt_entry(e) -> str:
    return "O" if isinstance(e, Circle) else f"I({e.left},{e.right})"


def _fmt_sigma(sigma: Permutation) -> str:
    return "" if sigma.is_identity else " sigma " + sigma.cycle_string()


class _Rendered(dict):
    """Each key's text, made by ``render`` when the key is first looked up.

    A writer keeps one per document, so each brane and side it writes is
    rendered once, then found by a dict lookup."""

    __slots__ = ("render",)

    def __init__(self, render):
        self.render = render

    def __missing__(self, key: str) -> str:
        text = self[key] = self.render(key)
        return text


def _closed_count(comp: Component) -> int:
    """How many closed circles lead a canonical component's circles; its
    windows are written after them, before its mixed circles."""
    return list(map(type, comp.circles)).count(Closed)


def _decimal(n: int) -> str:
    """``n`` in decimal, or ``InvalidValueError`` for a value that is not
    an ``int`` or an integer longer than the interpreter writes."""
    if type(n) is not int:
        raise InvalidValueError(f"expected an integer, got {type(n).__name__}")
    try:
        return int.__repr__(n)
    except ValueError:
        raise InvalidValueError(
            f"an integer of {n.bit_length()} bits is too long to write in decimal"
        ) from None


def _name(value, what: str, brane: bool = False) -> str:
    """``value``, or ``InvalidValueError`` when ``parse`` would not read it
    back as ``what``: it is not a ``str``, or ``is_name`` rejects it."""
    if is_name(value, brane):
        return value
    if not isinstance(value, str):
        raise InvalidValueError(f"expected a string, got {type(value).__name__}")
    raise InvalidValueError(f"{value!r} cannot be written as {what}")


def _sorted_names(names, what: str, brane: bool = False) -> list[str]:
    """``names``, each checked by ``_name``, in sorted order."""
    return sorted([_name(name, what, brane) for name in names])


def _check_writable(doc: Document) -> tuple[list[str], list[str], list[str]]:
    """``doc``'s brane labels, object names and cobordism names, sorted, or
    ``InvalidValueError`` unless the readers would read ``doc`` back: its
    slots are checked by type, then its names by ``_name``, then the rules
    each reader keeps.  A ``Document`` is filled after it is built, so this
    is where its slots are checked."""
    if type(doc) is not Document:
        raise wrong_type(Document, doc)
    try:
        iter(doc.branes)
    except TypeError as exc:
        raise not_iterable("brane labels", exc) from None
    if type(doc.objects) is not dict or type(doc.cobordisms) is not dict:
        raise wrong_type(dict, doc.objects, doc.cobordisms)
    for obj in doc.objects.values():
        if type(obj) is not GeneralObject:
            raise wrong_type(GeneralObject, obj)
    for d in doc.cobordisms.values():
        if type(d) is not CobordismDef:
            raise wrong_type(CobordismDef, d)
        if type(d.cobordism) is not Cobordism:
            raise wrong_type(Cobordism, d.cobordism)
    branes = _sorted_names(doc.branes, "a brane label", brane=True)
    object_names = _sorted_names(doc.objects, "an object name")
    cobordism_names = _sorted_names(doc.cobordisms, "a cobordism name")
    if not branes:
        raise InvalidValueError("a document declares at least one brane label")
    for a, b in zip(branes, branes[1:]):
        if a == b:
            raise InvalidValueError(f"brane {a!r} is declared twice")
    declared = frozenset(branes)
    for name in object_names:
        if doc.objects[name].branes != declared:
            raise InvalidValueError(
                f"object {name!r} is over other branes than the document declares"
            )
    for name in cobordism_names:
        d = doc.cobordisms[name]
        for end, obj in (("source", d.source_name), ("target", d.target_name)):
            if _name(obj, "an object name") not in doc.objects:
                raise InvalidValueError(f"cobordism {name!r}: unknown object {obj!r}")
            if doc.objects[obj] != getattr(d.cobordism, end):
                message = f"cobordism {name!r}: object {obj!r} is not its {end}"
                raise InvalidValueError(message)
    return branes, object_names, cobordism_names


def serialize(doc: Document) -> str:
    """Deterministic canonical text: sorted names, canonical cobordisms.

    Serializing, parsing, and serializing again is byte-stable.  Requires
    each cobordism to be valid (``surfaces.validate`` returns no
    violations), as ``canonicalize`` does: one that is not, such as
    ``Cobordism(a, a, ())`` over an object ``a`` with entries, is written,
    and ``parse`` refuses the text.  Nothing is validated here, so that no
    write pays for it.  Raises ``InvalidValueError`` on a document
    that ``parse`` would not read back as itself for another reason: a
    slot of the wrong type, a name outside the grammar, no brane label or
    one twice, an object over other branes, or an endpoint name that holds
    no object or not the cobordism's own.
    """
    branes, object_names, cobordism_names = _check_writable(doc)
    single = doc.branes == frozenset({STAR})
    blocks: list[str] = []
    if not single:
        blocks.append("branes " + ", ".join(branes) + ";")
    for name in object_names:
        obj = doc.objects[name]
        entries = ", ".join(_fmt_entry(e) for e in obj.entries)
        blocks.append(f"object {name} = [{entries}]{_fmt_sigma(obj.sigma)};")
    arcs = _Rendered(lambda brane: "arc" + _fmt_brane(brane, single))
    for name in cobordism_names:
        d = doc.cobordisms[name]
        canonical = canonicalize(d.cobordism).cobordism
        lines = [f"cobordism {name} : {d.source_name} -> {d.target_name} {{"]
        for comp in canonical.components:
            lines.append("  component {")
            lines.append(f"    genus {_decimal(comp.genus)};")
            circles, cut = comp.circles, _closed_count(comp)
            lines += [f"    {c.side} {_decimal(c.index)};" for c in circles[:cut]]
            for brane, n in comp.windows:
                lines += repeat(f"    window{_fmt_brane(brane, single)};", n)
            for circ in circles[cut:]:
                entries = []
                for e in circ.cycle:
                    if type(e) is Arc:
                        entries.append(arcs[e.brane])
                    else:  # " rev" when rev is not default_rev(e.side)
                        rev = "" if e.rev == (e.side == IN) else " rev"
                        entries.append(f"{e.side} {_decimal(e.index)}{rev}")
                lines.append(f"    mixed [{', '.join(entries)}];")
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
# for the first item of an array or object, "," for the others.  Each
# integer and string goes through ``_decimal`` or ``_string``, which raise
# ``InvalidValueError`` for a value of any other type; a ``rev`` is a
# ``bool``, as the ``IntervalRef`` constructor tests.
#
# ``from_json`` reads each node with ``dict.get`` and tests each value by
# exact type, as ``json.loads`` gives it.  Where a test fails, the reader
# hands the value to ``_field``, which raises with the value's ``$.``-path
# built from the keys and indices the reader holds, or accepts a subclass
# of the JSON type.  The items of an array are all type-checked before any
# of them is read, so each error is the first that a reader checking field
# by field in document order meets.

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
_CLOSED = """%s
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
    sort_keys=True)`` for the document's data.  Requires valid cobordisms
    and raises on the other documents that ``from_json`` would not read
    back as itself, as ``serialize`` does.
    """
    branes, object_names, cobordism_names = _check_writable(doc)
    # Canonicalize first: an invalid cobordism raises before anything of
    # the document is written.
    forms = {
        name: canonicalize(d.cobordism).cobordism
        for name, d in doc.cobordisms.items()
    }
    quoted = _Rendered(_string)
    out = ['{\n  "branes": [', ",".join(f"\n    {quoted[b]}" for b in branes)]
    w = out.append
    w('\n  ],\n  "cobordisms": ')
    # A canonical mixed cycle starts at a reference, so an arc always
    # follows a ",".
    arcs = _Rendered(lambda brane: _ARC % (",", _string(brane)))
    sep = "{"
    for name in cobordism_names:
        w(_COBORDISM % (sep, _string(name)))
        csep = "["
        for comp in forms[name].components:
            w(_COMPONENT % csep)
            bsep = "["
            circles, cut = comp.circles, _closed_count(comp)
            for circ in circles[:cut]:
                w(_CLOSED % (bsep, _decimal(circ.index), circ.side))
                bsep = ","
            for brane, n in comp.windows:
                w(_WINDOW % (bsep, quoted[brane]))
                out += repeat(_WINDOW % (",", quoted[brane]), n - 1)
                bsep = ","
            for circ in circles[cut:]:
                w(_MIXED % bsep)
                esep = "["
                for e in circ.cycle:
                    if type(e) is Arc:
                        w(arcs[e.brane])
                    else:
                        rev = "true" if e.rev else "false"
                        w(_REF % (esep, _decimal(e.index), rev, quoted[e.side]))
                        esep = ","
                w(_close(esep, "\n              ]"))
                w(_MIXED_END)
                bsep = ","
            w(_close(bsep, "\n          ]"))
            w(_GENUS % _decimal(comp.genus))
            csep = ","
        d = doc.cobordisms[name]
        w(_close(csep, "\n      ]"))
        w(_ENDPOINTS % (_string(d.source_name), _string(d.target_name)))
        sep = ","
    w(_close(sep, "\n  }"))
    w(',\n  "format": 1,\n  "objects": ')
    sep = "{"
    for name in object_names:
        obj = doc.objects[name]
        w(_OBJECT % (sep, _string(name)))
        esep = "["
        for e in obj.entries:
            if isinstance(e, Circle):
                w(_CIRCLE % esep)
            else:
                w(_INTERVAL % (esep, _string(e.left), _string(e.right)))
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


def _string(s: str) -> str:
    """``s`` as a JSON string, or ``InvalidValueError`` for a value that is
    not a ``str``."""
    try:
        return _quote(s)
    except TypeError:
        raise InvalidValueError(f"expected a string, got {type(s).__name__}") from None


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
    return shown(value, lambda v: json.dumps(v, default=repr))


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


def _array(data, key, kind: type, where: tuple) -> list:
    """``_field(data, key, list, where)`` with each of its items checked to
    be of JSON type ``kind``, so that it raises for the first that is not."""
    items = _field(data, key, list, where)
    for i in range(len(items)):
        _field(items, i, kind, where + (key,))
    return items


# Whether an iterable of types holds only the one type: the test of the
# items of an array, made before any item is read.
_ONLY_DICT, _ONLY_LIST, _ONLY_STR, _ONLY_INT = (
    frozenset({kind}).issuperset for kind in (dict, list, str, int)
)


def is_name(value, brane: bool = False) -> bool:
    """Whether the text grammar reads ``value`` as one name token.

    That is a WORD that is not a keyword, or ``*`` for a brane label, so
    the text written by ``serialize`` parses back to the same name.  A
    value that starts a word and is all word characters is one token, the
    one the tokenizer's word rule matches.
    """
    if not isinstance(value, str):
        return False
    if brane and value == STAR:
        return True
    return (
        _WORD.fullmatch(value) is not None
        and (value[0].isalpha() or value[0] == "_")
        and value not in _KEYWORDS
    )


def _json_name(value, where: tuple, what: str, brane: bool = False) -> str:
    if not is_name(value, brane):
        _fail(where, f"{_shown(value)} cannot be used as {what}")
    return value


def _read_object(build: _Builder, spec: dict, where: tuple) -> tuple[list, list]:
    """The entries and sigma cycles of the object ``spec`` at ``where``."""
    branes, intervals = build.doc.branes, build.intervals
    items = spec.get("entries", [])
    if type(items) is not list or not _ONLY_DICT(map(type, items)):
        items = _array(spec, "entries", dict, where)
    entries = []
    for i, e in enumerate(items):
        kind = e.get("type")
        if kind == "circle":
            entries.append(_CIRCLE_ENTRY)
        elif kind == "interval":
            left, right = e.get("left"), e.get("right")
            if not (type(left) is str and left in branes
                    and type(right) is str and right in branes):
                at = (*where, "entries", i)
                left = build.brane(_field(e, "left", str, at), at + ("left",))
                right = build.brane(_field(e, "right", str, at), at + ("right",))
            row = intervals[left]
            iv = row.get(right)
            if iv is None:
                iv = row[right] = Interval(left, right)
            entries.append(iv)
        else:
            at = (*where, "entries", i)
            kind = _field(e, "type", str, at)
            _fail(at + ("type",), f"unknown entry type {kind!r}")
    sigma = spec.get("sigma", [])
    if type(sigma) is not list or not _ONLY_LIST(map(type, sigma)):
        sigma = _array(spec, "sigma", list, where)
    cycles = []
    for k, cycle in enumerate(sigma):
        if not (_ONLY_INT(map(type, cycle)) and min(cycle, default=0) >= 0):
            _array(sigma, k, int, (*where, "sigma"))
        cycles.append(tuple(cycle))
    return entries, cycles


def _read_components(build: _Builder, spec: dict, where: tuple) -> list:
    """The components of the cobordism ``spec`` at ``where``."""
    arcs = build.arc
    comps = spec.get("components", [])
    if type(comps) is not list or not _ONLY_DICT(map(type, comps)):
        comps = _array(spec, "components", dict, where)
    out = []
    for c, comp in enumerate(comps):
        genus, boundary = comp.get("genus"), comp.get("boundary", [])
        if type(genus) is not int or genus < 0:
            _field(comp, "genus", int, (*where, "components", c))
        if type(boundary) is not list or not _ONLY_DICT(map(type, boundary)):
            boundary = _array(comp, "boundary", dict, (*where, "components", c))
        circles, windows = [], []
        for j, circ in enumerate(boundary):
            kind = circ.get("type")
            if kind == "mixed":
                items = circ.get("entries")
                if type(items) is not list or not _ONLY_DICT(map(type, items)):
                    at = (*where, "components", c, "boundary", j)
                    items = _array(circ, "entries", dict, at)
                cycle = []
                for i, e in enumerate(items):
                    side = e.get("type")
                    if side == "arc":
                        brane = e.get("brane")
                        arc = arcs.get(brane) if type(brane) is str else None
                        if arc is None:
                            at = (*where, "components", c, "boundary", j, "entries", i)
                            brane = _field(e, "brane", str, at)
                            arc = arcs[build.brane(brane, at + ("brane",))]
                        cycle.append(arc)
                    elif side == IN or side == OUT:
                        index, rev = e.get("index"), e.get("rev", side == IN)
                        if type(rev) is not bool or type(index) is not int or index < 0:
                            at = (*where, "components", c, "boundary", j, "entries", i)
                            _field(e, "rev", bool, at, rev)
                            _field(e, "index", int, at)
                        cycle.append(_ref(IN if side == IN else OUT, index, rev))
                    else:
                        at = (*where, "components", c, "boundary", j, "entries", i)
                        side = _field(e, "type", str, at)
                        _fail(at + ("type",), f"unknown mixed entry type {side!r}")
                circles.append(_mixed(tuple(cycle)))
            elif kind == "in" or kind == "out":
                index = circ.get("index")
                if type(index) is not int or index < 0:
                    _field(circ, "index", int, (*where, "components", c, "boundary", j))
                circles.append(_closed(IN if kind == IN else OUT, index))
            elif kind == "window":
                brane = circ.get("brane")
                if type(brane) is not str or brane not in arcs:
                    at = (*where, "components", c, "boundary", j)
                    brane = build.brane(_field(circ, "brane", str, at), at + ("brane",))
                windows.append(brane)
            else:
                at = (*where, "components", c, "boundary", j)
                kind = _field(circ, "type", str, at)
                _fail(at + ("type",), f"unknown boundary circle type {kind!r}")
        out.append(_component(genus, tuple(circles), _tally(windows)))
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
        _fail(("format",), f"unsupported format {shown(fmt, str)}")
    labels = _field(data, "branes", list, (), [STAR])
    if not _ONLY_STR(map(type, labels)):
        labels = _array(data, "branes", str, ())
    branes = [
        _json_name(b, ("branes", i), "a brane label", brane=True)
        for i, b in enumerate(labels)
    ]
    build = _Builder(branes, ("branes",))
    objects = _field(data, "objects", dict, (), {})
    for name in objects:
        where = ("objects", name)
        name = _json_name(name, where, "an object name")
        spec = _field(objects, name, dict, ("objects",))
        build.add_object(name, *_read_object(build, spec, where), where + ("sigma",))
    cobordisms = _field(data, "cobordisms", dict, (), {})
    for name in cobordisms:
        where = ("cobordisms", name)
        name = _json_name(name, where, "a cobordism name")
        spec = _field(cobordisms, name, dict, ("cobordisms",))
        source, target = (
            build.object_ref(_field(spec, key, str, where), where + (key,))
            for key in ("source", "target")
        )
        components = _read_components(build, spec, where)
        build.add_cobordism(name, where, source, target, components)
    return build.doc
