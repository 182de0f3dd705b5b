"""The earlier read path of ``occob.dsl``, checked item by item.

``parse`` once read each list by calling a method per item (``entry``,
``cycle``, ``bline``, ``mentry``), and ``from_json`` read each field
through ``_field``, each array through ``_items`` and each node through a
``*_from_json`` function.  ``dsl`` now reads every list by index with its
checks inline; on every input both must give the same document, or the
same error with the same message, line and column.  This is the
reference it is checked against.  The tokenizer, ``_locate`` and the
document builder are shared, since neither path changed them.
``outcome`` gives what one reader makes of one input, for comparing the
two.
"""

from __future__ import annotations

import json

from conftest import from_boundary
from occob.dsl import (
    _KEYWORDS,
    Document,
    _Builder,
    _fail,
    _is_int,
    _is_word,
    _locate,
    _tokenize,
)
from occob.errors import DslSyntaxError
from occob.objects import STAR, Circle, Interval
from occob.surfaces import (
    IN,
    OUT,
    Arc,
    Closed,
    Component,
    IntervalRef,
    Mixed,
    Window,
    default_rev,
)


class ReferenceParser:
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
        except ValueError:
            self.fail(f"integer literal of {len(t)} digits is too long")
        self.pos += 1
        return value

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

    def entries(self) -> list:
        out = [self.entry()]
        while self.peek() == ",":
            self.advance()
            out.append(self.entry())
        return out

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
        out = []
        while self.peek() == "(":
            out.append(self.cycle())
        return out

    def cycle(self) -> tuple[int, ...]:
        self.expect("(")
        cyc = [self.expect_int()]
        while _is_int(self.peek()):
            cyc.append(self.expect_int())
        self.expect(")")
        return tuple(cyc)

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
        boundary = []
        while self.peek() != "}":
            boundary.append(self.bline())
        self.expect("}")
        return from_boundary(genus, boundary)

    def bline(self):
        t = self.peek()
        if not _is_word(t):
            self.fail(f"expected a boundary line, got {t or 'end of input'!r}")
        if t == "in" or t == "out":
            self.advance()
            index = self.expect_int()
            self.expect(";")
            return Closed(IN, index) if t == "in" else Closed(OUT, index)
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
        out = [self.mentry()]
        while self.peek() == ",":
            self.advance()
            out.append(self.mentry())
        return out

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


def reference_parse(text: str) -> Document:
    return ReferenceParser(text).document()


def reference_parse_cycles(text: str) -> list[tuple[int, ...]]:
    p = ReferenceParser(text)
    out = p.cycles()
    if p.peek():
        p.fail(f"unexpected trailing input {p.peek()!r}")
    return out


# ---------------------------------------------------------------------------
# JSON


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
    items = _field(data, key, list, where, default)
    where += (key,)
    return [(where + (i,), _field(items, i, kind, where)) for i in range(len(items))]


def _is_name(value, brane: bool = False) -> bool:
    if not isinstance(value, str):
        return False
    try:
        p = ReferenceParser(value)
        name = p.brane_name() if brane else p.name("a name")
    except DslSyntaxError:
        return False
    return name == value


def _json_name(value, where: tuple, what: str, brane: bool = False) -> str:
    if not _is_name(value, brane):
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
        return Closed(IN, _field(data, "index", int, where))
    if kind == "out":
        return Closed(OUT, _field(data, "index", int, where))
    if kind == "window":
        return Window(_json_brane(build, data, where))
    if kind == "mixed":
        return Mixed(
            _mixed_entry_from_json(build, w, e)
            for w, e in _items(data, "entries", dict, where, _REQUIRED)
        )
    _fail(where + ("type",), f"unknown boundary circle type {kind!r}")


def reference_from_json(source: str | dict) -> Document:
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise DslSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
        except (ValueError, RecursionError) as exc:
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
            from_boundary(
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


def outcome(read, source):
    """What ``read(source)`` gives: the document, or the exception it raises."""
    try:
        doc = read(source)
    except Exception as exc:  # the comparison covers whatever either side raises
        return (
            type(exc),
            str(exc),
            getattr(exc, "line", None),
            getattr(exc, "column", None),
            getattr(exc, "violations", None),
        )
    return repr(doc)
