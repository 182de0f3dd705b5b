"""The earlier write path of ``occob.dsl``, one line or node per window.

``serialize`` and ``to_json`` once expanded a canonical component's
windows into one brane string per window (``_written``) and wrote each
circle and each mixed entry through a formatter per item (``_fmt_bline``,
``_fmt_mixed_entry``).  ``dsl`` now writes each ``(brane, count)`` pair as
one line or node repeated ``count`` times, and renders each arc and side
once per document; on every document both must give the same text byte
for byte.  This is the reference it is checked against.  The document
checks, the name checks, ``canonicalize`` and the JSON templates are
shared, since neither path changed them.
"""

from __future__ import annotations

from itertools import repeat

from occob.classify import canonicalize
from occob.dsl import (
    _ARC,
    _CIRCLE,
    _CLOSED,
    _COBORDISM,
    _COMPONENT,
    _CYCLE,
    _ENDPOINTS,
    _GENUS,
    _INTERVAL,
    _MIXED,
    _MIXED_END,
    _OBJECT,
    _OBJECT_END,
    _REF,
    _SIGMA,
    _WINDOW,
    Document,
    _check_writable,
    _close,
    _decimal,
    _fmt_brane,
    _fmt_entry,
    _fmt_sigma,
    _name,
    _sorted_names,
    _string,
)
from occob.objects import STAR, Circle
from occob.surfaces import IN, Arc, Closed, Component


def _fmt_mixed_entry(e, single: bool) -> str:
    if isinstance(e, Arc):
        return "arc" + _fmt_brane(e.brane, single)
    rev = "" if e.rev == (e.side == IN) else " rev"
    return f"{e.side} {_decimal(e.index)}{rev}"


def _fmt_bline(circ, single: bool) -> str:
    if isinstance(circ, Closed):
        return f"{circ.side} {_decimal(circ.index)};"
    if isinstance(circ, str):
        return f"window{_fmt_brane(circ, single)};"
    inner = ", ".join(_fmt_mixed_entry(e, single) for e in circ.cycle)
    return f"mixed [{inner}];"


def _written(comp: Component) -> tuple:
    """A canonical component's closed circles, a brane per window, mixed circles."""
    if not comp.windows:
        return comp.circles
    cut = list(map(type, comp.circles)).count(Closed)
    windows = tuple(w for b, n in comp.windows for w in repeat(b, n))
    return comp.circles[:cut] + windows + comp.circles[cut:]


def serialize_per_window(doc: Document) -> str:
    _check_writable(doc)
    single = doc.branes == frozenset({STAR})
    blocks: list[str] = []
    branes = _sorted_names(doc.branes, "a brane label", brane=True)
    if not single:
        blocks.append("branes " + ", ".join(branes) + ";")
    for name in _sorted_names(doc.objects, "an object name"):
        obj = doc.objects[name]
        entries = ", ".join(_fmt_entry(e) for e in obj.entries)
        blocks.append(f"object {name} = [{entries}]{_fmt_sigma(obj.sigma)};")
    for name in _sorted_names(doc.cobordisms, "a cobordism name"):
        d = doc.cobordisms[name]
        source = _name(d.source_name, "an object name")
        target = _name(d.target_name, "an object name")
        canonical = canonicalize(d.cobordism).cobordism
        lines = [f"cobordism {name} : {source} -> {target} {{"]
        for comp in canonical.components:
            lines.append("  component {")
            lines.append(f"    genus {_decimal(comp.genus)};")
            for circ in _written(comp):
                lines.append("    " + _fmt_bline(circ, single))
            lines.append("  }")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def to_json_per_window(doc: Document) -> str:
    _check_writable(doc)
    forms = {
        name: canonicalize(d.cobordism).cobordism
        for name, d in doc.cobordisms.items()
    }
    branes = [
        f"\n    {_string(b)}"
        for b in _sorted_names(doc.branes, "a brane label", brane=True)
    ]
    out = ['{\n  "branes": ', f"[{','.join(branes)}\n  ]" if branes else "[]"]
    w = out.append
    w(',\n  "cobordisms": ')
    sep = "{"
    for name in _sorted_names(forms, "a cobordism name"):
        w(_COBORDISM % (sep, _string(name)))
        csep = "["
        for comp in forms[name].components:
            w(_COMPONENT % csep)
            bsep = "["
            for circ in _written(comp):
                if isinstance(circ, Closed):
                    w(_CLOSED % (bsep, _decimal(circ.index), circ.side))
                elif isinstance(circ, str):
                    w(_WINDOW % (bsep, _string(circ)))
                else:
                    w(_MIXED % bsep)
                    esep = "["
                    for e in circ.cycle:
                        if isinstance(e, Arc):
                            w(_ARC % (esep, _string(e.brane)))
                        else:
                            rev = "true" if e.rev else "false"
                            w(_REF % (esep, _decimal(e.index), rev, _string(e.side)))
                        esep = ","
                    w(_close(esep, "\n              ]"))
                    w(_MIXED_END)
                bsep = ","
            w(_close(bsep, "\n          ]"))
            w(_GENUS % _decimal(comp.genus))
            csep = ","
        d = doc.cobordisms[name]
        w(_close(csep, "\n      ]"))
        source = _name(d.source_name, "an object name")
        target = _name(d.target_name, "an object name")
        w(_ENDPOINTS % (_string(source), _string(target)))
        sep = ","
    w(_close(sep, "\n  }"))
    w(',\n  "format": 1,\n  "objects": ')
    sep = "{"
    for name in _sorted_names(doc.objects, "an object name"):
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
