"""The dict a document's JSON text encodes, built node by node.

``to_json`` writes the text of ``json.dumps(document_to_dict(doc),
indent=2, sort_keys=True)`` from templates, without building the dict;
this is the reference it is checked against.
"""

from __future__ import annotations

from occob.classify import canonicalize
from occob.dsl import Document
from occob.objects import Circle
from occob.surfaces import IN, OUT, Arc, Closed, Window


def _entry_to_json(e) -> dict:
    if isinstance(e, Circle):
        return {"type": "circle"}
    return {"type": "interval", "left": e.left, "right": e.right}


def _mixed_entry_to_json(e) -> dict:
    if isinstance(e, Arc):
        return {"type": "arc", "brane": e.brane}
    return {"type": e.side, "index": e.index, "rev": e.rev}


def _circle_to_json(circ) -> dict:
    if isinstance(circ, Closed) and circ.side == IN:
        return {"type": "in", "index": circ.index}
    if isinstance(circ, Closed) and circ.side == OUT:
        return {"type": "out", "index": circ.index}
    if isinstance(circ, Window):
        return {"type": "window", "brane": circ.brane}
    return {
        "type": "mixed",
        "entries": [_mixed_entry_to_json(e) for e in circ.cycle],
    }


def _written_rank(circ) -> int:
    """Where a circle of a canonical component is written: its closed
    circles, then its windows, then its mixed circles, each in the order
    that ``boundary`` shows them."""
    return 0 if isinstance(circ, Closed) else 1 if isinstance(circ, Window) else 2


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
                            _circle_to_json(circ)
                            for circ in sorted(comp.boundary, key=_written_rank)
                        ],
                    }
                    for comp in canonicalize(d.cobordism).cobordism.components
                ],
            }
            for name, d in doc.cobordisms.items()
        },
    }
