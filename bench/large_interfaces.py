"""Workload ``large_interfaces``: one big document per shape through the
library pipeline.

Each shape builder writes the document text itself, together with the
answers the pipeline must give: the canonical text and JSON of the
result, the object's permutation and its cycle and circle counts.  The
pipeline is

    parse -> realize -> boundary_permutation -> compose(R, identity)
    -> [stabilize x L] -> canonicalize -> serialize -> to_json
    -> from_json -> boundary_permutation -> pullback

Shapes (n is the number of entries of the object ``X``):

* ``cycle``: n intervals joined by one n-cycle.
* ``perm``: n intervals under a seeded random permutation.  Its cycle
  lengths are fixed (half of what is left, then half again, ...), which is
  the typical shape of a random permutation; only which elements share a
  cycle comes from the seed.  Cycle-wise work then costs the same for
  every seed, so runs with different seeds stay comparable.
* ``circles``: n circles.
* ``tower``: the identity on one circle over branes {a, b}, stabilized
  L = 5n/4 times (1000 at n = 800, 2000 at n = 1600): one surface that
  grows with each composition.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from occob.calculus import (
    boundary_permutation,
    compose,
    identity,
    pullback,
    realize,
    stabilize,
)
from occob.classify import canonicalize
from occob.dsl import CobordismDef, Document, from_json, parse, serialize, to_json
from occob.objects import Permutation

SHAPES = ("cycle", "perm", "circles", "tower")
# The timed run takes n = 800, where the superlinear paths already
# dominate and a pass is short enough to repeat several times per run;
# the traced sweep goes on to 1600.
N = 800
SWEEP = (200, 400, 800, 1600)


@dataclass(frozen=True)
class Shape:
    name: str
    n: int
    text: str
    sigma: dict[int, int]  # permutation of X on its interval positions
    circles: int  # circle entries of X
    cycles: int  # cycles of sigma
    tower: int  # stabilizations applied after the composition
    expected_text: str  # canonical text of the pipeline's result
    expected_json: dict  # to_json of the same, as parsed JSON


def _text(branes, x_entries, cycles, genus, blines) -> str:
    """The canonical document: objects C and X, cobordism R : X -> C."""
    single = branes == ("*",)
    head = [] if single else ["branes " + ", ".join(branes) + ";"]
    is_identity = all(len(c) == 1 for c in cycles)
    sigma = "" if is_identity else " sigma " + "".join(
        "(" + " ".join(map(str, c)) + ")" for c in cycles
    )
    body = "\n".join(f"    {line};" for line in blines)
    return "\n\n".join(
        head
        + [
            "object C = [O];",
            f"object X = [{', '.join(x_entries)}]{sigma};",
            "cobordism R : X -> C {\n  component {\n"
            f"    genus {genus};\n{body}\n  }}\n}}",
        ]
    ) + "\n"


def _json(branes, x_entries, cycles, genus, boundary) -> dict:
    def entry(e):
        if e == "O":
            return {"type": "circle"}
        left, right = e[2:-1].split(",")
        return {"type": "interval", "left": left, "right": right}

    return {
        "format": 1,
        "branes": list(branes),
        "objects": {
            "C": {"entries": [{"type": "circle"}], "sigma": []},
            "X": {"entries": [entry(e) for e in x_entries], "sigma": cycles},
        },
        "cobordisms": {
            "R": {
                "source": "X",
                "target": "C",
                "components": [{"genus": genus, "boundary": boundary}],
            }
        },
    }


def _interval_shape(name: str, n: int, cycles: list[list[int]]) -> Shape:
    sigma = {c[k]: c[(k + 1) % len(c)] for c in cycles for k in range(len(c))}
    entries = ["I(*,*)"] * n
    mixed_lines, mixed_json = [], []
    for c in cycles:
        mixed_lines.append("mixed [" + ", ".join(f"in {x}, arc" for x in c) + "]")
        mixed_json.append(
            {
                "type": "mixed",
                "entries": [
                    e
                    for x in c
                    for e in (
                        {"type": "in", "index": x, "rev": True},
                        {"type": "arc", "brane": "*"},
                    )
                ],
            }
        )
    branes = ("*",)
    text = _text(branes, entries, cycles, 0, ["out 1"] + mixed_lines)
    boundary = [{"type": "out", "index": 1}] + mixed_json
    return Shape(name, n, text, sigma, 0, len(cycles), 0, text,
                 _json(branes, entries, cycles, 0, boundary))


def cycle_shape(n: int) -> Shape:
    return _interval_shape("cycle", n, [list(range(1, n + 1))])


def perm_shape(n: int, rng: random.Random) -> Shape:
    elements = list(range(1, n + 1))
    rng.shuffle(elements)
    cycles, rest = [], n
    while rest:
        k = max(1, rest // 2)
        cyc = elements[rest - k:rest]
        rest -= k
        least = cyc.index(min(cyc))
        cycles.append(cyc[least:] + cyc[:least])
    cycles.sort()
    return _interval_shape("perm", n, cycles)


def circles_shape(n: int) -> Shape:
    branes = ("*",)
    entries = ["O"] * n
    blines = [f"in {i}" for i in range(1, n + 1)] + ["out 1"]
    boundary = [{"type": "in", "index": i} for i in range(1, n + 1)]
    boundary.append({"type": "out", "index": 1})
    text = _text(branes, entries, [], 0, blines)
    return Shape("circles", n, text, {}, n, 0, 0, text,
                 _json(branes, entries, [], 0, boundary))


def tower_shape(n: int) -> Shape:
    branes = ("a", "b")
    steps = n * 5 // 4
    start = _text(branes, ["O"], [], 0, ["in 1", "out 1"])
    windows = [f"window {b}" for b in branes for _ in range(steps)]
    boundary = [{"type": "in", "index": 1}, {"type": "out", "index": 1}] + [
        {"type": "window", "brane": b} for b in branes for _ in range(steps)
    ]
    return Shape(
        "tower", n, start, {}, 1, 0, steps,
        _text(branes, ["O"], [], steps, ["in 1", "out 1"] + windows),
        _json(branes, ["O"], [], steps, boundary),
    )


def build(name: str, n: int, rng: random.Random) -> Shape:
    if name == "perm":
        return perm_shape(n, rng)
    return {"cycle": cycle_shape, "circles": circles_shape, "tower": tower_shape}[
        name
    ](n)


# ---------------------------------------------------------------------------
# the pipeline and its checks


def _euler(c) -> int:
    return sum(2 - 2 * comp.genus - len(comp.boundary) for comp in c.components)


def pipeline(r, s: Shape) -> dict:
    doc = r.call("dsl.parse", parse, s.text)
    x = doc.objects["X"]
    rdef = doc.cobordisms["R"]
    out = {"realized": r.call("calculus.realize", realize, x)}
    out["realized_sigma"] = r.call(
        "surfaces.boundary_permutation", boundary_permutation, out["realized"]
    )
    glued = out["glued"] = r.call(
        "calculus.compose", compose, rdef.cobordism, identity(x)
    )
    for _ in range(s.tower):
        glued = r.call("calculus.stabilize", stabilize, glued)
    form = r.call("classify.canonicalize", canonicalize, glued)
    result = Document(branes=doc.branes, objects=doc.objects)
    result.cobordisms["R"] = CobordismDef("X", "C", form.cobordism)
    out["text"] = r.call("dsl.serialize", serialize, result)
    out["json"] = r.call("dsl.to_json", to_json, result)
    back = r.call("dsl.from_json", from_json, out["json"]).cobordisms["R"].cobordism
    out["json_sigma"] = r.call(
        "surfaces.boundary_permutation", boundary_permutation, back
    )
    out["pulled_back"] = r.call(
        "calculus.pullback", pullback, rdef.cobordism, Permutation()
    )
    return out


def check(r, s: Shape, out: dict) -> None:
    realized = out["realized"]
    boundary = realized.components[0].boundary if realized.components else ()
    r.check(
        len(realized.components) == 1
        and len(boundary) == s.circles + s.cycles + 1
        and realized.source.c_number == s.circles + s.cycles + 1,
        f"{s.name}: realize does not have c = circles + cycles + 1 boundary circles",
    )
    r.check(out["realized_sigma"].mapping == s.sigma,
            f"{s.name}: boundary_permutation(realize(X)) != sigma")
    alpha = len(s.sigma)
    chi_r = 2 - (s.circles + s.cycles + 1)  # R: one genus-0 component
    chi_identity = alpha  # a square per interval, a cylinder per circle
    r.check(_euler(out["glued"]) == chi_r + chi_identity - alpha,
            f"{s.name}: euler characteristic not conserved by compose")
    r.check(out["text"] == s.expected_text,
            f"{s.name}: serialized result differs from the canonical text")
    r.check(json.loads(out["json"]) == s.expected_json,
            f"{s.name}: to_json result differs from the expected JSON")
    r.check(out["json_sigma"].mapping == s.sigma,
            f"{s.name}: from_json does not keep the permutation")
    r.check(out["pulled_back"].mapping == s.sigma,
            f"{s.name}: pullback along R of the trivial permutation != sigma")


def _item(s: Shape):
    def item(r):
        r.tag = (s.name, s.n)
        out = r.op_seq("pipeline", pipeline, r, s)
        check(r, s, out)

    return item


def setup(seed: int, traced: bool, tiny: bool = False):
    """Items for one run, and warm-up items at a small size.

    A traced run sweeps n over ``SWEEP`` to fit scaling slopes; an
    untraced run takes every shape at ``N``.
    """
    rng = random.Random(seed)
    sizes = ((6, 12, 24) if tiny else SWEEP) if traced else ((24,) if tiny else (N,))
    items = [_item(build(name, n, rng)) for n in sizes for name in SHAPES]
    warmup = [_item(build(name, 8, rng)) for name in SHAPES]
    return items, warmup
