"""``parse`` and ``from_json`` against the item-by-item reader in ``reference_dsl``.

On every input both must give the same document, or raise the same
exception class with the same message, line and column (and, for a
``DslValidationError``, the same violations).  The inputs: each
``corpus/malformed`` file, seeded token edits of the roundtrip texts,
seeded faults in the JSON data of sampled documents, one or two bad
values in each node of one document, cycle notation for
``parse_cycles``, and JSON data held in dict and str subclasses.  Every
prefix of each ``corpus/roundtrip`` file is compared in ``test_dsl.py``,
by the test that already parses each of them.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
from collections import OrderedDict

import pytest

from conftest import CORPUS
from occob.dsl import _tokenize, from_json, parse, parse_cycles
from occob.sampling import sample_document
from reference_dsl import (
    outcome,
    reference_from_json,
    reference_parse,
    reference_parse_cycles,
)
from reference_json import document_to_dict

ROUNDTRIP = [
    p.read_text(encoding="utf-8") for p in sorted((CORPUS / "roundtrip").glob("*.occ"))
]


def assert_same(read, reference, source) -> None:
    assert outcome(read, source) == outcome(reference, source), source


def test_malformed_files():
    files = sorted((CORPUS / "malformed").glob("*.occ"))
    assert files
    for path in files:
        assert_same(parse, reference_parse, path.read_text(encoding="utf-8"))


_VOCABULARY = sorted({t for text in ROUNDTRIP for t in _tokenize(text)}) + [
    "0",
    "9",
    "007",
    "1" * 700,  # longer than int() is sure to read, shorter than its limit
    "1" * 5000,  # past the interpreter's digit limit
    "z",
    "I",
    "O",
]


def _render(tokens: list[str]) -> str:
    """The tokens spaced out, with a line break after each ``;`` and ``{``."""
    return "".join(t + ("\n" if t in (";", "{") else " ") for t in tokens)


def _edited(rng: random.Random, tokens: list[str]) -> list[str]:
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(tokens) + 1)
        op = rng.randrange(3)
        if op == 0 and k < len(tokens):
            del tokens[k]
        elif op == 1:
            tokens.insert(k, rng.choice(_VOCABULARY))
        elif k < len(tokens):
            tokens[k] = rng.choice(_VOCABULARY)
    return tokens


@pytest.mark.parametrize("seed", range(4))
def test_token_edits_of_the_roundtrip_texts(seed):
    rng = random.Random(seed)
    for text in ROUNDTRIP:
        tokens = _tokenize(text)
        assert_same(parse, reference_parse, _render(tokens))
        for _ in range(12):
            assert_same(parse, reference_parse, _render(_edited(rng, tokens)))


_LEAVES = [
    -1, 0, 1, 2, 7, 10**700, True, False, 1.0, None, "", "*", "a", "b", "z",
    "a b", "in", "out", "arc", "rev", "mixed", "window", "circle", "interval",
    "object", [], {}, [1], ["a"], [[1]], [{}], {"type": "circle"},
    {"type": "arc", "brane": "a"}, {"type": "in", "index": 1},
]  # fmt: skip
_KEYS = ["", "type", "index", "rev", "brane", "left", "right", "entries",
         "sigma", "genus", "boundary", "components", "source", "target",
         "format", "branes", "objects", "cobordisms", "x", "object"]  # fmt: skip


def _nodes(node, path=()):
    """(path, node) for every node below the root, the root included."""
    yield path, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _nodes(child, path + (i,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _fault(rng: random.Random, data: dict) -> None:
    """Make one seeded change to ``data`` in place."""
    path, node = rng.choice(list(_nodes(data)))
    op = rng.randrange(6)
    if op == 0 and path:  # replace the node
        _at(data, path[:-1])[path[-1]] = copy.deepcopy(rng.choice(_LEAVES))
    elif op == 1 and isinstance(node, dict) and node:  # drop or rename a key
        key = rng.choice(list(node))
        value = node.pop(key)
        if rng.random() < 0.5:
            node[rng.choice(_KEYS)] = value
    elif op == 2 and isinstance(node, dict):  # add a key
        node[rng.choice(_KEYS)] = copy.deepcopy(rng.choice(_LEAVES))
    elif op == 3 and isinstance(node, list):  # add an item
        item = rng.choice(node) if node and rng.random() < 0.5 else rng.choice(_LEAVES)
        node.insert(rng.randint(0, len(node)), copy.deepcopy(item))
    elif op == 4 and isinstance(node, list) and len(node) > 1:  # reorder
        rng.shuffle(node)
    elif op == 5 and isinstance(node, list) and node:  # drop an item
        del node[rng.randrange(len(node))]


@pytest.mark.parametrize("branes", [None, ("a", "b"), ("a", "b", "c")])
def test_faults_in_sampled_json_documents(branes):
    rng = random.Random(len(branes or ()))
    for _ in range(200):
        doc = sample_document(rng) if branes is None else sample_document(rng, branes)
        data = document_to_dict(doc)
        for _ in range(rng.randint(1, 4)):
            _fault(rng, data)
        assert_same(from_json, reference_from_json, data)
        assert_same(from_json, reference_from_json, json.dumps(data))


PAIR_BASE = """\
branes a, b, c;
object circle = [O];
object labeled = [I(a,c), O, I(b,a), I(c,b)] sigma (1 3)(4);
cobordism collapse : labeled -> circle {
  component { genus 1; in 2; window b; mixed [in 1, arc a, in 3, arc b, in 4, arc c]; }
  component { genus 0; out 1; }
}
"""
_MISSING = object()
_BAD = [-1, "x", None, _MISSING]


def _put(node, key, value) -> None:
    if value is not _MISSING:
        node[key] = value
    elif isinstance(node, dict):
        del node[key]
    else:
        node[key] = []


def test_one_or_two_bad_values_in_each_node():
    """Each pair of fields or items of a node, the same one twice included,
    set to each pair of bad values: the error reported is the first."""
    base = document_to_dict(parse(PAIR_BASE))
    for path, node in list(_nodes(base)):
        if not isinstance(node, (dict, list)):
            continue
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        for a, b in itertools.combinations_with_replacement(keys, 2):
            for va, vb in itertools.product(_BAD, repeat=2):
                data = copy.deepcopy(base)
                target = _at(data, path)
                _put(target, b, vb)
                if a != b:
                    _put(target, a, va)
                assert_same(from_json, reference_from_json, data)


CYCLE_TEXTS = [
    "", "id", "id id", "id (1)", "()", "(", ")", "(1", "(1 2)(3)", "(1)(",
    "(1 2", "( 1 )", "(a)", "(1 a)", "1", "(1 2) x", "((1))", "(1,2)", "(0)",
    "(1)\n(2", "# c\n(1)", "(1 2)(2 3)", "(1 2) # c", "(\N{SUPERSCRIPT TWO})",
    "(" + "1" * 700 + ")", "(" + "1" * 5000 + ")", "(1 " + "1" * 5000 + " 2",
    "(1)(" + "9" * 5000, "(" + "1" * 5000 + " x", "(1 2 ;", "(*)",
]  # fmt: skip


@pytest.mark.parametrize("text", CYCLE_TEXTS, ids=range(len(CYCLE_TEXTS)))
def test_parse_cycles(text):
    assert_same(parse_cycles, reference_parse_cycles, text)


class Name(str):
    pass


def _subclassed(node):
    """``node`` with every object an ``OrderedDict`` and every string a ``Name``."""
    if isinstance(node, dict):
        return OrderedDict((_subclassed(k), _subclassed(v)) for k, v in node.items())
    if isinstance(node, list):
        return [_subclassed(v) for v in node]
    return Name(node) if isinstance(node, str) else node


def test_dict_and_str_subclasses():
    rng = random.Random(5)
    for k in range(120):
        data = document_to_dict(sample_document(rng, ("a", "b")))
        if k % 3 == 0:
            # Unfaulted, the subclassed document reads as the plain one does.
            doc = from_json(_subclassed(data))
            assert doc.cobordisms and repr(doc) == repr(from_json(data))
        for _ in range(k % 3):
            _fault(rng, data)
        assert_same(from_json, reference_from_json, _subclassed(data))
