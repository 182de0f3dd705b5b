"""``occob classify`` against the row-based layouts of ``reference_classify``.

The text table, the CSV file and the JSON of the command must equal the
earlier rendering from ``strata_table``'s rows, byte for byte, on sampled
objects over one to three branes (one label not ASCII) at several
bounds, on an object with no realizer, and on one grid of 40,401 rows.
"""

from __future__ import annotations

import pytest

from occob.cli import main
from occob.dsl import Document, serialize
from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation
from occob.sampling import sample_object
from reference_classify import reference_csv, reference_json, reference_text

BRANE_SETS = [(STAR,), ("a", "é"), ("a", "b", "c")]
BOUNDS = [(0, 0), (1, 2), (2, 1), (3, 3)]


def _classify(tmp_path, capsys, obj: GeneralObject, g: int, w: int):
    """(exit, text, csv, json) of ``classify`` on ``obj``, named ``x``."""
    doc = Document(branes=obj.branes, objects={"x": obj})
    path = tmp_path / "doc.occ"
    path.write_text(serialize(doc), encoding="utf-8")
    table = tmp_path / "table.csv"
    table.unlink(missing_ok=True)
    argv = ["classify", str(path), "x", "-G", str(g), "-W", str(w)]
    code = main([*argv, "--csv", str(table)])
    text = capsys.readouterr()
    csv_text = table.read_bytes().decode("utf-8") if table.exists() else None
    assert main([*argv, "--json"]) == code
    json_text = capsys.readouterr()
    return code, text, csv_text, json_text


def _assert_as_reference(tmp_path, capsys, obj, g, w):
    code, text, csv_text, json_text = _classify(tmp_path, capsys, obj, g, w)
    assert code == 0, text.err
    assert text == (reference_text(obj, g, w), "")
    assert csv_text == reference_csv(obj, g, w)
    assert json_text == (reference_json(obj, g, w), "")


@pytest.mark.parametrize("branes", BRANE_SETS, ids=["*", "a-e-acute", "abc"])
@pytest.mark.parametrize("bounds", BOUNDS, ids=lambda b: f"G{b[0]}-W{b[1]}")
def test_classify_layouts_equal_the_row_based_reference(
    rng, tmp_path, capsys, branes, bounds
):
    for _ in range(4):
        _assert_as_reference(tmp_path, capsys, sample_object(rng, branes), *bounds)


def test_an_object_with_no_realizer_writes_nothing(tmp_path, capsys):
    obj = GeneralObject({"a", "b"}, [Interval("a", "b")])
    code, text, csv_text, json_text = _classify(tmp_path, capsys, obj, 1, 1)
    assert code == 1
    assert text.out == json_text.out == "" and csv_text is None
    assert text.err == json_text.err != ""


def test_a_grid_of_40401_rows_equals_the_reference(tmp_path, capsys):
    obj = GeneralObject({STAR}, [Circle(), Interval(STAR, STAR)] * 2,
                        Permutation.from_cycles([[2, 4]], {2, 4}))
    _assert_as_reference(tmp_path, capsys, obj, 200, 200)
