"""Command line behavior, run in-process through main()."""

from __future__ import annotations

import json

import pytest

from conftest import CORPUS
from occob.cli import main
from occob.dsl import parse

STABILIZER = """\
object c1 = [O];

cobordism T : c1 -> c1 {
  component {
    genus 1;
    in 1;
    out 1;
    window;
  }
}

object p2 = [I(*,*), I(*,*)];
object p1 = [I(*,*)];

cobordism P : p2 -> p1 {
  component {
    genus 0;
    mixed [in 1, arc, in 2, arc, out 1, arc];
  }
}
"""

BROKEN = "object a = [O\n"

INVALID = """\
object c1 = [O];

cobordism X : c1 -> c1 {
  component {
    genus 0;
    in 1;
  }
}
"""


@pytest.fixture
def doc_path(tmp_path):
    p = tmp_path / "doc.occ"
    p.write_text(STABILIZER, encoding="utf-8")
    return str(p)


class TestCheck:
    def test_ok(self, doc_path, capsys):
        assert main(["check", doc_path]) == 0
        assert "2 cobordisms" in capsys.readouterr().out

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        p = tmp_path / "broken.occ"
        p.write_text(BROKEN, encoding="utf-8")
        assert main(["check", str(p)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_invalid_document_exits_1(self, tmp_path, capsys):
        p = tmp_path / "invalid.occ"
        p.write_text(INVALID, encoding="utf-8")
        assert main(["check", str(p)]) == 1
        assert "missing-use" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent/nowhere.occ"]) == 2


class TestCompose:
    def test_emits_parseable_document(self, doc_path, capsys):
        assert main(["compose", doc_path, "T", "T"]) == 0
        out = capsys.readouterr().out
        doc = parse(out)
        cob = doc.cobordisms["result"].cobordism
        assert cob.components[0].genus == 2

    def test_unknown_name_exits_1(self, doc_path, capsys):
        assert main(["compose", doc_path, "T", "nope"]) == 1
        assert "nope" in capsys.readouterr().err

    def test_interface_mismatch_exits_1(self, doc_path, capsys):
        assert main(["compose", doc_path, "T", "P"]) == 1

    def test_output_name_flag(self, doc_path, capsys):
        assert main(["compose", doc_path, "T", "T", "-o", "twice"]) == 0
        assert "cobordism twice" in capsys.readouterr().out

    def test_json_output(self, doc_path, capsys):
        assert main(["compose", doc_path, "T", "T", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == 1
        assert "result" in payload["cobordisms"]


class TestQueries:
    def test_invariants_text(self, doc_path, capsys):
        assert main(["invariants", doc_path, "T"]) == 0
        out = capsys.readouterr().out
        assert "genus=1" in out
        assert "windows={*:1}" in out
        assert "euler=-3" in out
        assert "c=2" in out
        assert "b=true" in out

    def test_invariants_json(self, doc_path, capsys):
        assert main(["invariants", doc_path, "T", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"]["genus"] == 1
        assert payload["c_number"] == 2
        assert payload["b_subcategory"] is True

    def test_sigma(self, doc_path, capsys):
        assert main(["sigma", doc_path, "T"]) == 0
        assert capsys.readouterr().out.strip() == "id"

    def test_sigma_rejects_wrong_target(self, doc_path, capsys):
        assert main(["sigma", doc_path, "P"]) == 1

    def test_pullback(self, doc_path, capsys):
        assert main(["pullback", doc_path, "P", "--tau", "id"]) == 0
        assert capsys.readouterr().out.strip() == "(1 2)"

    def test_pullback_json(self, doc_path, capsys):
        assert main(["pullback", doc_path, "P", "--tau", "id", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["permutation"]["text"] == "(1 2)"

    def test_iso_same(self, doc_path, capsys):
        assert main(["iso", doc_path, "T", "T"]) == 0
        assert "isomorphic" in capsys.readouterr().out

    def test_iso_mismatched_objects_exits_1(self, doc_path, capsys):
        assert main(["iso", doc_path, "T", "P"]) == 1


class TestClassify:
    def test_four_rows(self, doc_path, capsys):
        assert main(["classify", doc_path, "c1", "-G", "1", "-W", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["g", "w_*", "c", "b_flag"]
        assert len(lines) == 5

    def test_csv_export(self, doc_path, tmp_path, capsys):
        out_csv = tmp_path / "table.csv"
        rc = main(
            ["classify", doc_path, "c1", "-G", "1", "-W", "1", "--csv", str(out_csv)]
        )
        assert rc == 0
        rows = out_csv.read_text(encoding="utf-8").strip().splitlines()
        assert rows[0] == "g,w_*,c,b_flag"
        assert rows[1] == "0,0,2,true"
        assert len(rows) == 5


class TestStabilize:
    def test_repeated(self, doc_path, capsys):
        assert main(["stabilize", doc_path, "T", "-k", "2"]) == 0
        doc = parse(capsys.readouterr().out)
        cob = doc.cobordisms["result"].cobordism
        assert cob.components[0].genus == 3

    def test_zero_is_the_identity(self, doc_path, capsys):
        assert main(["stabilize", doc_path, "T", "-k", "0"]) == 0
        doc = parse(capsys.readouterr().out)
        assert doc.cobordisms["result"].cobordism.components[0].genus == 1

    @pytest.mark.parametrize("k", ["-3", "two"])
    def test_bad_count_exits_2(self, doc_path, capsys, k):
        with pytest.raises(SystemExit) as exit_:
            main(["stabilize", doc_path, "T", "-k", k])
        assert exit_.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err


class TestSwapTensor:
    def test_swap(self, doc_path, capsys):
        assert main(["swap", doc_path, "p2", "p1"]) == 0
        doc = parse(capsys.readouterr().out)
        cob = doc.cobordisms["result"].cobordism
        assert len(cob.source.entries) == 3
        assert len(cob.components) == 3

    def test_tensor(self, doc_path, capsys):
        assert main(["tensor", doc_path, "T", "P"]) == 0
        doc = parse(capsys.readouterr().out)
        cob = doc.cobordisms["result"].cobordism
        assert len(cob.source.entries) == 3


class TestCorpusThroughCli:
    def test_every_roundtrip_file_checks(self, capsys):
        for path in sorted((CORPUS / "roundtrip").glob("*.occ")):
            assert main(["check", str(path)]) == 0, path.name
            capsys.readouterr()

    def test_every_malformed_file_exits_2(self, capsys):
        for path in sorted((CORPUS / "malformed").glob("*.occ")):
            assert main(["check", str(path)]) == 2, path.name
            assert "line" in capsys.readouterr().err, path.name

    def test_iso_on_shuffled_encodings(self, tmp_path, capsys):
        import random

        from occob.dsl import CobordismDef, Document, serialize
        from occob.sampling import sample_cobordism, shuffled

        rng = random.Random(11)
        cob = sample_cobordism(rng, ("a", "b"))
        doc = Document(branes=cob.source.branes)
        doc.objects["s"] = cob.source
        doc.objects["t"] = cob.target
        doc.cobordisms["one"] = CobordismDef("s", "t", cob)
        doc.cobordisms["two"] = CobordismDef("s", "t", shuffled(rng, cob))
        p = tmp_path / "pair.occ"
        p.write_text(serialize(doc), encoding="utf-8")
        assert main(["iso", str(p), "one", "two"]) == 0
