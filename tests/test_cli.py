"""Command line behavior, run in-process through main()."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, REPO
from occob import calculus, classify, cli
from occob.cli import _build_parser, main
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
LONG = "1" * 5000  # past the interpreter's int conversion limit

INVALID = """\
object c1 = [O];

cobordism X : c1 -> c1 {
  component {
    genus 0;
    in 1;
  }
}
"""


MULTIBRANE = str(CORPUS / "roundtrip" / "feature_multibrane.occ")

# classify MULTIBRANE labeled -G 1 -W 1: the object has one circle and one
# sigma cycle, so its c-number is 3.
THREE_BRANE_TABLE = """\
g w_a w_b w_c c b_flag
0 0 0 0 3 true
0 0 0 1 3 true
0 0 1 0 3 true
0 0 1 1 3 true
0 1 0 0 3 true
0 1 0 1 3 true
0 1 1 0 3 true
0 1 1 1 3 true
1 0 0 0 3 true
1 0 0 1 3 true
1 0 1 0 3 true
1 0 1 1 3 true
1 1 0 0 3 true
1 1 0 1 3 true
1 1 1 0 3 true
1 1 1 1 3 true
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

    def test_path_with_a_nul_byte_exits_2(self, capsys):
        assert main(["check", "a\x00b"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot read a\x00b: embedded null byte\n"
        )

    def test_over_long_integer_exits_2(self, tmp_path, capsys):
        p = tmp_path / "long.occ"
        p.write_text(f"object a = [I(*,*)] sigma ({LONG});\n", encoding="utf-8")
        assert main(["check", str(p)]) == 2
        assert capsys.readouterr().err == (
            "syntax error: line 1, column 28: "
            "integer literal of 5000 digits is too long\n"
        )

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        p = tmp_path / "latin1.occ"
        p.write_bytes(b"object A = [O];\n\xff\n")
        assert main(["check", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {p}: not valid UTF-8 at byte offset 16\n"
        )


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

    @pytest.mark.parametrize("layout", [[], ["--json"]], ids=["text", "json"])
    def test_invariants_too_long_to_print_exit_1(self, tmp_path, capsys, layout):
        """A genus of 4300 digits parses, but its Euler characteristic has
        one more digit than the interpreter writes in decimal."""
        p = tmp_path / "huge.occ"
        p.write_text(
            f"object c = [O];\ncobordism T : c -> c {{\n"
            f"  component {{ genus {'9' * 4300}; in 1; out 1; }}\n}}\n",
            encoding="utf-8",
        )
        assert main(["invariants", str(p), "T", *layout]) == 1
        assert capsys.readouterr() == (
            "",
            "error: an integer of 14286 bits is too long to write in decimal\n",
        )

    def test_sigma(self, doc_path, capsys):
        assert main(["sigma", doc_path, "T"]) == 0
        assert capsys.readouterr().out.strip() == "id"

    def test_sigma_rejects_wrong_target(self, doc_path, capsys):
        assert main(["sigma", doc_path, "P"]) == 1

    def test_pullback(self, doc_path, capsys):
        assert main(["pullback", doc_path, "P", "--tau", "id"]) == 0
        assert capsys.readouterr().out.strip() == "(1 2)"

    def test_pullback_over_long_integer_exits_2(self, doc_path, capsys):
        assert main(["pullback", doc_path, "P", "--tau", f"(1 {LONG})"]) == 2
        assert capsys.readouterr().err == (
            "syntax error: line 1, column 4: "
            "integer literal of 5000 digits is too long\n"
        )

    def test_pullback_json(self, doc_path, capsys):
        assert main(["pullback", doc_path, "P", "--tau", "id", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["permutation"]["text"] == "(1 2)"

    def test_iso_same(self, doc_path, capsys):
        assert main(["iso", doc_path, "T", "T"]) == 0
        assert "isomorphic" in capsys.readouterr().out

    def test_iso_mismatched_objects_exits_1(self, doc_path, capsys):
        assert main(["iso", doc_path, "T", "P"]) == 1

    def test_iso_json(self, doc_path, capsys):
        assert main(["iso", doc_path, "T", "T", "--json"]) == 0
        assert capsys.readouterr() == ('{"format": 1, "isomorphic": true}\n', "")


class TestClassify:
    def test_four_rows(self, doc_path, capsys):
        assert main(["classify", doc_path, "c1", "-G", "1", "-W", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["g", "w_*", "c", "b_flag"]
        assert len(lines) == 5

    def test_json_renders_no_table(self, doc_path, capsys, monkeypatch):
        argv = ["classify", doc_path, "c1", "-G", "1", "-W", "1", "--json"]
        assert main(argv) == 0
        expected = capsys.readouterr()

        def refuse(*table):
            raise AssertionError("a text or CSV row was rendered")

        monkeypatch.setattr(cli, "_table", refuse)
        assert main(argv) == 0
        assert capsys.readouterr() == expected

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

    def test_unwritable_csv_path_exits_2(self, doc_path, tmp_path, capsys):
        out_csv = tmp_path / "missing" / "table.csv"
        argv = ["classify", doc_path, "c1", "-G", "1", "-W", "1", "--csv", str(out_csv)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot write {out_csv}: No such file or directory\n"

    def test_csv_path_with_a_nul_byte_exits_2(self, doc_path, capsys):
        argv = ["classify", doc_path, "c1", "-G", "1", "-W", "1", "--csv", "t\x00"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: cannot write t\x00: embedded null byte\n"

    def test_three_brane_text_csv_and_json(self, tmp_path, capsys):
        argv = ["classify", MULTIBRANE, "labeled", "-G", "1", "-W", "1"]
        table = tmp_path / "table.csv"
        assert main([*argv, "--csv", str(table)]) == 0
        assert capsys.readouterr() == (THREE_BRANE_TABLE, "")
        csv_text = THREE_BRANE_TABLE.replace(" ", ",").replace("\n", "\r\n")
        assert table.read_bytes().decode("utf-8") == csv_text
        assert main([*argv, "--json"]) == 0
        rows = [
            {"b_flag": True, "c": 3, "g": g, "w": {"a": a, "b": b, "c": c}}
            for g, a, b, c, _ in (
                map(int, line.split()[:5])
                for line in THREE_BRANE_TABLE.splitlines()[1:]
            )
        ]
        payload = {"branes": ["a", "b", "c"], "format": 1, "rows": rows}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr() == (text, "")

    @pytest.mark.parametrize("flag", ["-G", "-W"])
    def test_non_ascii_digits_exit_2(self, doc_path, capsys, flag):
        argv = ["classify", doc_path, "c1", "-G", "1", "-W", "1"]
        argv[argv.index(flag) + 1] = "\u0663"  # ARABIC-INDIC DIGIT THREE
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [("-3", "1"), ("1", "-2")])
    def test_negative_bound_exits_2(self, doc_path, capsys, bounds):
        with pytest.raises(SystemExit) as exit_:
            main(["classify", doc_path, "c1", "-G", bounds[0], "-W", bounds[1]])
        assert exit_.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_a_grid_too_large_to_build_exits_1(self, capsys):
        path = str(CORPUS / "roundtrip" / "ref_interfaces.occ")
        for windows in ("99999999999999999999", "100000000"):
            argv = ["classify", "-G", "0", "-W", windows, path, "five"]
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


_LABELS = st.sampled_from(["*", "a", "w_*", "b_flag", "\u00e9", "\u03bb1"]) | st.text(
    max_size=6
)
_JSON_VALUES = st.recursive(
    st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | _LABELS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_LABELS, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_dumps_writes_what_json_dumps_writes(value):
    """The CLI's JSON writer, on nested dicts and lists of labels, ints
    of any size and sign, and bools, empty containers included."""
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


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

    def test_a_huge_count_stops_where_the_writers_refuse(self, capsys, monkeypatch):
        """Each step adds a window, so after one step past the keyed-window
        cap the writers refuse the result, as they would after all k: the
        command stops there, with the same error, instead of running k."""
        monkeypatch.setattr(classify, "_MAX_KEYED_WINDOWS", 8)
        deadline, step = time.monotonic() + 10, calculus.stabilize

        def timed(cob):
            assert time.monotonic() < deadline, "stabilize -k ran past its deadline"
            return step(cob)

        monkeypatch.setattr(calculus, "stabilize", timed)
        path = str(CORPUS / "roundtrip" / "ref_stabilizer.occ")
        assert main(["stabilize", path, "T", "-k", str(10**12)]) == 1
        err = "error: cobordism has more than 8 windows in all\n"
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("k", ["-3", "two", "\u0663"])
    def test_bad_count_exits_2(self, doc_path, capsys, k):
        with pytest.raises(SystemExit) as exit_:
            main(["stabilize", doc_path, "T", "-k", k])
        assert exit_.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["object", "a b"])
    def test_name_outside_the_grammar_exits_2(self, doc_path, capsys, name):
        with pytest.raises(SystemExit) as exit_:
            main(["stabilize", doc_path, "T", "-o", name])
        assert exit_.value.code == 2
        assert "not a usable name" in capsys.readouterr().err


class TestSwapTensor:
    def test_unknown_object_exits_1(self, doc_path, capsys):
        assert main(["swap", doc_path, "nope", "p1"]) == 1
        assert capsys.readouterr() == ("", "error: no object named 'nope' in the file\n")

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


# Exit code and diagnostic of ``occob check`` on each malformed corpus file.
MALFORMED = {
    "bad_arrow.occ": (2, "line 2, column 18: unexpected character '>'"),
    "bare_arc_multibrane.occ": (2, "line 6, column 21: arc needs a brane label"),
    "bare_window_multibrane.occ": (2, "line 8, column 11: window needs a brane label"),
    "branes_not_first.occ": (
        2,
        "line 2, column 1: a branes declaration must come first",
    ),
    "duplicate_cobordism.occ": (2, "line 9, column 11: cobordism 'c' already defined"),
    "duplicate_object.occ": (2, "line 2, column 8: object 'a' already defined"),
    "empty_mixed.occ": (
        2,
        "line 5, column 12: expected 'in', 'out', or 'arc', got ']'",
    ),
    "illegal_char.occ": (2, "line 1, column 9: unexpected character '@'"),
    "keyword_as_name.occ": (
        2,
        "line 1, column 8: keyword 'component' cannot be used as an object name",
    ),
    "missing_colon.occ": (2, "line 2, column 13: expected ':', got 'a'"),
    "missing_genus.occ": (2, "line 4, column 5: expected 'genus', got 'in'"),
    "missing_index.occ": (2, "line 5, column 7: expected an integer, got ';'"),
    "missing_semicolon.occ": (2, "line 2, column 1: expected ';', got 'object'"),
    "negative_genus.occ": (2, "line 4, column 11: stray '-' (expected '->')"),
    "sigma_letters.occ": (2, "line 1, column 28: expected an integer, got 'a'"),
    "sigma_unclosed.occ": (2, "line 1, column 39: expected ')', got ';'"),
    "stray_token.occ": (
        2,
        "line 1, column 17: expected 'object' or 'cobordism', got 'surplus'",
    ),
    "trailing_comma.occ": (
        2,
        "line 5, column 34: expected 'in', 'out', or 'arc', got ']'",
    ),
    "typo_keyword.occ": (
        2,
        "line 1, column 1: expected 'object' or 'cobordism', got 'objct'",
    ),
    "unclosed_component.occ": (
        2,
        "line 6, column 1: expected a boundary line, got 'end of input'",
    ),
    "unclosed_entries.occ": (2, "line 1, column 22: expected ']', got ';'"),
    "undeclared_brane.occ": (2, "line 2, column 17: brane 'z' is not declared"),
    "unknown_source.occ": (2, "line 2, column 15: unknown object 'ghost'"),
    "unknown_target.occ": (2, "line 2, column 20: unknown object 'ghost'"),
}


class TestCorpusThroughCli:
    def test_every_roundtrip_file_checks(self, capsys):
        for path in sorted((CORPUS / "roundtrip").glob("*.occ")):
            assert main(["check", str(path)]) == 0, path.name
            capsys.readouterr()

    def test_every_malformed_file_exits_2(self, capsys):
        paths = sorted((CORPUS / "malformed").glob("*.occ"))
        assert [p.name for p in paths] == sorted(MALFORMED)
        for path in paths:
            code, message = MALFORMED[path.name]
            assert main(["check", str(path)]) == code, path.name
            assert capsys.readouterr() == ("", f"syntax error: {message}\n"), path.name

    def test_invariants_text_and_json_agree(self, capsys):
        row = re.compile(r"(?:component \d+|total): (.*) windows=\{(.*)\} euler=(-?\d+)")

        def parse_row(text):
            head, windows, euler = row.fullmatch(text).groups()
            pairs = (item.split(":") for item in windows.split(", ") if item)
            return head, {b: int(n) for b, n in pairs}, int(euler)

        def key(genus, windows, euler):
            return genus, tuple(sorted((b, n) for b, n in windows.items() if n)), euler

        checked = 0
        for path in sorted((CORPUS / "roundtrip").glob("*.occ")):
            for name in parse(path.read_text(encoding="utf-8")).cobordisms:
                assert main(["invariants", str(path), name]) == 0
                text = capsys.readouterr().out.splitlines()
                assert main(["invariants", "--json", str(path), name]) == 0
                payload = json.loads(capsys.readouterr().out)
                *comps, total = map(parse_row, text[:-2])
                got = Counter(
                    key(int(head.removeprefix("genus=")), w, e) for head, w, e in comps
                )
                want = Counter(
                    key(c["genus"], c["windows"], c["euler"]) for c in payload["components"]
                )
                assert got == want, (path.name, name)
                t = payload["total"]
                assert len(comps) == t["components"]
                assert total == (
                    f"components={t['components']} genus={t['genus']}",
                    t["windows"],
                    t["euler"],
                )
                assert text[-2:] == [
                    f"c={payload['c_number']}",
                    f"b={str(payload['b_subcategory']).lower()}",
                ]
                checked += 1
        assert checked > 50

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


class TestParserReuse:
    def test_cached_parser_leaks_no_state_between_calls(self, doc_path, tmp_path, capsys):
        table = tmp_path / "table.csv"
        calls = [
            ["classify", doc_path, "c1", "-G", "1", "-W", "1", "--csv", str(table)],
            ["classify", doc_path, "c1", "-G", "1", "-W", "1"],
            ["stabilize", doc_path, "T", "-k", "3"],
            ["stabilize", doc_path, "T"],
            ["invariants", "--json", doc_path, "T"],
            ["invariants", doc_path, "T"],
            ["stabilize", doc_path, "T", "-k", "two"],
            ["check", doc_path],
            ["compose", doc_path, "T", "T", "-o", "X"],
            ["compose", doc_path, "T", "T"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            wrote = table.exists()
            table.unlink(missing_ok=True)
            return (code, *capsys.readouterr(), wrote)

        reused = [run(argv) for argv in calls]
        fresh = []
        for argv in calls:
            _build_parser.cache_clear()
            fresh.append(run(argv))
        assert reused == fresh
        assert [r[3] for r in reused] == [True] + [False] * 9
        assert [r[0] for r in reused] == [0] * 6 + [2] + [0] * 3
        assert reused[2][1] != reused[3][1] and reused[4][1] != reused[5][1]
        assert "cobordism X :" in reused[8][1] and "cobordism result :" in reused[9][1]


def _fresh_env() -> dict[str, str]:
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_fresh_process_check_exit_codes():
    def check(path):
        return subprocess.run(
            [sys.executable, "-m", "occob.cli", "check", str(path)],
            capture_output=True, text=True, env=_fresh_env(), timeout=60,
        )

    ok = check(CORPUS / "roundtrip" / "ref_stabilizer.occ")
    assert ok.returncode == 0 and ok.stdout.startswith("ok: ")
    bad = check(sorted((CORPUS / "malformed").glob("*.occ"))[0])
    assert bad.returncode == 2
    assert re.search(r"line \d+, column \d+", bad.stderr)


def _assert_exits_1_when_closed_after(argv: list[str], first_line: bytes) -> None:
    """The reader takes one line and closes the pipe, as ``head -1`` does;
    ``run`` must exit 1 without a traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "occob.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env(),
    )
    try:
        assert proc.stdout.readline() == first_line
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_fresh_process_exits_1_when_stdout_closes_early():
    """The table's 40,401 rows are far beyond the pipe's 64 KiB buffer, so
    the write fails while the command runs."""
    path = CORPUS / "roundtrip" / "ref_interfaces.occ"
    argv = ["classify", str(path), "five", "-G", "200", "-W", "200"]
    _assert_exits_1_when_closed_after(argv, b"g w_* c b_flag\n")


@pytest.mark.parametrize(
    "options, first_line",
    [
        (["-k", "50000"], b"object result_src = [O];\n"),
        (["-k", "20000", "--json"], b"{\n"),
    ],
    ids=["text", "json"],
)
def test_fresh_process_exits_1_when_an_emitted_document_is_cut(options, first_line):
    """As above, for a document that ``stabilize`` prints: its windows line
    runs far beyond the pipe's buffer, and one write of the whole document
    would return a short count rather than fail."""
    path = CORPUS / "roundtrip" / "ref_stabilizer.occ"
    argv = ["stabilize", str(path), "T", *options]
    _assert_exits_1_when_closed_after(argv, first_line)
