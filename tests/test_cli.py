"""Tests for instance parsing, report assembly, and the CLI."""

import json
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

from multimult import reductions
from multimult.cli import main, run_instance, run_request
from multimult.hilbert import table_on_window
from multimult.instances import COMMANDS, InstanceParseError, parse_instance, parse_monomial
from multimult.monomials import RingContext

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "docs" / "instances" / "dim4_joint_reduction.json"

MINIMAL = """
{
  "variables": ["x1", "x2"],
  "J": ["x1", "x2"],
  "ideals": {"I1": ["x1", "x2"]},
  "candidates": {
    "c": {
      "type": {"k0": 0, "k": [1]},
      "elements": [
        {"monomial": "x1", "source": "I1"},
        {"monomial": "x2", "source": "J"}
      ]
    }
  },
  "requests": []
}
"""


class TestMonomialParsing:
    def test_basic(self):
        ctx = RingContext(3)
        mono = parse_monomial("x1^2*x3", ["x1", "x2", "x3"], ctx, "t")
        assert mono.exponents == (2, 0, 1)

    def test_unit(self):
        ctx = RingContext(2)
        assert parse_monomial("1", ["x1", "x2"], ctx, "t").is_one()

    def test_unknown_variable(self):
        ctx = RingContext(2)
        with pytest.raises(InstanceParseError, match="unknown variable"):
            parse_monomial("x5", ["x1", "x2"], ctx, "t")

    def test_malformed_exponent(self):
        ctx = RingContext(2)
        with pytest.raises(InstanceParseError, match="malformed exponent"):
            parse_monomial("x1^b", ["x1", "x2"], ctx, "t")


class TestInstanceParsing:
    def test_minimal(self):
        inst = parse_instance(MINIMAL)
        assert inst.variables == ("x1", "x2")
        assert "c" in inst.candidates

    def test_sample_file(self):
        inst = parse_instance(SAMPLE.read_text())
        assert inst.ideal_names == ("I1", "I2")
        cand = inst.candidates["x"]
        assert cand.declared_type.k0 == 2
        assert cand.declared_type.k == (0, 1)

    def test_empty_ideals_rejected(self):
        doc = json.loads(MINIMAL)
        doc["ideals"] = {}
        with pytest.raises(InstanceParseError, match="at-least-one-ideal"):
            parse_instance(json.dumps(doc))

    def test_json_error_has_location(self):
        with pytest.raises(InstanceParseError, match="line"):
            parse_instance("{not json")

    def test_candidate_type_mismatch(self):
        doc = json.loads(MINIMAL)
        doc["candidates"]["c"]["type"] = {"k0": 1, "k": [1]}
        with pytest.raises(InstanceParseError, match="candidate-type mismatch"):
            parse_instance(json.dumps(doc))

    def test_unknown_source(self):
        doc = json.loads(MINIMAL)
        doc["candidates"]["c"]["elements"][0]["source"] = "I9"
        with pytest.raises(InstanceParseError, match="unknown source"):
            parse_instance(json.dumps(doc))


class TestRequests:
    def test_mixed_request(self):
        inst = parse_instance(MINIMAL)
        out = run_request(inst, {"command": "mixed", "type": {"k0": 0, "k": [1]}})
        assert out["value"] == "1"
        assert out["defined"] is True

    def test_verify_jr_request(self):
        inst = parse_instance(MINIMAL)
        out = run_request(inst, {"command": "verify-jr", "candidate": "c"})
        assert out["certificate"]["holds"] is True

    def test_chi_request_both_methods(self):
        inst = parse_instance(MINIMAL)
        out = run_request(inst, {"command": "chi", "candidate": "c", "direct": True})
        assert out["difference"]["value"] == 1
        assert out["direct"]["value"] == 1
        assert out["methods_agree"] is True

    def test_search_request(self):
        inst = parse_instance(MINIMAL)
        out = run_request(inst, {"command": "search-jr", "type": {"k0": 0, "k": [1]}})
        assert out["found"] is not None

    def test_hilbert_request(self):
        inst = parse_instance(MINIMAL)
        out = run_request(inst, {"command": "hilbert", "which": "P"})
        assert out["polynomial"]["total_degree"] == 1

    def test_hilbert_table_is_the_fit_window(self):
        # M = A/(x1) is killed by saturating with I1 = (x1): a zero fit.
        zero = json.loads(MINIMAL)
        zero["module_relations"] = ["x1"]
        zero["ideals"] = {"I1": ["x1"]}
        zero["candidates"] = {}
        for text in (MINIMAL, json.dumps(zero)):
            inst = parse_instance(text)
            for which in ("P", "F"):
                out = run_request(inst, {"command": "hilbert", "which": which})
                prov = out["provenance"]
                table = table_on_window(
                    inst.family, which, prov["window_base"], prov["window_extent"]
                )
                assert out["table"]["values"] == table.tolist()
                assert out["table"]["base"] == [prov["window_base"]] * (inst.family.d + 1)

    def test_determinism(self):
        doc = json.loads(MINIMAL)
        doc["requests"] = [
            {"command": "mixed", "type": {"k0": 0, "k": [1]}},
            {"command": "verify-jr", "candidate": "c"},
            {"command": "mult-symbol", "candidate": "c"},
        ]
        inst = parse_instance(json.dumps(doc))
        first = run_instance(inst)
        second = run_instance(inst)
        first.pop("timing_seconds")
        second.pop("timing_seconds")
        assert first == second


class TestCertifiedOnce:
    def test_sample_certifies_each_candidate_once(self, monkeypatch):
        # verify-jr, verify-theorem, verify-corollaries and chi all read the
        # one certificate of their candidate; parsing certifies nothing.
        original = reductions.verify_joint_reduction
        certified = []

        def counting(fam, cand):
            certified.append(cand)
            return original(fam, cand)

        for name, module in list(sys.modules.items()):
            held = getattr(module, "verify_joint_reduction", None)
            if name.split(".")[0] == "multimult" and held is original:
                monkeypatch.setattr(module, "verify_joint_reduction", counting)
        inst = parse_instance(SAMPLE.read_text())
        assert certified == []
        run_instance(inst)
        counts = {name: sum(c is cand for c in certified) for name, cand in inst.candidates.items()}
        assert counts == {"x": 1, "z": 1}
        assert len(certified) == 2


def corollaries(doc, **fields):
    inst = parse_instance(json.dumps(doc))
    return run_request(inst, dict(command="verify-corollaries", **fields))["reports"]


def claims(reports):
    return [(r["claim"], r["verdict"]) for r in reports]


class TestCorollarySelection:
    """Which corollaries a verify-corollaries request runs, in report order."""

    @staticmethod
    def base_type_doc(i1):
        # A type (1, 0) candidate, x1 and x2 from J = (x1, x2).
        doc = json.loads(MINIMAL)
        doc["ideals"] = {"I1": i1}
        doc["candidates"] = {"j": {
            "type": {"k0": 1, "k": [0]},
            "elements": [{"monomial": "x1", "source": "J"}, {"monomial": "x2", "source": "J"}],
        }}
        return doc

    def test_all_primary_base_type(self):
        reports = corollaries(self.base_type_doc(["x1", "x2"]), candidate="j")
        assert claims(reports) == [
            ("saturated-transition-eq", "EQUAL"),
            ("sop-comparison-eq", "EQUAL"),
            ("height-criterion", "EQUAL"),
            ("primary-recovery", "EQUAL"),
            ("base-type", "EQUAL"),
        ]

    def test_no_positive_axis_no_quotient_comparison(self):
        # I1 = (x1) is not primary to the maximal ideal: no primary recovery.
        reports = corollaries(self.base_type_doc(["x1"]), candidate="j")
        assert claims(reports) == [
            ("saturated-transition-eq", "EQUAL"),
            ("sop-comparison-eq", "EQUAL"),
            ("height-criterion", "EQUAL"),
            ("base-type", "EQUAL"),
        ]

    def test_first_positive_axis_without_ideal(self):
        # Candidate x has type (2, (0, 1)): the first axis with k_i > 0 is I2.
        doc = json.loads(SAMPLE.read_text())
        unnamed = corollaries(doc, candidate="x")
        assert unnamed == corollaries(doc, candidate="x", ideal="I2")
        assert claims(unnamed) == [
            ("quotient-comparison-eq", "EQUAL"),
            ("saturated-transition-eq", "EQUAL"),
            ("sop-comparison-le", "LEQ_STRICT"),
            ("height-criterion", "HYPOTHESIS_UNMET"),
        ]
        assert all(h["holds"] for h in unnamed[0]["hypotheses"])
        # On I1, where k_1 = 0, the comparison asserts nothing.
        on_i1 = corollaries(doc, candidate="x", ideal="I1")
        assert claims(on_i1)[0] == ("quotient-comparison", "HYPOTHESIS_UNMET")


def assert_rejected(tmp_path, capsys, bad, path):
    """`bad`, behind a good request, makes the run exit 2 at parse time with
    `path` on stderr: no request runs and no report is written."""
    doc = json.loads(MINIMAL)
    # A candidate whose type has no positive k_i.
    doc["candidates"]["j"] = {
        "type": {"k0": 1, "k": [0]},
        "elements": [{"monomial": "x1", "source": "J"}, {"monomial": "x2", "source": "J"}],
    }
    doc["requests"] = [{"command": "mixed", "type": {"k0": 0, "k": [1]}}, bad]
    assert_document_rejected(tmp_path, capsys, doc, path)


def assert_document_rejected(tmp_path, capsys, doc, path):
    """The run of `doc` (a document, or its text) exits 2 at parse time with
    `path` on stderr and no traceback, and writes no report."""
    text = doc if isinstance(doc, str) else json.dumps(doc)
    f = tmp_path / "inst.json"
    f.write_text(text)
    out_path = tmp_path / "report.json"
    assert main(["run", str(f), "--json", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert path in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out_path.exists()
    with pytest.raises(InstanceParseError, match=re.escape(path)):
        parse_instance(text)


class TestCliEntry:
    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert "line" in err

    def test_missing_file_exit_2(self, capsys):
        assert main(["run", "/nonexistent.json"]) == 2

    def test_usage_exit_2(self, capsys):
        assert main([]) == 2

    def test_small_run_exit_0(self, tmp_path, capsys):
        doc = json.loads(MINIMAL)
        doc["requests"] = [
            {"command": "mixed", "type": {"k0": 0, "k": [1]}},
            {"command": "hilbert", "which": "P"},
        ]
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(doc))
        out_path = tmp_path / "report.json"
        assert main(["run", str(f), "--json", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["schema_version"] == 2
        assert report["mismatch_count"] == 0
        assert main(["run", str(f), "--json", str(out_path)]) == 0
        report2 = json.loads(out_path.read_text())
        report.pop("timing_seconds")
        report2.pop("timing_seconds")
        assert report == report2

    def test_failed_requests_exit_3(self, tmp_path, capsys):
        doc = json.loads(MINIMAL)
        doc["candidates"]["u"] = {
            "type": {"k0": 0, "k": [1]},
            "elements": [
                {"monomial": "x1", "source": "I1"},
                {"monomial": "x1", "source": "J"},
            ],
        }
        good = {"command": "mixed", "type": {"k0": 0, "k": [1]}}
        uncertified = {"command": "chi", "candidate": "u"}
        doc["requests"] = [uncertified, good]
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(doc))
        out_path = tmp_path / "report.json"
        assert main(["run", str(f), "--json", str(out_path)]) == 3
        assert "Traceback" in capsys.readouterr().err
        report = json.loads(out_path.read_text())
        assert report["schema_version"] == 2
        assert report["mismatch_count"] == 0
        first, second = report["results"]
        assert first == {
            "request": uncertified,
            "failure": {
                "type": "ValueError",
                "message": "candidate failed joint-reduction certification",
            },
        }
        assert second["value"] == "1" and "failure" not in second

    def test_generator_of_degree_1000_exit_0(self, tmp_path, capsys):
        # The fit window of J = (x1^1000) starts at n0 = 1001, so J^n0 is a
        # power past the interpreter's recursion limit.
        doc = {
            "variables": ["x1"],
            "J": ["x1^1000"],
            "ideals": {"I1": ["x1"]},
            "requests": [{"command": "mixed", "type": {"k0": 0, "k": [0]}}],
        }
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(doc))
        out_path = tmp_path / "report.json"
        assert main(["run", str(f), "--json", str(out_path)]) == 0
        (result,) = json.loads(out_path.read_text())["results"]
        assert result["value"] == "1000"

    @pytest.mark.parametrize(
        "command, bad_type",
        [
            ("mixed", {"k0": 0, "k": [1, 1]}),
            ("mixed", {"k": [1]}),
            ("mixed", {"k0": -1, "k": [1]}),
            ("mixed", {"k0": 0, "k": [-1]}),
            ("mixed", {"k0": 0, "k": ["1"]}),
            ("mixed", {"k0": True, "k": [1]}),
            ("mixed", None),
            ("search-jr", {"k0": 0}),
            ("search-jr", {"k0": 0, "k": []}),
        ],
    )
    def test_malformed_request_type_exit_2(self, tmp_path, capsys, command, bad_type):
        # Rejected at parse time, with the JSON path of the bad type, before
        # the good request ahead of it runs.
        bad = {"command": command}
        if bad_type is not None:
            bad["type"] = bad_type
        assert_rejected(tmp_path, capsys, bad, "requests[1].type")

    @pytest.mark.parametrize(
        "bad, path",
        [
            pytest.param({"command": "frobnicate"}, "command", id="unknown-command"),
            pytest.param({"command": "hilbert", "which": "Q"}, "which", id="hilbert-which"),
            pytest.param({"command": "chi", "candidate": "c", "direct": "no"}, "direct",
                         id="chi-direct-string"),
            pytest.param({"command": "chi", "candidate": "c", "direct": 1}, "direct",
                         id="chi-direct-int"),
            pytest.param({"command": "search-jr", "type": {"k0": 0, "k": [1]}, "budget": "abc"},
                         "budget", id="search-budget-string"),
            pytest.param({"command": "search-jr", "type": {"k0": 0, "k": [1]}, "budget": True},
                         "budget", id="search-budget-bool"),
            pytest.param({"command": "search-jr", "type": {"k0": 0, "k": [1]}, "max_degree": 2.7},
                         "max_degree", id="search-max-degree-float"),
            pytest.param({"command": "search-jr", "type": {"k0": 0, "k": [1]}, "max_degree": -1},
                         "max_degree", id="search-max-degree-negative"),
            pytest.param({"command": "verify-jr", "candidate": "nope"}, "candidate",
                         id="undeclared-candidate"),
            pytest.param({"command": "mult-symbol"}, "candidate", id="missing-candidate"),
            pytest.param({"command": "element-props", "monomial": "x1", "ideal": "I9"}, "ideal",
                         id="element-props-undeclared-ideal"),
            pytest.param({"command": "element-props", "monomial": "x1"}, "ideal",
                         id="element-props-missing-ideal"),
            pytest.param({"command": "element-props", "monomial": "x9", "ideal": "I1"}, "monomial",
                         id="element-props-unknown-variable"),
            pytest.param({"command": "element-props", "ideal": "I1"}, "monomial",
                         id="element-props-missing-monomial"),
            pytest.param({"command": "element-props", "monomial": "1", "ideal": "I1"}, "monomial",
                         id="element-props-monomial-outside-ideal"),
            pytest.param({"command": "verify-corollaries", "candidate": "c", "ideal": "J"}, "ideal",
                         id="corollaries-undeclared-ideal"),
            pytest.param({"command": "verify-theorem", "candidate": "j"}, "candidate",
                         id="theorem-no-positive-k"),
        ],
    )
    def test_malformed_request_field_exit_2(self, tmp_path, capsys, bad, path):
        assert_rejected(tmp_path, capsys, bad, f"requests[1].{path}")

    @pytest.mark.parametrize(
        "mutate, path",
        [
            pytest.param(lambda doc: doc.update(candidates=["c"]), "candidates",
                         id="candidates-list"),
            pytest.param(lambda doc: doc["candidates"]["c"].update(elements=5),
                         "candidates.c.elements", id="elements-int"),
            pytest.param(lambda doc: doc.update(J=["x1^99999999999999999999", "x2"]), "J[0]",
                         id="exponent-past-int64"),
            pytest.param(lambda doc: doc.update(J=[f"x1^{2**62}*x1^{2**62}", "x2"]), "J[0]",
                         id="repeated-factor-past-int64"),
            pytest.param(lambda doc: doc["candidates"]["c"]["elements"][1].update(
                monomial=f"x2^{2**62}*x1^{2**62}"), "candidates.c.elements[1]",
                id="degree-past-int64"),
            # str.isdigit accepts a superscript two, which int() refuses.
            pytest.param(lambda doc: doc.update(J=["x1^\u00b2", "x2"]), "J[0]",
                         id="superscript-exponent"),
            pytest.param(lambda doc: json.dumps(doc)[:-1]
                         + ', "deep": ' + "[" * 200_000 + "]" * 200_000 + "}",
                         "nested too deeply", id="nested-past-the-recursion-limit"),
        ],
    )
    def test_malformed_document_exit_2(self, tmp_path, capsys, mutate, path):
        doc = json.loads(MINIMAL)
        doc["requests"] = [{"command": "mixed", "type": {"k0": 0, "k": [1]}}]
        text = mutate(doc)
        assert_document_rejected(tmp_path, capsys, text or doc, path)

    def test_instance_that_is_not_utf8_exit_2(self, tmp_path, capsys):
        # A UTF-16 byte-order mark, ff fe, is no UTF-8.
        f = tmp_path / "inst.json"
        f.write_bytes(MINIMAL.encode("utf-16"))
        assert f.read_bytes()[:2] == b"\xff\xfe"
        assert main(["run", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "utf-8" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_unwritable_report_exit_2(self, tmp_path, capsys):
        # The report's directory is missing or is a file, or the report path
        # is itself a directory; each is found before any request runs.
        doc = json.loads(MINIMAL)
        doc["requests"] = [{"command": "mixed", "type": {"k0": 0, "k": [1]}}]
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(doc))
        existing = tmp_path / "reports"
        existing.mkdir()
        for out_path in (tmp_path / "missing" / "report.json", f / "report.json", existing):
            with mock.patch("multimult.cli.run_request") as run:
                assert main(["run", str(f), "--json", str(out_path)]) == 2
            assert not run.called
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and str(out_path) in captured.err
            assert "Traceback" not in captured.err and captured.out == ""
            assert not out_path.exists() or (out_path.is_dir() and not any(out_path.iterdir()))

    def test_parse_error_inside_a_request_exit_2(self, tmp_path, capsys):
        doc = json.loads(MINIMAL)
        doc["requests"] = [{"command": "verify-jr", "candidate": "nope"}]
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(doc))
        assert main(["run", str(f)]) == 2
        assert "undeclared candidate" in capsys.readouterr().err

    def test_help_matches_readme_synopsis(self, capsys):
        assert main(["run", "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        readme = (ROOT / "README.md").read_text()
        synopsis = re.search(r"```sh\n(multimult run .*?)```", readme, re.S).group(1)
        assert set(re.findall(r"--[\w-]+", usage)) - {"--help"} == set(
            re.findall(r"--[\w-]+", synopsis)
        )
        assert "file" in usage and "<file>" in synopsis

    def test_readme_lists_every_command(self):
        # The README's command list is the set of commands parse_instance
        # accepts: it fails no listed command, and only those, on the command.
        readme = (ROOT / "README.md").read_text()
        listed = re.search(r"Available request commands: (.*?)\.\n", readme, re.S).group(1)
        names = re.findall(r"`([\w-]+)`", listed)

        def accepted(command):
            doc = json.loads(MINIMAL)
            doc["requests"] = [{"command": command}]
            try:
                parse_instance(json.dumps(doc))
            except InstanceParseError as exc:
                return exc.location != "requests[0].command"
            return True

        assert all(map(accepted, names))
        assert not accepted("frobnicate")
        assert sorted(names) == sorted(COMMANDS)

    def test_sample_report_is_pinned(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["run", str(SAMPLE), "--json", str(out_path)])
        report = json.loads(out_path.read_text())
        assert code == 0
        report.pop("timing_seconds")
        pinned = json.loads((ROOT / "tests" / "data" / "dim4_report.json").read_text())
        assert report == pinned
