"""CLI tests (driving ``repro.cli.main`` directly, capturing output)."""

import pytest

from repro.cli import main

DOC = "<talk><speaker/><title><i/></title><location><i/><b/></location></talk>"


@pytest.fixture()
def doc_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(DOC)
    return str(path)


class TestEvalAndSelect:
    def test_eval(self, doc_file, capsys):
        assert main(["eval", "<child[i]>", doc_file]) == 0
        out = capsys.readouterr().out
        assert "2 node(s)" in out
        assert "<title>" in out and "<location>" in out

    def test_select(self, doc_file, capsys):
        assert main(["select", "descendant[i]", doc_file]) == 0
        out = capsys.readouterr().out
        assert "2 node(s)" in out

    def test_eval_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(DOC))
        assert main(["eval", "b"]) == 0
        assert "1 node(s)" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["eval", "a", "/nonexistent/file.xml"]) == 3
        assert "error" in capsys.readouterr().err


class TestTranslate:
    def test_roundtrip_shown(self, capsys):
        assert main(["translate", "<child[a]>"]) == 0
        out = capsys.readouterr().out
        assert "FO(MTC):" in out and "child(x," in out
        assert "back:" in out

    def test_w_query_outside_fragment(self, capsys):
        assert main(["translate", "W(<parent>)"]) == 0
        out = capsys.readouterr().out
        assert "FO(MTC):" in out


class TestEquivalent:
    def test_exact_equivalence(self, capsys):
        assert main(["equivalent", "W(<descendant[b]>)", "<descendant[b]>"]) == 0
        assert "exact" in capsys.readouterr().out

    def test_exact_refutation_prints_document(self, capsys):
        assert main(["equivalent", "<child[b]>", "<descendant[b]>"]) == 1
        out = capsys.readouterr().out
        assert "NOT equivalent" in out and "<" in out

    def test_corpus_fallback_for_non_downward(self, capsys):
        assert main(["equivalent", "<parent/child>", "<parent[<child>]>"]) == 0
        assert "corpus" in capsys.readouterr().out

    def test_path_comparison(self, capsys):
        assert main(["equivalent", "child/self", "child"]) == 0

    def test_sort_mismatch(self, capsys):
        assert main(["equivalent", "a", "child/parent"]) == 2


class TestSatisfiable:
    def test_sat_with_witness(self, capsys):
        assert main(["satisfiable", "<child[a]> and <child[b]>"]) == 0
        assert "SATISFIABLE" in capsys.readouterr().out

    def test_unsat(self, capsys):
        assert main(["satisfiable", "leaf and <child>"]) == 1
        assert "UNSATISFIABLE" in capsys.readouterr().out

    def test_alphabet_option(self, capsys):
        assert main(["satisfiable", "c", "--alphabet", "abc"]) == 0

    def test_non_downward_uses_corpus(self, capsys):
        assert main(["satisfiable", "root and a"]) == 0
        assert "SATISFIABLE" in capsys.readouterr().out


class TestSimplifyAndClassify:
    def test_simplify(self, capsys):
        assert main(["simplify", "self/child[true]/child*"]) == 0
        assert capsys.readouterr().out.strip() == "descendant"

    def test_classify(self, capsys):
        assert main(["classify", "W(<descendant[b]>)"]) == 0
        out = capsys.readouterr().out
        assert "Regular XPath(W)" in out
        assert "downward:    True" in out

    def test_classify_conditional(self, capsys):
        assert main(["classify", "(child[a])+"]) == 0
        assert "conditional: True" in capsys.readouterr().out

    def test_parse_error(self, capsys):
        assert main(["simplify", "child//"]) == 2
        assert "error" in capsys.readouterr().err


class TestErrorPathsAndGovernance:
    """The documented exit-code contract: one code per failure class, one
    single-line ``error:`` diagnostic on stderr."""

    def _stderr_is_single_diagnostic(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        return err

    def test_bad_expression_exits_2(self, doc_file, capsys):
        assert main(["eval", "child//", doc_file]) == 2
        self._stderr_is_single_diagnostic(capsys)

    def test_missing_tree_file_exits_3(self, capsys):
        assert main(["eval", "a", "/nonexistent/file.xml"]) == 3
        self._stderr_is_single_diagnostic(capsys)

    def test_timeout_trip_exits_4(self, doc_file, capsys):
        assert main(["check", "exists x. a(x)", doc_file, "--timeout", "0"]) == 4
        err = self._stderr_is_single_diagnostic(capsys)
        assert "deadline" in err

    def test_step_budget_trip_exits_5(self, doc_file, capsys):
        code = main(
            ["select", "(child[speaker] | child)*", doc_file, "--max-steps", "0"]
        )
        assert code == 5
        err = self._stderr_is_single_diagnostic(capsys)
        assert "budget" in err

    def test_node_cap_trip_exits_5(self, doc_file, capsys):
        assert main(["eval", "true", doc_file, "--max-nodes", "1"]) == 5
        self._stderr_is_single_diagnostic(capsys)

    def test_depth_limited_expression_exits_6(self, doc_file, capsys):
        deep = "(" * 10_000 + "child" + ")" * 10_000
        assert main(["select", deep, doc_file]) == 6
        err = self._stderr_is_single_diagnostic(capsys)
        assert "depth" in err

    def test_oversized_document_exits_7(self, tmp_path, capsys):
        path = tmp_path / "deep.xml"
        path.write_text("<a>" * 500 + "</a>" * 500)
        assert main(["eval", "a", str(path)]) == 7
        err = self._stderr_is_single_diagnostic(capsys)
        assert "depth limit" in err

    def test_injected_fault_exits_8(self, doc_file, capsys):
        code = main(["eval", "a", doc_file, "--inject-fault", "xpath.bitset"])
        assert code == 8
        err = self._stderr_is_single_diagnostic(capsys)
        assert "injected fault" in err

    def test_unknown_fault_site_is_a_usage_error(self, doc_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "a", doc_file, "--inject-fault", "xpath.sets"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_injected_fault_does_not_leak_between_runs(self, doc_file):
        assert main(["eval", "a", doc_file, "--inject-fault", "xpath.bitset"]) == 8
        assert main(["eval", "a", doc_file]) == 0  # disarmed on exit

    def test_governed_run_that_fits_succeeds(self, doc_file, capsys):
        code = main(
            ["eval", "<child[i]>", doc_file,
             "--timeout", "30", "--max-steps", "100000", "--max-nodes", "1000"]
        )
        assert code == 0
        assert "2 node(s)" in capsys.readouterr().out

    def test_budget_flags_on_equivalent(self, capsys):
        code = main(["equivalent", "child", "child/self", "--max-steps", "0"])
        assert code == 5
        self._stderr_is_single_diagnostic(capsys)
