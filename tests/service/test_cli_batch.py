"""``repro batch``: JSONL framing, ordering, exit-code contract, chaos flag,
and a restart from ``--wal`` over a store that evicted trees; ``repro
recover`` on a missing directory."""

import io
import json
import random

import pytest

from repro.cli import main
from repro.service import workers
from repro.trees import index_nbytes, random_tree, to_xml, tree_index

DOC = "<talk><speaker/><title><i/></title><location><i/><b/></location></talk>"


@pytest.fixture()
def doc_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(DOC)
    return str(path)


def _write_requests(tmp_path, lines):
    path = tmp_path / "requests.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _output_lines(capsys):
    captured = capsys.readouterr()
    return [json.loads(line) for line in captured.out.splitlines() if line], captured.err


class TestBatchHappyPath:
    def test_mixed_batch_in_input_order(self, tmp_path, doc_file, capsys):
        requests = _write_requests(
            tmp_path,
            [
                json.dumps({"id": "a", "op": "eval", "query": "<child[i]>", "tree": "doc"}),
                json.dumps({"id": "b", "op": "select", "query": "descendant[i]", "tree": "doc"}),
                json.dumps({"id": "c", "op": "check", "formula": "exists x. i(x)", "tree": "doc"}),
                json.dumps({"id": "d", "op": "equivalent", "left": "<child[b]>", "right": "<child[b]>"}),
            ],
        )
        assert main(["batch", requests, "--tree", f"doc={doc_file}"]) == 0
        lines, _ = _output_lines(capsys)
        assert [line["id"] for line in lines] == ["a", "b", "c", "d"]
        assert all(line["status"] == "ok" for line in lines)
        assert lines[2]["value"] is True
        assert lines[3]["value"]["equivalent"] is True

    def test_inline_xml_needs_no_registry(self, tmp_path, capsys):
        requests = _write_requests(
            tmp_path,
            [json.dumps({"id": "x", "op": "eval", "query": "b", "xml": "<b><b/></b>"})],
        )
        assert main(["batch", requests]) == 0
        lines, _ = _output_lines(capsys)
        assert lines[0]["value"] == [0, 1]

    def test_stdin_input(self, capsys, monkeypatch):
        line = json.dumps({"id": "s", "op": "eval", "query": "b", "xml": "<b/>"})
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        assert main(["batch"]) == 0
        lines, _ = _output_lines(capsys)
        assert lines[0]["id"] == "s"

    def test_stats_go_to_stderr(self, tmp_path, capsys):
        requests = _write_requests(
            tmp_path,
            [json.dumps({"op": "eval", "query": "b", "xml": "<b/>"})],
        )
        assert main(["batch", requests, "--stats"]) == 0
        lines, err = _output_lines(capsys)
        stats = json.loads(err)
        assert stats["submitted"] == 1
        assert stats["ok"] == 1
        assert stats["fallbacks"] == 0
        assert "result_cache" in stats


class TestBatchResultCache:
    # Each text twice: a text is cached from its second sighting on.
    REQUESTS = [
        {"id": "a1", "op": "eval", "query": "<descendant[b]>", "tree": "doc"},
        {"id": "a2", "op": "eval", "query": "<descendant[b]>", "tree": "doc"},
        {"id": "b1", "op": "eval", "query": "<child/child*[b]>", "tree": "doc"},
        {"id": "b2", "op": "eval", "query": "<child/child*[b]>", "tree": "doc"},
    ]

    def test_rewriting_variant_is_served_from_the_cache(self, tmp_path, doc_file, capsys):
        requests = _write_requests(tmp_path, [json.dumps(r) for r in self.REQUESTS])
        # One worker: the variant's second sighting starts after "a2" has
        # stored its answer, so it is a plain hit, not a single-flight
        # follower.
        argv = ["batch", requests, "--tree", f"doc={doc_file}", "--workers", "1"]
        assert main(argv + ["--stats"]) == 0
        lines, err = _output_lines(capsys)
        stats = json.loads(err)
        assert [line["status"] for line in lines] == ["ok"] * 4
        assert all(line["value"] == lines[0]["value"] for line in lines)
        assert [line["routed"] for line in lines] == ["bitset", "bitset", "bitset", "cache"]
        assert stats["result_cache"]["events"]["hit"] == 1


class TestBatchWalWithStore:
    def test_restart_recovers_evicted_trees(self, tmp_path, capsys):
        # Four 64-node trees under a 2.5-tree budget, and more mutations
        # than one checkpoint cadence (256 records): most trees are evicted
        # when their checkpoints come due.
        rng = random.Random(23)
        trees = [random_tree(64, ("a", "b"), rng) for _ in range(4)]
        budget = sum(index_nbytes(tree_index(tree)) for tree in trees) * 5 // 8
        specs = []
        for i, tree in enumerate(trees):
            path = tmp_path / f"t{i}.xml"
            path.write_text(to_xml(tree))
            specs += ["--tree", f"t{i}={path}"]
        edits = [
            {"op": "mutate", "tree": f"t{k % 4}",
             "edit": {"kind": "relabel", "node": k % 64, "label": "ab"[k % 2]}}
            for k in range(304)
        ]
        wal = str(tmp_path / "wal")
        durable = ["--wal", wal, "--store", str(tmp_path / "store"),
                   "--resident-budget", str(budget)]
        requests = _write_requests(tmp_path, [json.dumps(r) for r in edits])
        assert main(["batch", requests, *durable, *specs]) == 0
        lines, _ = _output_lines(capsys)
        assert [line["status"] for line in lines] == ["ok"] * 304

        assert main(["recover", wal]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert listed[0] == f"recovered 4 tree(s) from {wal}:"
        assert listed[1:] == [f"  t{i}: epoch 77, 64 node(s)" for i in range(4)]

        reads = [
            {"op": "eval", "query": "a", "tree": f"t{i}", "min_epoch": 77}
            for i in range(4)
        ]
        requests = _write_requests(tmp_path, [json.dumps(r) for r in reads])
        assert main(["batch", requests, *durable]) == 0
        lines, _ = _output_lines(capsys)
        assert [line["status"] for line in lines] == ["ok"] * 4


class TestRecoverCommand:
    def test_missing_directory_is_an_io_error_and_creates_nothing(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "no-such-wal"
        assert main(["recover", str(missing)]) == 3
        captured = capsys.readouterr()
        assert "recovered" not in captured.out
        assert "no WAL directory" in captured.err
        assert not missing.exists()

    def test_existing_empty_directory_recovers_nothing(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("recovered 0 tree(s)")


class TestBatchErrorContract:
    def test_malformed_json_line_reports_and_continues(self, tmp_path, capsys):
        requests = _write_requests(
            tmp_path,
            [
                "this is not json",
                json.dumps({"id": "ok", "op": "eval", "query": "b", "xml": "<b/>"}),
            ],
        )
        assert main(["batch", requests]) == 2
        lines, _ = _output_lines(capsys)
        assert lines[0]["id"] == "line-1"
        assert lines[0]["status"] == "error"
        assert lines[0]["error"]["exit_code"] == 2
        assert lines[1]["status"] == "ok"  # one bad line never hides the rest

    def test_unknown_field_is_rejected_structurally(self, tmp_path, capsys):
        requests = _write_requests(
            tmp_path,
            [json.dumps({"id": "u", "op": "eval", "query": "b", "xml": "<b/>", "wat": 1})],
        )
        assert main(["batch", requests]) == 2
        lines, _ = _output_lines(capsys)
        assert lines[0]["id"] == "u"
        assert "wat" in lines[0]["error"]["message"]

    def test_shed_request_exits_with_deadline_code(self, tmp_path, capsys):
        requests = _write_requests(
            tmp_path,
            [
                json.dumps(
                    {"id": "late", "op": "eval", "query": "b", "xml": "<b/>", "timeout": 0.0}
                )
            ],
        )
        assert main(["batch", requests]) == 4
        lines, _ = _output_lines(capsys)
        assert lines[0]["status"] == "shed"
        assert lines[0]["error"]["type"] == "RequestShedError"

    def test_first_failure_wins_the_exit_code(self, tmp_path, capsys):
        requests = _write_requests(
            tmp_path,
            [
                json.dumps({"id": "bad", "op": "eval", "query": "<<<", "xml": "<b/>"}),
                json.dumps(
                    {"id": "late", "op": "eval", "query": "b", "xml": "<b/>", "timeout": 0.0}
                ),
            ],
        )
        assert main(["batch", requests]) == 2  # syntax (first), not deadline
        lines, _ = _output_lines(capsys)
        assert [line["status"] for line in lines] == ["error", "shed"]

    def test_bad_tree_spec_is_a_usage_error(self, tmp_path, capsys):
        requests = _write_requests(tmp_path, ["{}"])
        assert main(["batch", requests, "--tree", "no-equals-sign"]) == 2
        assert "NAME=FILE" in capsys.readouterr().err

    def test_missing_tree_file_is_io_error(self, tmp_path, capsys):
        requests = _write_requests(tmp_path, ["{}"])
        assert main(["batch", requests, "--tree", "doc=/nonexistent/doc.xml"]) == 3


class TestBatchChaos:
    def test_uncounted_fault_ends_every_line_in_exit_8(self, tmp_path, capsys):
        requests = _write_requests(
            tmp_path,
            [
                json.dumps({"id": f"r{i}", "op": "eval", "query": "b", "xml": "<b/>"})
                for i in range(4)
            ],
        )
        # Uncounted arm: every attempt faults, so every request spends its
        # retries (the default two) and ends in a typed engine error.
        assert main(["batch", requests, "--workers", "2", "--inject-fault", "xpath.bitset"]) == 8
        lines, _ = _output_lines(capsys)
        assert [line["status"] for line in lines] == ["error"] * 4
        assert all(line["error"]["type"] == "InjectedFaultError" for line in lines)
        assert all(line["error"]["exit_code"] == 8 for line in lines)
        assert all(line["retries"] == 2 for line in lines)

    def test_engine_bug_exits_8(self, tmp_path, capsys, monkeypatch):
        def broken(plan, tree, budget):
            raise IndexError("mask bit out of range")

        monkeypatch.setattr(workers, "run_plan", broken)
        requests = _write_requests(
            tmp_path,
            [json.dumps({"id": "r", "op": "eval", "query": "b", "xml": "<b/>"})],
        )
        assert main(["batch", requests, "--workers", "1"]) == 8
        lines, _ = _output_lines(capsys)
        assert lines[0]["error"]["type"] == "IndexError"
        assert lines[0]["error"]["exit_code"] == 8
        assert lines[0]["retries"] == 0
