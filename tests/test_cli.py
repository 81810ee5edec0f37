"""End-to-end command-line runs against a temporary workspace."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from datetime import datetime
from pathlib import Path

import pytest

from conftest import (
    PKG_ROOT,
    REPLAY_FIXTURE,
    SAMPLE_BACKLOG,
    SYNC_TEXT,
    chat_content_reply,
    neo4j_commit_reply,
)
from storygraph import cli
from storygraph.cli import EXIT_BACKEND, EXIT_NO_INPUT, EXIT_OK, components_to_story, main
from storygraph.model import GraphDocument, GraphNode, GraphRelationship, NodeKind, RelKind


@pytest.fixture()
def workspace(tmp_path, monkeypatch) -> Path:
    baseline = tmp_path / "pos_baseline"
    baseline.mkdir()
    shutil.copy(SAMPLE_BACKLOG, baseline / "sample.json")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_extract(*extra: str) -> int:
    argv = [
        "extract", "--experiment", "demo",
        "--backend", "replay-fixture", "--fixture", str(REPLAY_FIXTURE),
    ]
    argv.extend(extra)
    return main(argv)


class TestExtract:
    def test_replay_run_mirrors_annotations(self, workspace):
        assert run_extract() == EXIT_OK
        out_path = workspace / "extracted-user-stories" / "demo" / "sample.json"
        entries = json.loads(out_path.read_text())
        expected = json.loads(SAMPLE_BACKLOG.read_text())
        assert entries == expected

    def test_rule_based_run(self, workspace):
        code = main(["extract", "--experiment", "rb", "--backend", "rule-based"])
        assert code == EXIT_OK
        out_path = workspace / "extracted-user-stories" / "rb" / "sample.json"
        entries = json.loads(out_path.read_text())
        assert len(entries) == 3
        assert entries[1]["Persona"] == ["customer"]

    def test_manifest_contents(self, workspace):
        assert run_extract() == EXIT_OK
        manifest = json.loads(
            (workspace / "extracted-user-stories" / "demo" / "manifest.json").read_text()
        )
        assert manifest["experiment_name"] == "demo"
        assert manifest["prompt_catalog_version"] == "1.0"
        assert manifest["extractor"]["backend"] == "replay-fixture"
        assert manifest["input_dir"] == "pos_baseline"
        datetime.fromisoformat(manifest["created_at"])
        assert "auth" not in json.dumps(manifest).lower()

    def test_reruns_are_byte_identical(self, workspace):
        assert run_extract() == EXIT_OK
        out_path = workspace / "extracted-user-stories" / "demo" / "sample.json"
        first = out_path.read_bytes()
        assert run_extract() == EXIT_OK
        assert out_path.read_bytes() == first

    def test_fixed_parts_built_once_per_run(self, workspace, monkeypatch):
        """Two backlogs: one fixture read and one few-shot block for the run,
        not one per backlog and one per story."""
        from storygraph.extraction import prompts
        from storygraph.extraction.backends import ReplayFixtureBackend

        shutil.copy(SAMPLE_BACKLOG, workspace / "pos_baseline" / "second.json")
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            ReplayFixtureBackend, "from_path",
            staticmethod(counted("from_path", ReplayFixtureBackend.from_path)),
        )
        monkeypatch.setattr(
            prompts, "few_shot_records", counted("few_shot_records", prompts.few_shot_records)
        )
        prompts.main_prompt.cache_clear()
        assert run_extract() == EXIT_OK
        assert calls == {"from_path": 1, "few_shot_records": 1}

    def test_malformed_reply_fails_only_its_story(self, workspace, tmp_path):
        """A main reply of {"nodes": 5} ended the whole run in a TypeError."""
        fixture = json.loads(REPLAY_FIXTURE.read_text())
        stories = json.loads((workspace / "pos_baseline" / "sample.json").read_text())
        broken = stories[0]["Text"].split("# ", 1)[1]
        fixture[broken]["main_response"] = {"nodes": 5}
        fixture_path = tmp_path / "broken.json"
        fixture_path.write_text(json.dumps(fixture))
        (workspace / "pos_baseline" / "zz_later.json").write_text(json.dumps(stories[1:]))

        assert run_extract("--fixture", str(fixture_path)) == EXIT_OK
        out_dir = workspace / "extracted-user-stories" / "demo"
        first = json.loads((out_dir / "sample.json").read_text())
        later = json.loads((out_dir / "zz_later.json").read_text())
        assert "must be lists" in first[0]["Error"]
        assert [("Error" in entry) for entry in first + later] == [True] + [False] * 4

    def test_unknown_story_becomes_error_entry(self, workspace, caplog):
        baseline_file = workspace / "pos_baseline" / "sample.json"
        stories = json.loads(baseline_file.read_text())
        stranger = dict(stories[1])
        stranger["PID"] = "#S99#"
        stranger["Text"] = "#S99# As a stranger, I want to hide."
        stories.append(stranger)
        baseline_file.write_text(json.dumps(stories))

        with caplog.at_level("WARNING"):
            assert run_extract() == EXIT_OK
        entries = json.loads(
            (workspace / "extracted-user-stories" / "demo" / "sample.json").read_text()
        )
        assert len(entries) == 4
        assert "Error" in entries[3]
        assert entries[3]["PID"] == "#S99#"
        assert "Error" not in entries[0]
        assert any("#S99#" in r.message for r in caplog.records)

    def test_tag_only_story_is_skipped_as_invalid(self, workspace, caplog):
        """A story whose text is only its PID tag was written as an Error entry."""
        baseline_file = workspace / "pos_baseline" / "sample.json"
        stories = json.loads(baseline_file.read_text())
        stories.append(dict(stories[1], PID="#S98#", Text="  #S98#  "))
        baseline_file.write_text(json.dumps(stories))

        with caplog.at_level("WARNING"):
            assert run_extract() == EXIT_OK
            assert main(["evaluate", "--experiment", "demo"]) == EXIT_OK
        entries = json.loads(
            (workspace / "extracted-user-stories" / "demo" / "sample.json").read_text()
        )
        assert entries == stories[:3]
        report = json.loads((workspace / "evaluation" / "demo" / "report.json").read_text())
        (backlog,) = report["backlogs"]
        assert (backlog["stories_evaluated"], backlog["stories_skipped"]) == (3, 0)
        skipped = [r.getMessage() for r in caplog.records if "#S98#" in r.getMessage()]
        assert len(skipped) == 2 and all("text is empty" in m for m in skipped)

    def test_wrong_kind_edge_is_dropped_not_read_back_as_a_persona(
        self, workspace, tmp_path, caplog, capsys
    ):
        """A TRIGGERS edge from an Entity turned that Entity into a Persona."""
        fixture = json.loads(REPLAY_FIXTURE.read_text())
        main_response = fixture[SYNC_TEXT]["main_response"]
        main_response["relationships"].append(
            {"source": "data", "source_type": "Entity", "target": "sync",
             "target_type": "Action", "type": "TRIGGERS"}
        )
        fixture_path = tmp_path / "wrong_kind.json"
        fixture_path.write_text(json.dumps(fixture))

        with caplog.at_level("INFO"):
            assert run_extract("--fixture", str(fixture_path)) == EXIT_OK
        out_dir = workspace / "extracted-user-stories" / "demo"
        entries = json.loads((out_dir / "sample.json").read_text())
        assert entries == json.loads(SAMPLE_BACKLOG.read_text())
        assert any(
            "dropped 0 nodes and 1 relationships" in r.getMessage() for r in caplog.records
        )
        assert main(["load", "--experiment", "demo", "--dry-run"]) == EXIT_OK
        script = (out_dir / "graph.cypher").read_text()
        assert "MERGE (n:Entity {id: 'data'});" in script
        assert "(n:Persona {id: 'data'})" not in script

    @pytest.mark.parametrize("timeout", ["inf", "nan", "0", "-1"])
    def test_timeout_must_be_finite_and_positive(self, workspace, caplog, timeout):
        """inf ended in an OverflowError; nan passed validation and failed every story."""
        code = main(
            ["extract", "--experiment", "x", "--backend", "chat-http",
             "--endpoint", "http://127.0.0.1:9/v1/chat/completions", "--timeout", timeout]
        )
        assert code == EXIT_BACKEND
        assert any("request_timeout" in r.getMessage() for r in caplog.records)
        assert not (workspace / "extracted-user-stories" / "x").exists()

    def test_missing_input_dir(self, workspace):
        assert run_extract("--input", "nowhere") == EXIT_NO_INPUT

    def test_empty_input_dir(self, workspace):
        (workspace / "empty").mkdir()
        assert run_extract("--input", "empty") == EXIT_NO_INPUT

    def test_unparseable_backlogs_only(self, workspace):
        bad = workspace / "bad"
        bad.mkdir()
        (bad / "broken.json").write_text("{nope")
        assert run_extract("--input", "bad") == EXIT_NO_INPUT

    def test_non_utf8_backlog_skipped_with_a_warning(self, workspace, caplog):
        (workspace / "pos_baseline" / "latin.json").write_bytes(b"\xff[")
        with caplog.at_level("WARNING"):
            assert main(["extract", "--experiment", "rb", "--backend", "rule-based"]) == EXIT_OK
            assert main(["evaluate", "--experiment", "rb"]) == EXIT_OK
        out_dir = workspace / "extracted-user-stories" / "rb"
        assert (out_dir / "sample.json").is_file()
        assert not (out_dir / "latin.json").exists()
        assert any(
            "latin.json: not UTF-8 at byte offset 0" in r.getMessage() for r in caplog.records
        )

    def test_config_error_exits_3(self, workspace):
        code = main(["extract", "--experiment", "x", "--backend", "chat-http"])
        assert code == EXIT_BACKEND

    def test_missing_fixture_exits_3(self, workspace):
        code = main(
            ["extract", "--experiment", "x", "--backend", "replay-fixture",
             "--fixture", "ghost.json"]
        )
        assert code == EXIT_BACKEND


class TestEvaluate:
    def test_identity_scores(self, workspace, capsys):
        assert run_extract() == EXIT_OK
        assert main(["evaluate", "--experiment", "demo"]) == EXIT_OK

        out_dir = workspace / "evaluation" / "demo"
        report = json.loads((out_dir / "report.json").read_text())
        assert report["experiment"] == "demo"
        for row in report["backlogs"][0]["rows"]:
            assert row["f_measure"] == pytest.approx(1.0)
        csv_text = (out_dir / "report.csv").read_text()
        assert csv_text.splitlines()[0] == (
            "backlog,kind,mode,precision,recall,f_measure,"
            "stories_counted,stories_undefined"
        )
        table = capsys.readouterr().out
        assert "Persona" in table and "Average" in table

    def test_error_entries_skipped(self, workspace):
        assert run_extract() == EXIT_OK
        extracted = workspace / "extracted-user-stories" / "demo" / "sample.json"
        entries = json.loads(extracted.read_text())
        entries[2]["Error"] = "backend unavailable"
        extracted.write_text(json.dumps(entries))

        assert main(["evaluate", "--experiment", "demo"]) == EXIT_OK
        report = json.loads(
            (workspace / "evaluation" / "demo" / "report.json").read_text()
        )
        backlog = report["backlogs"][0]
        assert backlog["stories_evaluated"] == 2
        assert backlog["stories_skipped"] == 1

    def test_stories_sharing_a_pid_are_paired_by_text(self, workspace):
        """Keyed by PID alone, the last story's extraction scored both."""
        baseline_file = workspace / "pos_baseline" / "sample.json"
        stories = json.loads(baseline_file.read_text())
        stories[1]["PID"] = stories[0]["PID"]
        baseline_file.write_text(json.dumps(stories))

        assert run_extract() == EXIT_OK
        assert main(["evaluate", "--experiment", "demo"]) == EXIT_OK
        report = json.loads((workspace / "evaluation" / "demo" / "report.json").read_text())
        (backlog,) = report["backlogs"]
        assert backlog["stories_evaluated"] == 3
        for row in backlog["rows"] + backlog["relations"]:
            assert row["f_measure"] == 1.0, (row["kind"], row["mode"])

    def test_missing_extraction_dir(self, workspace):
        assert main(["evaluate", "--experiment", "ghost"]) == EXIT_NO_INPUT

    def test_no_shared_backlogs(self, workspace):
        out_dir = workspace / "extracted-user-stories" / "demo"
        out_dir.mkdir(parents=True)
        (out_dir / "other.json").write_text("[]")
        assert main(["evaluate", "--experiment", "demo"]) == EXIT_NO_INPUT

    def test_manifest_not_treated_as_backlog(self, workspace, caplog):
        assert run_extract() == EXIT_OK
        with caplog.at_level("WARNING"):
            assert main(["evaluate", "--experiment", "demo"]) == EXIT_OK
        assert not any("manifest" in r.message for r in caplog.records)

    def test_deterministic_outputs(self, workspace):
        assert run_extract() == EXIT_OK
        assert main(["evaluate", "--experiment", "demo"]) == EXIT_OK
        out_dir = workspace / "evaluation" / "demo"
        first = {
            name: (out_dir / name).read_bytes()
            for name in ("report.json", "report.csv")
        }
        assert main(["evaluate", "--experiment", "demo"]) == EXIT_OK
        for name, blob in first.items():
            assert (out_dir / name).read_bytes() == blob


class TestLoad:
    def test_dry_run_writes_cypher_only(self, workspace, capsys):
        assert run_extract() == EXIT_OK
        assert main(["load", "--experiment", "demo", "--dry-run"]) == EXIT_OK

        out_dir = workspace / "extracted-user-stories" / "demo"
        script = (out_dir / "graph.cypher").read_text()
        assert script.count("MERGE") > 0
        assert not (out_dir / "graph.json").exists()
        assert "dry run: 3 documents" in capsys.readouterr().out

    def test_load_to_stub_store(self, workspace, stub_server, capsys):
        assert run_extract() == EXIT_OK
        # All three documents (18 + 9 + 16 statements) go in one transaction.
        stub_server.behaviors.append(neo4j_commit_reply(43, 19, 24))
        code = main(
            ["load", "--experiment", "demo", "--uri", stub_server.url,
             "--user", "neo4j", "--password", "pw"]
        )
        assert code == EXIT_OK
        out_dir = workspace / "extracted-user-stories" / "demo"
        assert (out_dir / "graph.json").exists()
        assert (out_dir / "graph.cypher").exists()
        assert len(stub_server.requests) == 1
        assert len(stub_server.requests[0]["statements"]) == 43
        out = capsys.readouterr().out
        assert "loaded 3 documents" in out
        assert "19 nodes created" in out
        assert "0 nodes matched" in out

    def test_unreachable_store_exits_3(self, workspace):
        assert run_extract() == EXIT_OK
        code = main(
            ["load", "--experiment", "demo", "--uri", "http://127.0.0.1:9"]
        )
        assert code == EXIT_BACKEND

    def test_missing_experiment(self, workspace):
        assert main(["load", "--experiment", "ghost"]) == EXIT_NO_INPUT

    def test_documents_rendered_once(self, workspace, stub_server, monkeypatch):
        import storygraph.sink as sink

        rendered = []
        original = sink.to_cypher
        monkeypatch.setattr(
            sink, "to_cypher", lambda doc, *a: rendered.append(doc) or original(doc, *a)
        )
        assert run_extract() == EXIT_OK
        stub_server.behaviors.append(neo4j_commit_reply(43, 19, 24))
        code = main(["load", "--experiment", "demo", "--uri", stub_server.url])
        assert code == EXIT_OK
        assert len(rendered) == 3
        script = workspace / "extracted-user-stories" / "demo" / "graph.cypher"
        assert script.read_text().count("\n") == len(stub_server.requests[0]["statements"])

    def test_over_long_id_stops_load_before_anything_is_sent(self, workspace, stub_server):
        assert run_extract() == EXIT_OK
        extracted = workspace / "extracted-user-stories" / "demo" / "sample.json"
        entries = json.loads(extracted.read_text())
        entries[2]["Persona"] = ["x" * 5000]
        extracted.write_text(json.dumps(entries))
        code = main(["load", "--experiment", "demo", "--uri", stub_server.url])
        assert code != EXIT_OK
        assert stub_server.requests == []
        assert not (extracted.parent / "graph.cypher").exists()
        assert not (extracted.parent / "graph.json").exists()

    def test_error_entries_not_loaded(self, workspace, capsys):
        assert run_extract() == EXIT_OK
        extracted = workspace / "extracted-user-stories" / "demo" / "sample.json"
        entries = json.loads(extracted.read_text())
        entries[0]["Error"] = "backend unavailable"
        extracted.write_text(json.dumps(entries))

        assert main(["load", "--experiment", "demo", "--dry-run"]) == EXIT_OK
        assert "dry run: 2 documents" in capsys.readouterr().out


class TestExtractionFiles:
    def test_malformed_entry_skipped_alone_by_evaluate_and_load(self, workspace, capsys, caplog):
        assert main(["extract", "--experiment", "rb", "--backend", "rule-based"]) == EXIT_OK
        extracted = workspace / "extracted-user-stories" / "rb" / "sample.json"
        entries = json.loads(extracted.read_text())
        entries[1]["Persona"] = 5
        extracted.write_text(json.dumps(entries))

        with caplog.at_level("WARNING"):
            assert main(["evaluate", "--experiment", "rb"]) == EXIT_OK
        report = json.loads((workspace / "evaluation" / "rb" / "report.json").read_text())
        (backlog,) = report["backlogs"]
        assert (backlog["stories_evaluated"], backlog["stories_skipped"]) == (2, 1)
        assert any("sample.json: story 1: Persona" in r.getMessage() for r in caplog.records)

        assert main(["load", "--experiment", "rb", "--dry-run"]) == EXIT_OK
        assert "dry run: 2 documents" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [b"\xff\xfe[", b"[{", b'{"PID": "x"}'])
    def test_unreadable_file_skipped_with_a_warning(self, workspace, caplog, content):
        assert run_extract() == EXIT_OK
        out_dir = workspace / "extracted-user-stories" / "demo"
        shutil.copy(out_dir / "sample.json", out_dir / "good.json")
        (out_dir / "sample.json").write_bytes(content)
        with caplog.at_level("WARNING"):
            assert main(["evaluate", "--experiment", "demo"]) == EXIT_NO_INPUT
            assert main(["load", "--experiment", "demo", "--dry-run"]) == EXIT_OK
        assert any("skipping sample.json" in r.getMessage() for r in caplog.records)


class TestUnreadableEntries:
    def outputs(self, workspace) -> dict[str, bytes]:
        assert run_extract() == EXIT_OK
        assert main(["evaluate", "--experiment", "demo"]) == EXIT_OK
        assert main(["load", "--experiment", "demo", "--dry-run"]) == EXIT_OK
        paths = [
            workspace / "extracted-user-stories" / "demo" / name
            for name in ("sample.json", "graph.cypher")
        ] + [workspace / "evaluation" / "demo" / name for name in ("report.json", "report.csv")]
        return {path.name: path.read_bytes() for path in paths}

    def test_directory_named_like_a_backlog_is_ignored(self, workspace):
        """Each stage ended in an IsADirectoryError traceback."""
        clean = self.outputs(workspace)
        (workspace / "pos_baseline" / "x.json").mkdir()
        (workspace / "extracted-user-stories" / "demo" / "x.json").mkdir()
        assert self.outputs(workspace) == clean

    def test_listed_file_that_cannot_be_read_is_skipped(self, workspace, monkeypatch, caplog):
        listed = cli._backlog_files
        monkeypatch.setattr(
            cli, "_backlog_files", lambda folder: sorted(listed(folder) + [folder / "x.json"])
        )
        (workspace / "pos_baseline" / "x.json").mkdir()
        (workspace / "extracted-user-stories" / "demo").mkdir(parents=True)
        (workspace / "extracted-user-stories" / "demo" / "x.json").mkdir()
        with caplog.at_level("WARNING"):
            self.outputs(workspace)
        messages = [r.getMessage() for r in caplog.records]
        for prefix in ("skipping backlog x.json: ", "skipping baseline x: ", "skipping x.json: "):
            assert any(m.startswith(prefix) and "Is a directory" in m for m in messages), prefix


class TestOutputsUnchanged:
    """SHA-256 of each output of extract -> evaluate -> load --dry-run on
    sample_corpus, recorded before identity keys and compare forms were
    computed once; the outputs must not move by a byte."""

    GOLDEN = {
        "rule-based": {
            "extracted-user-stories/g/sample.json":
                "f581c4ff19d867ccf268e5962a3e5481dfbc646f9e9edffa6ea01e43f3cc571f",
            "evaluation/g/report.json":
                "296ab5660684e97f2a3947fb119698f004be6cb84482d0c7046cdd16d12f1650",
            "evaluation/g/report.csv":
                "781aa1190dc3c91f4f751a780062c15876ef29cfc0dd633bdaa4429abdb880a3",
            "extracted-user-stories/g/graph.cypher":
                "2e88486fa91e2646618a0a70db822dd18cedd921fe970ac5f37c94b3e7ddf378",
        },
        "replay-fixture": {
            "extracted-user-stories/g/sample.json":
                "899e1e4770f41facf2ed9640e4d13df1d94d098b64e0b01081a0ea23ceb78314",
            "evaluation/g/report.json":
                "b61843df8a6d9ac49847e901ee116d37489d576b7f0d3a6cfc19d3c74b4601fe",
            "evaluation/g/report.csv":
                "00ace5819f1c9169545bdc3ec52c2bf9027826e15ba1922254962456d2421b0c",
            "extracted-user-stories/g/graph.cypher":
                "d88c6227ff5663b14bc54a1d1a3e77cca159dde07fd9ca78e40e886340c55f91",
        },
    }

    @pytest.mark.parametrize("backend", sorted(GOLDEN))
    def test_pipeline_outputs_match_golden_hashes(self, workspace, backend):
        argv = ["extract", "--experiment", "g", "--backend", backend]
        if backend == "replay-fixture":
            argv += ["--fixture", str(REPLAY_FIXTURE)]
        assert main(argv) == EXIT_OK
        assert main(["evaluate", "--experiment", "g"]) == EXIT_OK
        assert main(["load", "--experiment", "g", "--dry-run"]) == EXIT_OK
        hashes = {
            name: hashlib.sha256((workspace / name).read_bytes()).hexdigest()
            for name in self.GOLDEN[backend]
        }
        assert hashes == self.GOLDEN[backend]

    # SHA-256 of graph.json and of the statements the store receives on a
    # real load, recorded while graph elements still carried a property map.
    LOAD_GOLDEN = {
        "rule-based": {
            "graph.json": "711a139d8380d895a347656079112edfc0e9294bdb17d968c5d09db4251ac74e",
            "statements": "351c0e222412c83ee6916b2a5bef61e7d632a272dbb877dcff838d69b052aa92",
        },
        "replay-fixture": {
            "graph.json": "45f056725d7ae150baed486e5938dcaea3e91b8456955292ee95eb5c4fd5444b",
            "statements": "5353b51f9d2a621ec98314afb7e739af0099240a9b1fe87c346e22c483cee35d",
        },
    }

    @pytest.mark.parametrize("backend", sorted(LOAD_GOLDEN))
    def test_load_outputs_match_golden_hashes(self, workspace, graph_store, stub_server, backend):
        argv = ["extract", "--experiment", "g", "--backend", backend]
        if backend == "replay-fixture":
            argv += ["--fixture", str(REPLAY_FIXTURE)]
        assert main(argv) == EXIT_OK
        assert main(["load", "--experiment", "g", "--uri", stub_server.url]) == EXIT_OK
        statements = [s for body in stub_server.requests for s in body["statements"]]
        assert statements
        sent = json.dumps(statements, indent=2, ensure_ascii=False).encode("utf-8")
        graph = (workspace / "extracted-user-stories" / "g" / "graph.json").read_bytes()
        hashes = {
            "graph.json": hashlib.sha256(graph).hexdigest(),
            "statements": hashlib.sha256(sent).hexdigest(),
        }
        assert hashes == self.LOAD_GOLDEN[backend]


class TestAtomicOutputs:
    def test_failed_rewrite_keeps_previous_report(self, workspace, monkeypatch):
        import storygraph.atomic as atomic

        assert run_extract() == EXIT_OK
        assert main(["evaluate", "--experiment", "demo"]) == EXIT_OK
        out_dir = workspace / "evaluation" / "demo"
        before = {path.name: path.read_bytes() for path in out_dir.iterdir()}

        def crash(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(atomic.os, "replace", crash)
        with pytest.raises(OSError, match="disk went away"):
            main(["evaluate", "--experiment", "demo", "--fold-plurals"])
        assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before
        json.loads(before["report.json"])


class TestStartup:
    # A fresh interpreter: pytest plugins may import numpy or requests themselves.
    OFFLINE_PIPELINE = """
import sys
from storygraph.cli import main
for argv in (
    ["extract", "--experiment", "rb", "--backend", "rule-based"],
    ["evaluate", "--experiment", "rb"],
    ["load", "--experiment", "rb", "--dry-run"],
):
    assert main(argv) == 0, argv
print(sorted(name for name in ("numpy", "requests") if name in sys.modules))
"""

    def test_offline_pipeline_imports_neither_numpy_nor_requests(self, workspace):
        done = subprocess.run(
            [sys.executable, "-c", self.OFFLINE_PIPELINE],
            cwd=workspace,
            env={**os.environ, "PYTHONPATH": str(PKG_ROOT / "src")},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.splitlines()[-1] == "[]"
        assert (workspace / "evaluation" / "rb" / "report.json").is_file()
        assert (workspace / "extracted-user-stories" / "rb" / "graph.cypher").is_file()

    HTTP_PIPELINE = """
import sys
from storygraph.cli import main
url = sys.argv[1]
for argv in (
    ["extract", "--experiment", "chat", "--backend", "chat-http", "--model", "m",
     "--endpoint", url + "/v1/chat/completions"],
    ["load", "--experiment", "chat", "--uri", url],
):
    assert main(argv) == 0, argv
print("requests" in sys.modules)
"""

    def test_http_pipeline_does_not_import_requests(self, workspace, stub_server):
        chat_reply = chat_content_reply(json.dumps([{
            "head": "user", "head_type": "Persona", "relation": "TRIGGERS",
            "tail": "sync", "tail_type": "Action",
        }]))
        stub_server.default = lambda body: (
            neo4j_commit_reply(0, 0, 0) if "statements" in body else chat_reply
        )
        done = subprocess.run(
            [sys.executable, "-c", self.HTTP_PIPELINE, stub_server.url],
            cwd=workspace,
            env={**os.environ, "PYTHONPATH": str(PKG_ROOT / "src")},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.splitlines()[-1] == "False"
        assert stub_server.paths.count("/v1/chat/completions") == 6
        assert stub_server.paths[-1] == "/db/neo4j/tx/commit"

    EMBEDDINGS_PIPELINE = """
import sys
from storygraph.cli import main
url = sys.argv[1]
for argv in (
    ["extract", "--experiment", "rb", "--backend", "rule-based"],
    ["evaluate", "--experiment", "rb", "--embeddings-endpoint", url + "/v1/embeddings"],
):
    assert main(argv) == 0, argv
print("numpy" in sys.modules)
"""

    def test_embeddings_evaluate_does_not_import_numpy(self, workspace, stub_server):
        stub_server.default = lambda body: (200, {"data": [
            {"embedding": [1.0, float(len(token)), float(ord(token[0]) % 7)]}
            for token in body["input"]
        ]})
        done = subprocess.run(
            [sys.executable, "-c", self.EMBEDDINGS_PIPELINE, stub_server.url],
            cwd=workspace,
            env={**os.environ, "PYTHONPATH": str(PKG_ROOT / "src")},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.splitlines()[-1] == "False"
        assert stub_server.paths and set(stub_server.paths) == {"/v1/embeddings"}
        report = json.loads((workspace / "evaluation" / "rb" / "report.json").read_text())
        (backlog,) = report["backlogs"]
        assert backlog["stories_evaluated"] == 3


class TestEnvFile:
    def test_env_file_feeds_sink_config(self, workspace, stub_server, monkeypatch):
        for var in ("NEO4J_URI", "NEO4J_USER", "NEO4J_PASSWORD"):
            monkeypatch.delenv(var, raising=False)
        assert run_extract() == EXIT_OK
        (workspace / "creds.env").write_text(
            f"NEO4J_URI={stub_server.url}\nNEO4J_USER=alice\nNEO4J_PASSWORD=pw\n"
        )
        stub_server.behaviors.append(neo4j_commit_reply(43, 19, 24))
        code = main(
            ["--env-file", "creds.env", "load", "--experiment", "demo"]
        )
        assert code == EXIT_OK
        assert stub_server.auth_headers[0] is not None


class TestComponentsToStory:
    def test_primary_secondary_split(self):
        user, sync, access, data, info = (
            GraphNode("user", NodeKind.PERSONA),
            GraphNode("sync", NodeKind.ACTION),
            GraphNode("access", NodeKind.ACTION),
            GraphNode("data", NodeKind.ENTITY),
            GraphNode("info", NodeKind.ENTITY),
        )
        doc = GraphDocument(
            nodes=[user, sync, access, data, info],
            relationships=[
                GraphRelationship(user, sync, RelKind.TRIGGERS),
                GraphRelationship(sync, data, RelKind.TARGETS),
                GraphRelationship(access, info, RelKind.TARGETS),
            ],
        )
        story = components_to_story("#P#", "#P# text", doc)
        assert story.primary_actions == ["sync"]
        assert story.secondary_actions == ["access"]
        assert story.primary_entities == ["data"]
        assert story.secondary_entities == ["info"]
        assert story.triggers == [("user", "sync")]

    def test_no_relations_means_all_secondary(self):
        doc = GraphDocument(
            nodes=[GraphNode("read", NodeKind.ACTION), GraphNode("book", NodeKind.ENTITY)]
        )
        story = components_to_story("#P#", "#P# text", doc)
        assert story.primary_actions == []
        assert story.secondary_actions == ["read"]
        assert story.secondary_entities == ["book"]
        assert story.benefit is None
