"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main
from repro.frontend.paper_programs import FIGURE_1, FIGURE_5


@pytest.fixture()
def figure1_file(tmp_path):
    path = tmp_path / "figure1.java"
    path.write_text(FIGURE_1)
    return str(path)


@pytest.fixture()
def figure5_file(tmp_path):
    path = tmp_path / "figure5.java"
    path.write_text(FIGURE_5)
    return str(path)


class TestAnalyzeCommand:
    def test_points_to_query(self, figure1_file, capsys):
        assert main([
            "analyze", figure1_file, "--config", "1-call",
            "--var", "T.main/x1", "--var", "T.main/x2",
        ]) == 0
        out = capsys.readouterr().out
        assert "T.main/x1 -> {h1}" in out
        assert "T.main/x2 -> {h1, h2}" in out

    def test_full_dump_and_stats(self, figure1_file, capsys):
        assert main(["analyze", figure1_file, "--stats", "--call-graph"]) == 0
        out = capsys.readouterr().out
        assert "T.main/x1" in out
        assert "call graph:" in out
        assert "|pts|=" in out
        assert "2-object+H" in out

    def test_stats_prints_store_counters(self, figure1_file, capsys):
        assert main(["analyze", figure1_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "relation" in out and "inserts" in out and "probes" in out
        counters = {}
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] in ("pts", "hpts", "call"):
                counters[parts[0]] = [int(v) for v in parts[1:]]
        assert set(counters) == {"pts", "hpts", "call"}
        for name, (rows, inserts, dedup, probes, *_rest) in counters.items():
            assert inserts > 0, name
            assert probes > 0, name
        assert counters["pts"][2] > 0  # pts sees dedup hits on Figure 1

    def test_context_string_abstraction(self, figure5_file, capsys):
        assert main([
            "analyze", figure5_file, "--config", "1-call+H",
            "--abstraction", "cs", "--stats",
        ]) == 0
        assert "context-string" in capsys.readouterr().out

    def test_missing_input_errors(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--config", "1-call"])

    def test_unknown_config_rejected(self, figure1_file):
        with pytest.raises(SystemExit):
            main(["analyze", figure1_file, "--config", "9-quantum"])


class TestQueryCommand:
    def test_demand_query(self, figure1_file, capsys):
        assert main([
            "query", figure1_file, "--config", "1-call",
            "--var", "T.main/x1",
        ]) == 0
        out = capsys.readouterr().out
        assert "T.main/x1 -> {h1}" in out
        assert "demand slice:" in out

    def test_query_matches_analyze(self, figure1_file, capsys):
        main(["query", figure1_file, "--config", "2-object+H",
              "--var", "T.main/x2"])
        query_out = capsys.readouterr().out
        main(["analyze", figure1_file, "--config", "2-object+H",
              "--var", "T.main/x2"])
        analyze_out = capsys.readouterr().out
        assert "T.main/x2 -> {h1}" in query_out
        assert "T.main/x2 -> {h1}" in analyze_out

    def test_dot_export(self, figure1_file, tmp_path, capsys):
        out = tmp_path / "cg.dot"
        assert main([
            "analyze", figure1_file, "--config", "1-call", "--dot", str(out),
        ]) == 0
        text = out.read_text()
        assert text.startswith("digraph")
        assert '"T.id"' in text


class TestFactsCommand:
    def test_generates_directory(self, figure1_file, tmp_path, capsys):
        out_dir = str(tmp_path / "facts")
        assert main(["facts", figure1_file, "--out", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "AssignHeapAllocation.facts"))
        assert "wrote" in capsys.readouterr().out

    def test_roundtrip_through_analyze(self, figure1_file, tmp_path, capsys):
        out_dir = str(tmp_path / "facts")
        main(["facts", figure1_file, "--out", out_dir])
        assert main([
            "analyze", "--facts-dir", out_dir, "--config", "1-call",
            "--var", "T.main/x1",
        ]) == 0
        assert "T.main/x1 -> {h1}" in capsys.readouterr().out


class TestEmitCommand:
    def test_emit_to_stdout(self, figure5_file, capsys):
        assert main(["emit", figure5_file, "--config", "1-call+H"]) == 0
        out = capsys.readouterr().out
        assert "pts__" in out
        assert ":-" in out

    def test_emitted_program_parses(self, figure5_file, tmp_path, capsys):
        out_file = str(tmp_path / "analysis.dl")
        assert main([
            "emit", figure5_file, "--config", "1-call+H", "--out", out_file,
        ]) == 0
        from repro.datalog.parser import parse_datalog

        with open(out_file) as handle:
            program = parse_datalog(handle.read())
        assert len(program.rules) > 100


class TestFigure6Command:
    def test_small_table(self, capsys):
        assert main(["figure6", "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "2-object+H" in out
        assert "Mean" in out

    def test_json_export(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "figure6.json"
        assert main([
            "figure6", "--scale", "1", "--json", str(out_file),
            "--no-query-latency", "--no-incremental", "--no-checks",
            "--no-kernels", "--no-serving",
        ]) == 0
        assert "wrote JSON" in capsys.readouterr().out
        data = json.loads(out_file.read_text())
        assert data["schema"] == "repro-figure6/9"
        assert data["query_latency"] is None  # suppressed by the flag
        assert data["incremental"] is None  # suppressed by the flag
        assert data["checks"] is None  # suppressed by the flag
        assert "parallel" not in data  # removed in /9
        assert data["kernels"] is None  # suppressed by the flag
        assert data["serving"] is None  # suppressed by the flag
        assert data["scale"] == 1
        assert data["engine"] == "solver"
        assert set(data["geomean"]) == set(data["configurations"])
        cell = data["cells"][0]
        assert cell["benchmark"] in data["benchmarks"]
        for side in ("context_string", "transformer_string"):
            measurement = cell[side]
            assert set(measurement["sizes"]) == {"pts", "hpts", "call"}
            assert measurement["total"] == sum(measurement["sizes"].values())
            assert measurement["seconds"] > 0
            assert measurement["counters"]["pts"]["inserts"] > 0
        assert set(cell["size_decrease"]) == {"pts", "hpts", "call"}

    def test_json_query_latency(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "figure6.json"
        assert main([
            "figure6", "--scale", "1", "--json", str(out_file),
        ]) == 0
        capsys.readouterr()
        data = json.loads(out_file.read_text())
        latency = data["query_latency"]
        assert latency["configuration"] == "2-object+H"
        for benchmark, entry in latency["benchmarks"].items():
            assert entry["warm"]["points_to"]["count"] > 0, benchmark
            assert entry["cold"]["points_to"]["count"] > 0, benchmark
        incremental = data["incremental"]
        assert incremental["single_edit"]["speedup"] > 0
        for benchmark, churn in incremental["benchmarks"].items():
            assert churn["edits"] > 0, benchmark
            assert churn["fallbacks"] == 0, benchmark
        checks = data["checks"]
        assert checks["schema"] == "repro-check-audit/1"
        assert checks["configurations"][0] == "insensitive"
        for benchmark, audit in checks["benchmarks"].items():
            assert audit["abstractions_agree"], benchmark
            assert all(audit["monotone"].values()), benchmark
            assert audit["cells"], benchmark


class TestSnapshotWorkflow:
    def test_save_lint_query_round_trip(self, figure1_file, tmp_path, capsys):
        snap = str(tmp_path / "figure1.snap")
        assert main([
            "analyze", figure1_file, "--save-snapshot", snap,
        ]) == 0
        assert "wrote snapshot" in capsys.readouterr().out

        assert main(["lint", snap]) == 0
        lint_out = capsys.readouterr().out
        assert "repro-snapshot/2" in lint_out
        assert "(verified)" in lint_out
        assert "snapshot ok" in lint_out

        assert main(["query", "--snapshot", snap, "--var", "T.main/x2"]) == 0
        query_out = capsys.readouterr().out
        assert "T.main/x2 -> {h1}" in query_out
        assert "snapshot served: 1 warm" in query_out

    def test_snapshot_query_skips_solving(self, figure1_file, tmp_path,
                                          capsys):
        from repro.core.solver import Solver

        snap = str(tmp_path / "figure1.snap")
        main(["analyze", figure1_file, "--save-snapshot", snap])
        capsys.readouterr()
        main(["analyze", figure1_file, "--var", "T.main/x1"])
        analyze_line = capsys.readouterr().out.strip()
        before = Solver.invocations
        assert main([
            "query", "--snapshot", snap,
            "--var", "T.main/x1", "--var", "T.main/x2",
        ]) == 0
        assert Solver.invocations == before
        out = capsys.readouterr().out
        assert analyze_line in out  # parity with the exhaustive solver

    def test_lint_rejects_tampered_snapshot(self, figure1_file, tmp_path,
                                            capsys):
        import json

        snap = tmp_path / "figure1.snap"
        main(["analyze", figure1_file, "--save-snapshot", str(snap)])
        capsys.readouterr()
        document = json.loads(snap.read_text())
        document["body"]["counts"]["pts"] += 1
        snap.write_text(json.dumps(document))
        assert main(["lint", str(snap)]) == 1
        assert "error[snapshot]" in capsys.readouterr().err

    def test_query_missing_snapshot_errors(self, tmp_path, capsys):
        assert main([
            "query", "--snapshot", str(tmp_path / "absent.snap"),
            "--var", "x",
        ]) == 1
        assert "repro query:" in capsys.readouterr().err


class TestIncrementalCli:
    @pytest.fixture()
    def figure1_edited_file(self, tmp_path):
        path = tmp_path / "figure1_edited.java"
        path.write_text(FIGURE_1.replace(
            "Object z = b.f;",
            "Object z = b.f;\n        Object w = y;",
        ))
        return str(path)

    def test_analyze_diff(self, figure1_file, figure1_edited_file, capsys):
        assert main([
            "analyze", "--diff", figure1_file, figure1_edited_file,
            "--config", "1-call",
        ]) == 0
        out = capsys.readouterr().out
        assert "fact delta" in out
        assert "assign: +1" in out
        assert "derived changes: pts +1/-0" in out
        assert "parity with scratch solve: ok" in out
        assert "incremental" in out and "scratch" in out

    def test_analyze_diff_empty_delta(self, figure1_file, capsys):
        assert main([
            "analyze", "--diff", figure1_file, figure1_file,
        ]) == 0
        out = capsys.readouterr().out
        assert "(empty delta)" in out
        assert "parity" not in out  # nothing to solve

    def test_query_snapshot_warns_when_stale(self, figure1_file,
                                             figure1_edited_file, tmp_path,
                                             capsys):
        snap = str(tmp_path / "figure1.snap")
        main(["analyze", figure1_file, "--save-snapshot", snap])
        capsys.readouterr()
        assert main([
            "query", "--snapshot", snap, figure1_edited_file,
            "--var", "T.main/x2",
        ]) == 0
        captured = capsys.readouterr()
        assert "generation 0" in captured.out
        assert "is stale" in captured.err
        assert "1 fact(s) missing" in captured.err

    def test_query_snapshot_no_warning_when_fresh(self, figure1_file,
                                                  tmp_path, capsys):
        snap = str(tmp_path / "figure1.snap")
        main(["analyze", figure1_file, "--save-snapshot", snap])
        capsys.readouterr()
        assert main([
            "query", "--snapshot", snap, figure1_file,
            "--var", "T.main/x2",
        ]) == 0
        assert capsys.readouterr().err == ""


class TestServeCommand:
    def test_stdio_session(self, figure1_file, tmp_path):
        import json
        import subprocess
        import sys

        snap = str(tmp_path / "figure1.snap")
        main(["analyze", figure1_file, "--save-snapshot", snap])
        requests = "\n".join(json.dumps(r) for r in [
            {"id": 1, "op": "ping"},
            {"id": 2, "op": "points_to", "var": "T.main/x2"},
            {"id": 3, "op": "shutdown"},
        ]) + "\n"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--snapshot", snap],
            input=requests, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0
        assert "repro serve: ready" in completed.stderr
        responses = [
            json.loads(line) for line in completed.stdout.splitlines()
        ]
        assert responses[0]["result"] == "repro-serve/1"
        assert responses[1]["result"] == ["h1"]
        assert responses[1]["meta"]["path"] == "snapshot"
        assert responses[2]["result"] == "bye"


class TestQueryJson:
    def test_json_document_on_stdout(self, figure1_file, capsys):
        import json

        assert main([
            "query", figure1_file, "--config", "2-object+H",
            "--var", "T.main/x1", "--var", "T.main/x2", "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-query/1"
        assert document["config"] == "2-object+H/transformer-string"
        assert document["generation"] == 0
        assert document["snapshot"] is None
        answers = {q["var"]: q["answer"] for q in document["queries"]}
        # Figure 1 under object sensitivity: x1/y1 share the receiver
        # (conflated), x2 is precise.
        assert answers == {"T.main/x1": ["h1", "h2"], "T.main/x2": ["h1"]}
        for query in document["queries"]:
            assert query["kind"] == "points_to"
            assert query["micros"] >= 0
            assert query["cached"] is False
            assert query["path"] in ("demand", "solved")

    def test_json_from_snapshot_is_pure_json(self, figure1_file, tmp_path,
                                             capsys):
        import json

        snap = str(tmp_path / "figure1.snap")
        main(["analyze", figure1_file, "--save-snapshot", snap])
        capsys.readouterr()
        assert main([
            "query", "--snapshot", snap, "--var", "T.main/x2", "--json",
        ]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)  # no human header mixed in
        assert document["snapshot"] == snap
        assert document["queries"][0]["path"] == "snapshot"

    def test_text_output_stays_default(self, figure1_file, capsys):
        assert main([
            "query", figure1_file, "--var", "T.main/x2",
        ]) == 0
        out = capsys.readouterr().out
        assert "T.main/x2 -> {h1}" in out
        assert "demand slice:" in out


class TestDiffParityGate:
    @pytest.fixture()
    def figure1_edited_file(self, tmp_path):
        path = tmp_path / "figure1_edited.java"
        path.write_text(FIGURE_1.replace(
            "Object z = b.f;",
            "Object z = b.f;\n        Object w = y;",
        ))
        return str(path)

    def test_parity_mismatch_exits_nonzero(self, figure1_file,
                                           figure1_edited_file, capsys,
                                           monkeypatch):
        from repro.incremental import IncrementalSolver

        original = IncrementalSolver.relation_rows

        def corrupted(self):
            rows = {kind: set(r) for kind, r in original(self).items()}
            rows["pts"].add(("bogus/var", "bogus-heap"))
            return rows

        monkeypatch.setattr(IncrementalSolver, "relation_rows", corrupted)
        assert main([
            "analyze", "--diff", figure1_file, figure1_edited_file,
            "--config", "1-call",
        ]) == 1
        assert "parity with scratch solve: MISMATCH" in (
            capsys.readouterr().out
        )


class TestCheckCommand:
    @pytest.fixture()
    def eventbus_file(self, tmp_path):
        from tests.checkers.test_checks import _example_program

        path = tmp_path / "eventbus.java"
        path.write_text(_example_program())
        return str(path)

    def test_clean_program_passes(self, figure1_file, capsys):
        assert main(["check", figure1_file]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_render_but_default_gate_is_error(self, eventbus_file,
                                                       capsys):
        # The event bus has warnings and infos, no errors: default
        # --fail-on error keeps the exit clean.
        assert main(["check", eventbus_file]) == 0
        out = capsys.readouterr().out
        assert "CK301" in out
        assert "CK401" in out
        assert "[races]" in out

    def test_fail_on_warning_gates_the_exit(self, eventbus_file, capsys):
        assert main(["check", eventbus_file, "--fail-on", "warning"]) == 1
        captured = capsys.readouterr()
        assert "repro check: failing" in captured.err
        assert main(["check", eventbus_file, "--fail-on", "never"]) == 0

    def test_checks_subset_and_unknown_selector(self, eventbus_file,
                                                capsys):
        assert main([
            "check", eventbus_file, "--checks", "races,CK4",
            "--fail-on", "never",
        ]) == 0
        out = capsys.readouterr().out
        assert "[races]" in out and "[leaks]" in out
        assert "[devirt]" not in out
        assert main(["check", eventbus_file, "--checks", "bogus"]) == 2
        assert "unknown checker" in capsys.readouterr().err

    def test_json_report_round_trips_through_lint(self, eventbus_file,
                                                  tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        assert main([
            "check", eventbus_file, "--config", "insensitive",
            "--json", str(report_path),
        ]) == 0
        capsys.readouterr()
        document = json.loads(report_path.read_text())
        assert document["schema"] == "repro-check/1"
        subjects = [
            f["subject"] for f in document["body"]["findings"]
        ]
        assert "cReplay" in subjects
        assert main(["lint", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "check report ok: 0 errors, 0 warnings" in out
        assert "(verified)" in out

    def test_lint_rejects_tampered_report(self, eventbus_file, tmp_path,
                                          capsys):
        import json

        report_path = tmp_path / "report.json"
        main(["check", eventbus_file, "--json", str(report_path)])
        capsys.readouterr()
        document = json.loads(report_path.read_text())
        document["body"]["findings"] = []
        report_path.write_text(json.dumps(document))
        assert main(["lint", str(report_path)]) == 1
        assert "error[check-report]" in capsys.readouterr().err

    def test_check_from_snapshot_matches_source(self, eventbus_file,
                                                tmp_path, capsys):
        import json

        snap = str(tmp_path / "eventbus.snap")
        main(["analyze", eventbus_file, "--save-snapshot", snap])
        live_path = tmp_path / "live.json"
        snap_path = tmp_path / "snap.json"
        assert main([
            "check", eventbus_file, "--json", str(live_path),
        ]) == 0
        assert main([
            "check", "--snapshot", snap, "--json", str(snap_path),
        ]) == 0
        capsys.readouterr()
        live = json.loads(live_path.read_text())
        loaded = json.loads(snap_path.read_text())
        assert live["digest"] == loaded["digest"]

    def test_missing_snapshot_exits_two(self, tmp_path, capsys):
        assert main([
            "check", "--snapshot", str(tmp_path / "absent.snap"),
        ]) == 2
        assert "repro check:" in capsys.readouterr().err

    def test_audit_sweeps_and_passes(self, eventbus_file, tmp_path, capsys):
        import json

        audit_path = tmp_path / "audit.json"
        assert main([
            "check", eventbus_file, "--audit", "--json", str(audit_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "monotone vs insensitive" in out
        assert "abstractions agree" in out
        document = json.loads(audit_path.read_text())
        assert document["schema"] == "repro-check-audit/1"
        assert all(document["monotone"].values())
        assert document["abstractions_agree"]

    def test_explain_prints_witness_derivations(self, eventbus_file,
                                                capsys):
        assert main([
            "check", eventbus_file, "--config", "insensitive",
            "--checks", "downcast", "--explain", "--fail-on", "never",
        ]) == 0
        out = capsys.readouterr().out
        assert "CK101" in out
        # --explain re-solves with provenance: witnesses expand into
        # derivation trees instead of the "solve with provenance" hint.
        assert "track_provenance" not in out


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self, figure1_file):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", figure1_file,
             "--config", "1-call", "--var", "T.main/x1"],
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0
        assert "T.main/x1 -> {h1}" in completed.stdout

    def test_help_lists_subcommands(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0
        for command in (
            "analyze", "query", "facts", "emit", "figure6", "serve",
        ):
            assert command in completed.stdout


# Sources that parse but whose classes are malformed, with the reason
# each ends in.  Every one declares a static main, so the reason is the
# class structure alone.
_MALFORMED_CLASSES = [
    ("class T {\n  static void main(String[] a) { }\n}\nclass T { }\n",
     "duplicate class 'T'"),
    ("class T extends Nope {\n  static void main(String[] a) { }\n}\n",
     "class 'T' extends unknown 'Nope'"),
    ("class T extends U {\n  static void main(String[] a) { }\n}\n"
     "class U extends T { }\n",
     "inheritance cycle through 'T'"),
]
_MALFORMED_CLASS_IDS = [
    "duplicate-class", "unknown-superclass", "inheritance-cycle",
]


class TestUnreadableInput:
    @pytest.mark.parametrize("argv", [
        ["analyze", "MISSING"],
        ["analyze", "--diff", "MISSING", "MISSING"],
        ["check", "MISSING"],
        ["emit", "MISSING"],
        ["query", "MISSING", "--var", "T.main/x"],
        ["serve", "MISSING"],
        ["facts", "MISSING", "--out", "OUT"],
        ["lint", "MISSING"],
    ], ids=["analyze", "analyze-diff", "check", "emit", "query", "serve",
            "facts", "lint"])
    def test_one_stderr_line_and_exit_1(self, argv, tmp_path):
        import subprocess
        import sys

        missing = str(tmp_path / "missing.java")
        paths = {"MISSING": missing, "OUT": str(tmp_path / "out")}
        completed = subprocess.run(
            [sys.executable, "-m", "repro"]
            + [paths.get(arg, arg) for arg in argv],
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 1
        assert "Traceback" not in completed.stderr
        assert completed.stderr.splitlines() == [
            f"repro {argv[0]}: cannot read {missing}:"
            " No such file or directory"
        ]

    @pytest.mark.parametrize("argv", [
        ["analyze"],
        ["query", "--var", "T.main/x"],
        ["check"],
        ["serve"],
        ["emit"],
    ], ids=["analyze", "query", "check", "serve", "emit"])
    @pytest.mark.parametrize("case", ["missing", "no-main"])
    def test_facts_dir_failure_is_one_stderr_line(self, argv, case,
                                                  tmp_path):
        import subprocess
        import sys

        directory = tmp_path / case
        if case == "missing":
            expected = (
                f"repro {argv[0]}: cannot read {directory}:"
                " No such file or directory"
            )
        else:
            directory.mkdir()
            (directory / "AssignLocal.facts").write_text("T.m/a\tT.m/b\n")
            expected = (
                f"repro {argv[0]}: {directory}: fact set has no main method"
            )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *argv,
             "--facts-dir", str(directory)],
            capture_output=True, text=True, timeout=60,
            stdin=subprocess.DEVNULL,
        )
        assert completed.returncode == 1
        assert completed.stderr.splitlines() == [expected]

    def test_malformed_facts_dir_is_one_line(self, tmp_path, capsys):
        (tmp_path / "AssignLocal.facts").write_text("a\tb\tc\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--facts-dir", str(tmp_path)])
        assert exit_info.value.code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"repro analyze: cannot read {tmp_path}:"
            " AssignLocal.facts:1: expected 2 columns, got 3"
        ]

    @pytest.mark.parametrize("argv", [
        ["analyze", "BAD"],
        ["analyze", "--diff", "BAD", "GOOD"],
        ["analyze", "--diff", "GOOD", "BAD"],
        ["check", "BAD"],
        ["emit", "BAD"],
        ["query", "BAD", "--var", "T.main/x"],
        ["serve", "BAD"],
        ["facts", "BAD", "--out", "OUT"],
    ], ids=["analyze", "analyze-diff-old", "analyze-diff-new", "check",
            "emit", "query", "serve", "facts"])
    @pytest.mark.parametrize("source,reason", [
        ("class T {\n  static void main(String[] a) {\n"
         "    T x = new T()\n  }\n}\n",
         "expected ; (at line 4:3, got PUNCT('}')@4:3)"),
        ("class T {\n  void m() { }\n}\n",
         "program has no static main(String[]) entry point"),
    ] + _MALFORMED_CLASSES, ids=["syntax-error", "no-main", "duplicate-class",
            "unknown-superclass", "inheritance-cycle"])
    def test_bad_java_source_is_one_line(self, argv, source, reason,
                                         figure1_file, tmp_path, capsys):
        bad = tmp_path / "bad.java"
        bad.write_text(source)
        paths = {"BAD": str(bad), "GOOD": figure1_file,
                 "OUT": str(tmp_path / "out")}
        with pytest.raises(SystemExit) as exit_info:
            main([paths.get(arg, arg) for arg in argv])
        assert exit_info.value.code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"repro {argv[0]}: {bad}: {reason}"
        ]

    @pytest.mark.parametrize("source,reason", [
        ("class T {\n  static void main(String[] a) {\n"
         "    T x = new T()\n  }\n}\n",
         "expected ; (at line 4:3, got PUNCT('}')@4:3)"),
        ("class T { # }\n", "unexpected character '#' at line 1:11"),
    ] + _MALFORMED_CLASSES, ids=["parse-error", "lex-error", "duplicate-class",
            "unknown-superclass", "inheritance-cycle"])
    def test_lint_reports_bad_java_source_as_syntax_error(
        self, source, reason, tmp_path, capsys
    ):
        bad = tmp_path / "bad.java"
        bad.write_text(source)
        assert main(["lint", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error[syntax] in {bad}: {reason}"
        ]

    def test_undecodable_file_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "binary.java"
        path.write_bytes(b"\xff\xfe class T {}")
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", str(path)])
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"repro analyze: cannot read {path}: 'utf-8' codec can't"
            " decode byte 0xff in position 0: invalid start byte"
        ]


class TestAnalyzeBackend:
    @pytest.mark.parametrize("backend", ["engine", "kernel"])
    def test_backend_parity_and_points_to(self, figure1_file, backend,
                                          capsys):
        assert main([
            "analyze", figure1_file, "--config", "1-call",
            "--backend", backend, "--var", "T.main/x1",
        ]) == 0
        out = capsys.readouterr().out
        assert "T.main/x1 -> {h1}" in out
        assert f"{backend} backend:" in out
        assert "parity with worklist solver: ok" in out

    def test_kernel_backend_stats_and_call_graph(self, figure1_file,
                                                 capsys):
        assert main([
            "analyze", figure1_file, "--backend", "kernel",
            "--stats", "--call-graph",
        ]) == 0
        out = capsys.readouterr().out
        assert "call graph:" in out
        assert "rule_evaluations=" in out
        assert "relation" in out and "inserts" in out

    def test_kernel_stats_show_cache_live_rules_and_no_probes(
        self, figure1_file, capsys
    ):
        import re

        for _ in range(2):
            assert main([
                "analyze", figure1_file, "--backend", "kernel", "--stats",
            ]) == 0
        out = capsys.readouterr().out
        lines = re.findall(
            r"^kernels: (compiled|cache hit), (\d+) of (\d+) emitted"
            r" rules live$", out, re.MULTILINE,
        )
        assert len(lines) == 2 and lines[1][0] == "cache hit"
        live, emitted = int(lines[1][1]), int(lines[1][2])
        assert 0 < live < emitted
        rows = [
            line.split() for line in out.splitlines()
            if line.startswith(("pts__", "assign "))
        ]
        assert rows and all(row[4] == "-" for row in rows)

    def test_backend_worklist_is_default_path(self, figure1_file, capsys):
        assert main([
            "analyze", figure1_file, "--config", "1-call",
            "--backend", "worklist", "--var", "T.main/x1",
        ]) == 0
        out = capsys.readouterr().out
        assert "T.main/x1 -> {h1}" in out
        assert "parity with worklist solver" not in out

    def test_mismatch_exits_nonzero(self, figure1_file, capsys,
                                    monkeypatch):
        from repro.compile import emit

        monkeypatch.setattr(
            emit.CompiledResult, "pts",
            property(lambda self: (
                self.relations.get("pts", set())
                | {("bogus/var", "bogus-heap", "ctx")}
            )),
        )
        assert main([
            "analyze", figure1_file, "--config", "1-call",
            "--backend", "kernel",
        ]) == 1
        assert "parity with worklist solver: MISMATCH" in (
            capsys.readouterr().out
        )


class TestLintJson:
    def test_document_shape_and_sorting(self, figure1_file, tmp_path,
                                         capsys):
        import json

        out_path = tmp_path / "lint.json"
        assert main([
            "lint", figure1_file, "--cost", "--config", "1-call",
            "--json", str(out_path),
        ]) == 0
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro-lint/1"
        assert document["ok"] is True
        subjects = document["subjects"]
        assert [s["subject"] for s in subjects][0] == figure1_file
        emitted = subjects[1]
        assert emitted["cost_plan"]["schema"] == "repro-cost-plan/1"
        diagnostics = emitted["diagnostics"]
        assert diagnostics
        keys = [
            (d["line"] or 0, d["column"] or 0, d["code"], d["message"])
            for d in diagnostics
        ]
        assert keys == sorted(keys)

    def test_output_is_byte_stable(self, figure1_file, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            assert main([
                "lint", figure1_file, "--cost", "--config",
                "1-call", "--json", str(path),
            ]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_stdout_json(self, figure1_file, capsys):
        import json

        assert main(["lint", figure1_file, "--json", "-"]) == 0
        out = capsys.readouterr().out
        start = out.index("{")
        document = json.loads(out[start:])
        assert document["schema"] == "repro-lint/1"

    def test_dl201_witness_carries_position(self, tmp_path, capsys):
        import json

        path = tmp_path / "cycle.dl"
        path.write_text(
            "n(1).\n"
            "p(X) :- n(X), !q(X).\n"
            "q(X) :- n(X), !p(X).\n"
        )
        assert main(["lint", str(path), "--json", "-"]) == 1
        out = capsys.readouterr().out
        start = out.index("{")
        document = json.loads(out[start:])
        [subject] = document["subjects"]
        dl201 = [
            d for d in subject["diagnostics"] if d["code"] == "DL201"
        ]
        assert dl201, "expected DL201 findings"
        for diagnostic in dl201:
            assert diagnostic["line"] in (2, 3)
            assert "(at " in diagnostic["message"]
