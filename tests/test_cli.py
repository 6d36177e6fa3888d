import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import gallai
from gallai.cli import FuzzReport, build_parser, main, run_fuzz
from gallai.decompose import InternalInvariantViolation, TraceStep, _Engine
from gallai.graph import parse_edge_list

TRIANGLE = "p 3 3\n0 1\n1 2\n0 2\n"
K4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
C4 = "p 4 4\n0 1\n1 2\n2 3\n0 3\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


class TestDecomposeCommand:
    def test_met_exits_zero(self, graph_file, capsys):
        assert main(["decompose", graph_file(C4)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].endswith("met true")

    def test_triangle_valid_but_unmet(self, graph_file, capsys):
        assert main(["decompose", graph_file(TRIANGLE)]) == 2
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "paths 2 bound 2 met false"

    def test_not_two_degenerate_exits_one(self, graph_file, capsys):
        assert main(["decompose", graph_file(K4)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exits_one(self, graph_file, capsys):
        assert main(["decompose", graph_file("0 1\nbogus line\n")]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["decompose", str(tmp_path / "absent.txt")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_ascii_input_exits_one(self, tmp_path, capsys):
        src = tmp_path / "na.txt"
        src.write_bytes(b"# caf\xc3\xa9\n0 1\n1 2\n")
        assert main(["decompose", str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_header_edge_count_mismatch_exits_one(self, graph_file, capsys):
        assert main(["decompose", graph_file("p 4 99\n0 1\n1 2\n")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: header says 99 edges, file has 2\n"

    def test_invariant_violation_exits_five_with_trace(self, graph_file, capsys, monkeypatch):
        step = TraceStep(tag="Base", vertices={"u": 0, "v": 1}, n=2, m=1)

        def broken(self, g):
            raise InternalInvariantViolation("forced", [step])

        monkeypatch.setattr(_Engine, "decompose_view", broken)
        assert main(["decompose", graph_file(C4)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        reason, trace = captured.err.splitlines()
        assert reason == "error: internal invariant violated: forced"
        assert json.loads(trace) == [step.to_json()]

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", SimpleNamespace(read=lambda: C4))
        assert main(["decompose", "-"]) == 0

    def test_output_file(self, graph_file, tmp_path, capsys):
        dest = tmp_path / "out.txt"
        assert main(["decompose", graph_file(C4), "-o", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert dest.read_text().startswith("paths ")

    def test_json_payload(self, graph_file, capsys):
        assert main(["decompose", graph_file(C4), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["met"] is True
        assert payload["bound"] == 2
        assert all(isinstance(p, list) for p in payload["paths"])
        assert "trace" not in payload

    def test_json_trace(self, graph_file, capsys):
        assert main(["decompose", graph_file(C4), "--json", "--trace"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["tag"] for s in payload["trace"]]

    def test_text_trace_comments(self, graph_file, capsys):
        assert main(["decompose", graph_file(C4), "--trace"]) == 0
        out = capsys.readouterr().out
        assert any(line.startswith("# ") for line in out.splitlines())


class TestVerifyCommand:
    def decompose_to(self, src, tmp_path):
        dest = tmp_path / "dec.txt"
        code = main(["decompose", src, "-o", str(dest)])
        assert code in (0, 2)
        return str(dest)

    def test_valid_round_trip(self, graph_file, tmp_path, capsys):
        g = graph_file(C4)
        d = self.decompose_to(g, tmp_path)
        assert main(["verify", g, d]) == 0
        assert capsys.readouterr().out.startswith("valid ")

    def test_invalid_exits_three(self, graph_file, capsys):
        g = graph_file(C4)
        d = graph_file("paths 1 bound 2 met true\n0 1 2 3\n", "dec.txt")
        assert main(["verify", g, d]) == 3
        out = capsys.readouterr().out
        assert out.startswith("invalid ")
        assert "EdgeMissing" in out

    def test_bound_in_file_is_trusted(self, graph_file, capsys):
        g = graph_file(C4)
        d = graph_file("paths 2 bound 1 met true\n0 1 2\n2 3 0\n", "dec.txt")
        assert main(["verify", g, d]) == 3
        assert "BoundExceeded" in capsys.readouterr().out

    def test_malformed_decomposition_exits_one(self, graph_file, capsys):
        g = graph_file(C4)
        d = graph_file("not a decomposition\n", "dec.txt")
        assert main(["verify", g, d]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["graph", "decomposition"])
    def test_non_ascii_input_exits_one(self, graph_file, tmp_path, capsys, which):
        files = {
            "graph": graph_file(C4),
            "decomposition": graph_file("paths 2 bound 2 met true\n0 1 2\n2 3 0\n", "d.txt"),
        }
        files[which] = graph_file("# caf\u00e9\n0 1\n1 2\n", "na.txt")
        assert main(["verify", files["graph"], files["decomposition"]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_header_edge_count_mismatch_exits_one(self, graph_file, capsys):
        g = graph_file("p 4 99\n0 1\n1 2\n")
        d = graph_file("paths 1 bound 2 met true\n0 1 2\n", "dec.txt")
        assert main(["verify", g, d]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: header says 99 edges, file has 2\n"

    def test_malformed_graph_exits_one(self, graph_file, capsys):
        g = graph_file("0 zero\n")
        d = graph_file("paths 1 bound 1 met true\n0 1\n", "dec.txt")
        assert main(["verify", g, d]) == 1

    def test_json_report(self, graph_file, tmp_path, capsys):
        g = graph_file(C4)
        d = self.decompose_to(g, tmp_path)
        assert main(["verify", g, d, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True and payload["failures"] == []


class TestGenCommand:
    def test_random_instance(self, capsys):
        assert main(["gen", "--n", "12", "--seed", "3"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert g.n == 12

    def test_family_with_n(self, capsys):
        assert main(["gen", "--family", "cycle", "--n", "6"]) == 0
        assert parse_edge_list(capsys.readouterr().out).m == 6

    def test_fixture_family_without_n(self, capsys):
        assert main(["gen", "--family", "fig5c"]) == 0
        assert parse_edge_list(capsys.readouterr().out).n == 7

    def test_missing_n_exits_one(self, capsys):
        assert main(["gen"]) == 1
        assert "--n is required" in capsys.readouterr().err

    def test_bad_scale_exits_one(self, capsys):
        assert main(["gen", "--family", "theta", "--n", "3"]) == 1
        assert main(["gen", "--family", "fig4a", "--n", "9"]) == 1

    def test_unknown_family_rejected_by_flags(self, capsys):
        assert main(["gen", "--family", "petersen", "--n", "10"]) == 1

    def test_output_file(self, tmp_path, capsys):
        dest = tmp_path / "g.txt"
        assert main(["gen", "--n", "9", "-o", str(dest)]) == 0
        assert parse_edge_list(dest.read_text()).n == 9

    def test_no_connected_flag_accepted(self, capsys):
        assert main(["gen", "--n", "15", "--seed", "4", "--no-connected"]) == 0
        parse_edge_list(capsys.readouterr().out)


class TestFuzzCommand:
    def test_clean_run(self, capsys):
        assert main(["fuzz", "--trials", "5", "--max-n", "12"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("trials 5 failures 0 max_n_seen ")
        assert int(lines[0].rsplit(" ", 1)[1]) <= 12

    def test_zero_trials_still_seeds_histogram(self, capsys):
        assert main(["fuzz", "--trials", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 0 and payload["failures"] == []
        assert payload["branch_histogram"]
        assert payload["max_n_seen"] == 0

    def test_json_shape(self, capsys):
        assert main(["fuzz", "--trials", "3", "--max-n", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"trials", "failures", "branch_histogram", "max_n_seen"}

    def test_bad_limits_exit_one(self, capsys):
        assert main(["fuzz", "--trials", "1", "--max-n", "3"]) == 1
        assert main(["fuzz", "--trials", "-1"]) == 1

    def test_oracle_flag_accepted(self, capsys):
        assert main(["fuzz", "--trials", "4", "--max-n", "6", "--oracle-max-edges", "9"]) == 0

    def test_densify_mode(self, capsys):
        assert main(["fuzz", "--trials", "3", "--max-n", "24", "--densify"]) == 0

    def test_failure_exits_four_with_reproducer(self, capsys, monkeypatch):
        # force the verifier to reject everything to drive the failure path
        monkeypatch.setattr(
            "gallai.cli.verify_decomposition",
            lambda g, d: SimpleNamespace(valid=False),
        )
        assert main(["fuzz", "--trials", "2", "--max-n", "8", "--seed", "5"]) == 4
        captured = capsys.readouterr()
        assert "failure seed=5 kind=InvalidDecomposition" in captured.out
        assert "reproduce: gallai fuzz --trials 1 --max-n 8 --seed 5" in captured.err

    def test_reproducer_flags_replay_the_trial(self):
        flags = []
        run_fuzz(trials=3, max_n=9, seed=11, reproducer=flags.append)
        # replaying trial k of a run is trial 0 of a shifted run
        a = run_fuzz(trials=1, max_n=9, seed=13)
        b = run_fuzz(trials=3, max_n=9, seed=11)
        assert a.failures == [] and b.failures == []
        assert a.max_n_seen <= 9 and b.max_n_seen <= 9

    def test_report_json_sorts_histogram(self):
        r = FuzzReport(trials=0, branch_histogram={"b": 1, "a": 2})
        assert list(r.to_json()["branch_histogram"]) == ["a", "b"]


class TestParserPlumbing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_no_command_exits_one(self, capsys):
        assert main([]) == 1

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_exits_one(self, capsys):
        assert main(["gen", "--n", "notanumber"]) == 1

    def test_parser_builds(self):
        build_parser()


class TestPipeline:
    def test_gen_decompose_verify(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        d = tmp_path / "d.txt"
        assert main(["gen", "--family", "fig5b", "-o", str(g)]) == 0
        assert main(["decompose", str(g), "-o", str(d)]) == 0
        assert main(["verify", str(g), str(d)]) == 0

    @staticmethod
    def round_trip(script, tmp_path):
        """Run gen -> decompose -> verify through `script` in child processes.

        The children import the same gallai as this test process.
        """
        env = dict(os.environ)
        package_root = str(Path(gallai.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        g = tmp_path / "g.txt"
        d = tmp_path / "d.txt"
        for args in (
            ["gen", "--n", "16", "--seed", "2", "-o", str(g)],
            ["decompose", str(g), "-o", str(d)],
            ["verify", str(g), str(d)],
        ):
            proc = subprocess.run([*script, *args], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr

    def test_console_script_round_trip(self, tmp_path):
        # the `gallai` script as pyproject.toml declares it, run the way the
        # wrapper that pip generates runs it, so no install is needed
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["gallai"]
        module, attr = target.split(":")
        code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        self.round_trip([sys.executable, "-c", code], tmp_path)

    @pytest.mark.skipif(
        shutil.which("gallai") is None,
        reason="no gallai console script on PATH (pip install puts one there)",
    )
    def test_installed_console_script_round_trip(self, tmp_path):
        self.round_trip(["gallai"], tmp_path)

    def test_json_output_is_byte_stable(self, tmp_path):
        g = tmp_path / "g.txt"
        assert main(["gen", "--n", "14", "--seed", "8", "-o", str(g)]) == 0
        runs = [
            subprocess.run(
                [sys.executable, "-m", "gallai.cli", "decompose", str(g), "--json", "--trace"],
                capture_output=True,
            ).stdout
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]
