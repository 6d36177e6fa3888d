import errno
import importlib
import inspect
import io
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
from gallai.decompose import (
    GeometryMismatch,
    InternalInvariantViolation,
    NoIntersectingPath,
    TraceStep,
    _Engine,
)
from gallai.generate import dense_instance, family, generate
from gallai.graph import MAX_VERTICES, NoPath, format_edge_list, parse_edge_list

try:
    import resource
except ImportError:  # not on Windows
    resource = None

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

    @pytest.mark.parametrize("text", ["p 11 1\n0 1_0\n", "+0 +1\n"])
    def test_ids_must_be_ascii_digits(self, graph_file, capsys, text):
        # int() alone reads these as the edges (0, 10) and (0, 1)
        assert main(["decompose", graph_file(text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line ")
        assert len(captured.err.splitlines()) == 1

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

    def test_non_ascii_stdin_exits_one(self, capsys, monkeypatch):
        # U+0661 (ARABIC-INDIC DIGIT ONE) would parse as 1; a file with the
        # same bytes is refused, so stdin is too
        stdin = io.TextIOWrapper(io.BytesIO(b"p 2 1\n0 \xd9\xa1\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["decompose", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_header_edge_count_mismatch_exits_one(self, graph_file, capsys):
        assert main(["decompose", graph_file("p 4 99\n0 1\n1 2\n")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: header says 99 edges, file has 2\n"

    @pytest.mark.parametrize("text", ("p 1000000000 0\n", "0 999999999\n"))
    def test_huge_vertex_count_exits_one(self, graph_file, capsys, text):
        assert main(["decompose", graph_file(text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: vertex count 1000000000 is over the limit of 1000000\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "0 18446744073709551616\n",
                "vertex count 18446744073709551617 is over the limit of 1000000",
            ),
            ("p 3 1\n0 9223372036854775808\n", "edge (0, 9223372036854775808) outside [0, 3)"),
        ],
    )
    def test_ids_past_64_bits_exit_one(self, graph_file, capsys, text, message):
        # ids no machine int holds are refused like any other, with no traceback
        assert main(["decompose", graph_file(text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_invariant_violation_exits_five_with_trace(self, graph_file, capsys, monkeypatch):
        step = TraceStep(tag="Base", vertices={"u": 0, "v": 1}, n=2, m=1)

        def broken(self, g):
            raise InternalInvariantViolation("forced", [step])

        monkeypatch.setattr(_Engine, "plan", broken)
        assert main(["decompose", graph_file(C4)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        reason, trace = captured.err.splitlines()
        assert reason == "error: internal invariant violated: forced"
        assert json.loads(trace) == [step.to_json()]

    @staticmethod
    def merge_fails(tmp_path, capsys, monkeypatch, target, exc, g):
        """Decompose g with the module's `target` raising exc("forced"): exit 5
        with the reason and the trace up to the cycle step."""

        def broken(*_args):
            raise exc("forced")

        # the package re-exports the function decompose under the module's name
        monkeypatch.setattr(importlib.import_module("gallai.decompose"), target, broken)
        src = tmp_path / "g.txt"
        src.write_text(format_edge_list(g))
        assert main(["decompose", str(src)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        reason, trace = captured.err.splitlines()
        assert reason == "error: internal invariant violated: cycle merge: forced"
        assert "Claim1-Cycle3" in [s["tag"] for s in json.loads(trace)]

    def test_cycle_merge_failure_exits_five_with_trace(self, tmp_path, capsys, monkeypatch):
        g = family("theta", 7)
        self.merge_fails(tmp_path, capsys, monkeypatch, "_merge_cycle", NoIntersectingPath, g)

    def test_triangle_merge_failure_exits_five_with_trace(self, tmp_path, capsys, monkeypatch):
        # two triangles sharing a vertex: a 3-cycle, then the other triangle merged in
        g = family("friendship", 5)
        self.merge_fails(
            tmp_path, capsys, monkeypatch, "merge_cycle_with_triangle", GeometryMismatch, g
        )

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", SimpleNamespace(read=lambda: C4))
        assert main(["decompose", "-"]) == 0

    def test_output_file(self, graph_file, tmp_path, capsys):
        dest = tmp_path / "out.txt"
        assert main(["decompose", graph_file(C4), "-o", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert dest.read_text().startswith("paths ")

    @pytest.mark.parametrize("dest", ("missing/out.txt", "."), ids=("no-dir", "a-dir"))
    def test_unwritable_output_exits_one(self, graph_file, tmp_path, capsys, dest):
        assert main(["decompose", graph_file(C4), "-o", str(tmp_path / dest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

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

    def test_runs_no_decomposer_code(self, graph_file, tmp_path, monkeypatch, capsys):
        # every function of gallai.decompose, methods too, is made to raise
        # wherever it is bound; verify still reads and checks the certificate
        g = graph_file(C4)
        d = self.decompose_to(g, tmp_path)
        module = importlib.import_module("gallai.decompose")

        def refuse(*_args, **_kwargs):
            raise AssertionError("verify ran decomposer code")

        owned = [x for x in vars(module).values() if getattr(x, "__module__", "") == module.__name__]
        funcs = [f for x in owned if inspect.isclass(x) for f in vars(x).values()] + owned
        funcs = [f.fget if isinstance(f, property) else f for f in funcs]
        # a method that calls super() keeps a closure, which a new code object cannot
        funcs = [f for f in funcs if inspect.isfunction(f) and f.__closure__ is None]
        assert module.format_decomposition in funcs and module._Engine.solve in funcs
        for f in funcs:
            monkeypatch.setattr(f, "__code__", refuse.__code__)
        with pytest.raises(AssertionError, match="decomposer code"):
            module.decompose(parse_edge_list(C4))
        capsys.readouterr()
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

    def test_numbers_must_be_ascii_digits(self, graph_file, capsys):
        # int() alone reads the bound as 50 and the path as 0-10, a valid
        # certificate for this graph
        g = graph_file("p 11 1\n0 10\n")
        d = graph_file("paths 1 bound 5_0 met true\n0 1_0\n", "dec.txt")
        assert main(["verify", g, d]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad header numbers")
        assert len(captured.err.splitlines()) == 1

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

    @pytest.mark.parametrize("which", ["graph", "decomposition"])
    def test_non_ascii_stdin_exits_one(self, graph_file, capsys, monkeypatch, which):
        # valid input but for the comment, so only the ASCII rule refuses it
        texts = {"graph": C4, "decomposition": "paths 2 bound 2 met true\n0 1 2\n2 3 0\n"}
        args = [graph_file(texts["graph"]), graph_file(texts["decomposition"], "d.txt")]
        args[which == "decomposition"] = "-"
        text = "# caf\u00e9\n" + texts[which]
        monkeypatch.setattr("sys.stdin", SimpleNamespace(read=lambda: text))
        assert main(["verify", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_stdin_for_both_inputs_exits_one(self, capsys, monkeypatch):
        # stdin can be read once; refuse before reading it at all
        reads = []
        monkeypatch.setattr("sys.stdin", SimpleNamespace(read=lambda: reads.append(1) or C4))
        assert main(["verify", "-", "-"]) == 1
        assert reads == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: stdin can feed the graph or the decomposition, not both\n"
        )

    def test_header_edge_count_mismatch_exits_one(self, graph_file, capsys):
        g = graph_file("p 4 99\n0 1\n1 2\n")
        d = graph_file("paths 1 bound 2 met true\n0 1 2\n", "dec.txt")
        assert main(["verify", g, d]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: header says 99 edges, file has 2\n"

    def test_huge_vertex_count_exits_one(self, graph_file, capsys):
        g = graph_file("p 1000000000 1\n0 1\n")
        d = graph_file("paths 1 bound 1 met true\n0 1\n", "dec.txt")
        assert main(["verify", g, d]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: vertex count 1000000000 is over the limit of 1000000\n"
        )

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
        assert main(["gen", "--n", "1000001"]) == 1
        assert capsys.readouterr().err.endswith("error: n must be at most 1000000\n")

    def test_unknown_family_rejected_by_flags(self, capsys):
        assert main(["gen", "--family", "petersen", "--n", "10"]) == 1

    def test_output_file(self, tmp_path, capsys):
        dest = tmp_path / "g.txt"
        assert main(["gen", "--n", "9", "-o", str(dest)]) == 0
        assert parse_edge_list(dest.read_text()).n == 9

    @pytest.mark.parametrize("dest", ("missing/g.txt", "."), ids=("no-dir", "a-dir"))
    def test_unwritable_output_exits_one(self, tmp_path, capsys, dest):
        assert main(["gen", "--n", "5", "-o", str(tmp_path / dest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

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

    def test_negative_oracle_limit_exits_one(self, capsys):
        assert main(["fuzz", "--trials", "2", "--oracle-max-edges", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: oracle_max_edges must be nonnegative\n"
        with pytest.raises(ValueError):
            run_fuzz(trials=2, max_n=8, seed=0, oracle_max_edges=-1)

    @pytest.mark.parametrize("max_n", [MAX_VERTICES + 1, 2 * MAX_VERTICES])
    def test_max_n_over_the_vertex_limit_exits_one(self, max_n, capsys, monkeypatch):
        # the limit is checked before the seed families are decomposed
        monkeypatch.setattr("gallai.cli.decompose", lambda g: pytest.fail("decomposed"))
        assert main(["fuzz", "--trials", "1", "--max-n", str(max_n)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: max_n must be at most {MAX_VERTICES}\n"
        with pytest.raises(ValueError):
            run_fuzz(trials=0, max_n=max_n, seed=0)

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

    def test_reproducer_flags_replay_the_trial(self, monkeypatch):
        # a verifier that rejects every trial, keeping the graphs it is shown
        shown = []

        def reject(g, _dec):
            shown.append(g)
            return SimpleNamespace(valid=False)

        monkeypatch.setattr("gallai.cli.verify_decomposition", reject)
        flags = []
        report = run_fuzz(
            trials=3, max_n=20, seed=11, p2=0.5, densify=True, oracle_max_edges=12,
            reproducer=flags.append,
        )
        assert flags == [
            f"--trials 1 --max-n 20 --seed {s} --p2 0.5 --densify --oracle-max-edges 12"
            for s in (11, 12, 13)
        ]
        assert [(f["seed"], f["kind"]) for f in report.failures] == [
            (s, "InvalidDecomposition") for s in (11, 12, 13)
        ]
        graphs = shown[:]
        for flag, failure, g in zip(flags, report.failures, graphs, strict=True):
            shown.clear()
            args = build_parser().parse_args(["fuzz", *flag.split()])
            replay = run_fuzz(
                trials=args.trials,
                max_n=args.max_n,
                seed=args.seed,
                p2=args.p2,
                densify=args.densify,
                oracle_max_edges=args.oracle_max_edges,
            )
            assert replay.failures == [failure]
            assert shown == [g]

    def test_report_json_sorts_histogram(self):
        r = FuzzReport(trials=0, branch_histogram={"b": 1, "a": 2})
        assert list(r.to_json()["branch_histogram"]) == ["a", "b"]


class TestImportCost:
    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        # -S keeps site hooks from importing any of the modules first; json
        # is imported only where --json output or an exit-5 trace needs it
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(gallai.__file__).resolve().parent.parent)
        code = (
            "import gallai.cli, sys; "
            "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


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


class _FullStdout(io.StringIO):
    """A stdout on a full disk: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# 0 and 5 are the only low vertices, at distance 3, so the first search the
# decomposer makes is the Claim 1 carrier's; the edge 6-7 adds a split step
FAR_PAIR = "0 1\n0 2\n1 2\n1 3\n1 4\n2 3\n2 4\n3 5\n4 5\n6 7\n"
CUT_AT_12 = (
    "0 1\n2 3\n2 4\n2 12\n3 5\n3 6\n4 5\n4 6\n5 6\n"
    "7 8\n7 9\n7 12\n8 10\n8 11\n9 10\n9 11\n10 11\n"
)


class TestErrorBoundary:
    @pytest.mark.parametrize("command", ("decompose", "verify", "gen", "fuzz"))
    def test_stdout_write_error_exits_one(self, command, graph_file, capsys, monkeypatch):
        g = graph_file(C4)
        d = graph_file("paths 2 bound 2 met true\n0 1 2\n2 3 0\n", "dec.txt")
        argv = {
            "decompose": ["decompose", g],
            "verify": ["verify", g, d],
            "gen": ["gen", "--n", "9"],
            "fuzz": ["fuzz", "--trials", "1", "--max-n", "8"],
        }[command]
        monkeypatch.setattr("sys.stdout", _FullStdout())
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    def test_engine_search_failure_exits_five_with_trace(self, graph_file, capsys, monkeypatch):
        def no_path(*_args, **_kwargs):
            raise NoPath("forced")

        monkeypatch.setattr(importlib.import_module("gallai.decompose"), "shortest_path", no_path)
        assert main(["decompose", graph_file(FAR_PAIR)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        reason, trace = captured.err.splitlines()
        assert reason == (
            "error: internal invariant violated: "
            "missing Claim 1 carrier: no 0->5 path avoiding []"
        )
        assert [s["tag"] for s in json.loads(trace)] == ["ComponentSplit"]

    def test_failed_cut_check_exits_five_with_trace(self, graph_file, capsys, monkeypatch):
        # an edge, then two strips joined through the degree-2 articulation 12
        src = graph_file(CUT_AT_12)
        assert main(["decompose", src, "--json", "--trace"]) == 0
        steps = json.loads(capsys.readouterr().out)["trace"]
        assert [s["tag"] for s in steps[:3]] == ["ComponentSplit", "Base", "Claim3"]

        monkeypatch.setattr(_Engine, "is_triangle", lambda self, c: True)
        assert main(["decompose", src]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        reason, trace = captured.err.splitlines()
        assert reason == (
            "error: internal invariant violated: "
            "Claim3: degree-2 articulation 12: triangle piece beside 2 or 7"
        )
        assert json.loads(trace) == steps[:2]

    # Claim4 reattaches before it logs its step, Claim3 after
    @pytest.mark.parametrize(
        "text,key,logged",
        [(format_edge_list(family("fig4b")), 3, 0), (CUT_AT_12, 12, 3)],
        ids=("fig4b", "cut-at-12"),
    )
    def test_engine_lookup_fault_exits_five_with_trace(
        self, graph_file, capsys, monkeypatch, text, key, logged
    ):
        # a fault that deletes the reattached edges twice makes the working
        # graph raise a bare KeyError, which leaves as exit 5, not a traceback
        src = graph_file(text)
        assert main(["decompose", src, "--json", "--trace"]) == 0
        steps = json.loads(capsys.readouterr().out)["trace"]
        real = _Engine.reattach

        def twice(self, pairs):
            edges = real(self, pairs)
            self.w.delete(edges)
            return edges

        monkeypatch.setattr(_Engine, "reattach", twice)
        assert main(["decompose", src]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        reason, trace = captured.err.splitlines()
        assert reason == f"error: internal invariant violated: KeyError: {key}"
        assert json.loads(trace) == steps[:logged]

    def test_engine_attribute_fault_exits_five_with_trace(self, graph_file, capsys, monkeypatch):
        real_plan = _Engine.plan

        def plan(self, p):
            if self.steps:
                raise AttributeError("forced")
            return real_plan(self, p)

        monkeypatch.setattr(_Engine, "plan", plan)
        assert main(["decompose", graph_file(FAR_PAIR)]) == 5
        captured = capsys.readouterr()
        reason, trace = captured.err.splitlines()
        assert reason == "error: internal invariant violated: AttributeError: forced"
        assert [s["tag"] for s in json.loads(trace)] == ["ComponentSplit"]

    def test_fuzz_trial_lookup_fault_is_a_recorded_failure(self, monkeypatch):
        # the seed families run clean; dense trials 0 and 1 reattach, 2 does not
        trials = []
        real_dense, real_reattach = dense_instance, _Engine.reattach

        def traced_dense(seed, max_n, p2=None):
            trials.append(seed)
            return real_dense(seed, max_n=max_n, p2=p2)

        def twice(self, pairs):
            edges = real_reattach(self, pairs)
            if trials:
                self.w.delete(edges)
            return edges

        monkeypatch.setattr("gallai.cli.dense_instance", traced_dense)
        monkeypatch.setattr(_Engine, "reattach", twice)
        report = run_fuzz(3, max_n=48, seed=0, densify=True)
        assert trials == [0, 1, 2]
        assert report.failures == [
            {
                "seed": s,
                "spec": f"--trials 1 --max-n 48 --seed {s} --densify",
                "kind": "InternalInvariantViolation",
            }
            for s in (0, 1)
        ]

    def test_fuzz_trial_fault_is_a_recorded_failure(self, capsys, monkeypatch):
        # only trial graphs come from `generate`; the seed families from `family`
        trials = []
        real_generate, real_plan = generate, _Engine.plan

        def traced_generate(spec):
            trials.append(spec)
            return real_generate(spec)

        def plan(self, p):
            if trials:
                raise ValueError("forced")
            return real_plan(self, p)

        monkeypatch.setattr("gallai.cli.generate", traced_generate)
        monkeypatch.setattr(_Engine, "plan", plan)
        assert main(["fuzz", "--trials", "1", "--max-n", "8", "--seed", "5"]) == 4
        captured = capsys.readouterr()
        assert "failure seed=5 kind=InternalInvariantViolation" in captured.out
        assert captured.err == "reproduce: gallai fuzz --trials 1 --max-n 8 --seed 5\n"

    def test_seed_family_fault_exits_five_with_trace(self, capsys, monkeypatch):
        step = TraceStep(tag="Base", vertices={"u": 0, "v": 1}, n=2, m=1)

        def broken(self, p):
            raise InternalInvariantViolation("forced", [step])

        monkeypatch.setattr(_Engine, "plan", broken)
        assert main(["fuzz", "--trials", "1", "--max-n", "8"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        reason, trace = captured.err.splitlines()
        assert reason == "error: internal invariant violated: forced"
        assert json.loads(trace) == [step.to_json()]


def _cap_address_space():
    # a run that sets aside memory for an oversize graph fails fast, not the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# documented failure inputs, each exit 1: argv, with {name} for a file the
# test writes (`missing` and `no_dir` are never written; `{full}` last puts
# stdout on /dev/full)
SWEEP = {
    "bad-flag": ["gen", "--n", "notanumber"],
    "unknown-family": ["gen", "--family", "petersen"],
    "gen-without-n": ["gen"],
    "gen-oversize-family": ["gen", "--family", "path", "--n", "1000000000"],
    "decompose-missing-file": ["decompose", "{missing}"],
    "verify-missing-file": ["verify", "{g}", "{missing}"],
    "decompose-non-ascii": ["decompose", "{non_ascii}"],
    "verify-non-ascii": ["verify", "{g}", "{non_ascii}"],
    "decompose-plus-id": ["decompose", "{plus}"],
    "verify-plus-id": ["verify", "{plus}", "{d}"],
    "decompose-huge-header": ["decompose", "{huge}"],
    "verify-huge-header": ["verify", "{huge}", "{d}"],
    "decompose-not-2-degenerate": ["decompose", "{k4}"],
    "verify-stdin-twice": ["verify", "-", "-"],
    "decompose-unwritable-output": ["decompose", "{g}", "-o", "{no_dir}/d.txt"],
    "gen-unwritable-output": ["gen", "--n", "5", "-o", "{no_dir}/g.txt"],
    "fuzz-bad-limits": ["fuzz", "--trials", "1", "--max-n", "3"],
    # an unbuffered stdout is left out: there argparse drops the failed
    # write itself and exits 0
    "help-stdout-full": ["--help", "{full}"],
}
# stdout on /dev/full: a buffered stdout fails at its flush, an unbuffered one
# at the write itself
SWEEP.update(
    (f"{argv[0]}-stdout-full-{buffering}", [*argv, "{full}"])
    for buffering in ("buffered", "unbuffered")
    for argv in (
        ["decompose", "{g}"],
        ["verify", "{g}", "{d}"],
        ["gen", "--n", "300"],
        ["fuzz", "--trials", "2", "--max-n", "8"],
    )
)


class TestNoTraceback:
    """Failures end in one `error:` line, even those only a process exit shows.

    An unflushed stdout is written at interpreter exit, where a failure
    prints `Exception ignored ...` and exits 120; in-process tests miss it.
    """

    @pytest.mark.parametrize("case", sorted(SWEEP))
    def test_one_error_line_and_no_traceback(self, case, tmp_path):
        argv = SWEEP[case]
        files = {
            "g": C4,
            "d": "paths 2 bound 2 met true\n0 1 2\n2 3 0\n",
            "non_ascii": "0 1\n1 2\xe9\n",
            "plus": "+0 +1\n",
            "huge": "p 1000000000 0\n",
            "k4": K4,
        }
        paths = {name: tmp_path / f"{name}.txt" for name in files}
        for name, text in files.items():
            paths[name].write_bytes(text.encode("latin-1"))
        paths.update(missing=tmp_path / "missing.txt", no_dir=tmp_path / "no-dir")
        full = argv[-1] == "{full}"
        if full:
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this system")
            argv = argv[:-1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(gallai.__file__).resolve().parent.parent)
        env.pop("PYTHONUNBUFFERED", None)
        if case.endswith("-unbuffered"):
            env["PYTHONUNBUFFERED"] = "1"
        preexec = _cap_address_space if resource is not None else None
        if case == "gen-oversize-family" and preexec is None:
            pytest.skip("no address-space limit on this system")
        with open("/dev/full" if full else os.devnull, "w") as stdout:
            proc = subprocess.run(
                [sys.executable, "-m", "gallai.cli", *(a.format(**paths) for a in argv)],
                stdin=subprocess.DEVNULL,
                stdout=stdout,
                stderr=subprocess.PIPE,
                env=env,
                preexec_fn=preexec,
            )
        err = proc.stderr.decode()
        assert proc.returncode == 1, err
        assert "Traceback" not in err and "Exception ignored" not in err, err
        assert sum("error:" in ln for ln in err.splitlines()) == 1, err
