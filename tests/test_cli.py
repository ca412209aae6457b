"""Command-line behavior: exit codes, report formats, the corpus runner."""

import io
import json
import shutil

from flowcheck.cli import (
    EXIT_DEADLOCK,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    main,
    run_analyze,
    run_corpus,
)
from flowcheck.gofront import analyze_source
from paths import CORPUS, corpus_files



def analyze_quiet(path, **kwargs):
    out = io.StringIO()
    code = run_analyze(path, out=out, **kwargs)
    return code, out.getvalue()


class TestExitCodes:
    def test_clean_pattern_exits_zero(self):
        code, _ = analyze_quiet(CORPUS / "nodeadlock" / "p01_basic.go")
        assert code == EXIT_OK

    def test_out_of_order_exits_one(self):
        code, _ = analyze_quiet(CORPUS / "deadlock" / "p16_out_of_order.go")
        assert code == EXIT_DEADLOCK

    def test_select_exits_two_with_named_feature(self):
        code, text = analyze_quiet(CORPUS / "unsupported" / "select_stmt.go")
        assert code == EXIT_UNSUPPORTED
        assert "select statement" in text

    def test_missing_file_exits_three(self):
        code, _ = analyze_quiet(CORPUS / "does_not_exist.go")
        assert code == EXIT_ERROR

    def test_receive_in_a_condition_exits_two(self, tmp_path):
        # f's only channel use is the receive in its condition, which the
        # translation rejects; skipping f would leave main's send unpaired
        path = tmp_path / "condition_receive.go"
        path.write_text(
            "package main\n\n"
            "func f(ch chan int) {\n\tif <-ch > 0 {\n\t}\n}\n\n"
            "func main() {\n\tch := make(chan int)\n\tgo f(ch)\n\tch <- 1\n}\n"
        )
        code, text = analyze_quiet(path)
        assert code == EXIT_UNSUPPORTED
        assert "condition beyond integer/boolean comparisons" in text

    def test_exit_code_is_a_function_of_the_verdict_set(self, tmp_path):
        # the conditional file mixes Deadlock and NoDeadlock cases: deadlock wins
        source = '''package main

import "fmt"

func main() {
	var weekday int

	ch := make(chan int)
	if 1 <= weekday && weekday <= 3 {
		go func() {
			ch <- 1
		}()
	}

	if 3 <= weekday && weekday <= 5 {
		go func() {
			fmt.Println(<-ch)
		}()
	}
}
'''
        path = tmp_path / "conditional.go"
        path.write_text(source)
        code, _ = analyze_quiet(path)
        assert code == EXIT_DEADLOCK


class TestJsonReport:
    def test_schema_and_round_trip(self):
        out = io.StringIO()
        run_analyze(CORPUS / "deadlock" / "p16_out_of_order.go", fmt="json", out=out)
        report = json.loads(out.getvalue())
        assert set(report) == {"file", "verdicts", "warnings", "steps", "elapsed_ms"}
        verdict = report["verdicts"][0]
        assert set(verdict) == {"case", "verdict", "residual", "externals", "reason"}
        assert verdict["verdict"] == "Deadlock"
        assert verdict["residual"] == "[!String]"
        assert verdict["externals"] == ["String"]
        # key-sorted serialization is stable
        again = io.StringIO()
        run_analyze(CORPUS / "deadlock" / "p16_out_of_order.go", fmt="json", out=again)
        strip = lambda text: json.dumps(
            {k: v for k, v in json.loads(text).items() if k != "elapsed_ms"},
            sort_keys=True,
        )
        assert strip(out.getvalue()) == strip(again.getvalue())

    def test_elapsed_ms_is_a_float(self):
        out = io.StringIO()
        run_analyze(CORPUS / "nodeadlock" / "p01_basic.go", fmt="json", out=out)
        elapsed = json.loads(out.getvalue())["elapsed_ms"]
        assert isinstance(elapsed, float)
        assert elapsed == round(elapsed, 3) and elapsed > 0

    def test_trace_included_on_request(self):
        out = io.StringIO()
        run_analyze(
            CORPUS / "nodeadlock" / "moby4395_fixed.go",
            fmt="json",
            show_trace=True,
            out=out,
        )
        report = json.loads(out.getvalue())
        assert any("[Resume]" in line for line in report["trace"])


class TestTraceOutput:
    def test_moby_rule_lines(self):
        code, text = analyze_quiet(
            CORPUS / "nodeadlock" / "moby4395_fixed.go", show_trace=True
        )
        assert code == EXIT_OK
        for rule in ("InlineEval", "YieldCo", "Yield", "Resume"):
            assert "[%s]" % rule in text


class TestCorpusRunner:
    def test_full_corpus_matches(self):
        out = io.StringIO()
        code = run_corpus(CORPUS, out=out)
        assert code == EXIT_OK
        assert "26/26" in out.getvalue()

    def test_tampered_expectation_fails(self, tmp_path):
        shutil.copytree(CORPUS, tmp_path / "corpus")
        moved = tmp_path / "corpus" / "nodeadlock" / "p13_no_sender.go"
        shutil.move(tmp_path / "corpus" / "deadlock" / "p13_no_sender.go", moved)
        out = io.StringIO()
        code = run_corpus(tmp_path / "corpus", out=out)
        assert code != EXIT_OK
        assert "25/26" in out.getvalue()

    def test_empty_directory_errors(self, tmp_path):
        out = io.StringIO()
        assert run_corpus(tmp_path, out=out) == EXIT_ERROR

    def test_missing_directory_errors(self, tmp_path):
        assert run_corpus(tmp_path / "nope", out=io.StringIO()) == EXIT_ERROR


class TestMain:
    def test_analyze_subcommand(self, capsys):
        code = main(["analyze", str(CORPUS / "deadlock" / "p13_no_sender.go")])
        assert code == EXIT_DEADLOCK
        assert "Deadlock" in capsys.readouterr().out

    def test_corpus_subcommand(self, capsys):
        code = main(["corpus", str(CORPUS)])
        assert code == EXIT_OK

    def test_max_steps_flag(self, capsys):
        code = main(
            ["analyze", str(CORPUS / "nodeadlock" / "p01_basic.go"), "--max-steps", "3"]
        )
        assert code == EXIT_ERROR  # inconclusive under a tiny cap

    def test_internal_error_exits_three_with_one_line(self, tmp_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded\nwhile parsing")

        monkeypatch.setattr("flowcheck.cli.analyze_source", crash)
        monkeypatch.setattr("flowcheck.cli.analyze_file", crash)
        (tmp_path / "deadlock").mkdir()
        path = tmp_path / "deadlock" / "crash.go"
        path.write_text("package main\n\nfunc main() {\n}\n")
        for argv in (["analyze", str(path)], ["corpus", str(tmp_path)]):
            assert main(argv) == EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert err.count("\n") == 1

    def test_json_internal_error_still_writes_a_report(self, tmp_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr("flowcheck.cli.analyze_source", crash)
        path = tmp_path / "crash.go"
        path.write_text("package main\n\nfunc main() {\n}\n")
        assert main(["analyze", str(path), "--format", "json"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == "error: ZeroDivisionError: division by zero\n"
        assert captured.out.count("\n") == 1
        report = json.loads(captured.out)
        assert captured.out == json.dumps(report, sort_keys=True, ensure_ascii=False) + "\n"
        assert list(report) == ["elapsed_ms", "file", "steps", "verdicts", "warnings"]
        (verdict,) = report["verdicts"]
        assert set(verdict) == {"case", "verdict", "residual", "externals", "reason"}
        assert verdict["verdict"] == "Inconclusive"
        assert "ZeroDivisionError" in verdict["reason"]
        assert report["file"] == str(path)

    def test_deep_nesting_is_unsupported(self, tmp_path, capsys):
        depth = 3000
        parens = "package main\n\nfunc main() {\n\tx := %s1%s\n}\n" % (
            "(" * depth,
            ")" * depth,
        )
        depth = 400
        ifs = (
            "package main\n\nvar x int\n\nfunc main() {\n\tch := make(chan int)\n"
            + "".join("\tif x > %d {\n" % k for k in range(depth))
            + "\tch <- 1\n"
            + "\t}\n" * depth
            + "}\n"
        )
        for name, source in (("parens.go", parens), ("ifs.go", ifs)):
            path = tmp_path / name
            path.write_text(source)
            assert main(["analyze", str(path)]) == EXIT_UNSUPPORTED
            captured = capsys.readouterr()
            assert "Unsupported" in captured.out
            assert "nesting too deep" in captured.out
            assert captured.err == ""


class TestUsageErrors:
    """A usage error exits 3 with one ``error:`` line, never argparse's 2,
    which README keeps for unsupported features."""

    def test_usage_errors_exit_three_with_one_line(self, capsys):
        path = str(CORPUS / "nodeadlock" / "p01_basic.go")
        for argv in (
            ["analyze"],
            ["analyze", path, "--max-steps", "abc"],
            ["analyze", path, "--format", "xml"],
            ["corpus"],
            ["check", path],
        ):
            assert main(argv) == EXIT_ERROR, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_step_cap_below_one_is_a_usage_error(self, capsys):
        path = str(CORPUS / "nodeadlock" / "p01_basic.go")
        for command in (["analyze", path], ["corpus", str(CORPUS)]):
            for cap in ("-3", "0"):
                assert main(command + ["--max-steps", cap]) == EXIT_ERROR
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (
                    "error: argument --max-steps: expected a whole number of at "
                    "least 1, got '%s'\n" % cap
                )
        assert main(["analyze", path, "--max-steps", "1"]) == EXIT_ERROR  # inconclusive
        assert "step cap 1 reached" in capsys.readouterr().out


class TestEncoding:
    def test_invalid_utf8_is_a_syntax_error(self, tmp_path, capsys):
        (tmp_path / "unsupported").mkdir()
        path = tmp_path / "unsupported" / "utf16.go"
        path.write_bytes(b"\xff\xfe" + "package main\n\nfunc main() {\n}\n".encode("utf-16-le"))
        assert main(["analyze", str(path)]) == EXIT_UNSUPPORTED
        captured = capsys.readouterr()
        assert "Unsupported  (syntax error: invalid UTF-8 encoding)" in captured.out
        assert captured.err == ""
        assert main(["analyze", str(path), "--format", "json"]) == EXIT_UNSUPPORTED
        (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
        assert verdict["reason"] == "syntax error: invalid UTF-8 encoding"
        assert main(["corpus", str(tmp_path)]) == EXIT_OK
        assert "1/1 corpus entries match" in capsys.readouterr().out

    def test_a_leading_byte_order_mark_changes_nothing(self, tmp_path, capsys):
        # Go compilers ignore a byte order mark that opens a file
        def report(path):
            code = main(["analyze", str(path), "--trace", "--format", "json"])
            report = json.loads(capsys.readouterr().out)
            del report["elapsed_ms"], report["file"]
            return code, report

        for path in corpus_files():
            marked = tmp_path / path.name
            marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            assert report(marked) == report(path), path.name
            text = path.read_text(encoding="utf-8")
            plain, with_mark = analyze_source(text), analyze_source("\ufeff" + text)
            assert [str(c.verdict) for c in with_mark.cases] == [str(c.verdict) for c in plain.cases]
