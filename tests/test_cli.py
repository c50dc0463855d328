"""Command-line behaviour: verdicts, exit codes, files, error paths."""

import json
import re

import pytest

from bfoml.cli import main

ONE_WORLD = {
    "worlds": ["w0"], "domain": ["a"], "edges": [],
    "local": {"w0": ["a"]}, "rho": {"w0": {"P": [["a"]]}},
}


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(ONE_WORLD))
    return str(path)


def test_sat_increasing(capsys):
    assert main(["sat", "--semantics", "increasing", "E x [] P(x)"]) == 10
    assert capsys.readouterr().out.strip() == "SAT"


def test_sat_unsat_exit_code(capsys):
    assert main(["sat", "--semantics", "constant",
                 "(E x [] P(x) & A y <> !P(y))"]) == 20
    assert capsys.readouterr().out.strip() == "UNSAT"


def test_sat_fragment_error(capsys):
    assert main(["sat", "--semantics", "constant", "A x [] P(x)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fragment" in captured.err


def test_sat_parse_error_position(capsys):
    assert main(["sat", "(P(x) &"]) == 1
    assert "column" in capsys.readouterr().err


def test_sat_writes_model_and_trace(tmp_path, capsys):
    model_path = tmp_path / "out.json"
    trace_path = tmp_path / "trace.txt"
    code = main(["sat", "E x <> P(x)", "--model", str(model_path),
                 "--trace", str(trace_path)])
    assert code == 10
    doc = json.loads(model_path.read_text())
    assert set(doc) == {"worlds", "domain", "edges", "local", "rho"}
    assert "[br]" in trace_path.read_text()


def test_check_true_and_false(model_file, capsys):
    assert main(["check", model_file, "E x [] P(x)", "--world", "w0"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["check", model_file, "E x <> P(x)", "--world", "w0"]) == 3
    assert capsys.readouterr().out.strip() == "false"


def test_check_with_assignment(model_file, capsys):
    assert main(["check", model_file, "P(x)", "--world", "w0",
                 "--assign", "x=a"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["check", str(path), "T", "--world", "w0"]) == 1
    assert capsys.readouterr().out == ""


def test_check_irrelevant_assignment(model_file, capsys):
    assert main(["check", model_file, "P(x)", "--world", "w0",
                 "--assign", "x=missing"]) == 1


def test_nnf_and_clean(capsys):
    assert main(["nnf", "!E x [] P(x)"]) == 0
    assert capsys.readouterr().out.strip() == "A x <> !P(x)"
    assert main(["clean", "(P(x) & E x [] Q(x))"]) == 0
    assert capsys.readouterr().out.strip() == "(P(x) & E x^1 [] Q(x^1))"


def test_info(capsys):
    assert main(["info", "(E x [] P(x) & A y <> Q(y))"]) == 0
    out = capsys.readouterr().out
    assert "fragment=exists-box" in out
    assert "modal-depth=1" in out


def test_translate_round_trips(capsys):
    assert main(["translate", "EX x . EX y . R(x,y)"]) == 0
    text = capsys.readouterr().out.strip()
    from bfoml import parse, format_formula
    assert format_formula(parse(text)) == text


def test_translate_witness(tmp_path, capsys):
    fo_model = tmp_path / "fo.json"
    fo_model.write_text(json.dumps({"domain": ["a"], "R": [["a", "a"]]}))
    out = tmp_path / "witness.json"
    code = main(["translate", "EX x . EX y . R(x,y)",
                 "--fo-model", str(fo_model), "--witness", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["worlds"]) == 5


def test_translate_witness_rejects_bad_model(tmp_path, capsys):
    fo_model = tmp_path / "fo.json"
    fo_model.write_text(json.dumps({"domain": ["a"], "R": []}))
    out = tmp_path / "witness.json"
    code = main(["translate", "EX x . EX y . R(x,y)",
                 "--fo-model", str(fo_model), "--witness", str(out)])
    assert code == 1
    assert "does not satisfy" in capsys.readouterr().err


def test_translate_open_formula(capsys):
    assert main(["translate", "EX x . R(x,y)"]) == 1


def test_oracle(capsys, tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle", "E x [] P(x)", "--max-worlds", "1",
                 "--max-domain", "1", "--model", str(out)]) == 10
    assert capsys.readouterr().out.strip() == "SAT"
    assert json.loads(out.read_text())["worlds"] == ["w0"]
    assert main(["oracle", "(P(x) & !P(x))", "--max-worlds", "2",
                 "--max-domain", "2"]) == 20
    assert capsys.readouterr().out.strip() == "NONE"


def test_oracle_budget_error(capsys):
    assert main(["oracle", "(E x [] P(x) & A y <> !P(y))",
                 "--budget", "40"]) == 1
    assert "budget" in capsys.readouterr().err


def test_fuzz_command(capsys):
    assert main(["fuzz", "--seed", "1", "--count", "15", "--fragment", "eb",
                 "--max-worlds", "2", "--max-domain", "2",
                 "--oracle-budget", "200000"]) == 0
    out = capsys.readouterr().out
    assert "eb-equivalence" in out and "PASS" in out


def test_fuzz_zero_cases(capsys):
    assert main(["fuzz", "--count", "0"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_fuzz_report_is_deterministic(capsys):
    argv = ["fuzz", "--seed", "7", "--count", "10", "--max-worlds", "2",
            "--max-domain", "2", "--oracle-budget", "150000"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_validate_command(model_file, capsys):
    assert main(["validate", model_file]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_missing_formula(capsys):
    assert main(["sat"]) == 1
    assert "provide a formula" in capsys.readouterr().err


def test_formula_from_file(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text("E x [] P(x)\n")
    assert main(["sat", "--file", str(path)]) == 10


def test_budget_env_default(monkeypatch, capsys):
    # This decision needs 88 nodes, none of them a repeated label; the
    # environment only allows 40.
    monkeypatch.setenv("BFOML_BUDGET", "40")
    assert main(["sat", "E a <> E b <> E c <> A u <> A v <> A w1 <> Q(u,v)"]) == 1
    assert "budget" in capsys.readouterr().err


def assert_one_line_error(capsys, argv, reason):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert reason in captured.err


@pytest.mark.parametrize("argv", [
    ["sat", "E x [] P(x)", "--budget", "0"],
    ["oracle", "E x [] P(x)", "--budget", "-5"],
    ["fuzz", "--count", "1", "--oracle-budget", "0"],
])
def test_nonpositive_budget_is_rejected(argv, capsys):
    assert_one_line_error(capsys, argv, "budget must be at least 1")


@pytest.mark.parametrize("flag", ["--max-worlds", "--max-domain"])
def test_oracle_empty_bound_is_rejected(flag, capsys):
    assert_one_line_error(capsys, ["oracle", "E x [] P(x)", flag, "0"],
                          f"{flag} must be at least 1")


def test_fuzz_negative_count_is_rejected(capsys):
    assert_one_line_error(capsys, ["fuzz", "--count", "-3"], "--count must not be negative")


def test_fuzz_rejects_ed_under_constant_semantics(capsys):
    assert_one_line_error(capsys, ["fuzz", "--fragment", "ed", "--semantics", "constant",
                                   "--count", "3"], "exists-box")


def test_budget_env_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("BFOML_BUDGET", "lots")
    assert_one_line_error(capsys, ["sat", "E x [] P(x)"], "BFOML_BUDGET must be an integer")


@pytest.mark.parametrize("argv", [
    ["sat", "!" * 3000 + "P(x)"],
    ["translate", "EX x . " + "!" * 3000 + "R(x,x)"],
])
def test_deep_nesting_is_a_one_line_error(argv, capsys):
    assert_one_line_error(capsys, argv, "nested too deeply")


# Unreadable input and bad --assign names end in one error line.

@pytest.fixture()
def not_utf8(tmp_path):
    path = tmp_path / "bytes.bin"
    path.write_bytes(b"\xff\xfe\x00")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["validate", "{bad}"],
    ["sat", "--file", "{bad}"],
    ["oracle", "--file", "{bad}"],
    ["check", "{bad}", "T", "--world", "w0"],
    ["check", "{model}", "--file", "{bad}", "--world", "w0"],
])
def test_non_utf8_file_is_a_one_line_error(argv, not_utf8, model_file, capsys):
    argv = [a.format(bad=not_utf8, model=model_file) for a in argv]
    assert_one_line_error(capsys, argv, "not UTF-8 text")


def test_non_utf8_fo_model_is_a_one_line_error(not_utf8, tmp_path, capsys):
    out = tmp_path / "w.json"
    assert_one_line_error(capsys, ["translate", "EX x . EX y . R(x,y)", "--fo-model", not_utf8,
                                   "--witness", str(out)], "not UTF-8 text")
    assert not out.exists()


# translate prints the encoding only once the witness is written.

def test_witness_from_a_missing_fo_model_leaves_stdout_empty(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert_one_line_error(capsys, ["translate", "EX x . EX y . R(x,y)", "--fo-model",
                                   str(tmp_path / "missing.json"), "--witness", str(out)],
                          "missing.json")
    assert not out.exists()


def test_witness_from_a_non_model_leaves_stdout_empty(tmp_path, capsys):
    fo_model = tmp_path / "fo.json"
    fo_model.write_text(json.dumps({"domain": ["a"], "R": []}))
    out = tmp_path / "w.json"
    assert_one_line_error(capsys, ["translate", "EX x . EX y . R(x,y)", "--fo-model",
                                   str(fo_model), "--witness", str(out)],
                          "does not satisfy the sentence")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sat", "E x <> P(x)", "--trace", ""],
    ["sat", "E x <> P(x)", "--model", ""],
    ["oracle", "E x [] P(x)", "--max-worlds", "1", "--max-domain", "1", "--model", ""],
    ["translate", "EX x . EX y . R(x,y)", "--witness", ""],
])
def test_empty_output_path_is_rejected(argv, capsys):
    flag = argv[argv.index("") - 1]
    assert_one_line_error(capsys, argv, f"{flag} needs a file path")


@pytest.mark.parametrize("item", ["x^a=a", "X=a", "1x=a", "x y=a", " x=a", "x^=a"])
def test_assign_name_must_be_a_variable(item, model_file, capsys):
    assert_one_line_error(capsys, ["check", model_file, "T", "--world", "w0",
                                   "--assign", item], f"bad --assign {item!r}")


def test_assign_accepts_a_numbered_variable(model_file, capsys):
    assert main(["check", model_file, "P(x^2)", "--world", "w0", "--assign", "x^2=a"]) == 0
    assert capsys.readouterr().out == "true\n"


# The output contract of sat and oracle: report lines, written files.

SAT_REPORT = re.compile(r"nodes=[1-9][0-9]* elapsed-ms=[0-9]+\.[0-9]\n")
ORACLE_REPORT = re.compile(r"elapsed-ms=[0-9]+\.[0-9]\n")


@pytest.mark.parametrize("argv, code, verdict, report", [
    (["sat", "E x [] P(x)"], 10, "SAT", SAT_REPORT),
    (["sat", "(P(x) & !P(x))"], 20, "UNSAT", SAT_REPORT),
    (["oracle", "E x [] P(x)", "--max-worlds", "1", "--max-domain", "1"], 10, "SAT",
     ORACLE_REPORT),
    (["oracle", "(P(x) & !P(x))", "--max-worlds", "1", "--max-domain", "1"], 20, "NONE",
     ORACLE_REPORT),
])
def test_run_report_format(argv, code, verdict, report, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == verdict + "\n"
    assert report.fullmatch(captured.err)


def test_written_files_end_in_one_newline(tmp_path, capsys):
    sat_model, trace, oracle_model, witness = (
        tmp_path / name for name in ("sat.json", "trace.txt", "oracle.json", "witness.json"))
    assert main(["sat", "E x <> P(x)", "--model", str(sat_model),
                 "--trace", str(trace)]) == 10
    assert main(["oracle", "E x [] P(x)", "--max-worlds", "1", "--max-domain", "1",
                 "--model", str(oracle_model)]) == 10
    assert main(["translate", "EX x . EX y . R(x,y)", "--witness", str(witness)]) == 0
    for path in (sat_model, trace, oracle_model, witness):
        text = path.read_text()
        assert text.endswith("\n") and not text.endswith("\n\n"), path.name


@pytest.mark.parametrize("argv", [
    ["sat", "(P(x) & !P(x))"],
    ["oracle", "(P(x) & !P(x))", "--max-worlds", "1", "--max-domain", "1"],
])
def test_no_model_file_without_a_model(argv, tmp_path, capsys):
    out = tmp_path / "model.json"
    assert main(argv + ["--model", str(out)]) == 20
    assert not out.exists()


def test_check_and_oracle_read_the_formula_file(model_file, tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text("E x [] P(x)\n")
    assert main(["check", model_file, "--file", str(path), "--world", "w0"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["oracle", "--file", str(path), "--max-worlds", "1", "--max-domain", "1"]) == 10
    assert capsys.readouterr().out == "SAT\n"


def test_validate_reports_the_violation(tmp_path, capsys):
    path = tmp_path / "shrinking.json"
    path.write_text(json.dumps({
        "worlds": ["w0", "w1"], "domain": ["a", "b"], "edges": [["w0", "w1"]],
        "local": {"w0": ["a", "b"], "w1": ["a"]}, "rho": {}}))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == (
        "violation: monotonicity at (w0,w1): "
        "local domain must not shrink along an edge; lost ['b']\n")


def test_witness_from_an_empty_fo_model_is_a_one_line_error(tmp_path, capsys):
    fo_model = tmp_path / "m.json"
    fo_model.write_text(json.dumps({"domain": [], "R": []}))
    out = tmp_path / "w.json"
    assert_one_line_error(capsys, ["translate", "ALL x . R(x,x)", "--witness", str(out),
                                   "--fo-model", str(fo_model)], "nonempty domain")
    assert not out.exists()


def test_witness_note_says_what_the_witness_is(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["translate", "ALL x . EX y . R(x,y)", "--witness", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "note: the witness is the chain-plus-fan model as the paper prints it; the encoding "
        'does not hold at its root (README, "Acceptance suite")\n')
    assert main(["translate", "ALL x . EX y . R(x,y)"]) == 0
    assert capsys.readouterr() == (captured.out, "")
    assert main(["validate", str(out)]) == 0


def test_witness_from_an_fo_model_with_a_pair_outside_its_domain_is_a_one_line_error(
        tmp_path, capsys):
    fo_model = tmp_path / "m.json"
    fo_model.write_text(json.dumps({"domain": ["a"], "R": [["a", "b"]]}))
    out = tmp_path / "w.json"
    assert_one_line_error(capsys, ["translate", "ALL x . R(x,x)", "--witness", str(out),
                                   "--fo-model", str(fo_model)], "uses unknown elements")
    assert not out.exists()


SHRINKING = {
    "worlds": ["w0", "w1"], "domain": ["a", "b"], "edges": [["w0", "w1"]],
    "local": {"w0": ["a", "b"], "w1": ["a"]}, "rho": {},
}


def test_check_on_a_shrinking_model_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "shrinking.json"
    path.write_text(json.dumps(SHRINKING))
    assert_one_line_error(capsys, ["check", str(path), "T", "--world", "w0"],
                          "error: invalid model: monotonicity at (w0,w1): ")


def test_check_reports_a_bad_model_before_a_bad_formula(tmp_path, capsys):
    path = tmp_path / "shrinking.json"
    path.write_text(json.dumps(SHRINKING))
    assert_one_line_error(capsys, ["check", str(path), "(P(x", "--world", "w0"],
                          "invalid model: monotonicity")


def test_assign_refuses_a_variable_given_twice(model_file, capsys):
    assert_one_line_error(capsys, ["check", model_file, "P(x)", "--world", "w0",
                                   "--assign", "x=a", "--assign", "x=b"],
                          "--assign gives x more than once")


def test_fo_model_without_witness_is_rejected(tmp_path, capsys):
    assert_one_line_error(capsys, ["translate", "EX x . R(x,x)", "--fo-model",
                                   str(tmp_path / "missing.json")],
                          "--fo-model needs --witness")
