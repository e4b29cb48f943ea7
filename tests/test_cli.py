import json

import pytest

from higman import higmanian
from higman.cli import main
from higman.schemes import trivial_scheme, wreath_product, write_scheme


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_and_analyze_roundtrip(tmp_path, capsys):
    out = tmp_path / "q8.scheme"
    code, stdout, _ = run(capsys, "construct", "q8cp", "1", "-o", str(out))
    assert code == 0
    assert "(3, 4, 2, 4, 3)" in stdout
    assert "match: yes" in stdout

    code, stdout, _ = run(capsys, "analyze", str(out))
    assert code == 0
    assert "(3, 4, 2, 4, 3)" in stdout
    assert "uniform: yes" in stdout


def test_analyze_json(tmp_path, capsys):
    out = tmp_path / "ea.scheme"
    code, _, _ = run(capsys, "construct", "ea", "3", "1", "1", "-o", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "analyze", str(out), "--json", "--oracle")
    assert code == 0
    report = json.loads(stdout)
    assert report["params"] == [3, 9, 3, 18, 4]
    assert report["verdicts"] == {
        "criterion": True, "definition": True, "q_higmanian": True,
        "dismantlable": True}
    assert report["consistent"] is True
    assert report["spectral"]["multiplicities"] == ["1", "18", "24", "36", "2"]
    assert float(report["spectral"]["oracle_max_abs_error"]) < 1e-8
    # detection runs inside the verdict bundle and is timed with it
    assert set(report["timings"]) == {"parabolics_s", "verdicts_s"}


def test_analyze_text_reports_oracle(tmp_path, capsys):
    out = tmp_path / "q8.scheme"
    run(capsys, "construct", "q8cp", "1", "-o", str(out))
    code, plain, _ = run(capsys, "analyze", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "analyze", str(out), "--oracle")
    assert code == 0
    lines = [ln for ln in stdout.splitlines() if ln.startswith("oracle:")]
    assert len(lines) == 1
    label, err = lines[0].split(" = ")
    assert label == "oracle: max |P_float - P|" and float(err) < 1e-8
    assert [ln for ln in stdout.splitlines() if ln not in lines] == \
        plain.splitlines()


def test_analyze_not_higmanian(tmp_path, capsys):
    path = tmp_path / "t.scheme"
    write_scheme(trivial_scheme(4), path)
    code, stdout, _ = run(capsys, "analyze", str(path))
    assert code == 2
    assert "not Higmanian" in stdout


def test_analyze_wreath_rejected(tmp_path, capsys):
    w = wreath_product(trivial_scheme(2), trivial_scheme(3))
    path = tmp_path / "w.scheme"
    write_scheme(w, path)
    code, stdout, _ = run(capsys, "analyze", str(path))
    assert code == 2


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.scheme"
    path.write_text("this is not a scheme\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert "scheme file" in err


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/file.scheme")
    assert code == 3


def test_analyze_axiom_failure(tmp_path, capsys):
    path = tmp_path / "nonscheme.scheme"
    path.write_text("scheme 4 3\n" + "\n".join([
        "0 1 1 2", "1 0 2 1", "1 2 0 2", "2 1 2 0"]) + "\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 4
    assert "not a scheme" in err


def test_search_rds_cli(capsys):
    code, stdout, err = run(capsys, "search-rds", "C:4", "0,2")
    assert code == 0
    assert stdout.splitlines() == ["0 1", "0 3", "1 2", "2 3"]
    assert "found 4" in err


def test_search_rds_center(capsys):
    code, stdout, _ = run(capsys, "search-rds", "Q8cp:1", "center")
    assert code == 0
    assert len(stdout.splitlines()) == 16


@pytest.mark.parametrize("spec", ["C:200000", "Heis:81:1",
                                  "Prod:C:200000,C:2", "Prod:C:2,C:200000"])
def test_search_rds_order_limit(capsys, spec):
    code, stdout, err = run(capsys, "search-rds", spec, "0")
    assert code == 3 and stdout == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: group order") and "exceeds the limit" in err


def test_search_linked_cli(tmp_path, capsys):
    out = tmp_path / "sys.linked"
    code, stdout, _ = run(capsys, "search-linked-system", "Q8cp:1", "center",
                          "2", "-o", str(out))
    assert code == 0
    assert "(4, 2, 4, 2, 2, 1, 3)" in stdout
    assert out.exists()

    code, stdout, _ = run(capsys, "verify-linked", str(out))
    assert code == 0
    assert "(4, 2, 4, 2, 2, 1, 3)" in stdout
    assert "order 3" in stdout


def test_verify_linked_invalid(tmp_path, capsys):
    path = tmp_path / "bad.linked"
    path.write_text("Q8cp:1\n0 1\n2\n0 2 4 6\n0 2 4 7\n")
    code, _, err = run(capsys, "verify-linked", str(path))
    assert code == 4
    assert "invalid" in err


def test_construct_errors(capsys):
    code, _, err = run(capsys, "construct", "heis", "2", "1")
    assert code == 3 and "odd" in err
    # q^(2r+1) is checked before q is factored: a huge prime or semiprime
    # fails at once, with the order message
    for q in ("1000000007", str(1000003 * 1000033)):
        for params in (["heis", q, "1"], ["ea", q, "1", "1"]):
            code, _, err = run(capsys, "construct", *params)
            assert code == 3
            assert err == f"error: group order {q}^3 exceeds the limit 16384\n"
    code, _, err = run(capsys, "construct", "nosuch", "1")
    assert code == 3
    code, _, err = run(capsys, "construct", "q8cp")
    assert code == 3 and "usage" in err


def test_tables_cli(capsys):
    code, stdout, _ = run(capsys, "tables")
    assert code == 0
    lines = stdout.splitlines()
    by_label = {ln.split(":")[0]: ln for ln in lines}
    assert "match" in by_label["q8cp r=1"]
    assert "match" in by_label["heis q=3 r=1"]
    assert "match" in by_label["ea q=3 r=1 j=1"]
    # the w >= 2 constraint produces a skip note, not an attempt
    assert "SKIP" in by_label["ea q=2 r=1 j=1"]
    assert "w = p^j - 1 = 1 < 2" in by_label["ea q=2 r=1 j=1"]
    # oversize and over-cap points are skipped with notes
    assert "SKIP" in by_label["q8cp r=3"]
    assert "SKIP" in by_label["heis q=5 r=1"]
    # only cyclic forbidden subgroups of prime order are tried
    assert by_label["ea q=4 r=1 j=2"] == \
        "ea q=4 r=1 j=2: SKIP (no forbidden-subgroup candidates of order 4)"
    assert "MISMATCH" not in stdout


def test_tables_inconsistent_verdicts(capsys, monkeypatch):
    criterion = higmanian.is_uniform_by_criterion
    monkeypatch.setattr(higmanian, "is_uniform_by_criterion",
                        lambda params: not criterion(params))
    code, stdout, err = run(capsys, "tables")
    assert code == 1 and err == ""
    by_label = {ln.split(":")[0]: ln for ln in stdout.splitlines()}
    assert len(by_label) == 10
    for label in ("q8cp r=1", "q8cp r=2", "heis q=3 r=1", "ea q=3 r=1 j=1"):
        assert by_label[label].startswith(f"{label}: MISMATCH")
        assert by_label[label].endswith("uniform=False")
    assert "SKIP" in by_label["q8cp r=3"]


def test_construct_analyze_identical_verdicts(tmp_path, capsys):
    """Round-trip invariant: construct then analyze reproduces the same
    parameters and verdicts."""
    out = tmp_path / "h.scheme"
    code, stdout_c, _ = run(capsys, "construct", "heis", "3", "1",
                            "-o", str(out))
    assert code == 0
    code, stdout_a, _ = run(capsys, "analyze", str(out), "--json")
    assert code == 0
    report = json.loads(stdout_a)
    assert report["params"] == [4, 9, 3, 18, 16]
    assert all(report["verdicts"].values())


@pytest.mark.parametrize("body, code, message", [
    # colors past the int16 range: rejected as schemes, not wrapped
    ("scheme 2 2\n0 40000\n40000 0\n", 4, "not a scheme: color 1 unused"),
    ("scheme 2 2\n0 65537\n65537 0\n", 4, "not a scheme: color 1 unused"),
    ("scheme 2 2\n0 99999999999999999999\n1 0\n", 3,
     "error: entry out of the 64-bit integer range"),
    ("scheme 2 2\n0 x\n1 0\n", 3, "error: row 1: non-integer entry"),
    # the first bad row is named
    ("scheme 3 2\n0 1 1\n1 0 y\n1 x 0\n", 3,
     "error: row 2: non-integer entry"),
    # row lengths are checked before any entry is converted
    ("scheme 2 2\n0 x\n1\n", 3, "error: row 2 has 1 entries, expected 2"),
    ("scheme 2 3\n0 1\n1 0\n", 4, "not a scheme: header says rank 3"),
    # no rows: no reader warning, and the validator names the empty set
    ("scheme 0 1\n", 4, "not a scheme: empty point set"),
])
@pytest.mark.filterwarnings("error")
def test_analyze_malformed_schemes(tmp_path, capsys, body, code, message):
    path = tmp_path / "m.scheme"
    path.write_text(body)
    got, stdout, err = run(capsys, "analyze", str(path))
    assert got == code and stdout == ""
    assert err.splitlines() == [err.strip()] and err.startswith(message)


@pytest.mark.parametrize("body, code, message", [
    ("Q8cp:1\n0 x\n2\n0 2 4 6\n0 2 4 7\n", 3,
     "error: subgroup line: non-integer token"),
    ("Q8cp:1\n0 1\n2\n0 2 4 6\n0 2 y 7\n", 3,
     "error: RDS line 2: non-integer token"),
    ("Q8cp:1\n0 1\nw\n0 2 4 6\n0 2 4 7\n", 3, "error: bad w line"),
    ("Q8cp:1\n0 1\n3\n0 2 4 6\n0 2 4 7\n", 3,
     "error: expected 3 RDS lines"),
    ("Q8cp:1\n0 1\n", 3, "error: linked-system file too short"),
    ("Q8cp:1\n0 99\n2\n0 2 4 6\n0 2 4 7\n", 3,
     "error: subgroup element outside 0..7"),
    ("Q8cp:1\n0 1\n2\n0 2 4 6\n0 2 4 99\n", 4,
     "invalid linked system: element outside 0..7"),
])
def test_verify_linked_malformed(tmp_path, capsys, body, code, message):
    path = tmp_path / "m.linked"
    path.write_text(body)
    got, stdout, err = run(capsys, "verify-linked", str(path))
    assert got == code and stdout == ""
    assert err.splitlines() == [err.strip()] and err.startswith(message)


def test_analyze_reports_no_sampled_dismantlability(tmp_path, capsys):
    # every union is decided exactly, so no report speaks of sampling
    out = tmp_path / "q8.scheme"
    run(capsys, "construct", "q8cp", "1", "-o", str(out))
    code, stdout, _ = run(capsys, "analyze", str(out))
    assert code == 0 and "sampled" not in stdout
    code, stdout, _ = run(capsys, "analyze", str(out), "--json")
    assert code == 0 and "sampled" not in stdout
    report = json.loads(stdout)
    assert report["verdict_details"]["dismantlable"] == {
        "classes_of_8": {"ok": True, "witness": None, "unions_checked": 0}}


def test_analyze_seed_has_no_effect(tmp_path, capsys):
    out = tmp_path / "q8.scheme"
    run(capsys, "construct", "q8cp", "1", "-o", str(out))
    plain = run(capsys, "analyze", str(out))
    assert plain[0] == 0
    assert run(capsys, "analyze", str(out), "--seed", "7") == plain


def test_analyze_detects_once(tmp_path, capsys, monkeypatch):
    q8, trivial = tmp_path / "q8.scheme", tmp_path / "t.scheme"
    run(capsys, "construct", "q8cp", "1", "-o", str(q8))
    write_scheme(trivial_scheme(4), trivial)
    calls = []
    detect = higmanian.detect_higmanian
    monkeypatch.setattr(higmanian, "detect_higmanian",
                        lambda *a, **kw: calls.append(a) or detect(*a, **kw))
    for path, code in ((q8, 0), (trivial, 2)):
        calls.clear()
        assert run(capsys, "analyze", str(path), "--json")[0] == code
        assert len(calls) == 1


def test_analyze_inconsistent_verdicts(tmp_path, capsys, monkeypatch):
    out = tmp_path / "q8.scheme"
    run(capsys, "construct", "q8cp", "1", "-o", str(out))
    criterion = higmanian.is_uniform_by_criterion
    monkeypatch.setattr(higmanian, "is_uniform_by_criterion",
                        lambda params: not criterion(params))
    code, stdout, _ = run(capsys, "analyze", str(out), "--oracle")
    assert code == 5
    assert "FATAL: verdicts disagree" in stdout.splitlines()
    assert not any(ln.startswith("oracle:") for ln in stdout.splitlines())
    code, stdout, _ = run(capsys, "analyze", str(out), "--json", "--oracle")
    assert code == 5
    report = json.loads(stdout)
    assert report["consistent"] is False
    assert report["verdicts"] == {
        "criterion": False, "definition": True, "q_higmanian": True,
        "dismantlable": True}
    assert "oracle_max_abs_error" not in report["spectral"]
