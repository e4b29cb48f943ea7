import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import warnings
from collections import Counter
from types import SimpleNamespace

import pytest

import higman
from higman import cli, constructions, higmanian, schemes, spectral
from higman.cli import main
from higman.constructions import construct_family, example1_construct
from higman.groups import build_family
from higman.higmanian import HigmanianParams, uniformity_rhs
from higman.quadratic import square_free_decomposition
from higman.schemes import (nontrivial_parabolics, trivial_scheme,
                            wreath_product, write_scheme)
from test_higmanian import rank5_wreath
from test_tensor_reference import orbit_scheme

C9 = build_family("C:9")


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


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["analyze"], "the following arguments are required: file"),
    (["analyze", "f.scheme", "--seed", "x"],
     "argument --seed: invalid int value: 'x'"),
    (["analyze", "f.scheme", "--no-strict-higmanian"],
     "unrecognized arguments: --no-strict-higmanian"),
])
def test_usage_errors_exit_3(capsys, argv, message):
    # exit 2 would read as "not Higmanian"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 3 and captured.out == ""
    assert captured.err.startswith("usage: higman")
    assert captured.err.endswith(f"error: {message}\n")


def test_analyze_wreath_rejected(tmp_path, capsys):
    w = wreath_product(trivial_scheme(2), trivial_scheme(3))
    path = tmp_path / "w.scheme"
    write_scheme(w, path)
    code, stdout, _ = run(capsys, "analyze", str(path))
    assert code == 2


def test_analyze_rank5_wreath_names_parabolic_count(tmp_path, capsys):
    w = rank5_wreath()
    path = tmp_path / "w5.scheme"
    write_scheme(w, path)
    code, stdout, _ = run(capsys, "analyze", str(path))
    count = len(nontrivial_parabolics(w))
    assert code == 2 and count > 2
    assert stdout.splitlines()[-1] == (
        f"not Higmanian: {count} nontrivial parabolics, "
        f"a Higmanian scheme has exactly 2")


def test_analyze_lists_parabolics_up_to_the_scan_limit(tmp_path, capsys,
                                                        computed):
    # C:15 with every element its own color has rank 15, within the scan's
    # rank limit: one parabolic per subgroup, listed by class size
    thin = orbit_scheme(15, (1,))
    assert thin.rank == 15 <= schemes.PARABOLIC_RANK_LIMIT
    path = tmp_path / "c15.scheme"
    write_scheme(thin, path)
    code, stdout, _ = run(capsys, "analyze", str(path))
    assert code == 2
    assert stdout.splitlines()[2:] == [
        "parabolics: 15x1 (colors [0]), 5x3 (colors [0, 5, 10]), "
        "3x5 (colors [0, 3, 6, 9, 12]), "
        f"1x15 (colors {list(range(15))})",
        "not Higmanian: rank 15 != 5"]
    # the listing reads the tensor and forms no class
    assert cli.analyze_scheme(thin, "c15")[1] == 2
    assert computed["class_of"] == []


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


def test_search_rds_bad_subgroup(capsys):
    code, stdout, err = run(capsys, "search-rds", "Q8cp:1", "x")
    assert code == 3 and stdout == ""
    assert err.startswith("error: bad subgroup spec 'x'")


@pytest.mark.parametrize("spec, forbidden, message", [
    ("Q8cp:1", "0,+1", "error: bad subgroup spec '0,+1'"),
    ("Q8cp:1", "0,1_0", "error: bad subgroup spec '0,1_0'"),
    ("C:+4", "center", "error: bad spec, expected C:<n>"),
    ("GenDih:", "center", "error: GenDih needs an inner spec"),
    ("C:0", "center", "error: cyclic group needs order >= 1"),
    ("EA:2:0", "center", "error: rank must be >= 1"),
    ("Heis:3:0", "center", "error: r must be >= 1"),
    ("Q8cp:0", "center", "error: r must be >= 1"),
    pytest.param("GenDih:" * 1200 + "C:2", "center",
                 "error: spec has more than 32 GenDih and Prod heads",
                 id="GenDih-1200"),
    pytest.param("Prod:C:1," * 1200 + "C:1", "center",
                 "error: spec has more than 32 GenDih and Prod heads",
                 id="Prod-1200"),
])
def test_search_rds_refuses_spellings(capsys, spec, forbidden, message):
    # one error line and exit 3, never a traceback
    code, stdout, err = run(capsys, "search-rds", spec, forbidden)
    assert code == 3 and stdout == ""
    assert err.splitlines() == [err.strip()] and err.startswith(message)


@pytest.mark.parametrize("spec, message", [
    ("EA:1:3", "1 is not prime"),
    ("EA:0:2", "0 is not prime"),
    ("EA:9:2", "9 is not prime"),
    ("EA:6:1", "6 is not prime"),
    ("EA:2:0", "rank must be >= 1"),
])
def test_search_rds_refuses_ea_specs(capsys, monkeypatch, spec, message):
    # an EA table is not checked, so its guards are all that stands before
    # it: a refused spec never reaches cyclic_group, its first table
    monkeypatch.setattr("higman.groups.cyclic_group", None)
    code, stdout, err = run(capsys, "search-rds", spec, "0")
    assert (code, stdout, err) == (3, "", f"error: {message}\n")


def test_search_linked_refuses_w_below_2(capsys):
    code, stdout, err = run(capsys, "search-linked-system", "Q8cp:1",
                            "center", "1")
    assert (code, stdout, err) == (3, "", "error: need w >= 2\n")


def test_search_linked_none_found(capsys):
    code, stdout, err = run(capsys, "search-linked-system", "Q8cp:1",
                            "center", "3")
    assert code == 1 and stdout == ""
    assert err == "no closed linked system found\n"


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


def test_construct_default_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run(capsys, "construct", "q8cp", "1")
    assert code == 0 and "scheme written to q8cp_1.scheme" in stdout
    assert [p.name for p in tmp_path.iterdir()] == ["q8cp_1.scheme"]
    digest = hashlib.sha256((tmp_path / "q8cp_1.scheme").read_bytes())
    assert digest.hexdigest() == ("55126e3abc043b4280dce6d7f62b9241"
                                  "7886c81448dc6c0ad48c6f9b80d960e3")


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
    # an r past 18 digits meets the order limit before any spec is formed
    r = "9" * 20
    code, _, err = run(capsys, "construct", "q8cp", r)
    assert code == 3
    assert err == (f"error: group order 2^{2 * int(r) + 1} exceeds the "
                   f"limit 16384\n")
    # Q8cp:6 is within the limit, its product with C:3 is not: refused
    # before either group is built
    start = time.perf_counter()
    code, stdout, err = run(capsys, "construct", "q8cp", "6")
    assert time.perf_counter() - start < 1
    assert code == 3 and stdout == ""
    assert err == "error: group order 24576 exceeds the limit 16384\n"
    code, _, err = run(capsys, "construct", "nosuch", "1")
    assert code == 3
    code, _, err = run(capsys, "construct", "q8cp")
    assert code == 3 and "usage" in err
    for args, r in [(["q8cp", "0"], 0), (["heis", "3", "0"], 0),
                    (["ea", "3", "0", "1"], 0), (["ea", "3", "-2", "1"], -2)]:
        code, stdout, err = run(capsys, "construct", *args)
        assert code == 3 and stdout == ""
        assert err == f"error: {args[0]} needs r >= 1, not {r}\n"


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
    # q8cp r=3 takes its linked system in closed form, not by search
    assert "match" in by_label["q8cp r=3"]
    # points past the desk are skipped with the reason construct_family
    # gives: the search cap, or no forbidden subgroup to search over
    assert by_label["heis q=3 r=2"] == \
        "heis q=3 r=2: SKIP (search space 3^81 exceeds cap 16777216)"
    assert by_label["heis q=5 r=1"] == \
        "heis q=5 r=1: SKIP (search space 5^25 exceeds cap 16777216)"
    assert by_label["ea q=9 r=1 j=1"] == \
        "ea q=9 r=1 j=1: SKIP (no forbidden-subgroup candidates of order 9)"
    # N is elements 0..q-1, a cyclic subgroup of EA:p:k only at prime q
    assert by_label["ea q=4 r=1 j=2"] == \
        "ea q=4 r=1 j=2: SKIP (no forbidden-subgroup candidates of order 4)"
    assert "MISMATCH" not in stdout


def test_tables_skips_point_past_group_order_limit(capsys, monkeypatch):
    # G x U of q8cp r=6 has order 24576: construct_family refuses it before
    # building any group, and tables reports that as a skip
    monkeypatch.setattr(cli, "TABLE_GRID", (("q8cp", None, 6, None),))
    code, stdout, err = run(capsys, "tables")
    assert (code, err) == (0, "")
    assert stdout == ("q8cp r=6: SKIP (group order 24576 exceeds the limit "
                      "16384)\n")


def test_tables_inconsistent_verdicts(capsys, monkeypatch):
    criterion = higmanian.is_uniform_by_criterion
    monkeypatch.setattr(higmanian, "is_uniform_by_criterion",
                        lambda params: not criterion(params))
    code, stdout, err = run(capsys, "tables")
    assert code == 1 and err == ""
    by_label = {ln.split(":")[0]: ln for ln in stdout.splitlines()}
    assert len(by_label) == 10
    for label in ("q8cp r=1", "q8cp r=2", "q8cp r=3", "heis q=3 r=1",
                  "ea q=3 r=1 j=1"):
        assert by_label[label].startswith(f"{label}: MISMATCH")
        assert by_label[label].endswith("uniform=False")


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
     "error: row 1: entry of more than 18 digits"),
    ("scheme 2 2\n0 x\n1 0\n", 3, "error: row 1: non-integer entry"),
    # the first bad row is named
    ("scheme 3 2\n0 1 1\n1 0 y\n1 x 0\n", 3,
     "error: row 2: non-integer entry"),
    # row lengths are checked before any entry is converted
    ("scheme 2 2\n0 x\n1\n", 3, "error: row 2 has 1 entries, expected 2"),
    # ragged rows: the first one is named
    ("scheme 2 2\n0 1 1\n1 0 1\n", 3,
     "error: row 1 has 3 entries, expected 2"),
    # a header v far past the rows: counted, never allocated
    ("scheme 1000000000000 2\n0 1\n1 0\n", 3,
     "error: expected 1000000000000 rows, found 2"),
    ("scheme 2 3\n0 1\n1 0\n", 4, "not a scheme: header says rank 3"),
    # the header holds exactly "scheme", v and the rank
    ("scheme 2 2 junk\n0 1\n1 0\n", 3, "error: bad scheme header"),
    ("scheme x 2\n0 1\n1 0\n", 3, "error: bad scheme header"),
    # v and the rank are plain ASCII digits: no sign, and no fullwidth
    # digit 2 (its UTF-8 bytes, written as latin-1 below)
    ("scheme +2 2\n0 1\n1 0\n", 3, "error: bad scheme header"),
    ("scheme -1 2\n", 3, "error: bad scheme header"),
    ("scheme \xef\xbc\x92 2\n0 1\n1 0\n", 3, "error: bad scheme header"),
    # as every number, of at most 18 digits: int() never meets 5,000
    ("scheme 0000000000000000002 2\n0 1\n1 0\n", 3,
     "error: bad scheme header"),
    pytest.param("scheme " + "9" * 5000 + " 2\n0 1\n1 0\n", 3,
                 "error: bad scheme header", id="5000-digit v"),
    # C8 colored by min(distance, 3): the second of two packed products
    ("scheme 8 4\n" + "".join(
        " ".join(str(min(abs(x - y), 8 - abs(x - y), 3)) for y in range(8))
        + "\n" for x in range(8)), 4,
     "not a scheme: p_1,2^3 is not constant: cell (0,4) has 0, expected 1"),
    # no rows: no reader warning, and the validator names the empty set
    ("scheme 0 1\n", 4, "not a scheme: empty point set"),
    # a byte that is not UTF-8 (written as latin-1 below)
    ("scheme 2 2\n0 \xff\n1 0\n", 3, "error: not a UTF-8 text file"),
])
@pytest.mark.filterwarnings("error")
def test_analyze_malformed_schemes(tmp_path, capsys, body, code, message):
    path = tmp_path / "m.scheme"
    path.write_text(body, encoding="latin-1")
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
    ("Q8cp:1\n0 1\n2\n0 2 4 6\n0 3 5 \xff\n", 3,
     "error: not a UTF-8 text file"),
    # every number is 1 to 18 ASCII digits, as in a scheme file: no sign,
    # underscore, NBSP (its UTF-8 bytes, written as latin-1) or other digit
    ("Q8cp:1\n0 +1\n2\n0 2 4 6\n0 3 5 7\n", 3,
     "error: subgroup line: non-integer token"),
    ("Q8cp:1\n0 1\n0_2\n0 2 4 6\n0 3 5 7\n", 3, "error: bad w line"),
    ("Q8cp:1\n0 1\n2 2\n0 2 4 6\n0 3 5 7\n", 3, "error: bad w line"),
    ("Q8cp:1\n0\xc2\xa01\n2\n0 2 4 6\n0 3 5 7\n", 3,
     "error: subgroup line: non-integer token"),
    ("Q8cp:1\n0 1\n2\n0 2 4 6\n0 3 5 \xd9\xa7\n", 3,
     "error: RDS line 2: non-integer token"),
    ("Q8cp:1\n0 1\n2\n0 2 4 6\n0 3 5 0000000000000000007\n", 3,
     "error: RDS line 2: token of more than 18 digits"),
    pytest.param("Q8cp:1\n0 " + "1" * 5000 + "\n2\n0 2 4 6\n0 3 5 7\n", 3,
                 "error: subgroup line: token of more than 18 digits",
                 id="5000-digit token"),
    pytest.param("Q8cp:1\n0 1\n" + "2" * 5000 + "\n0 2 4 6\n0 3 5 7\n", 3,
                 "error: bad w line", id="5000-digit w"),
    pytest.param("GenDih:" * 1200 + "C:2\n0\n2\n0\n0\n", 3,
                 "error: spec has more than 32 GenDih and Prod heads",
                 id="GenDih-1200"),
])
def test_verify_linked_malformed(tmp_path, capsys, body, code, message):
    path = tmp_path / "m.linked"
    path.write_text(body, encoding="latin-1")
    got, stdout, err = run(capsys, "verify-linked", str(path))
    assert got == code and stdout == ""
    assert err.splitlines() == [err.strip()] and err.startswith(message)


@pytest.mark.parametrize("argv", [
    ["construct", "q8cp", "1"],
    ["search-linked-system", "Q8cp:1", "center", "2"],
])
def test_unwritable_output(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out"
    code, stdout, err = run(capsys, *argv, "-o", str(out))
    assert code == 3 and stdout == "" and not out.exists()
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ") and str(out) in err


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


def test_analyze_non_uniform_exits_1(tmp_path, capsys, monkeypatch,
                                     heis_construction):
    # no realized Higmanian scheme is non-uniform, so the real heis q=3 r=1
    # bundle stands in with all four verdicts False
    scheme = heis_construction.result.scheme
    bundle = dataclasses.replace(
        higmanian.verdict_bundle(scheme), criterion=False, definition=False,
        q_higmanian=False, dismantlable=False)
    monkeypatch.setattr(higmanian, "verdict_bundle",
                        lambda scheme, oracle=False: bundle)
    path = tmp_path / "heis.scheme"
    write_scheme(scheme, path)
    code, stdout, _ = run(capsys, "analyze", str(path))
    assert code == cli.EXIT_NON_UNIFORM == 1
    assert stdout.splitlines()[-1] == "uniform: no (all four routes agree)"
    code, stdout, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 1
    report = json.loads(stdout)
    assert report["consistent"] is True
    assert report["verdicts"] == {
        "criterion": False, "definition": False, "q_higmanian": False,
        "dismantlable": False}


def test_analyze_oracle_failure(tmp_path, capsys, monkeypatch):
    # an oracle failure is exit 5 with one stderr line, not a traceback
    # with exit 1 ("Higmanian but not uniform")
    out = tmp_path / "q8.scheme"
    run(capsys, "construct", "q8cp", "1", "-o", str(out))

    def fail(*args, **kwargs):
        raise spectral.SpectralError("no closure at 5 steps")

    monkeypatch.setattr(spectral, "float_eigen_oracle", fail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for flags in (("--oracle",), ("--json", "--oracle")):
            code, stdout, err = run(capsys, "analyze", str(out), *flags)
            assert code == 5
            assert err.splitlines() == ["error: oracle: no closure at 5 steps"]
            assert stdout == ""
        code, stdout, err = run(capsys, "analyze", str(out))
    assert code == 0 and "uniform: yes" in stdout and err == ""


def test_oracle_runs_only_on_consistent_verdicts(tmp_path, capsys,
                                                 monkeypatch):
    # an inconsistency is reported as such, however the oracle would fare
    out = tmp_path / "q8.scheme"
    run(capsys, "construct", "q8cp", "1", "-o", str(out))
    criterion = higmanian.is_uniform_by_criterion
    monkeypatch.setattr(higmanian, "is_uniform_by_criterion",
                        lambda params: not criterion(params))
    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        raise spectral.SpectralError("oracle failed")

    monkeypatch.setattr(spectral, "float_eigen_oracle", fail)
    code, stdout, err = run(capsys, "analyze", str(out), "--oracle")
    assert code == 5 and err == ""
    assert "FATAL: verdicts disagree" in stdout.splitlines()
    assert calls == []


def _reversed_valencies():
    eigen = spectral.spectral_data(HigmanianParams(3, 3, 3, 6, 0))
    return dataclasses.replace(eigen, valencies=eigen.valencies[::-1])


@pytest.mark.parametrize("call, message", [
    (lambda: schemes.parabolics(orbit_scheme(17, (1,))),
     "parabolic scan is exponential in rank; rank 17 over limit 16"),
    (lambda: construct_family("x", r=1), "unknown family 'x'"),
    (lambda: construct_family("heis", r=1), "heis needs q and r"),
    (lambda: construct_family("ea", q=3, r=1), "ea needs q, r and j"),
    (lambda: example1_construct(C9, C9.subgroup(range(9)), [1]),
     "forbidden subgroup must be proper nontrivial"),
    (lambda: example1_construct(C9, C9.subgroup([0, 3, 6]), []),
     "X must be a nonempty proper subset"),
    (lambda: spectral.eigenvalue_pair(SimpleNamespace(f=3, m=2, n=2, k=0,
                                                      t=0)),
     "k must be positive"),
    (lambda: spectral.eigenvalue_pair(SimpleNamespace(f=3, m=2, n=2, k=5,
                                                      t=0)),
     "no symmetric scheme with these parameters: negative discriminant -19"),
    (lambda: HigmanianParams(3, 2, 2, 3, -1), "t must be nonnegative"),
    (lambda: uniformity_rhs(1, 2, 2, 1),
     "need f, m, n >= 2 and 0 < k <= mn"),
    (lambda: square_free_decomposition(-1), "negative radicand"),
    (lambda: _reversed_valencies().check(),
     "row 0 of P must be the valency vector"),
], ids=["rank limit", "unknown family", "heis args", "ea args",
        "N = G", "empty X", "k = 0", "negative discriminant", "t < 0",
        "rhs args", "negative radicand", "row 0 of P"])
def test_library_guards_the_cli_screens_first(call, message):
    # the CLI refuses these arguments before it calls the library, so
    # only a library caller meets the library's own message
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_closed_stdout_exits_3_without_traceback():
    # a reader that has left, as `| head` leaves: the writes fail with
    # EPIPE.  The command stops at once, with no traceback and without
    # the exit code 1 of "not uniform"
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(higman.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "higman.cli", "search-rds", "Q8cp:2",
             "center"], stdout=write_end, stderr=subprocess.PIPE, env=env,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert b"Traceback" not in proc.stderr


def _mutated(raw: bytes, rng: random.Random, start: int) -> bytes:
    """``raw`` with 1 to 3 byte replacements, deletions or insertions, each
    at or after ``start``; the new bytes are mostly digits and separators,
    so that some mutants still parse."""
    out = bytearray(raw)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice("rdi")
        at = rng.randrange(start, len(out) + (kind == "i"))
        byte = rng.choice(b"0123456789 \n\t\r-+x\xff")
        if kind == "r":
            out[at] = byte
        elif kind == "d":
            del out[at]
        else:
            out.insert(at, byte)
    return bytes(out)


def test_byte_mutants_keep_the_exit_code_contract(tmp_path, capsys):
    # 300 seeded mutants of a scheme file and of a linked-system file: no
    # exception escapes, every exit 3 or 4 prints one stderr line, and a
    # mutant is read by the command's reader exactly when the command gets
    # past reading.  The linked system's group spec line is not mutated: a
    # one-byte edit can name a group whose table is hundreds of MB
    scheme, linked = tmp_path / "q8_1.scheme", tmp_path / "heis.linked"
    run(capsys, "construct", "q8cp", "1", "-o", str(scheme))
    run(capsys, "search-linked-system", "Heis:3:1", "center", "3",
        "-o", str(linked))
    rng = random.Random(11)
    codes = {}
    for command, path, reader, read_codes, exit_codes in [
            ("analyze", scheme, schemes.read_scheme, {0, 2}, {0, 2, 3, 4}),
            ("verify-linked", linked, constructions.read_linked_system, {0},
             {0, 3, 4})]:
        raw = path.read_bytes()
        start = raw.index(b"\n") + 1 if command == "verify-linked" else 0
        mutant = tmp_path / ("mutant" + path.suffix)
        codes[command] = Counter()
        for _ in range(300):
            mutant.write_bytes(_mutated(raw, rng, start))
            code, _, err = run(capsys, command, str(mutant))
            assert code in exit_codes
            codes[command][code] += 1
            if code in (3, 4):
                assert err.splitlines() == [err.strip()] and err.strip()
            try:
                reader(mutant)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (code in read_codes)
    assert codes == {"analyze": Counter({0: 13, 3: 245, 4: 42}),
                     "verify-linked": Counter({0: 11, 3: 144, 4: 145})}
