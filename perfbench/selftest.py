"""Self-test of the benchmark harness, so that it cannot silently rot.

    python3 perfbench/selftest.py

Runs every workload through ``run.py`` on the 108-point Heis(3, 1)
stand-in, traced and untraced, and checks the result line against
BENCHMARK.json.  It also feeds deliberately wrong outputs to each output
check, confirms the quadratic-form RDS criterion against ``verify_dds``,
confirms the tracer sees calls made through names bound at import time and
restores every binding, and confirms the benchmark refuses to run without
the library sources.  Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from higman import constructions, groups, higmanian, schemes  # noqa: E402

from perfbench import gen_input, run, workloads  # noqa: E402
from perfbench.tracer import LAYERS, Tracer  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench_work", "selftest")


class SelfTestError(AssertionError):
    pass


def expect(cond, what: str) -> None:
    if not cond:
        raise SelfTestError(what)


def run_bench(workload: str, trace: int, seed: int = 5,
              cwd: str = ROOT, script: str | None = None):
    cmd = [sys.executable, script or os.path.join(ROOT, "perfbench",
                                                    "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--stand-in"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc) -> tuple[dict, str]:
    expect(proc.returncode == 0, f"run.py failed: {proc.stderr[-1500:]}")
    lines = proc.stdout.strip().splitlines()
    digest = [ln for ln in lines if ln.startswith("digest: ")][-1]
    return json.loads(lines[-1]), digest


def test_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect(tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES,
           "BENCHMARK.json workloads differ from run.py")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]]
           == list(run.END_TO_END), "end_to_end list differs from run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
           == run.per_layer_names(), "per_layer list differs from run.py")
    print("PASS BENCHMARK.json matches run.py")


def test_workloads_end_to_end() -> None:
    e2e = dict(run.END_TO_END)
    layer = dict(run.per_layer_names())
    for name in run.WORKLOAD_NAMES:
        first, digest1 = result_of(run_bench(name, 0))
        expect(first["correct"] and first["failed"] == 0,
               f"{name}: stand-in run not correct: {first}")
        expect({k: v["unit"] for k, v in first["metrics"].items()} == e2e,
               f"{name}: end-to-end metric set or units differ")
        expect(all(v["value"] > 0 for v in first["metrics"].values()),
               f"{name}: an end-to-end metric is 0")
        _, digest2 = result_of(run_bench(name, 0))
        expect(digest1 == digest2, f"{name}: output differs across runs of "
                                   f"one seed")
        traced, _ = result_of(run_bench(name, 1))
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        expect(traced["correct"], f"{name}: traced run not correct")
        expect({k: v["unit"] for k, v in traced["metrics"].items()} == layer,
               f"{name}: per-layer metric set or units differ")
        busy = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        expect(m["unattributed_s"] < 0.1 * (busy + m["unattributed_s"]),
               f"{name}: unattributed time is 10% or more of the op")
        expect(m["schemes.validate.calls"] >= 1, f"{name}: validate unseen")
        print(f"PASS {name}: untraced, repeat and traced stand-in runs")


def test_output_checks() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    manifest = gen_input.generate(os.path.join(SCRATCH, "gen"), 3, 1,
                                  "linked")
    expect(manifest["rds"] == 15, f"unexpected stand-in input {manifest}")

    an = workloads.Analyze972(3, SCRATCH)
    an.load(manifest)
    an.prepare()
    expect(an.expected_params == [4, 9, 3, 18, 16],
           f"unexpected stand-in scheme params {an.expected_params}")
    code, text = an.op()
    expect(an.check((code, text)) == [], "analyze: good output rejected")
    report = json.loads(text)

    def bad(mutate, against_first: bool = False) -> bool:
        """Check one mutated output on its own: unless ``against_first``,
        the mutated output is the run's first, so only the check aimed at
        the mutation can reject it."""
        r = copy.deepcopy(report)
        got_code = mutate(r)
        an.reference = an.reference if against_first else None
        return bool(an.check((code if got_code is None else got_code,
                              json.dumps(r))))

    expect(bad(lambda r: 1), "analyze: exit code 1 accepted")
    expect(bad(lambda r: r.update(params=[4, 9, 3, 18, 15])),
           "analyze: wrong params accepted")
    expect(bad(lambda r: r["verdicts"].update(definition=False)),
           "analyze: disagreeing verdicts accepted")
    expect(bad(lambda r: r["spectral"].update(oracle_max_abs_error=1e-3)),
           "analyze: oracle error 1e-3 accepted")
    an.check((code, text))
    expect(bad(lambda r: r.update(rank=6), against_first=True),
           "analyze: changed JSON across operations accepted")
    expect(bool(an.check((code, "no json"))), "analyze: non-JSON accepted")

    con = workloads.Construct972(3, SCRATCH)
    con.load(manifest)
    result = con.op()
    expect(con.check(result) == [], "construct: good output rejected")
    with open(con.out_path) as fh:
        lines = fh.read().splitlines()
    with open(con.out_path, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    expect(_rejected(con, result), "construct: truncated file accepted")
    schemes.write_scheme(result.scheme, con.out_path)
    with open(con.out_path, "a") as fh:
        fh.write("\n")
    expect(bool(con.check(result)), "construct: changed bytes accepted")

    desk = workloads.DeskTables(3, SCRATCH)
    out = desk.op()
    expect(desk.check(out) == [], "desk: good output rejected")
    family, kw, c, bundle = out[0]
    broken = [(family, kw, dataclasses.replace(c, table1_match=False),
               bundle)] + out[1:]
    expect(bool(desk.check(broken)), "desk: table mismatch accepted")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("PASS output checks reject wrong outputs")


def _rejected(workload, result) -> bool:
    """A check that raises on a malformed file also counts as a failed
    operation in the benchmark loop."""
    try:
        return bool(workload.check(result))
    except (schemes.SchemeError, schemes.SchemeParseError, ValueError):
        return True


def test_rds_criterion() -> None:
    G = groups.build_family("Heis:3:1")
    gen_input.check_heis_layout(G, 3, 1)
    N = G.center()
    rds, forms = gen_input.quadratic_form_rds(3, 1)
    expect(forms == 27 and len(rds) == 15, "unexpected RDS count for r = 1")
    for s in rds:
        d = constructions.verify_dds(G, N, s)
        expect(d.is_semiregular, f"{s} is not a semiregular RDS")
    found = constructions.search_semiregular_rds(G, N)
    quad = set(rds)
    expect(quad <= set(found), "quadratic-form RDSs missing from search")
    print(f"PASS quadratic-form criterion ({len(rds)} of {forms} forms, "
          f"{len(found)} RDSs by exhaustive search)")


def test_tracer_rebinding() -> None:
    original = schemes.restriction
    tr = Tracer()
    tr.install()
    try:
        expect(higmanian.restriction is not original,
               "tracer did not rebind the imported name in higmanian")
        scheme = schemes.trivial_scheme(2)
        for _ in range(3):  # rank 5, so detection looks for parabolics
            scheme = schemes.wreath_product(schemes.trivial_scheme(2), scheme)
        tr.enabled = True
        higmanian.detect_higmanian(scheme)
        tr.enabled = False
    finally:
        tr.uninstall()
    expect(higmanian.restriction is original and
           schemes.restriction is original, "tracer left a binding behind")
    expect(tr.calls["schemes.nontrivial_parabolics"] >= 1,
           "call through an imported name was not traced")
    parents = {sid: parent for sid, parent, *_ in tr.spans}
    names = {sid: name for sid, _, name, *_ in tr.spans}
    inner = [sid for sid, name in names.items()
             if name == "schemes.parabolics"]
    expect(inner and names[parents[inner[0]]] ==
           "schemes.nontrivial_parabolics", "span parent ids are wrong")
    print("PASS tracer rebinds imported names and restores them")


def test_refuses_without_sources() -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench("desk-tables", 0, cwd=bare,
                     script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(SCRATCH, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "benchmark ran without library sources")
    print("PASS refuses to run without src/higman")


def main() -> int:
    tests = (test_benchmark_json, test_rds_criterion, test_tracer_rebinding,
             test_output_checks, test_refuses_without_sources,
             test_workloads_end_to_end)
    try:
        for test in tests:
            test()
    except SelfTestError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
