"""The benchmark's three closed-loop workloads.

Each workload names the input its set-up child generates (``gen_kind``),
loads and prepares that input, runs one operation, and checks one
operation's output.
Calls into ``higman`` go through module attributes so that the tracer's
rebound wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

from higman import cli, constructions, higmanian, schemes

# the desk points of the test suite's shared fixtures
DESK_POINTS = (
    ("q8cp", dict(r=1)),
    ("q8cp", dict(r=2)),
    ("heis", dict(q=3, r=1)),
    ("ea", dict(q=3, r=1, j=1)),
)

ORACLE_TOLERANCE = 1e-6


class Workload:
    name = ""
    gen_kind = "none"  # what gen_input.py writes: none | linked

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.reference: str | None = None  # digest of the first output
        self.digest = ""

    def load(self, manifest: dict) -> None:
        self.manifest = manifest

    def prepare(self) -> None:
        """Set-up done once in the measuring process, after generation."""

    def op(self):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def _same_as_first(self, payload: bytes, what: str) -> list[str]:
        self.digest = hashlib.sha256(payload).hexdigest()
        if self.reference is None:
            self.reference = self.digest
        elif self.digest != self.reference:
            return [f"{what} differs from the first operation's"]
        return []


class DeskTables(Workload):
    name = "desk-tables"

    def op(self):
        out = []
        for family, kw in DESK_POINTS:
            con = constructions.construct_family(family, **kw)
            bundle = higmanian.verdict_bundle(con.result.scheme,
                                              seed=self.seed)
            out.append((family, kw, con, bundle))
        return out

    def check(self, out) -> list[str]:
        problems = []
        summary = []
        for family, kw, con, bundle in out:
            # the same acceptance as `higman tables`
            ok = (con.table1_match and con.table2_match
                  and con.associate_match and bundle.consistent
                  and bundle.uniform)
            if not ok:
                problems.append(f"{family} {kw}: table mismatch or verdicts "
                                f"not consistent and uniform")
            summary.append([family, sorted(kw.items()),
                            list(con.system.params),
                            list(con.result.detection.params.astuple()),
                            list(bundle.verdicts)])
        return problems + self._same_as_first(
            json.dumps(summary).encode(), "table summary")


class Analyze972(Workload):
    name = "analyze-972"
    gen_kind = "linked"

    def prepare(self) -> None:
        system = constructions.read_linked_system(self.manifest["linked"])
        result = constructions.example2_construct(system)
        self.scheme_path = os.path.join(self.work_dir, "system.scheme")
        schemes.write_scheme(result.scheme, self.scheme_path)
        self.expected_params = list(result.expected_params.astuple())

    def op(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["analyze", self.scheme_path, "--json",
                             "--oracle", "--seed", str(self.seed)])
        return code, buf.getvalue()

    def check(self, out) -> list[str]:
        code, text = out
        problems = []
        if code != cli.EXIT_UNIFORM:
            problems.append(f"exit code {code}, expected 0")
        try:
            report = json.loads(text)
        except ValueError:
            return problems + ["analyze --json printed no JSON object"]
        if report.get("params") != self.expected_params:
            problems.append(f"params {report.get('params')} != expected "
                            f"{self.expected_params}")
        verdicts = report.get("verdicts") or {}
        if len(verdicts) != 4 or len(set(verdicts.values())) != 1:
            problems.append(f"verdicts disagree: {verdicts}")
        err = (report.get("spectral") or {}).get("oracle_max_abs_error")
        if err is None or not err < ORACLE_TOLERANCE:
            problems.append(f"oracle max_abs_error {err}")
        report.pop("timings", None)
        return problems + self._same_as_first(
            json.dumps(report, sort_keys=True).encode(), "JSON report")


class Construct972(Workload):
    name = "construct-972"
    gen_kind = "linked"

    def op(self):
        system = constructions.read_linked_system(self.manifest["linked"])
        result = constructions.example2_construct(system)
        schemes.write_scheme(result.scheme, self.out_path)
        return result

    @property
    def out_path(self) -> str:
        return os.path.join(self.work_dir, "constructed.scheme")

    def check(self, result) -> list[str]:
        problems = []
        back = schemes.read_scheme(self.out_path)
        if (back.rank != result.scheme.rank
                or not np.array_equal(back.color, result.scheme.color)):
            problems.append("written scheme does not round-trip")
        if result.detection.params != result.expected_params:
            problems.append(f"detected {result.detection.params} != "
                            f"expected {result.expected_params}")
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        return problems + self._same_as_first(data, "written scheme file")


WORKLOADS = {w.name: w for w in (DeskTables, Analyze972, Construct972)}
