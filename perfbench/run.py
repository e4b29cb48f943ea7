"""Offline, seeded benchmark of the higman toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one closed-loop workload (one client, one operation in flight) from the
root of a source checkout, against the library in ``src/``.  Set-up runs the
input generator ``gen_input.py`` as a child process ``SETUP_REPS`` times,
then prepares the input once in this process (analyze-972 builds its scheme
there), then runs one warm-up operation, which counts in setup_s but not in
op_s.  The
measured loop runs operations back to back for ``--seconds`` (at least one)
and checks each output.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` an untraced loop is followed by a traced loop, and the
last line holds the per-layer metrics of the traced operations.  Earlier
lines are a human-readable report; the full result, the environment record
and (when traced) every span go to ``.perfbench_out/``.  ``--stand-in``
replaces the 972-point input by the 108-point Heis(3, 1) system and is used
by the self-test.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracer import LAYERS, ROOT_SPAN, Tracer  # noqa: E402

SETUP_REPS = 3
DEADLINE_S = 150.0  # no new operation starts after this much wall time
WORKLOAD_NAMES = ("desk-tables", "analyze-972", "construct-972")

END_TO_END = (  # name, unit
    ("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"))

# per-layer metrics: inclusive seconds per operation of these functions ...
TIMED = (
    "spectral.krein", "spectral.spectral_data", "spectral.is_q_higmanian",
    "spectral.float_eigen_oracle",
    "constructions.search_semiregular_rds",
    "constructions.search_linked_system", "constructions.construct_family",
    "constructions.verify_linked_system", "constructions.associate_group",
    "constructions.example2_construct",
    "schemes.validate", "schemes.parabolics", "schemes.quotient",
    "schemes.restriction", "schemes.is_wreath_over", "schemes.cayley_scheme",
    "schemes.parse_scheme_file", "schemes.write_scheme",
    "higmanian.detect_higmanian", "higmanian.is_uniform_by_criterion",
    "higmanian.is_uniform_by_definition", "higmanian.is_dismantlable",
    "higmanian.verdict_bundle",
    "groups.build_family", "groups.gre_multiply",
    "cli.analyze_scheme",
)
# ... calls per operation of these ...
COUNTED = ("schemes.validate", "schemes.parabolics", "schemes.quotient",
           "schemes.restriction", "higmanian.detect_higmanian",
           "groups.gre_multiply")


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{n}.s", "s") for n in TIMED]
    names += [(f"{n}.calls", "count") for n in COUNTED]
    names += [("quadratic.ops", "count"), ("quadratic.s", "s"),
              ("constructions.search_semiregular_rds.found", "ratio"),
              ("higmanian.dismantle.unions_checked", "count")]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [("unattributed_s", "s"), ("trace_overhead", "ratio")]
    return names


# -- environment -------------------------------------------------------------------

def cap_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def git_commit() -> str:
    """HEAD from .git when the checkout has one; source exports do not."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc, "machine": platform.machine(), "seed": seed,
        "git_commit": git_commit(),
    }


# -- set-up ------------------------------------------------------------------------

def run_generator(out_dir: str, seed: int, r: int, kind: str) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "gen_input.py"),
           "--out", out_dir, "--seed", str(seed), "--r", str(r),
           "--kind", kind]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"input generator failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def generated_bytes(manifest: dict) -> bytes:
    if "linked" not in manifest:
        return b""
    with open(manifest["linked"], "rb") as fh:
        return fh.read()


# -- measurement -------------------------------------------------------------------

class Loop:
    """Closed loop: the next operation starts when the previous one ends."""

    def __init__(self, workload, deadline: float, tracer=None) -> None:
        self.workload = workload
        self.deadline = deadline
        self.tracer = tracer
        self.times: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    def once(self) -> None:
        tr = self.tracer
        if tr is not None:
            tr.enabled = True
            tr.enter(ROOT_SPAN, "unattributed")
        t0 = time.perf_counter()
        try:
            out = self.workload.op()
            problems = None
        except Exception as exc:  # a failing operation is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            self.times.append(time.perf_counter() - t0)
            if tr is not None:
                tr.exit()
                tr.enabled = False
        if problems is None:
            try:
                problems = self.workload.check(out)
            except Exception as exc:
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            self.once()
            now = time.perf_counter()
            if now - start >= seconds or now >= self.deadline:
                break


def tail_percentile(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return f"none supported by {n} samples"
    k = n - 10
    return f"p{100 * k // n} = {sorted(times)[k - 1]:.4f} s"


def layer_metrics(tr, n_ops: int, overhead: float) -> dict:
    def per_op(x: float) -> float:
        return x / n_ops

    m = {f"{n}.s": per_op(tr.inclusive.get(n, 0.0)) for n in TIMED}
    m.update({f"{n}.calls": per_op(tr.calls.get(n, 0)) for n in COUNTED})
    space = tr.counters.get("constructions.search_semiregular_rds.space", 0)
    m["quadratic.ops"] = per_op(tr.calls.get("quadratic.ops", 0))
    m["quadratic.s"] = per_op(tr.inclusive.get("quadratic.ops", 0.0))
    m["constructions.search_semiregular_rds.found"] = (
        tr.counters["constructions.search_semiregular_rds.found"] / space
        if space else 0.0)
    m["higmanian.dismantle.unions_checked"] = per_op(
        tr.counters.get("higmanian.dismantle.unions_checked", 0))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_op(tr.self_time.get(layer, 0.0))
    m["unattributed_s"] = per_op(tr.self_time.get("unattributed", 0.0))
    m["trace_overhead"] = overhead
    return m


def report_trace(tr, n_ops: int, traced_op_s: float, metrics: dict) -> None:
    print(f"trace: {n_ops} traced operations, median {traced_op_s:.4f} s, "
          f"overhead {metrics['trace_overhead']:+.2%} over untraced op_s")
    for layer in LAYERS:
        print(f"  self {layer:<14} {metrics[layer + '.self_s']:10.4f} s/op")
    print(f"  unattributed        {metrics['unattributed_s']:10.4f} s/op "
          f"({metrics['unattributed_s'] / traced_op_s:.2%} of traced op_s)")
    top = sorted(((t, n) for n, t in tr.inclusive.items() if n != ROOT_SPAN),
                 reverse=True)[:15]
    for t, n in top:
        print(f"  {n:<45} {t / n_ops:10.4f} s/op "
              f"{tr.calls[n] / n_ops:10.1f} calls/op")


# -- main --------------------------------------------------------------------------

def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--stand-in", action="store_true",
                    help="use the 108-point Heis(3, 1) input (self-test)")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills a running
    # generator child and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "higman", "__init__.py")):
        print(f"error: no higman sources under {ROOT}/src; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    nproc = cap_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import higman
    from higman import cli, constructions, higmanian, schemes  # noqa: F401
    import_s = time.perf_counter() - t0
    if not os.path.abspath(higman.__file__).startswith(
            os.path.join(ROOT, "src")):
        print(f"error: imported higman from {higman.__file__}",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    env = environment(args.seed, nproc)
    print("env: " + json.dumps(env, sort_keys=True))
    name = args.workload
    work_dir = os.path.join(".perfbench_work", f"{name}-seed{args.seed}")
    out_dir = ".perfbench_out"
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    deadline = started + DEADLINE_S
    try:
        workload = workloads.WORKLOADS[name](args.seed, work_dir)
        r = 1 if args.stand_in else 2

        gen_times, manifests = [], []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            manifests.append(run_generator(
                os.path.join(work_dir, f"setup{rep}"), args.seed, r,
                workload.gen_kind))
            gen_times.append(time.perf_counter() - t0)
        setup_problems = []
        if len({generated_bytes(m) for m in manifests}) != 1:
            setup_problems.append("set-up repetitions generated different "
                                  "inputs from one seed")
        workload.load(manifests[0])
        print("inputs: " + json.dumps(manifests[0], sort_keys=True))
        t0 = time.perf_counter()
        workload.prepare()
        prepare_s = time.perf_counter() - t0

        warm = Loop(workload, deadline)
        warm.once()
        setup_problems += warm.problems
        setup_s = statistics.median(gen_times) + prepare_s + warm.times[0]

        loop = Loop(workload, deadline)
        loop.run(args.seconds)
        op_s = statistics.median(loop.times)
        attempted, failed = len(loop.times), loop.failed
        problems = setup_problems + loop.problems
        print(f"op_s: median {op_s:.4f} s over {attempted} operations; "
              f"tail percentile: {tail_percentile(loop.times)}; "
              f"failed_frac {failed / attempted:.4f}")
        print(f"setup_s: {setup_s:.4f} s = median generator "
              f"{statistics.median(gen_times):.4f} s (of {SETUP_REPS}) + "
              f"prepare {prepare_s:.4f} s + warm-up {warm.times[0]:.4f} s; "
              f"parent import {import_s:.4f} s")

        result = {"env": env, "workload": name, "manifest": manifests[0],
                  "setup_times": gen_times, "prepare_s": prepare_s,
                  "warmup_s": warm.times[0],
                  "import_s": import_s,
                  "op_times": loop.times, "digest": workload.digest}
        if args.trace:
            tr = Tracer()
            tr.install()
            try:
                traced = Loop(workload, deadline, tracer=tr)
                traced.run(args.seconds)
            finally:
                tr.uninstall()
            attempted += len(traced.times)
            failed += traced.failed
            problems += traced.problems
            traced_op_s = statistics.median(traced.times)
            metrics = layer_metrics(tr, len(traced.times),
                                    traced_op_s / op_s - 1.0)
            report_trace(tr, len(traced.times), traced_op_s, metrics)
            units = dict(per_layer_names())
            result["traced_op_times"] = traced.times
            with open(os.path.join(out_dir, f"{name}-seed{args.seed}"
                                            f"-spans.json"), "w") as fh:
                json.dump({"fields": ["id", "parent", "name", "start",
                                      "end"], "spans": tr.spans}, fh)
        else:
            metrics = {
                "op_s": op_s, "setup_s": setup_s,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": 1.0 - failed / attempted,
            }
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for p in problems:
        print(f"FAILED CHECK: {p}")
    print(f"digest: {workload.digest}")
    result["metrics"] = metrics
    result["problems"] = problems
    with open(os.path.join(out_dir, f"{name}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
