"""Seeded input generator for the Heis(3, r) workloads.

Run as a child process of the benchmark, so that its cost (interpreter
start, import, input generation) is timed as set-up and its memory does not
count in the measured process's peak:

    python3 perfbench/gen_input.py --out DIR --seed N --kind KIND [--r 2]

It enumerates the quadratic-form transversals {(a, b, Q(a, b))} of the
centre of Heis(3, r), keeps those that are semiregular relative difference
sets, shuffles them with the seed, hands them to ``search_linked_system``,
re-verifies the result with ``verify_linked_system`` and writes
``system.linked`` (kind ``linked``); kind ``none`` only imports the library.
A JSON manifest describing what was produced is
written to ``manifest.json`` and printed as the last line of output.

For r = 2 there are 3^10 forms, of which 33,129 give semiregular RDSs, and
the recipe-2 scheme of the system has 972 points.  For r = 1 (the self-test
stand-in) there are 27 forms, 15 RDSs and 108 points.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

Q = 3  # the field; the generator below relies on q being an odd prime


def heis_index(q: int, r: int, a, b, c):
    """Element index of (a, b, c) in ``groups.heisenberg_group(q, r)``."""
    x = 0
    for t in range(r):
        x = x * q + a[..., t]
    for t in range(r):
        x = x * q + b[..., t]
    return x * q + c


def check_heis_layout(G, q: int, r: int) -> None:
    """Fail loudly if the library's Heisenberg element order is not the one
    ``heis_index`` assumes: (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a.b')."""
    import numpy as np

    coords = np.array(list(itertools.product(range(q), repeat=2 * r + 1)))
    a, b, c = coords[:, :r], coords[:, r:2 * r], coords[:, 2 * r]
    idx = heis_index(q, r, a, b, c)
    if not (idx == np.arange(len(coords))).all():
        raise RuntimeError("unexpected Heisenberg element indexing")
    prod = heis_index(q, r, (a[:, None] + a[None, :]) % q,
                      (b[:, None] + b[None, :]) % q,
                      (c[:, None] + c[None, :]
                       + (a[:, None, :] * b[None, :, :]).sum(-1)) % q)
    if not (G.mul == prod).all():
        raise RuntimeError("Heisenberg multiplication differs from the "
                           "layout the generator assumes")


def quadratic_form_rds(q: int, r: int):
    """Sorted element tuples of every quadratic-form transversal of the centre
    of Heis(q, r) that is a semiregular RDS, in lex order of the forms.

    The difference of (x, Q(x)) and (y, Q(y)) with d = x - y != 0 has centre
    coordinate B(y, d) + Q(d) - d_a . y_b, which is uniform over F_q exactly
    when the linear map y -> B(y, d) - d_a . y_b is nonzero.  So Q gives an
    RDS iff the matrix of (y, d) -> B(y, d) - d_a . y_b is invertible mod q.
    """
    import numpy as np

    nv = 2 * r
    mons = [(i, j) for i in range(nv) for j in range(i, nv)]
    coeffs = np.array(list(itertools.product(range(q), repeat=len(mons))),
                      dtype=np.int64)
    M = np.zeros((len(coeffs), nv, nv), dtype=np.int64)
    for col, (i, j) in enumerate(mons):
        if i == j:
            M[:, i, i] += 2 * coeffs[:, col]
        else:
            M[:, i, j] += coeffs[:, col]
            M[:, j, i] += coeffs[:, col]
    for t in range(r):
        M[:, r + t, t] -= 1
    det = np.rint(np.linalg.det(M.astype(np.float64))).astype(np.int64) % q
    good = coeffs[det != 0]

    pts = np.array(list(itertools.product(range(q), repeat=nv)),
                   dtype=np.int64)
    monomials = np.stack([pts[:, i] * pts[:, j] for i, j in mons], axis=1)
    centre = (good @ monomials.T) % q
    elems = heis_index(q, r, pts[None, :, :r], pts[None, :, r:], centre)
    elems.sort(axis=1)
    return [tuple(int(x) for x in row) for row in elems], len(coeffs)


def generate(out_dir: str, seed: int, r: int, kind: str) -> dict:
    import higman  # noqa: F401  (the import is part of the timed set-up)

    os.makedirs(out_dir, exist_ok=True)
    manifest = {"kind": kind, "seed": seed}
    if kind == "linked":
        manifest.update(_generate_system(out_dir, seed, r))
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def _generate_system(out_dir: str, seed: int, r: int) -> dict:
    import numpy as np

    from higman import constructions, groups

    G = groups.build_family(f"Heis:{Q}:{r}")
    check_heis_layout(G, Q, r)
    N = G.center()
    rds, n_forms = quadratic_form_rds(Q, r)
    order = np.random.default_rng(seed).permutation(len(rds))
    system = constructions.search_linked_system(
        G, N, Q, rds_list=[rds[i] for i in order])
    if system is None:
        raise RuntimeError("no closed linked system found")
    system = constructions.verify_linked_system(G, N, system.sets)
    linked_path = os.path.join(out_dir, "system.linked")
    constructions.write_linked_system(system, linked_path)
    return {
        "group": G.name, "forms": n_forms, "rds": len(rds),
        "linked_params": list(system.params), "branch": system.branch,
        "linked": linked_path,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--r", type=int, default=2)
    ap.add_argument("--kind", choices=("none", "linked"), required=True)
    args = ap.parse_args(argv)
    manifest = generate(args.out, args.seed, args.r, args.kind)
    print(json.dumps(manifest, sort_keys=True))
    return 0


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    sys.exit(main())
