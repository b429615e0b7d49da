#!/usr/bin/env python3
"""Regenerate ``reference.json``: seed-0 inputs of every workload, solved
independently of the package's solvers.

    python3 perfbench/make_reference.py

Eigenvalues come from shift-invert Lanczos asking for ``k + 4`` pairs at a
tight tolerance from two different start vectors (which must agree to 1e-11),
so a dropped multiple eigenvalue cannot go unnoticed; the torsion comes from
a sparse direct solve instead of CG.  Only the Laplacian assembly is shared
with the package.  The script also prints, for information, every seed-0
input on which the package's own solvers miss these values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy.sparse.linalg as sparse_linalg  # noqa: E402

import workloads  # noqa: E402
from eigsurgery import corpus, pde  # noqa: E402


def true_values(d, k: int) -> dict:
    A, _ = pde.build_laplacian(d)
    n = A.shape[0]
    runs = []
    for start in (101, 202):
        v0 = np.random.default_rng(start).standard_normal(n)
        vals = sparse_linalg.eigsh(
            A, k=min(k + 4, n - 2), sigma=0.0, which="LM", v0=v0, tol=1e-13,
            return_eigenvectors=False,
        )  # fmt: skip
        runs.append(np.sort(vals)[:k])
    if not np.allclose(runs[0], runs[1], rtol=1e-11, atol=0.0):
        raise RuntimeError(f"reference eigensolves disagree: {runs}")
    w = sparse_linalg.spsolve(A.tocsc(), np.ones(n))
    return {
        "spectrum": [float(v) for v in runs[0]],
        "torsion_max": float(w.max()),
        "torsion_integral": float(w.sum()) * d.h**d.N,
    }


def seed0_inputs():
    """(key, spec, k) for every seed-0 input."""
    for spec in corpus.surgery_corpus(workloads.H_SUITE):
        yield f"{spec.name}@{spec.h!r}", spec, 5
    for spec in workloads.InequalityCorpus(0, HERE, {}).specs:
        yield f"{spec.name}:{spec.seed}@{spec.h!r}", spec, workloads.INEQUALITY_K
    descent = workloads.Descent(0, HERE, {})
    for seed in workloads.DESCENT_POOL:
        spec = descent.spec(seed)
        yield f"{spec.generator}:{spec.seed}@{spec.h!r}", spec, 2


def main() -> int:
    items = {}
    for key, spec, k in seed0_inputs():
        d = corpus.generate(spec)
        ref = true_values(d, k)
        if key.startswith("blob_union:"):
            del ref["torsion_integral"]  # the descent report carries only the max
        items[key] = ref
        got = pde.eigenvalues(d, k=k, seed=0)
        f = pde.solve_torsion(d)
        miss = workloads.reference_failure(
            ref, d.h, spectrum=got.eigenvalues, torsion_max=f.max,
            torsion_integral=f.integral,
        )  # fmt: skip
        if miss:
            print(f"package misses {key} at seed 0: {miss}")
    out = HERE / "reference.json"
    payload = {
        "note": "seed-0 inputs, solved independently; see make_reference.py",
        "items": items,
    }
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {len(items)} references to {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
