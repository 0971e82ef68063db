"""Structure snapshot: `reduce`'s counts on a fixed inventory of problems.

For each problem the snapshot holds (index_k, m_res, rp, constraint_counts,
class_counts, feedback_ranks) and the row counts of the stripped sets
phi_first and phi_second and of final_constraints_original_controls(); the
coisotropic strip depends on the basis it is given, so a change of basis
inside `reduce` can move those counts alone.  The inventory covers seeded
random singular problems, families 1-3 perturbed below the rank tolerance,
and tiny perturbations of family 3 at n = 2.  Perturbations at or above the
tolerance are left out: there the structure breaks down by design.

A change to `reduce` that is meant to keep the structure must leave every
entry as it is.  To write the file afresh, run this module as a script:

    PYTHONPATH=src python tests/test_structure_snapshot.py \\
        > tests/data/structure_snapshot.json
"""

import json
import sys
from pathlib import Path

import numpy as np

from lqreduce import gen_exp1, gen_exp2, gen_exp3, perturb, reduce
from conftest import random_problem

TOL = 1e-6
SNAPSHOT = Path(__file__).resolve().parent / "data" / "structure_snapshot.json"
DELTAS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7)
SEEDS = range(4)


def structure_cases():
    """Yield ``(label, problem)`` for every entry of the snapshot."""
    rng = np.random.default_rng(20261018)
    for i in range(400):
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        yield f"random/{i}", random_problem(rng, n, m, singular_r=True)
    for family, sizes in ((1, (8, 16, 24)), (2, (4, 12, 30, 50)), (3, (4, 10, 25, 40))):
        for n in sizes:
            for delta in DELTAS:
                for seed in SEEDS:
                    if family == 1:
                        exact = gen_exp1(n, 3 * n // 8, n // 4, seed=seed)
                    else:
                        exact = gen_exp2(n) if family == 2 else gen_exp3(n)
                    problem = perturb(
                        exact, delta, seed=seed, preserve_structure=(family == 3)
                    )
                    yield f"family{family}/n={n}/delta={delta:g}/seed={seed}", problem
    for seed in range(200):
        problem = perturb(gen_exp3(2), 1e-10, seed=seed, preserve_structure=True)
        yield f"family3-tiny/seed={seed}", problem


def structure(res):
    return [
        res.index_k,
        res.m_res,
        res.rp,
        list(res.constraint_counts),
        [list(c) for c in res.class_counts],
        list(res.feedback_ranks),
        res.phi_first.shape[0],
        res.phi_second.shape[0],
        res.final_constraints_original_controls().shape[0],
    ]


def snapshot():
    return {label: structure(reduce(problem, TOL)) for label, problem in structure_cases()}


def test_structure_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    got = snapshot()
    assert sorted(got) == sorted(expected)
    moved = {label: (expected[label], got[label])
             for label in got if got[label] != expected[label]}
    assert moved == {}


if __name__ == "__main__":
    entries = snapshot()
    sys.stdout.write("{\n")
    sys.stdout.write(",\n".join(
        f"{json.dumps(label)}:{json.dumps(entries[label], separators=(',', ':'))}"
        for label in entries
    ))
    sys.stdout.write("\n}\n")
