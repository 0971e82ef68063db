"""Seeded inputs of the two benchmark workloads.

`make_inputs(workload, seed, work_dir)` builds everything a run needs from
the seed alone: the large problems the library loop reduces, small problem
files (JSON, written into `work_dir`) for the in-process and cold CLI
calls, and the argument lists of the `lqreduce experiment` sweeps.  The
same seed gives byte-identical inputs.

Why each workload exists:

* long_chain: family 3 (index n) at n = 120 takes n passes over a growing
  constraint stack, so SVDs of that stack dominate; no control is ever
  solved, so the feedback code stays idle.
* wide_few_pass: family 1 (n=160, r=80, l=40) alternating with family 2
  (n=640) takes three passes on large matrices; time goes to `step`, the
  dense symplectic products, feedback folds and one large class split.

Each workload also drives the command-line front ends on small problems
of its own families, where fixed per-call costs (validation, dataclasses,
JSON, scipy angles) dominate, so every end-to-end metric exists on both.

Each large problem is one seeded draw of its family (`ChainFamily`).  A
run screens the drawn problems before it measures (worker.py): a workload
must have no failing operation, so a draw that shows a recorded reducer
defect is replaced by the family's next draw.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from lqreduce import LQProblem, gen_exp1, gen_exp2, gen_exp3, perturb

from check import Expect, family_expect

WORKLOADS = ("long_chain", "wide_few_pass")
DELTA = 1e-10
SWEEP_SEEDS = 5  # seeds pooled per sweep group, as the slope criterion does
# large problems per family: few, so that each is timed several times in a
# run and its best time is steady
LARGE_PER_FAMILY = 2
# seeded draws per family; about one family 1 draw in five shows a recorded
# defect, so running out of draws means the defect got much more frequent
DRAWS_PER_FAMILY = 8
FAMILY1_LARGE = dict(n=160, r=80, l=40, seed=1)


@dataclass(frozen=True)
class ChainCase:
    """One large problem for `reduce`, `recursive_reduce` and the comparison."""

    family: str
    draw: int
    problem: LQProblem
    expect: Expect

    @property
    def key(self) -> str:
        return f"{self.family}-{self.draw}"


@dataclass(frozen=True)
class ChainFamily:
    """The large problems of one family: a base problem and its perturbation seeds."""

    name: str
    base: LQProblem
    expect: Expect
    preserve_structure: bool
    seeds: tuple

    def draw(self, i: int) -> ChainCase:
        problem = perturb(self.base, DELTA, seed=self.seeds[i],
                          preserve_structure=self.preserve_structure)
        return ChainCase(self.name, i, problem, self.expect)


@dataclass(frozen=True)
class FileCase:
    """One problem file for `lqreduce reduce` and `lqreduce oracle`."""

    path: str
    expect: Expect


@dataclass(frozen=True)
class SweepGroup:
    """`lqreduce experiment` argument lists for SWEEP_SEEDS seeds of one family."""

    key: str
    argvs: tuple
    expect: Expect


@dataclass(frozen=True)
class Inputs:
    chain: tuple
    families: tuple
    files: tuple
    sweeps: tuple


def _seeds(seed: int, workload: str, count: int) -> list[int]:
    tag = WORKLOADS.index(workload)
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(count)]


def _write_problem(path: str, problem, name: str) -> None:
    doc = {"name": name}
    for key in ("A", "B", "Q", "N", "R"):
        doc[key] = getattr(problem, key).tolist()
    with open(path, "w") as handle:
        json.dump(doc, handle)


def _sweep(family: int, n: int, base_seed: int, r=None, l=None) -> SweepGroup:
    argvs = []
    for s in range(base_seed, base_seed + SWEEP_SEEDS):
        argv = ["experiment", "--family", str(family), "--n", str(n), "--seed", str(s)]
        if family == 1:
            argv += ["--r", str(r), "--l", str(l)]
        argvs.append(tuple(argv))
    return SweepGroup(f"family{family}", tuple(argvs), family_expect(family, n, r, l))


def make_inputs(workload: str, seed: int, work_dir: str) -> Inputs:
    """Generate the workload's inputs from `seed`; problem files go to work_dir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(work_dir, exist_ok=True)
    seeds = iter(_seeds(seed, workload, 512))
    families, small, sweeps = [], [], []
    sweep_base = next(seeds) % 10_000

    def draws():
        return tuple(next(seeds) for _ in range(DRAWS_PER_FAMILY))

    if workload == "long_chain":
        families.append(ChainFamily("family3", gen_exp3(120), family_expect(3, 120),
                                    True, draws()))
        for i in range(50):
            n = 2 + i % 7
            prob = perturb(gen_exp3(n), DELTA, seed=next(seeds), preserve_structure=True)
            small.append((prob, family_expect(3, n)))
        sweeps.append(_sweep(3, 6, sweep_base))
    else:
        families.append(ChainFamily("family1", gen_exp1(**FAMILY1_LARGE),
                                    family_expect(1, 160, 80, 40), False, draws()))
        families.append(ChainFamily("family2", gen_exp2(640), family_expect(2, 640),
                                    False, draws()))
        for i in range(50):
            if i % 2:
                n = 2 + (i // 2) % 7
                prob, expect = gen_exp2(n), family_expect(2, n)
            else:
                n, r, l = ((4, 1, 1), (6, 2, 2), (8, 3, 2))[(i // 2) % 3]
                prob, expect = gen_exp1(n, r, l, seed=next(seeds)), family_expect(1, n, r, l)
            small.append((perturb(prob, DELTA, seed=next(seeds)), expect))
        sweeps.append(_sweep(1, 8, sweep_base, r=3, l=2))
        sweeps.append(_sweep(2, 8, sweep_base))

    files = []
    for i, (prob, expect) in enumerate(small):
        path = os.path.join(work_dir, f"problem{i:03d}.json")
        _write_problem(path, prob, f"{workload}-{i}")
        files.append(FileCase(path, expect))
    # the families take turns, so a workload's large problems alternate
    chain = [f.draw(i) for i in range(LARGE_PER_FAMILY) for f in families]
    return Inputs(tuple(chain), tuple(families), tuple(files), tuple(sweeps))

