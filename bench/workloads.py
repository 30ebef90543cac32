"""Seeded job lists for the three benchmark workloads.

A workload is a list of rounds; each round writes fresh instance files
from its own seeds and holds the same jobs, so every run of a workload
has the same mix of verbs and sizes.  A job is one `gasloss` CLI call
with `--json`.  Instances come from the program's generators
(`formats.random_instance_doc`, `formats.ecp_instance_doc`); the
program only ever sees the files.

- single_lp: `approx` and `measure` on random 50x10, 200x50 and 400x100
  instances, dense and at density 0.3.  One large LP per job, or none:
  dense tableau work in lpcore, parsing and validation in formats and
  model.  The sparse 400x100 `approx` jobs end in NumericalFailure at
  the time this benchmark was written; they stay in and count as failed.
  Refusals are expected only here.
- partition_search: exact `partition` with k=2 and k=3 on ECP reduction
  instances (8 and 12 resources, yes- and no-instances) and on random
  10-resource instances, and greedy search on 16-24 resources.
  Thousands of tiny LPs per job: per-call overhead in lpcore and subset
  enumeration in partition.
- hist_factor: `hist` over a box around a seeded mix, over the whole
  simplex and at the mix itself, and alternating `factorize` with k=2
  and k=3, on random 30x8 to 100x10 instances at density 0.5.  Medium
  LPs with equality rows (phase 1 runs); the only workload where hist
  and factorize do real work.
"""

import itertools
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

# Seconds one round takes on a shared 2-core x86-64 virtual machine at
# the commit that introduced the benchmark.  A run executes
# ceil(seconds / this) rounds, and at least MIN_ROUNDS: fixed work, so
# the job mix (and with it the median and the tail) is the same in every
# run and on every commit.
ROUND_SECONDS = {"single_lp": 3.4, "partition_search": 12.5,
                 "hist_factor": 4.5}
# single_lp's slowest jobs are one sparse 400x100 approx per round (it
# ends in NumericalFailure after ~2.7 s) and the dense 400x100 and sparse
# 200x50 approx jobs, whose times vary sixfold from instance to
# instance.  With 11 rounds or more the 11th-slowest job of a run is one
# of the former, so job_tail_ms is the time a refused job takes to give
# up; with fewer it is one of the latter, and resampling earlier runs'
# jobs put its spread from seed to seed at about 0.3.
MIN_ROUNDS = {"single_lp": 11}
# Workloads whose jobs may refuse (exit 3, nothing printed) at this
# commit; a refusal anywhere else makes the run incorrect.
MAY_REFUSE = {"single_lp"}

# No 100x30: its approx jobs (5-25 ms) sat at the median of a round, and
# with them job_p50_ms spread by 0.31 over seven seeds.  Without them the
# median falls between the 200x50 dense and 400x100 sparse measure jobs,
# which parse in a steady time.
SINGLE_LP_SIZES = ((50, 10), (200, 50), (400, 100))
SINGLE_LP_DENSITIES = (1.0, 0.3)
HIST_SIZES = ((30, 8), (60, 8), (100, 10))
HIST_DENSITY = 0.5
ECP_FIXED = ((1, 1, 1, 5), 0.1, 2.6)   # published no-instance and its loss


@dataclass(frozen=True)
class Job:
    job_id: int
    round: int
    verb: str
    argv: tuple            # full argument list for gasloss.cli.main
    instance: str          # instance file
    size: str              # operations x resources
    density: object        # float, or None for ECP reduction instances
    seed: int              # generator seed of this job's inputs
    check: dict = field(default_factory=dict)   # what the checker needs

    def label(self):
        extra = " ".join(os.path.basename(a) for a in self.argv[2:-1])
        density = "ecp" if self.density is None else f"d={self.density:g}"
        return (f"{self.verb} {self.size} {density} "
                f"seed={self.seed} {extra}").rstrip()


def job_seed(seed, round_, slot):
    """Distinct, readable seed per job: workload seed, round, slot."""
    return seed * 100_000 + round_ * 100 + slot


class _Writer:
    def __init__(self, formats, workdir):
        self.formats = formats
        self.workdir = workdir

    def instance(self, name, doc):
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.formats.serialize_instance(doc))
        return path

    def mapping(self, name, values):
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(values, fh)
        return path


class _Jobs(list):
    def add(self, round_, verb, path, size, density, seed, *args, **check):
        argv = (verb, path) + tuple(str(a) for a in args) + ("--json",)
        self.append(Job(-1, round_, verb, argv, path, size, density, seed,
                        check))


def _single_lp(out, w, seed, round_):
    classes = itertools.product(SINGLE_LP_SIZES, SINGLE_LP_DENSITIES)
    for slot, ((m, n), d) in enumerate(classes):
        s = job_seed(seed, round_, slot)
        path = w.instance(f"r{round_}-{slot}",
                          w.formats.random_instance_doc(m, n, d, s))
        for verb in ("approx", "measure"):
            out.add(round_, verb, path, f"{m}x{n}", d, s)


def _balanced(elements):
    """True iff half the elements sum to half the total."""
    h, total = len(elements) // 2, sum(elements)
    return any(2 * sum(c) == total
               for c in itertools.combinations(elements, h))


def ecp_elements(rng, count, balanced):
    """Integers in 1..9 with an even sum; a yes-instance (a balanced
    equal-cardinality split exists) or a no-instance, as asked."""
    while True:
        elements = [int(v) for v in rng.integers(1, 10, count)]
        if sum(elements) % 2 == 0 and _balanced(elements) == balanced:
            return elements


# (elements, yes-instance, k values) of the ECP jobs in a partition round.
ECP_JOBS = ((4, True, (2, 3)), (4, False, (2, 3)), (4, True, (2, 3)),
            (4, False, (2, 3)), (6, True, (2, 3)), (6, False, (2,)))


def _partition_search(out, w, seed, round_):
    # A round has 9 slow jobs (0.2-3 s) and 12 taking ~0.13 s (8-resource
    # ECP, 16-resource greedy), so the median falls inside the fast group.
    # In a two-round run the six 12-resource ECP searches are slowest and
    # the eight random exact searches (1023 subsets each) come next, so
    # the 11th-slowest job falls inside that class.
    for slot, (count, balanced, ks) in enumerate(ECP_JOBS):
        s = job_seed(seed, round_, slot)
        elements = ecp_elements(np.random.default_rng(s), count, balanced)
        half = sum(elements) // 2
        eps = 1.0 / (4 * half)
        path = w.instance(f"r{round_}-{slot}",
                          w.formats.ecp_instance_doc(elements, eps))
        # yes: loss is count/2 + T eps; no: at least one eps more
        value = count // 2 + half * eps
        expect = ("equal", value) if balanced else ("above", value + eps / 2)
        for k in ks:
            out.add(round_, "partition", path, f"{2 * count}x{2 * count}",
                    None, s, "--k", k, k=k, expect=expect if k == 2 else None)
    elements, eps, loss = ECP_FIXED
    path = w.instance(f"r{round_}-fixed",
                      w.formats.ecp_instance_doc(elements, eps))
    for k in (2, 3):
        out.add(round_, "partition", path, "8x8", None, 0, "--k", k, k=k,
                expect=("equal", loss) if k == 2 else None)
    for slot in (20, 21):
        s = job_seed(seed, round_, slot)
        path = w.instance(f"r{round_}-{slot}",
                          w.formats.random_instance_doc(30, 10, 1.0, s))
        for k in (2, 3):
            out.add(round_, "partition", path, "30x10", 1.0, s, "--k", k,
                    k=k)
    for slot, n, ks in ((22, 16, (2, 3)), (23, 20, (3,)), (24, 24, (2,))):
        s = job_seed(seed, round_, slot)
        path = w.instance(f"r{round_}-{slot}",
                          w.formats.random_instance_doc(40, n, 1.0, s))
        for k in ks:
            out.add(round_, "partition", path, f"40x{n}", 1.0, s,
                    "--k", k, "--mode", "greedy", k=k)


def _hist_factor(out, w, seed, round_):
    for slot, (m, n) in enumerate(HIST_SIZES):
        s = job_seed(seed, round_, slot)
        doc = w.formats.random_instance_doc(m, n, HIST_DENSITY, s)
        path = w.instance(f"r{round_}-{slot}", doc)
        names = [name for name, _ in doc.operations]
        mix = np.random.default_rng(s).dirichlet(np.ones(m))
        tag = f"r{round_}-{slot}"
        files = {
            "profile": w.mapping(tag + "-mix", dict(zip(names, mix.tolist()))),
            "low": w.mapping(tag + "-lo",
                             dict(zip(names, (0.5 * mix).tolist()))),
            "high": w.mapping(tag + "-hi", dict(
                zip(names, np.minimum(2 * mix, 1.0).tolist()))),
            "zeros": w.mapping(tag + "-zeros", dict.fromkeys(names, 0.0)),
            "ones": w.mapping(tag + "-ones", dict.fromkeys(names, 1.0)),
        }
        size = f"{m}x{n}"

        def add(verb, *args, **check):
            out.add(round_, verb, path, size, HIST_DENSITY, s, *args, **check)

        add("hist", "--low", files["low"], "--high", files["high"],
            low=files["low"], high=files["high"])
        add("hist", "--low", files["zeros"], "--high", files["ones"],
            low=files["zeros"], high=files["ones"], full=True)
        add("hist", "--freq", files["profile"], profile=files["profile"])
        for k in (2, 3):
            add("factorize", "--k", k, "--mode", "alternate", k=k)


_BUILDERS = {"single_lp": _single_lp, "partition_search": _partition_search,
             "hist_factor": _hist_factor}
WORKLOADS = tuple(_BUILDERS)


def rounds_for(workload, seconds):
    return max(MIN_ROUNDS.get(workload, 1),
               math.ceil(seconds / ROUND_SECONDS[workload]))


def build(workload, formats, seed, rounds, workdir):
    """Write every input file of the run under workdir; return the jobs.

    Each round's jobs run in a seeded random order: the machine's speed
    drifts over seconds, and a class whose jobs ran back to back would
    sample only one stretch of it.
    """
    jobs = []
    writer = _Writer(formats, workdir)
    for round_ in range(rounds):
        batch = _Jobs()
        _BUILDERS[workload](batch, writer, seed, round_)
        order = np.random.default_rng(job_seed(seed, round_, 99)).permutation(
            len(batch))
        jobs += [replace(batch[i], job_id=len(jobs) + n)
                 for n, i in enumerate(order)]
    return jobs


def warmup_argvs(formats, workdir):
    """One small call per verb, run untimed before the first timed job."""
    w = _Writer(formats, workdir)
    path = w.instance("warm", formats.random_instance_doc(12, 5, 0.5, 1))
    names = [f"op{i + 1}" for i in range(12)]
    ones = w.mapping("warm-ones", dict.fromkeys(names, 1.0))
    zeros = w.mapping("warm-zeros", dict.fromkeys(names, 0.0))
    return [[verb, path, *args, "--json"] for verb, *args in (
        ("measure",), ("approx",), ("partition", "--k", "2"),
        ("partition", "--k", "2", "--mode", "greedy"),
        ("factorize", "--k", "2", "--mode", "alternate"),
        ("hist", "--freq", ones), ("hist", "--low", zeros, "--high", ones))]
