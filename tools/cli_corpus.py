"""Byte-identity corpus of gasloss CLI calls.

    python3 tools/cli_corpus.py ROOT WORKDIR

Imports gasloss from ROOT/src, writes the corpus's instance and profile
files under WORKDIR with that checkout's own generators, then runs every
call of the corpus in-process through gasloss.cli.main and prints one
line per call: the exit code, the SHA-256 of stdout and of stderr, and
the argv, with WORKDIR masked in all three.  Two checkouts behave the same
on the corpus exactly when they print the same lines, whatever their
WORKDIRs:

    python3 tools/cli_corpus.py . /tmp/corpus-new > /tmp/new.txt
    python3 tools/cli_corpus.py ../parent /tmp/corpus-old > /tmp/old.txt
    diff /tmp/old.txt /tmp/new.txt && wc -l /tmp/new.txt

The inputs: the three presets, an equal-cardinality-partition yes and no
instance, random instances from 12x5 to 60x8 and 40x16 at densities 0.25
to 1, a CSV table with an all-zero row, and a file with notes, a
non-congesting resource and an operation of empty usage.  The calls:
every analysis verb in text and --json, approx --oracle, partition and
factorize with --k 0 to 4 in both modes, --exclude-resources, hist point
and range on four instances, hist range on three boxes at the edge of
what it accepts (see write_boxes), and six gen calls.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys

import numpy as np

RANDOM = [(m, n, d, seed) for seed, (m, n) in enumerate(
    ((12, 5), (30, 8), (60, 8))) for d in (0.25, 0.5, 1.0)]
RANDOM += [(40, 16, 0.5, 1), (40, 16, 1.0, 2)]

TABLE = """op,r1,r2,r3
a,1,0,2
b,0,3,1
idle,0,0,0
c,2,2,0
capacity,4,6,5
"""

ANNOTATED = {
    "notes": ["two congesting resources and one tracked one"],
    "resources": [{"name": "cpu", "capacity": 8},
                  {"name": "disk", "capacity": 3},
                  {"name": "log", "capacity": 1, "congesting": False}],
    "operations": [{"name": "read", "usage": {"disk": 1, "log": 1}},
                   {"name": "compute", "usage": {"cpu": 3}},
                   {"name": "both", "usage": {"cpu": 2, "disk": 2}},
                   {"name": "noop", "usage": {}}],
}


def load_gasloss(root):
    src = os.path.abspath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import gasloss.cli
    import gasloss.formats
    if not os.path.abspath(gasloss.__file__).startswith(src + os.sep):
        sys.exit(f"error: gasloss was imported from outside {src}")
    return gasloss.cli, gasloss.formats


def write_inputs(formats, workdir):
    """The instance files, by name, the profile files of the hist calls
    and the files of the write_boxes calls, written under workdir."""
    def put(name, text):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    docs = {name: formats.preset_doc(name)
            for name in ("table1", "table3", "figure1")}
    docs["ecp-yes"] = formats.ecp_instance_doc([1, 3, 2, 2], 0.1)
    docs["ecp-no"] = formats.ecp_instance_doc([1, 1, 1, 5], 0.1)
    for m, n, d, seed in RANDOM:
        docs[f"random-{m}x{n}-d{d}-s{seed}"] = formats.random_instance_doc(
            m, n, d, seed)
    files = {name: put(f"{name}.json", formats.serialize_instance(doc))
             for name, doc in docs.items()}
    files["table"] = put("table.csv", TABLE)
    files["annotated"] = put("annotated.json",
                             json.dumps(ANNOTATED, indent=2) + "\n")
    profiles = {}
    for name in ("table1", "ecp-yes", "random-30x8-d0.5-s1", "table"):
        ops = [op for op, _ in formats.load_instance_doc(files[name])
               .operations]
        freq = {op: i % 3 + 1 for i, op in enumerate(ops)}
        low = {op: 0.0 for op in ops}
        high = {op: 0.75 for op in ops}
        profiles[name] = tuple(
            put(f"{name}-{kind}.json", json.dumps(profile))
            for kind, profile in (("freq", freq), ("low", low),
                                  ("high", high)))
    return files, profiles, write_boxes(formats, put, docs["ecp-yes"],
                                        files["ecp-yes"])


def write_boxes(formats, put, ecp_doc, ecp_path):
    """(instance, low, high) files of three hist range calls.  On a
    30x8 instance, with the mix that bench's hist_factor workload draws
    for its seed: that mix rounded to 12 digits (its sum is 1 + 5.2e-13)
    up to twice the mix, and the point box mix (1 -+ 5e-10).  Both sums
    are off by no more than the round-off the box check accepts.  Then
    the whole simplex on the ecp-yes instance, where every column's
    payoff ties at the optimum."""
    seed = 100000
    doc = formats.random_instance_doc(30, 8, 0.5, seed)
    path = put("near-mix.json", formats.serialize_instance(doc))
    mix = np.random.default_rng(seed).dirichlet(np.ones(30))
    k = len(ecp_doc.operations)
    boxes = []
    for tag, (inst, inst_doc), low, high in (
            ("rounded", (path, doc), [float(f"{v:.12g}") for v in mix],
             2 * mix),
            ("point", (path, doc), mix * (1 - 5e-10), mix * (1 + 5e-10)),
            ("simplex", (ecp_path, ecp_doc), np.zeros(k), np.ones(k))):
        ops = [op for op, _ in inst_doc.operations]
        boxes.append((inst,) + tuple(
            put(f"box-{tag}-{side}.json",
                json.dumps(dict(zip(ops, np.asarray(v).tolist()))))
            for side, v in (("low", low), ("high", high))))
    return boxes


def corpus(files, profiles, boxes, workdir):
    """Every argv of the corpus, in order."""
    calls = []
    for name, path in files.items():
        for verb in (["measure"], ["approx"], ["approx", "--oracle"]):
            calls.append(verb + [path])
        for k in range(5):
            for mode in ("exact", "greedy"):
                calls.append(["partition", path, "--k", str(k),
                              "--mode", mode])
            for mode in ("from-partition", "alternate"):
                calls.append(["factorize", path, "--k", str(k),
                              "--mode", mode])
    for name, excluded in (("table1", "r2"), ("ecp-yes", "res1a,res2b"),
                           ("random-12x5-d0.5-s0", "res1, res3"),
                           ("figure1", "gas,blobs"), ("table3", "nosuch")):
        calls.append(["approx", files[name], "--exclude-resources",
                      excluded])
        calls.append(["partition", files[name], "--k", "2",
                      "--exclude-resources", excluded])
    for name, (freq, low, high) in profiles.items():
        calls.append(["hist", files[name], "--freq", freq])
        calls.append(["hist", files[name], "--low", low, "--high", high])
    for path, low, high in boxes:
        calls.append(["hist", path, "--low", low, "--high", high])
    calls.append(["hist", files["table1"]])
    calls.append(["measure", os.path.join(workdir, "missing.json")])
    calls = [argv + extra for argv in calls for extra in ([], ["--json"])]
    calls += [["gen", "preset", "--preset", "table3"],
              ["gen", "preset", "--preset", "nosuch"],
              ["gen", "ecp", "--set", "1,3,2,2", "--epsilon", "0.1"],
              ["gen", "ecp", "--set", "1,1,1,5"],
              ["gen", "random", "--ops", "9", "--resources", "4",
               "--density", "0.5", "--seed", "3"],
              ["gen", "random", "--ops", "5", "--resources", "3",
               "--out", os.path.join(workdir, "gen-random.json")]]
    return calls


def run(cli, argv):
    """(exit code, stdout, stderr) of one in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse refusing the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    root, workdir = args[0], os.path.abspath(args[1])
    os.makedirs(workdir, exist_ok=True)
    cli, formats = load_gasloss(root)
    files, profiles, boxes = write_inputs(formats, workdir)

    def masked(text):
        return text.replace(workdir, "WORKDIR")

    def digest(text):
        return hashlib.sha256(masked(text).encode()).hexdigest()

    for call in corpus(files, profiles, boxes, workdir):
        code, out, err = run(cli, call)
        print(code, digest(out), digest(err),
              masked(shlex.join(call)), flush=True)


if __name__ == "__main__":
    main()
