"""The benchmark's workloads: seeded input generators, jobs and exact digests.

Each workload turns a seeded ``random.Random`` into input files in the
package's own ring-file format and runs one job on each through public
functions only, with their default arguments.  A job's outputs are hashed
(sha256 over canonical JSON, ``elapsed_ms`` removed) and compared with a
digest stored here.  The seed changes the inputs only in ways that leave
the outputs unchanged, so one digest covers every seed.

Deferred, because one job outlasts a whole run (measured on 2 cores,
CPython 3.11.7): ``fedder_module(ring, 4)`` on the GF(2) twisted cubic,
about 65 s, and the minimal free resolution of the homogenized cyclic-5
ideal over GF(32003), which did not finish in 10 minutes.
"""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import time
import traceback
from fractions import Fraction


def canonical(value):
    """A JSON-ready copy of an output: exact values as text, no elapsed_ms."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name != "elapsed_ms"
        }
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items() if k != "elapsed_ms"}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    raise TypeError(f"no exact canonical form for {type(value).__name__}")


def digest(outputs):
    text = json.dumps(canonical(outputs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# resolve-quadrics: Buchberger and normal forms (modgb), Nakayama (linalg).

QUADRIC_VARS = ("a", "b", "c", "d", "e")
QUADRIC_P = 32003


def quadrics_inputs(rng):
    """Four dense quadrics in five variables with seeded GF(32003) coefficients."""
    monos = [
        f"{u}*{v}"
        for i, u in enumerate(QUADRIC_VARS)
        for v in QUADRIC_VARS[i:]
    ]
    while True:
        gens = [
            " + ".join(f"{rng.randrange(1, QUADRIC_P)}*{m}" for m in monos)
            for _ in range(4)
        ]
        yield (
            f"field {QUADRIC_P}\n"
            f"vars {', '.join(QUADRIC_VARS)}\n"
            f"ideal I = {', '.join(quoted(g) for g in gens)}\n"
        )


def resolve_quadrics(api, path):
    ring, ideals = api.parse_input_file(path)
    module = api.quotient_module(ring, list(ideals["I"].generators))
    # A complete intersection of four quadrics: Betti table 1,4,6,4,1
    # for every seed (the coefficients are generic with overwhelming odds).
    return api.minimal_free_resolution(module).betti().rows()


# ---------------------------------------------------------------------------
# scan-oracle: the Koszul oracle (localcoh) over many small Span reductions.

SCAN_VARS = ("x", "y", "z")
SCAN_P = 101


def scan_inputs(rng):
    """(xy, yz, zx) over GF(101) with variables permuted and rescaled.

    The ideal stays the same monomial ideal, so every scan row is the same.
    """
    while True:
        names = rng.sample(SCAN_VARS, len(SCAN_VARS))
        scale = {v: rng.randrange(1, SCAN_P) for v in SCAN_VARS}
        gens = [
            f"{scale[u] * scale[v] % SCAN_P}*{u}*{v}"
            for u, v in (("x", "y"), ("y", "z"), ("z", "x"))
        ]
        yield (
            f"field {SCAN_P}\n"
            f"vars {', '.join(names)}\n"
            f"ideal I = {', '.join(quoted(g) for g in gens)}\n"
        )


def scan_oracle(api, path):
    ring, ideals = api.parse_input_file(path)
    rows, summary = api.scan_powers(ring, ideals["I"], 6, oracle=True)
    return {"rows": rows, "summary": summary}


# ---------------------------------------------------------------------------
# gauge-tc2: elimination Buchberger, wide dense Span.add, Hilbert functions.

TC_RELATIONS = ("a*c - b^2", "a*d - b*c", "b*d - c^2")

# Variable orders a job may declare (the order of the vars line), with the
# median wall time of five gauge_scan(e_max=3) jobs on 2 cores, CPython
# 3.11.7.  All 24 orders give the same outputs.  Four take 15-26 s per job
# (acbd, bdca, cabd, dbca) and ten more 3.0-3.3 s; only the ten orders
# within 2.6-2.9 s are drawn, so that a job's cost does not depend on the
# seed.
TC_ORDERS = {
    "abcd": 2.85,
    "acdb": 2.83,
    "adcb": 2.78,
    "bacd": 2.83,
    "bcad": 2.70,
    "bcda": 2.89,
    "cbad": 2.65,
    "cdab": 2.84,
    "dacb": 2.69,
    "dbac": 2.64,
}


def twisted_cubic_inputs(rng):
    """Each order once per round, in a seeded order, so that runs of the
    same length see the same mix of orders."""
    while True:
        for order in rng.sample(sorted(TC_ORDERS), len(TC_ORDERS)):
            yield (
                "field 2\n"
                f"vars {', '.join(order)}\n"
                f"relations {', '.join(quoted(r) for r in TC_RELATIONS)}\n"
            )


def gauge_tc2(api, path):
    ring, _ = api.parse_input_file(path)
    records, verdict = api.gauge_scan(ring, 3)
    # The colon ideals' generators depend on the variable order; their
    # degrees, the gauge degrees and the identity flags do not.
    rows = [
        {
            "e": r.e,
            "q": r.q,
            "fedder_degrees": r.fedder.generator_degrees,
            "mu": r.fedder.mu,
            "alphas": r.alphas,
            "max_alpha": r.max_alpha,
            "socle_begin_canonical": r.socle_begin_canonical,
            "identity": (r.identity_lhs, r.identity_rhs, r.identity_holds),
        }
        for r in records
    ]
    return {"rows": rows, "verdict": verdict}


# ---------------------------------------------------------------------------
# cli-corpus: fixed per-call cost through cli, inputfile and report.

CLI_FILES = {
    "demo.ring": (
        "field 101\n"
        "vars x, y\n"
        'ideal I = "x^2", "x*y", "y^2"\n'
        'ideal J = "x"\n'
    ),
    "tc.ring": (
        "field 2\n"
        "vars a, b, c, d\n"
        'relations "a*c - b^2", "a*d - b*c", "b*d - c^2"\n'
        'ideal P = "b", "c"\n'
    ),
    "noneq.ring": (
        "field 101\n"
        "vars x, y, z\n"
        'relations "x*y", "x*z"\n'
        'ideal I = "y"\n'
    ),
}

# All ten subcommands on the three inputs: (subcommand, input file, options).
CLI_COMMANDS = (
    ("gb", "demo.ring", "--ideal", "I"),
    ("gb", "tc.ring", "--ideal", "P", "--format", "json"),
    ("resolve", "tc.ring"),
    ("resolve", "noneq.ring", "--ideal", "I"),
    ("socle", "tc.ring", "--format", "json"),
    ("socle", "demo.ring", "--ideal", "I", "--oracle"),
    ("canonical", "tc.ring"),
    ("fedder", "tc.ring", "--e-max", "2"),
    ("gauge", "tc.ring", "--e-max", "2"),
    ("scan-powers", "demo.ring", "--ideal", "I", "--t-max", "3"),
    ("scan-powers", "demo.ring", "--ideal", "I", "--t-max", "4", "--format", "json"),
    ("scan-frobenius", "tc.ring", "--e-max", "2", "--format", "json"),
    ("criterion", "demo.ring", "--ideal", "J", "--t-max", "2"),
    ("lemma37", "demo.ring", "--ideal", "J", "--t-max", "2"),
    ("lemma37", "noneq.ring", "--ideal", "I", "--t-max", "2"),
    ("socle", "noneq.ring"),
)


def cli_argv(command, directory):
    sub, infile, *rest = command
    return [sub, f"{directory}/{infile}", *rest]


def run_cli(cli, argv):
    """One in-process ``soclelab`` call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_output(command, code, stdout, stderr):
    """The digested part of one call: no elapsed_ms, no input directory."""
    if stdout.startswith("{"):
        report = json.loads(stdout)
    else:
        report = strip_csv_column(stdout, "elapsed_ms")
    return {"command": list(command), "exit": code, "stdout": report, "stderr": stderr}


def strip_csv_column(text, column):
    lines = text.splitlines()
    if not lines or column not in lines[0].split(","):
        return lines
    k = lines[0].split(",").index(column)
    width = len(lines[0].split(","))
    out = []
    for line in lines:
        cells = line.split(",")
        if not line.startswith("#") and len(cells) == width:
            del cells[k]
            line = ",".join(cells)
        out.append(line)
    return out


def quoted(text):
    return f'"{text}"'


# ---------------------------------------------------------------------------
# Jobs.  A job returns (latencies in seconds, one correctness flag per call):
# one library call for the library workloads, one CLI call per command for
# cli-corpus.  Digests are checked outside the timed calls.


class Library:
    """One library call per job, on a freshly generated input file."""

    def __init__(self, name, inputs, run, expected):
        self.name = name
        self.inputs = inputs
        self.run = run
        self.expected = expected

    def jobs(self, api, rng, workdir):
        """Endless stream of jobs; each stays valid until the next is drawn."""
        path = workdir / "job.ring"
        for text in self.inputs(rng):
            path.write_text(text, encoding="utf-8")
            yield lambda: self._job(api, path)

    def _job(self, api, path):
        started = time.perf_counter()
        try:
            outputs = self.run(api, path)
        except Exception:
            traceback.print_exc()
            return [time.perf_counter() - started], [False]
        elapsed = time.perf_counter() - started
        return [elapsed], [digest(outputs) == self.expected]


class CliCorpus:
    """Every command of ``CLI_COMMANDS`` once per job, in a seeded order."""

    name = "cli-corpus"

    def __init__(self, expected):
        self.expected = expected

    def jobs(self, api, rng, workdir):
        for filename, text in CLI_FILES.items():
            (workdir / filename).write_text(text, encoding="utf-8")
        cli = importlib.import_module(f"{api.__name__}.cli")
        while True:
            order = rng.sample(CLI_COMMANDS, len(CLI_COMMANDS))
            yield lambda order=order: self._job(cli, order, workdir)

    def _job(self, cli, order, workdir):
        latencies, correct = [], []
        for command in order:
            argv = cli_argv(command, workdir)
            started = time.perf_counter()
            try:
                result = run_cli(cli, argv)
            except Exception:
                traceback.print_exc()
                result = None
            latencies.append(time.perf_counter() - started)
            correct.append(
                result is not None
                and digest(cli_output(command, *result)) == self.expected.get(" ".join(command))
            )
        return latencies, correct


# sha256 of each job's canonical outputs; for cli-corpus, of each command's,
# keyed by the command line without its input directory.
CLI_EXPECTED = {
    "gb demo.ring --ideal I": "0ae1e84c6a96070222b9b8de8745ea2d67519c835f7eb7e6aaf6edce2095ae33",
    "gb tc.ring --ideal P --format json": "57977598fae56c959ee8d5a47ea9f102523db36da1d4812b97c16f9b60c24402",
    "resolve tc.ring": "e06010a64cd704eb95c5a26e12090c87b20752c521a798c7d56e3f481f8015f4",
    "resolve noneq.ring --ideal I": "f0c746d6c6ed943c54cf31effa6967c4056e5ef8f7e14fa2cf18d5e325adfd3a",
    "socle tc.ring --format json": "fcf80e907498bebbdcfc9e6690b26bacbe4f826424a0c1a6547d1577b144837d",
    "socle demo.ring --ideal I --oracle": "31c976c6f2644454c1fa2159a90f55b168b1a8fa6e21225cc2dbce0244512649",
    "canonical tc.ring": "8cc3cbd37349b21161fc6478d10f444cdcef4f61071bef84afb216597c00236e",
    "fedder tc.ring --e-max 2": "33c92166587336f767d96aece53ebeefc9abe35a17e5ff7f9b31d916eae69bf7",
    "gauge tc.ring --e-max 2": "10f1cc2cb95cd83c4808536cfe4db0ffa85f4b9e80ba00c2a355a3b5459d097d",
    "scan-powers demo.ring --ideal I --t-max 3": "b785684343b6b86ab9fde3e84f91587cb89cfdc6e33703d94ae319d0c3c655fe",
    "scan-powers demo.ring --ideal I --t-max 4 --format json": "f45490135646bf1fedf3768ce4b9b788fce2c251aecf4e5043c730a0cbb69f5e",
    "scan-frobenius tc.ring --e-max 2 --format json": "c844db2d3d86ea29d0be57b3b5a31edff646d8e9b19b67d2b123994d701b6100",
    "criterion demo.ring --ideal J --t-max 2": "d683cd37b58afb2681bb40932d303b35c568708aed498163e9edef94a583ce6c",
    "lemma37 demo.ring --ideal J --t-max 2": "ecf6f733aa622da144d4b0d314e497fce40518054379c0e8a92e30dae0aae720",
    "lemma37 noneq.ring --ideal I --t-max 2": "3d74cdbedf60ef6c65751afc174e0eb6913fc0c2bb2d74191c41deddfc32da8f",
    "socle noneq.ring": "0aa37eaeefb1fee421fb5897a902a52cd5b42bdcabce5d9be5b46e6d41707d17",
}

WORKLOADS = {
    w.name: w
    for w in (
        Library(
            "resolve-quadrics", quadrics_inputs, resolve_quadrics,
            "ab4f760a98774a13e06b6312557f8ec26aed9158e1ec5324b788046f6c35e6b4",
        ),
        Library(
            "scan-oracle", scan_inputs, scan_oracle,
            "e22675118f8fbde73747b0f167a24b5e3564dbdc549984c612066c3ef9f987d8",
        ),
        Library(
            "gauge-tc2", twisted_cubic_inputs, gauge_tc2,
            "630ffdac7da79a09708ff8a96c9ed666a0ecb1959293c081cb9f8fb0c670366e",
        ),
        CliCorpus(CLI_EXPECTED),
    )
}
