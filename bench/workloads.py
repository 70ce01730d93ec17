"""The four benchmark workloads: fixed job lists and their correctness checks.

A workload's ``build(seed)`` makes every input from the seed and returns a
state whose ``jobs`` are the fixed job list of one pass. A run repeats the
same pass; each job is timed on its own, next to a reference kernel, and
every output is checked against the first pass and the golden outputs.
``checks(state, golden)`` adds the identities that hold for any seed, once
per run.

Importing this module imports ``plantedlab``, so the setup probe times it.
"""

from __future__ import annotations

import contextlib
import io
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import plantedlab as pl
from plantedlab import cli

SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Job:
    key: str  # names the job's inputs; golden outputs are keyed by it
    items: int  # trials, oracle calls or observations the job completes
    run: Callable  # run(tracer or None) -> output, compared with ==
    inputs: tuple = ()  # what the job covers, where a check needs it


def traced_call(tracer, name: str, fn, *args, label: str = ""):
    if tracer is None:
        return fn(*args)
    return tracer.call(name, fn, *args, label=label)


class Workload:
    name = ""
    items_are = ""  # what Job.items counts
    reference_kernel = "python"  # the run.Reference kernel whose speed tracks this workload's

    def build(self, seed: int) -> dict:
        raise NotImplementedError

    def warmup(self, state: dict) -> None:
        raise NotImplementedError

    def run_pass(self, state: dict, tracer=None, reference=None):
        """(outputs, seconds, refs) of every job, in job-list order.

        With a `reference` callable, refs[k] is its time just before job k
        and refs[-1] its time after the last job; otherwise refs is empty.
        """
        outputs, seconds, refs = [], [], []
        for job in state["jobs"]:
            if reference is not None:
                refs.append(reference())
            start = time.perf_counter()
            outputs.append(job.run(tracer))
            seconds.append(time.perf_counter() - start)
        if reference is not None:
            refs.append(reference())
        return outputs, seconds, refs

    def check_pass(self, state: dict, outputs: list, golden) -> list[str]:
        """One message per job whose output differs from pass 0 or golden."""
        first = state.setdefault("first_outputs", outputs)
        failures = []
        for job, out, ref in zip(state["jobs"], outputs, first):
            if out != ref:
                failures.append(f"{job.key}: output differs from the run's first pass")
            elif golden is not None:
                failures += self.check_output(state, job, out, golden)
        return failures

    def check_output(self, state: dict, job: Job, out, golden) -> list[str]:
        want = golden.get(self.name, {}).get(job.key)
        if want is not None and out != want:
            return [f"{job.key}: {out!r} != golden {want!r}"]
        return []

    def checks(self, state: dict, golden) -> tuple[int, list[str]]:
        return 0, []


# ---------------------------------------------------------------------------
# Monte Carlo risk through the CLI: mc-dense and mc-scan
# ---------------------------------------------------------------------------

# (detector, family, n, p, q, kappa weight); one risk command per job, each
# job with its own trial seed.
MC_JOBS = {
    # A3 and A4 settings, single-threaded.
    "mc-dense": (
        ("count", "clique:200", 1000, "0.8", "0.2", None),
        ("degree", "star:300", 2000, "0.9", "0.2", None),
    ),
    # A5 setting: scan with kappa weight 0.1.
    "mc-scan": (("scan", "clique:5", 40, "1", "0.05", "0.1"),),
}
# (commands per setting, trials per command) of one pass.
MC_SHAPE = {"mc-dense": (4, 2), "mc-scan": (24, 1)}
THREADS_CHECK_TRIALS = 2
WARMUP_SEED = 0

_RISK_LINE = re.compile(
    r"type1=(\S+) type2=(\S+) risk=(\S+) ci=(\S+) trials=(\d+) seed=(\d+)$"
)


def risk_argv(setting, trials: int, seed: int, threads: int | None = None) -> list[str]:
    detector, family, n, p, q, kappa = setting
    argv = [
        "risk", "--detector", detector, "--family", family, "--n", str(n),
        "--p", p, "--q", q, "--trials", str(trials), "--seed", str(seed),
    ]
    if kappa is not None:
        argv += ["--kappa-weight", kappa]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return argv


def run_risk(argv: list[str], tracer=None) -> str:
    """The stdout of `plantedlab <argv>`, run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = traced_call(tracer, "cli.run_command", cli.run_command, argv)
    if rc != 0:
        raise RuntimeError(f"plantedlab {' '.join(argv)} exited {rc}")
    return buf.getvalue().strip()


def _valid_risk_line(line: str, trials: int, seed: int) -> bool:
    m = _RISK_LINE.match(line)
    if m is None or int(m.group(5)) != trials or int(m.group(6)) != seed:
        return False
    type1, type2, risk = (float(m.group(k)) for k in (1, 2, 3))
    return 0 <= type1 <= 1 and 0 <= type2 <= 1 and abs(risk - type1 - type2) < 1e-5


class MonteCarlo(Workload):
    items_are = "paired H0+H1 trials"

    def __init__(self, name: str, reference_kernel: str = "python"):
        self.name = name
        self.reference_kernel = reference_kernel

    def build(self, seed: int) -> dict:
        commands, trials = MC_SHAPE[self.name]
        jobs = []
        for setting in MC_JOBS[self.name]:
            detector, family, n = setting[:3]
            for j in range(commands):
                risk_seed = seed * SEED_STRIDE + j
                argv = risk_argv(setting, trials, risk_seed)
                jobs.append(Job(
                    key=f"{detector} {family} n={n} seed={risk_seed}",
                    items=trials,
                    run=lambda tracer, argv=argv: run_risk(argv, tracer),
                    inputs=tuple(argv),
                ))
        return {"seed": seed, "jobs": jobs, "trials": trials}

    def warmup(self, state: dict) -> None:
        # A fixed trial seed: the scan's cost depends on where the copy is
        # planted, and setup_s should not vary with --seed.
        for setting in MC_JOBS[self.name]:
            run_risk(risk_argv(setting, 1, WARMUP_SEED))

    def check_output(self, state, job, line, golden) -> list[str]:
        seed = int(job.key.rsplit("=", 1)[1])
        if not _valid_risk_line(line, state["trials"], seed):
            return [f"{job.key}: malformed risk line {line!r}"]
        return super().check_output(state, job, line, golden)

    def checks(self, state: dict, golden):
        """--threads 2 must give the same risk line as one thread."""
        failures = []
        for setting in MC_JOBS[self.name]:
            seed = state["seed"] * SEED_STRIDE
            one = run_risk(risk_argv(setting, THREADS_CHECK_TRIALS, seed))
            two = run_risk(risk_argv(setting, THREADS_CHECK_TRIALS, seed, threads=2))
            if one != two:
                failures.append(f"{setting[0]}: --threads 2 gave {two!r}, one thread {one!r}")
        return len(MC_JOBS[self.name]), failures


# ---------------------------------------------------------------------------
# Exact oracles: second moments, low-degree norms, pair enumeration, mu
# ---------------------------------------------------------------------------

LAMBDA_SQ = Fraction(1, 2)
LDP_DEGREE = 3
MOMENT_CASES = (("clique:5", 20), ("clique:6", 20), ("star:8", 20), ("path:6", 20), ("matching:4", 16))
PAIR_CASES = (("clique:3", 8), ("star:3", 8), ("path:3", 8))
HOSTS = ((200, 0.1), (300, 0.05))
# Host for the "mu is attained by densest_vertex_set" check; on the workload
# hosts that call runs one max-flow per vertex, several seconds each.
CHECK_HOST = (60, 0.2)


def random_host(seed: int, n: int, p: float) -> pl.Graph:
    """G(n, p) drawn from (seed, n): one uniform per pair, row-major."""
    rng = np.random.default_rng([seed, n])
    rows, cols = np.triu_indices(n, 1)
    keep = rng.random(rows.size) < p
    return pl.Graph(n, list(zip(rows[keep].tolist(), cols[keep].tolist())))


def _oracle_job(key: str, span: str, label: str, fn, *args) -> Job:
    def run(tracer):
        result = traced_call(tracer, span, fn, *args, label=label)
        return str(result if isinstance(result, Fraction) else result.value)

    return Job(key=key, items=1, run=run)


class ExactOracles(Workload):
    name = "exact-oracles"
    items_are = "oracle calls"

    def build(self, seed: int) -> dict:
        jobs = []
        for spec, n in MOMENT_CASES:
            mp = pl.MomentParams(n, LAMBDA_SQ, pl.make_family(spec))
            label = f"{spec} n={n}"
            jobs.append(_oracle_job(f"sme {label}", "moments.second_moment_exact", label,
                                    pl.second_moment_exact, mp))
            jobs.append(_oracle_job(f"ldp{LDP_DEGREE} {label}", "moments.ldp_norm_sq", label,
                                    pl.ldp_norm_sq, mp, pl.LdpConfig(LDP_DEGREE)))
        for spec, n in PAIR_CASES:
            mp = pl.MomentParams(n, LAMBDA_SQ, pl.make_family(spec))
            label = f"{spec} n={n}"
            jobs.append(_oracle_job(f"pair {label}", "moments.second_moment_pair_enum", label,
                                    pl.second_moment_pair_enum, mp))
        for n, p in HOSTS:
            label = f"G({n},{p})"
            jobs.append(_oracle_job(f"mu {label} seed={seed}", "invariants.max_subgraph_density",
                                    label, pl.max_subgraph_density, random_host(seed, n, p)))
        return {"seed": seed, "jobs": jobs}

    def warmup(self, state: dict) -> None:
        pl.second_moment_pair_enum(pl.MomentParams(8, LAMBDA_SQ, pl.make_family("clique:3")))

    def checks(self, state: dict, golden):
        """Identities between the exact paths, and mu attained."""
        failures = []
        computed = dict(zip((job.key for job in state["jobs"]), state["first_outputs"]))
        for spec, n in MOMENT_CASES + PAIR_CASES:
            mp = pl.MomentParams(n, LAMBDA_SQ, pl.make_family(spec))
            exact = computed.get(f"sme {spec} n={n}") or str(pl.second_moment_exact(mp).value)
            full = str(pl.ldp_norm_sq(mp, pl.LdpConfig(mp.pattern.num_edges)).value)
            pairs = computed.get(f"pair {spec} n={n}", exact)
            if not exact == full == pairs:
                failures.append(f"{spec} n={n}: second_moment_exact {exact}, ldp at D=|e| "
                                f"{full}, pair enumeration {pairs} differ")
        host = random_host(state["seed"], *CHECK_HOST)
        mu = pl.max_subgraph_density(host)
        vs = pl.densest_vertex_set(host)
        if Fraction(host.induced_subgraph(vs).num_edges, len(vs)) != mu:
            failures.append(f"G{CHECK_HOST}: densest_vertex_set does not attain mu {mu}")
        return len(MOMENT_CASES) + len(PAIR_CASES) + 1, failures


# ---------------------------------------------------------------------------
# Exhaustive n = 6: labelled graphs through Observation and four detectors
# ---------------------------------------------------------------------------

N6 = 6
N6_PAIRS = N6 * (N6 - 1) // 2
N6_GRAPHS = 1 << N6_PAIRS
N6_PASS = 4096  # graphs per pass, a seed-chosen eighth of all 2^15
N6_JOB = 256
DETECTOR_ORDER = ("lrt", "count", "degree", "scan")


def all_adjacencies() -> np.ndarray:
    """(2^15, 6, 6) boolean matrices; bit i of the index is pair i in
    row-major upper-triangle order."""
    rows, cols = np.triu_indices(N6, 1)
    bits = (np.arange(N6_GRAPHS)[:, None] >> np.arange(N6_PAIRS)) & 1
    a = np.zeros((N6_GRAPHS, N6, N6), dtype=bool)
    a[:, rows, cols] = bits
    a[:, cols, rows] = bits
    return a


def decode_vector(hex_text: str) -> np.ndarray:
    return np.unpackbits(np.frombuffer(bytes.fromhex(hex_text), dtype=np.uint8))[:N6_GRAPHS]


def encode_vector(bits: np.ndarray) -> str:
    return np.packbits(bits.astype(np.uint8)).tobytes().hex()


def decide(matrices: list, params, tracer=None) -> tuple:
    """(lrt, count, degree, scan) decisions for each adjacency matrix."""
    fns = (pl.likelihood_ratio_test, pl.count_test, pl.degree_test, pl.scan_test)
    make = pl.Observation
    if tracer is None:
        lrt, count, degree, scan = fns
        return tuple(
            (lrt(obs, params).decision, count(obs, params).decision,
             degree(obs, params).decision, scan(obs, params).decision)
            for obs in map(make, matrices)
        )
    names = tuple(f"detectors.{d}" for d in DETECTOR_ORDER)
    label = f"k{params.pattern.n} n{N6}"
    out = []
    for a in matrices:
        obs = tracer.call("sampling.observation", make, a)
        out.append(tuple(
            tracer.call(name, fn, obs, params, label=label).decision
            for name, fn in zip(names, fns)
        ))
    return tuple(out)


class Exhaustive(Workload):
    name = "exhaustive-n6"
    items_are = "graphs decided by all four detectors"

    def build(self, seed: int) -> dict:
        params = pl.ModelParams(n=N6, p=0.9, q=0.3, pattern=pl.make_family("clique:3"))
        graphs = np.random.default_rng([seed, N6]).permutation(N6_GRAPHS)[:N6_PASS]
        adjacency = all_adjacencies()
        jobs = []
        for lo in range(0, N6_PASS, N6_JOB):
            ids = graphs[lo : lo + N6_JOB].tolist()
            matrices = list(adjacency[ids])
            jobs.append(Job(
                key=f"graphs {lo}..{lo + N6_JOB - 1}",
                items=len(ids),
                run=lambda tracer, m=matrices: decide(m, params, tracer),
                inputs=tuple(ids),
            ))
        return {"seed": seed, "params": params, "jobs": jobs, "graphs": graphs}

    def warmup(self, state: dict) -> None:
        decide(list(all_adjacencies()[:1]), state["params"])

    def check_output(self, state, job, decisions, golden) -> list[str]:
        vectors = state.get("golden_vectors")
        if vectors is None:
            vectors = np.stack(
                [decode_vector(golden[self.name][d]) for d in DETECTOR_ORDER], axis=1
            )
            state["golden_vectors"] = vectors
        ids = list(job.inputs)
        want = vectors[ids]
        bad = np.nonzero((np.array(decisions, dtype=np.uint8) != want).any(axis=1))[0]
        if len(bad) == 0:
            return []
        j = bad[0]
        return [f"{job.key}: {len(bad)} graphs differ from golden, first graph {ids[j]}: "
                f"{decisions[j]} != {tuple(want[j].tolist())}"]


WORKLOADS = {
    "mc-dense": MonteCarlo("mc-dense"),
    # The scan's time follows array speed (3.8% spread between runs against
    # 9.3% with the interpreter kernel); the others follow interpreter speed.
    "mc-scan": MonteCarlo("mc-scan", reference_kernel="numpy"),
    "exact-oracles": ExactOracles(),
    "exhaustive-n6": Exhaustive(),
}
