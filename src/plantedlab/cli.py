"""Command-line interface.

Subcommands: stats, gen, sample, detect, risk, sweep, moment, ldp,
decompose, classify. Exit codes: 0 success, 2 usage or input error,
3 an exact call ran out of its work budget or memory cap.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from typing import Sequence

from .detectors import DetectorConfig, Verdict
from .errors import BudgetExceededError, PlantedLabError
from .graphs import (
    Graph,
    format_edge_list,
    make_family,
    read_edge_list,
    write_edge_list,
)
from .invariants import automorphism_count, graph_stats, vertex_cover_number
from .moments import (
    LdpConfig,
    MomentParams,
    MomentResult,
    _float,
    chi_square_bernoulli,
    intersection_distribution,
    ldp_norm_sq,
    second_moment_exact,
    second_moment_mc,
    second_moment_pair_enum,
)
from .regimes import (
    DenseConstants,
    PolyFamilyExponents,
    classify_dense,
    critical_classify,
    sparse_thresholds,
    superdense_threshold,
    vcd_decompose,
)
from .risklab import (
    DETECTORS,
    SweepRow,
    SweepSpec,
    _fmt,
    estimate_risk,
    resolve_detector,
    sweep,
    write_csv,
)
from .sampling import ModelParams, Observation, sample_null, sample_planted, stream
from .trace import metered


def main() -> None:
    sys.exit(run_command())


def run_command(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (None, 0):
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PlantedLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _stat_str(value) -> str:
    return str(value) if isinstance(value, Fraction) else _fmt(value)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid fraction: {text!r}") from exc


def _load_pattern(args) -> Graph:
    if getattr(args, "family", None):
        return make_family(args.family)
    if getattr(args, "graph", None):
        return read_edge_list(args.graph)
    raise ValueError("provide --family or --graph")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

@metered  # mu, tau and |Aut| spend from one meter
def _cmd_stats(args) -> int:
    g = _load_pattern(args)
    s = graph_stats(g)
    print(
        f"|v|={s.num_vertices} |e|={s.num_edges} d_max={s.max_degree} "
        f"mu={s.max_subgraph_density} tau={vertex_cover_number(g)} "
        f"aut={automorphism_count(g)}"
    )
    return 0


def _cmd_gen(args) -> int:
    g = make_family(args.family)
    _emit(format_edge_list(g, comment=args.family), args.out)
    return 0


def _cmd_sample(args) -> int:
    rng = stream(args.seed)
    if args.hypothesis == "null":
        if args.n is None or args.q is None:
            raise ValueError("null sampling needs --n and --q")
        obs = sample_null(args.n, args.q, rng)
        comment = f"null n={args.n} q={args.q} seed={args.seed}"
    else:
        if args.n is None or args.p is None or args.q is None:
            raise ValueError("planted sampling needs --n, --p, --q and a pattern")
        pattern = _load_pattern(args)
        params = ModelParams(n=args.n, p=args.p, q=args.q, pattern=pattern)
        obs, _ = sample_planted(params, rng)
        comment = (
            f"planted n={args.n} p={args.p} q={args.q} "
            f"family={args.family or args.graph} seed={args.seed}"
        )
    _emit(format_edge_list(obs.to_graph(), comment=comment), args.out)
    return 0


def _cmd_detect(args) -> int:
    observed = read_edge_list(args.observation)
    pattern = _load_pattern(args)
    params = ModelParams(n=observed.n, p=args.p, q=args.q, pattern=pattern)
    cfg = DetectorConfig(scan_kappa_weight=args.kappa_weight)
    _, fn = resolve_detector(args.detector)
    verdict: Verdict = fn(Observation.from_graph(observed), params, cfg)
    print(
        f"decision={verdict.decision} statistic={_stat_str(verdict.statistic)} "
        f"threshold={_stat_str(verdict.threshold)}"
    )
    return 0


def _cmd_risk(args) -> int:
    pattern = _load_pattern(args)
    params = ModelParams(n=args.n, p=args.p, q=args.q, pattern=pattern)
    cfg = DetectorConfig(scan_kappa_weight=args.kappa_weight)
    est = estimate_risk(
        args.detector, params, args.trials, args.seed, cfg, args.threads
    )
    print(
        f"type1={_fmt(est.type1)} type2={_fmt(est.type2)} risk={_fmt(est.risk)} "
        f"ci={_fmt(est.ci_halfwidth)} trials={est.trials_per_hypothesis} "
        f"seed={args.seed}"
    )
    if args.out:
        row = SweepRow(
            detector=args.detector,
            family=args.family or args.graph,
            n=args.n,
            p=args.p,
            q=args.q,
            trials=args.trials,
            seed=args.seed,
            estimate=est,
            elapsed_ms=0.0,
            error="",
        )
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_csv([row], fh)
    return 0


def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        detector=args.detector,
        # a spec's parameters hold commas too, so split only where a `kind:` starts
        families=tuple(re.split(r",(?=\s*[a-z_]+:)", args.family)),
        ns=tuple(int(x) for x in args.n.split(",")),
        ps=tuple(float(x) for x in args.p.split(",")),
        qs=tuple(float(x) for x in args.q.split(",")),
        trials=args.trials,
        seed=args.seed,
    )
    rows = sweep(spec, DetectorConfig(scan_kappa_weight=args.kappa_weight), args.threads)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_csv(rows, fh)
    else:
        write_csv(rows, sys.stdout)
    return 0


def _print_moment(res: MomentResult) -> None:
    line = f"value={_stat_str(res.value)} float={_float(res.value):.6g} method={res.method}"
    if res.std_error is not None:
        line += f" std_error={_fmt(res.std_error)}"
    print(line)


def _cmd_moment(args) -> int:
    pattern = _load_pattern(args)
    mp = MomentParams(n=args.n, lambda_sq=args.lambda_sq, pattern=pattern)
    if args.method == "exact":
        res = second_moment_exact(mp)
    elif args.method == "pairs":
        res = second_moment_pair_enum(mp)
    else:
        res = second_moment_mc(mp, args.trials, stream(args.seed))
    _print_moment(res)
    return 0


def _cmd_ldp(args) -> int:
    pattern = _load_pattern(args)
    mp = MomentParams(n=args.n, lambda_sq=args.lambda_sq, pattern=pattern)
    _print_moment(ldp_norm_sq(mp, LdpConfig(degree=args.degree)))
    return 0


def _cmd_decompose(args) -> int:
    g = _load_pattern(args)
    decomp = vcd_decompose(g, args.parts)
    d_max = g.max_degree()
    bound = 2 * g.num_edges * d_max ** (1 / args.parts)
    for i, part in enumerate(decomp.parts, start=1):
        if part.num_edges == 0:
            print(f"part={i} edges=0")
            continue
        tau = vertex_cover_number(part)
        pd = part.max_degree()
        print(
            f"part={i} edges={part.num_edges} tau={tau} d_max={pd} "
            f"tau_x_dmax={tau * pd}"
        )
    print(f"bound={_fmt(bound)}")
    if args.out:
        root, ext = os.path.splitext(args.out)
        for i, part in enumerate(decomp.parts, start=1):
            write_edge_list(part, f"{root}-{i}{ext or '.txt'}", comment=f"part {i}")
    return 0


def _cmd_classify(args) -> int:
    if args.regime == "sparse":
        if None in (args.alpha, args.epsilon, args.delta, args.zeta):
            raise ValueError(
                "sparse classification needs --alpha --epsilon --delta --zeta"
            )
        exp = PolyFamilyExponents(
            alpha=args.alpha, epsilon=args.epsilon, delta=args.delta, zeta=args.zeta
        )
        lo, hi, comp = sparse_thresholds(exp)
        print(
            f"stat_lower={_fmt(lo)} stat_upper={_fmt(hi)} comp_lower={_fmt(comp)}"
        )
        return 0
    if args.regime == "superdense":
        if args.alpha is None:
            raise ValueError("superdense classification needs --alpha")
        print(f"beta_threshold={_fmt(superdense_threshold(args.alpha))}")
        return 0

    if args.n is None:
        raise ValueError(f"{args.regime} classification needs --n")
    if args.regime == "critical" and args.alpha is None:
        raise ValueError("critical classification needs --alpha")
    pattern = _load_pattern(args)
    stats = graph_stats(pattern)
    if args.regime == "dense":
        if args.lambda_sq is not None:
            lam = float(args.lambda_sq)
        elif args.p is not None and args.q is not None:
            lam = chi_square_bernoulli(args.p, args.q)
        else:
            raise ValueError("dense classification needs --lambda-sq or --p/--q")
        constants = DenseConstants(epsilon=args.slack, p=args.p, q=args.q)
        verdict = classify_dense(stats, args.n, lam, constants)
    else:
        verdict = critical_classify(
            stats,
            args.n,
            args.alpha,
            sigma=args.sigma,
            beta_degree=args.beta,
            epsilon=args.slack,
        )
    print(
        f"verdict={verdict.verdict.value} boundary={verdict.binding_boundary} "
        f"margin={_fmt(verdict.margin)}"
    )
    return 0


def _cmd_intersections(args) -> int:
    pattern = _load_pattern(args)
    hist = intersection_distribution(pattern, args.n, args.trials, stream(args.seed))
    for count, freq in hist.probabilities().items():
        print(f"edges={count} trials={hist.counts[count]} freq={_fmt(freq)}")
    return 0


# --------------------------------------------------------------------------
# parser construction
# --------------------------------------------------------------------------

def _add_pattern_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="pattern family spec, e.g. clique:4")
    p.add_argument("--graph", help="pattern edge-list file")


def _add_detector_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--detector", required=True, choices=sorted(DETECTORS), help="detector name"
    )
    p.add_argument("--kappa-weight", type=float, default=0.5)


@functools.lru_cache(maxsize=1)  # handlers read module globals when they run
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantedlab",
        description="Planted-subgraph detection laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="invariants of a pattern graph")
    _add_pattern_flags(p)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("gen", help="emit a family graph as an edge list")
    p.add_argument("--family", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("sample", help="draw one observation")
    _add_pattern_flags(p)
    p.add_argument("--hypothesis", choices=("null", "planted"), default="planted")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("detect", help="run one detector on an observed graph")
    _add_pattern_flags(p)
    _add_detector_flags(p)
    p.add_argument("--observation", required=True, help="observed edge-list file")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("risk", help="Monte-Carlo risk of one configuration")
    _add_pattern_flags(p)
    _add_detector_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int)
    p.add_argument("--out", help="also write a one-row CSV")
    p.set_defaults(handler=_cmd_risk)

    p = sub.add_parser("sweep", help="risk over a parameter grid, CSV out")
    _add_detector_flags(p)
    p.add_argument("--family", required=True, help="comma-separated family specs")
    p.add_argument("--n", required=True, help="comma-separated values")
    p.add_argument("--p", required=True, help="comma-separated values")
    p.add_argument("--q", required=True, help="comma-separated values")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("moment", help="likelihood second moment")
    _add_pattern_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda-sq", type=_fraction, required=True, dest="lambda_sq")
    p.add_argument("--method", choices=("exact", "pairs", "mc"), default="exact")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_moment)

    p = sub.add_parser("ldp", help="low-degree polynomial norm squared")
    _add_pattern_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda-sq", type=_fraction, required=True, dest="lambda_sq")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(handler=_cmd_ldp)

    p = sub.add_parser("intersections", help="sample |e(copy1 ∩ copy2)| histogram")
    _add_pattern_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_intersections)

    p = sub.add_parser("decompose", help="vertex-cover/degree balanced split")
    _add_pattern_flags(p)
    p.add_argument("--parts", type=int, required=True)
    p.add_argument("--out", help="write parts to <out>-<i>.<ext>")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("classify", help="regime verdict from closed-form thresholds")
    _add_pattern_flags(p)
    p.add_argument(
        "--regime",
        required=True,
        choices=("dense", "sparse", "superdense", "critical"),
    )
    p.add_argument("--n", type=int)
    p.add_argument("--lambda-sq", type=_fraction, dest="lambda_sq")
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--epsilon", type=float, help="edge-count exponent (sparse)")
    p.add_argument("--delta", type=float, help="max-degree exponent (sparse)")
    p.add_argument("--zeta", type=float, help="density exponent (sparse)")
    p.add_argument("--beta", type=float, help="degree-growth exponent (critical)")
    p.add_argument("--sigma", type=float, help="q = sigma/n at alpha=1 (critical)")
    p.add_argument("--slack", type=float, default=0.1, help="epsilon margin")
    p.set_defaults(handler=_cmd_classify)

    return parser


if __name__ == "__main__":
    main()
