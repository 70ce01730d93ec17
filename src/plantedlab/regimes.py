"""The vertex-cover/degree balanced decomposition and closed-form regime
classifiers (dense, sparse, superdense, critical).

Classifiers evaluate asymptotic theorem templates at one finite instance, so
the unspecified universal constants and epsilon margins are explicit
configuration; whenever the instance falls in a constant-dependent slack
region the verdict is Indeterminate rather than a guess.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

from .errors import (
    AlphaOutOfRangeError,
    EmptyGraphError,
    MissingSigmaError,
    TooFewEdgesError,
)
from .graphs import Graph
from .invariants import GraphStats, vertex_cover_number
from .moments import _check_bernoulli
from .trace import metered, spend


class Regime(Enum):
    IMPOSSIBLE = "impossible"
    HARD = "hard"
    EASY = "easy"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RegimeVerdict:
    """A classifier outcome: the regime, which boundary decided it, and the
    slack in that binding comparison (positive means safely inside)."""

    verdict: Regime
    binding_boundary: str
    margin: float


@dataclass(frozen=True)
class Decomposition:
    """Edge-disjoint parts covering the original edge set; parts keep the
    host vertex labels and may be empty. M is the number of parts."""

    parts: tuple[Graph, ...]

    @property
    def M(self) -> int:
        return len(self.parts)

    def __post_init__(self):
        seen: set[tuple[int, int]] = set()
        for part in self.parts:
            for edge in part.edges:
                if edge in seen:
                    raise ValueError(f"parts share the edge {edge}")
                seen.add(edge)


@metered
def vcd_decompose(g: Graph, num_parts: int) -> Decomposition:
    """Split the edges into num_parts subgraphs with balanced tau * d_max.

    One pass: a vertex of degree d >= 1 joins the first part i (1-based) with
    d^M >= d_max^(M-i), found once per distinct degree in exact integers, and
    each edge joins its endpoints' earlier part, so every part satisfies
    tau(part) * d_max(part) <= 2 |e(g)| * d_max(g)^(1/M). Parts, edges and
    powers (by bit length) are charged first; the edgeless parts share one graph.
    """
    if g.num_edges == 0:
        raise EmptyGraphError("decomposition needs at least one edge")
    if num_parts < 1:
        raise ValueError(f"need at least one part, got {num_parts}")
    m = num_parts
    # ~100 ns a unit: an edge takes ~4 us with its degree read; 45 units a part overprice
    # the < 1 us an edgeless part (the shared graph) costs `decompose` with its output line
    spend("decomposition", 45 * m + 40 * g.num_edges)
    degrees = g.degrees()
    d_max = max(degrees)
    part_of = {d_max: 0}  # degree d -> 0-based part M-1-k, k the largest < M with d_max^k <= d^M
    for d in set(degrees) - {0, d_max}:
        # the two or three powers of d^M's size take up to ~480 ns a bit at 10^7 bits
        spend("decomposition", 5 * (int(m * math.log2(d)) + 1))
        top, k = d**m, min(m - 1, int(m * math.log(d) / math.log(d_max)))
        while k < m - 1 and d_max ** (k + 1) <= top:
            k += 1
        while d_max**k > top:  # guards the float estimate should it overshoot
            k -= 1
        part_of[d] = m - 1 - k
    held: dict[int, list[tuple[int, int]]] = {}  # 0-based part -> its edges
    for u, v in g.edges:
        held.setdefault(min(part_of[degrees[u]], part_of[degrees[v]]), []).append((u, v))
    empty = Graph(g.n, ())  # graphs are immutable, so sharing one is safe
    return Decomposition(tuple(Graph(g.n, held[i]) if i in held else empty for i in range(m)))


@metered
def vcd_balance_ratio(g: Graph) -> float:
    """log(tau * d_max) / log|e|; tends to 1 exactly for balanced families."""
    tau = vertex_cover_number(g)
    return balance_ratio_from_counts(tau, g.max_degree(), g.num_edges)


def balance_ratio_from_counts(
    cover_number: int, max_degree: int, num_edges: int
) -> float:
    """The balance ratio from precomputed invariants (no graph needed)."""
    if num_edges < 2:
        raise TooFewEdgesError(
            f"balance ratio needs at least 2 edges, got {num_edges}"
        )
    return math.log(cover_number * max_degree) / math.log(num_edges)


# ---------------------------------------------------------------------------
# Dense regime: chi^2(p||q) = Theta(1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DenseConstants:
    """Configuration for the dense-regime verdict.

    epsilon, in [0, 1), is the polynomial slack in the n^(1 +/- eps) comparisons.
    c_lower / c_upper override the density constants; defaults are
    (1-eps) * alpha / (2 + alpha log(1+lambda^2)) with alpha = mu/log|v|,
    and (1+eps)/KL(p||q). The scan boundary needs (p, q); without them it
    is skipped and large-density instances come back Indeterminate.
    Instances with mu/log|v| at least 1/2 take the super-logarithmic
    density branch.
    """

    epsilon: float = 0.1
    p: float | None = None
    q: float | None = None
    c_lower: float | None = None
    c_upper: float | None = None

    def __post_init__(self):
        if not 0 <= self.epsilon < 1:
            raise ValueError(f"epsilon must lie in [0,1), got {self.epsilon}")


_SUPERLOG_ALPHA = 0.5  # mu/log|v| from which classify_dense takes the super-log branch


def classify_dense(
    stats: GraphStats,
    n: int,
    lambda_sq: float,
    constants: DenseConstants | None = None,
) -> RegimeVerdict:
    """Easy / Hard / Impossible verdict for constant signal strength.

    Easy when any of the three tests provably works (scan when density beats
    C_upper log n, count or degree when |e| or d_max^2 beats n^(1+eps)).
    Impossible below the density constant (super-log branch) or below
    n^(1-eps) in |e| and d_max^2 (sub-log branch). Hard in the super-log
    window where only the scan test can work.
    """
    c = constants or DenseConstants()
    if stats.num_edges < 1:
        raise EmptyGraphError("classification needs at least one edge")
    if n <= stats.num_vertices:
        raise ValueError(f"need n > |v|, got n={n}, |v|={stats.num_vertices}")
    if not lambda_sq >= 0:
        raise ValueError(f"lambda_sq must be >= 0, got {lambda_sq}")
    mu = float(stats.max_subgraph_density)
    log_n = math.log(n)
    alpha = mu / math.log(stats.num_vertices) if stats.num_vertices > 1 else math.inf
    exp_e = math.log(stats.num_edges) / log_n
    exp_d2 = 2 * math.log(max(stats.max_degree, 1)) / log_n
    exp_ed = max(exp_e, exp_d2)

    if c.c_upper is not None:
        c_upper = c.c_upper
    elif c.p is not None and c.q is not None:
        c_upper = _ratio(1 + c.epsilon, _kl_bernoulli(c.p, c.q))
    else:
        c_upper = None
    if c_upper is not None and mu >= c_upper * log_n:
        return RegimeVerdict(Regime.EASY, "scan", mu / (c_upper * log_n) - 1)
    if exp_e >= 1 + c.epsilon:
        return RegimeVerdict(Regime.EASY, "count", exp_e - (1 + c.epsilon))
    if exp_d2 >= 1 + c.epsilon:
        return RegimeVerdict(Regime.EASY, "degree", exp_d2 - (1 + c.epsilon))

    if alpha >= _SUPERLOG_ALPHA:
        c_lower = c.c_lower
        if c_lower is None:
            c_lower = (1 - c.epsilon) * alpha / (2 + alpha * math.log1p(lambda_sq))
        if mu <= c_lower * log_n:
            return RegimeVerdict(
                Regime.IMPOSSIBLE, "density", 1 - mu / (c_lower * log_n)
            )
        if exp_ed <= 1 - c.epsilon:
            return RegimeVerdict(Regime.HARD, "edge-degree", (1 - c.epsilon) - exp_ed)
        return RegimeVerdict(
            Regime.INDETERMINATE, "edge-degree-window", exp_ed - (1 - c.epsilon)
        )
    if exp_ed <= 1 - c.epsilon:
        return RegimeVerdict(
            Regime.IMPOSSIBLE, "edge-degree", (1 - c.epsilon) - exp_ed
        )
    return RegimeVerdict(
        Regime.INDETERMINATE, "edge-degree-window", exp_ed - (1 - c.epsilon)
    )


def _kl_bernoulli(p: float, q: float) -> float:
    _check_bernoulli(p, q)
    out = 0.0
    if p > 0:
        out += p * math.log(p / q)
    if p < 1:
        out += (1 - p) * math.log((1 - p) / (1 - q))
    return out


# ---------------------------------------------------------------------------
# Sparse regime: chi^2(p||q) = Theta(n^-alpha)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyFamilyExponents:
    """Polynomial growth exponents of a planted family: lambda^2 decays as
    n^-alpha while |e|, d_max, mu grow as |v|^epsilon, |v|^delta, |v|^zeta.
    The thresholds depend on these alone; beta = log|v|/log n is what a
    caller compares against them."""

    alpha: float
    epsilon: float
    delta: float
    zeta: float

    def __post_init__(self):
        if not 0 <= self.alpha <= 2:
            raise ValueError(f"alpha must lie in [0,2], got {self.alpha}")
        for name in ("epsilon", "delta", "zeta"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got nan")
        if not self.zeta <= self.delta <= 1 <= self.epsilon <= 2:
            warnings.warn(
                "exponents violate zeta <= delta <= 1 <= epsilon <= 2; "
                "no graph family realizes them",
                stacklevel=2,
            )


def sparse_thresholds(exp: PolyFamilyExponents) -> tuple[float, float, float]:
    """(stat_lower, stat_upper, comp_lower) thresholds for beta = log|v|/log n.

    Weak detection is impossible below stat_lower, strong detection possible
    above stat_upper, and polynomial-time detection conjecturally impossible
    below comp_lower. A zero denominator means the term never binds (treated
    as +infinity).
    """
    a, e, d, z = exp.alpha, exp.epsilon, exp.delta, exp.zeta
    stat_lower = min(_ratio(a, z), _ratio(1 + a, 2 * d + z), _ratio(2 + a, 2 * e))
    stat_upper = min(_ratio(a, z), _ratio(1 + a, 2 * d), _ratio(2 + a, 2 * e))
    comp_lower = min(_ratio(1 + a, 2 * d), _ratio(2 + a, 2 * e))
    return stat_lower, stat_upper, comp_lower


def _ratio(num: float, den: float) -> float:
    return math.inf if den == 0 else num / den


def _power(base: float, exp: float) -> float:
    """base ** exp, read as inf past the float range."""
    try:
        return base**exp
    except OverflowError:
        return math.inf


def superdense_threshold(alpha: float) -> float:
    """beta threshold min(alpha, alpha/4 + 1/2) for super-dense families."""
    if not 0 < alpha <= 2:
        raise ValueError(f"alpha must lie in (0,2], got {alpha}")
    return min(alpha, alpha / 4 + 0.5)


# ---------------------------------------------------------------------------
# Critical regime: p = 1-o(1), q = Theta(n^-alpha)
# ---------------------------------------------------------------------------

def g_mu(alpha: float, mu: float) -> float:
    """Impossibility exponent for near-unit-density families: weak detection
    fails when |v(Gamma)| grows slower than n^g_mu(alpha).

    Piecewise 1 - alpha/2 for alpha <= 1 and (1 - mu*alpha)/(2(1-mu)) for
    1 <= alpha < 1/mu; the branches agree at alpha = 1 and the value decays
    to 0 exactly where the scan test makes detection trivial.
    """
    if not 0 < mu < 1:
        raise ValueError(f"mu must lie in (0,1), got {mu}")
    if not 0 <= alpha < 1 / mu:
        raise AlphaOutOfRangeError(
            f"alpha must lie in [0, 1/mu) = [0, {1 / mu:.6g}), got {alpha}"
        )
    if alpha <= 1:
        return 1 - alpha / 2
    return (1 - mu * alpha) / (2 * (1 - mu))


def critical_classify(
    stats: GraphStats,
    n: int,
    alpha: float,
    sigma: float | None = None,
    beta_degree: float | None = None,
    epsilon: float = 0.1,
) -> RegimeVerdict:
    """Verdict for p near 1 and q of order n^-alpha.

    Dispatch follows the density mu of the pattern: alpha*mu > 1 makes
    detection trivially easy (scan); mu >= 1 uses the bounded-density
    thresholds n^(1-alpha*mu); mu < 1 with alpha < 1 compares |e| and d_max
    to n^(1-alpha/2) and n^((1-alpha)/2); alpha = 1 requires sigma (q =
    sigma/n) and splits into the polynomial-degree and bounded-degree cases
    with sigma_bar = 2e*d^2 and sigma_underbar = 1. beta_degree overrides
    the measured degree-growth exponent where one is needed; like sigma, it
    must be > 0 wherever it is given.
    """
    if not 0 < alpha < 2:
        raise AlphaOutOfRangeError(f"alpha must lie in (0,2), got {alpha}")
    if sigma is not None and not sigma > 0:
        raise ValueError(f"sigma must be > 0, so that q = sigma/n > 0, got {sigma}")
    if beta_degree is not None and not beta_degree > 0:
        raise ValueError(f"beta_degree must be > 0, got {beta_degree}")
    if not 0 <= epsilon < 1:
        raise ValueError(f"epsilon must lie in [0,1), got {epsilon}")
    if stats.num_edges < 1:
        raise EmptyGraphError("classification needs at least one edge")
    if n < 2:
        raise ValueError(f"need n >= 2 so that log n > 0, got n={n}")
    mu = float(stats.max_subgraph_density)
    e = stats.num_edges
    d = stats.max_degree
    v = stats.num_vertices
    log_n = math.log(n)

    if alpha * mu > 1:
        return RegimeVerdict(Regime.EASY, "trivial-scan", alpha * mu - 1)

    if mu >= 1:
        bound = 1 - alpha * mu
        exp_ed = math.log(max(e, d * d)) / log_n
        if exp_ed <= bound - epsilon:
            return RegimeVerdict(
                Regime.IMPOSSIBLE, "bounded-density", (bound - epsilon) - exp_ed
            )
        slack = 17 * log_n  # default o(1) exponent slack, as n^f(n)
        if e >= n ** (1 + alpha / 2) * slack:
            return RegimeVerdict(
                Regime.EASY, "count", math.log(e) / log_n - (1 + alpha / 2)
            )
        if d * d >= n ** ((1 + alpha) / 2) * slack:
            return RegimeVerdict(
                Regime.EASY,
                "degree",
                2 * math.log(d) / log_n - (1 + alpha) / 2,
            )
        return RegimeVerdict(
            Regime.INDETERMINATE, "bounded-density-window", exp_ed - bound
        )

    if alpha < 1:
        exp_e = math.log(e) / log_n
        exp_d = math.log(max(d, 1)) / log_n
        if exp_e >= 1 - alpha / 2 + epsilon:
            return RegimeVerdict(Regime.EASY, "count", exp_e - (1 - alpha / 2))
        if exp_d >= (1 - alpha) / 2 + epsilon:
            return RegimeVerdict(Regime.EASY, "degree", exp_d - (1 - alpha) / 2)
        if exp_e <= 1 - alpha / 2 - epsilon and exp_d <= (1 - alpha) / 2 - epsilon:
            return RegimeVerdict(
                Regime.IMPOSSIBLE,
                "count-degree",
                min(1 - alpha / 2 - epsilon - exp_e, (1 - alpha) / 2 - epsilon - exp_d),
            )
        return RegimeVerdict(
            Regime.INDETERMINATE,
            "count-degree-window",
            max(exp_e - (1 - alpha / 2), exp_d - (1 - alpha) / 2),
        )

    if alpha == 1:
        if sigma is None:
            raise MissingSigmaError("alpha = 1 needs sigma with q = sigma/n")
        exp_e = math.log(e) / log_n
        if exp_e >= 0.5 + epsilon:
            return RegimeVerdict(Regime.EASY, "count", exp_e - 0.5)
        if d >= (16 + epsilon) * log_n:
            return RegimeVerdict(Regime.EASY, "degree", d / (16 * log_n) - 1)
        scan_beta = beta_degree
        if scan_beta is None and mu < 1 and v > 1:
            scan_beta = min(1.0, -math.log(1 - mu) / math.log(v))
        if scan_beta and mu >= 1 - v ** (-scan_beta):
            cut = (1 + epsilon) * _power(log_n, 1 / scan_beta)
            if v >= cut:
                return RegimeVerdict(Regime.EASY, "scan", v / cut - 1)
        poly_beta = beta_degree
        if poly_beta is None and d >= 2 and v > 1:
            poly_beta = min(1.0, math.log(d) / math.log(v))
        if exp_e <= 0.5 - epsilon:
            degree_lhs = (
                0.0 if d <= 1 else _power(d, 1 / poly_beta) * math.log(d)
                if poly_beta
                else math.inf
            )
            if degree_lhs <= (1 - epsilon) / 2 * log_n:
                return RegimeVerdict(
                    Regime.IMPOSSIBLE,
                    "polynomial-degree",
                    (1 - epsilon) / 2 * log_n - degree_lhs,
                )
            if sigma > 2 * math.e * d * d:
                return RegimeVerdict(
                    Regime.IMPOSSIBLE, "bounded-sigma-large", 0.5 - epsilon - exp_e
                )
            if sigma < 1 and v <= math.log(math.e * d * d / sigma) / (1 + epsilon) * log_n:
                return RegimeVerdict(
                    Regime.IMPOSSIBLE,
                    "bounded-sigma-small",
                    math.log(math.e * d * d / sigma) / (1 + epsilon) * log_n - v,
                )
        return RegimeVerdict(Regime.INDETERMINATE, "critical-window", 0.0)

    return RegimeVerdict(Regime.INDETERMINATE, "uncovered-alpha-mu", 1 - alpha * mu)
