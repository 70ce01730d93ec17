"""Risk estimation harness: reproducibility, parallelism, and CSV output."""

import io
import re

import pytest
from scipy.stats import binomtest

from plantedlab import (
    ModelParams,
    RiskEstimate,
    SweepRow,
    SweepSpec,
    Verdict,
    complete_graph,
    estimate_risk,
    make_family,
    resolve_detector,
    sweep,
    write_csv,
)
from plantedlab import risklab
from plantedlab.risklab import CSV_HEADER, _wilson_halfwidth

TRIANGLE = complete_graph(3)
PARAMS = ModelParams(n=12, p=0.9, q=0.2, pattern=TRIANGLE)


def always_reject(obs, params, cfg):
    return Verdict(statistic=1.0, threshold=0.0)


def never_reject(obs, params, cfg):
    return Verdict(statistic=0.0, threshold=1.0)


def edge_parity(obs, params, cfg):
    d = obs.num_edges % 2
    return Verdict(statistic=float(d), threshold=0.5)


class TestEstimateRisk:
    def test_always_reject_has_unit_risk(self):
        est = estimate_risk(always_reject, PARAMS, 50, seed=1)
        assert est.type1 == 1.0 and est.type2 == 0.0
        assert est.risk == 1.0
        assert est.trials_per_hypothesis == 50

    def test_never_reject_has_unit_risk(self):
        est = estimate_risk(never_reject, PARAMS, 50, seed=1)
        assert est.type1 == 0.0 and est.type2 == 1.0
        assert est.risk == 1.0

    def test_risk_is_the_sum_of_the_two_errors(self):
        est = RiskEstimate(type1=1 / 3, type2=0.125, trials_per_hypothesis=7,
                           ci_halfwidth=0.01)
        assert est.risk == 1 / 3 + 0.125
        est = estimate_risk(edge_parity, PARAMS, 40, seed=3)
        assert est.risk == est.type1 + est.type2

    def test_parity_detector_near_coin(self):
        # edge-count parity is close to a fair coin under both hypotheses
        est = estimate_risk(edge_parity, PARAMS, 400, seed=2)
        assert abs(est.risk - 1.0) <= 2 * est.ci_halfwidth + 0.05

    def test_reproducible(self):
        a = estimate_risk("count", PARAMS, 80, seed=7)
        b = estimate_risk("count", PARAMS, 80, seed=7)
        assert a == b

    def test_seed_matters(self):
        a = estimate_risk(edge_parity, PARAMS, 200, seed=7)
        b = estimate_risk(edge_parity, PARAMS, 200, seed=8)
        assert a != b

    def test_threads_do_not_change_the_estimate(self):
        serial = estimate_risk("degree", PARAMS, 60, seed=3)
        threaded = estimate_risk("degree", PARAMS, 60, seed=3, threads=4)
        assert serial == threaded

    def test_count_risk_is_the_same_on_two_threads(self):
        # sampled observations answer the edge count from their bits
        params = ModelParams(n=200, p=0.9, q=0.3, pattern=complete_graph(12))
        one = estimate_risk("count", params, 40, seed=5, threads=1)
        two = estimate_risk("count", params, 40, seed=5, threads=2)
        assert 0 < one.type1 < 1 and 0 < one.type2 < 1
        assert two == one

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            estimate_risk("count", PARAMS, 0, seed=1)

    def test_good_detector_beats_coin_here(self):
        # a planted K8 at p=0.95 against q=0.1 pushes the edge count five
        # standard deviations past the threshold under both hypotheses
        params = ModelParams(n=12, p=0.95, q=0.1, pattern=complete_graph(8))
        est = estimate_risk("count", params, 200, seed=4)
        assert est.risk < 0.1


class TestResolveDetector:
    def test_known_names(self):
        for name in ("count", "degree", "scan", "scan-pattern", "lrt"):
            resolved_name, fn = resolve_detector(name)
            assert resolved_name == name
            assert callable(fn)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="count"):
            resolve_detector("nope")

    def test_callable_passthrough(self):
        name, fn = resolve_detector(edge_parity)
        assert name == "edge_parity"
        assert fn is edge_parity


class TestWilsonHalfwidth:
    @pytest.mark.parametrize("successes,trials", [(0, 50), (3, 50), (25, 50), (50, 50)])
    def test_matches_scipy(self, successes, trials):
        ci = binomtest(successes, trials).proportion_ci(
            confidence_level=0.99, method="wilson"
        )
        want = (ci.high - ci.low) / 2
        assert _wilson_halfwidth(successes, trials) == pytest.approx(
            want, abs=1e-12
        )


class TestSweep:
    SPEC = SweepSpec(
        detector="count",
        families=("clique:3", "star:3"),
        ns=(12, 16),
        ps=(0.9,),
        qs=(0.2,),
        trials=20,
        seed=100,
    )

    def test_grid_order_and_seeds(self):
        rows = sweep(self.SPEC)
        assert [(r.family, r.n) for r in rows] == [
            ("clique:3", 12),
            ("clique:3", 16),
            ("star:3", 12),
            ("star:3", 16),
        ]
        assert [r.seed for r in rows] == [100, 101, 102, 103]
        for row in rows:
            assert row.error == ""
            assert row.estimate is not None
            assert row.elapsed_ms >= 0

    def test_rows_replay_individually(self):
        rows = sweep(self.SPEC)
        row = rows[3]
        params = ModelParams(n=row.n, p=row.p, q=row.q,
                             pattern=make_family(row.family))
        est = estimate_risk(row.detector, params, row.trials, row.seed)
        assert est == row.estimate

    def test_error_rows_are_recorded_not_raised(self):
        spec = SweepSpec(
            detector="scan",
            families=("clique:20", "clique:3"),
            ns=(30,),
            ps=(0.9,),
            qs=(0.2,),
            trials=5,
            seed=0,
        )
        rows = sweep(spec)
        assert rows[0].estimate is None
        assert "budget" in rows[0].error
        assert rows[1].estimate is not None and rows[1].error == ""

    def test_each_family_is_built_once(self, monkeypatch):
        # the CSV, elapsed_ms blanked, as written before families were cached:
        # a repeated family, one that fails to build, and a pattern past n
        kinds = ("clique, path, star, complete_bipartite, regular_tree, matching, "
                 "disjoint_triangles, unbalanced_stars")
        unknown = f"\"unknown family kind 'cycle'; known: {kinds}\""
        bad_q = '"need q <= p <= 1, got p=0.9, q=0.95"'
        expected = [
            "detector,family,n,p,q,trials,seed,type1,type2,risk,ci,,error",
            "count,clique:3,8,0.9,0.2,3,5,0.666667,0.333333,1,0.815357,,",
            f"count,clique:3,8,0.9,0.95,3,6,,,,,,{bad_q}",
            "count,clique:3,12,0.9,0.2,3,7,0,0,0,0.688632,,",
            f"count,clique:3,12,0.9,0.95,3,8,,,,,,{bad_q}",
            f"count,cycle:4,8,0.9,0.2,3,9,,,,,,{unknown}",
            f"count,cycle:4,8,0.9,0.95,3,10,,,,,,{unknown}",
            f"count,cycle:4,12,0.9,0.2,3,11,,,,,,{unknown}",
            f"count,cycle:4,12,0.9,0.95,3,12,,,,,,{unknown}",
            "count,star:9,8,0.9,0.2,3,13,,,,,,pattern on 10 vertices does not fit in n=8",
            f"count,star:9,8,0.9,0.95,3,14,,,,,,{bad_q}",
            "count,star:9,12,0.9,0.2,3,15,0,0.333333,0.333333,0.751995,,",
            f"count,star:9,12,0.9,0.95,3,16,,,,,,{bad_q}",
            "count,clique:3,8,0.9,0.2,3,17,0,0,0,0.688632,,",
            f"count,clique:3,8,0.9,0.95,3,18,,,,,,{bad_q}",
            "count,clique:3,12,0.9,0.2,3,19,0,0,0,0.688632,,",
            f"count,clique:3,12,0.9,0.95,3,20,,,,,,{bad_q}",
        ]
        builds = []

        def counted(spec):
            builds.append(str(spec))
            return make_family(spec)

        monkeypatch.setattr(risklab, "make_family", counted)
        spec = SweepSpec("count", ("clique:3", "cycle:4", "star:9", "clique:3"),
                         (8, 12), (0.9,), (0.2, 0.95), trials=3, seed=5)
        buf = io.StringIO()
        write_csv(sweep(spec), buf)
        blanked = re.sub(r"(?m)^((?:[^,]*,){11})[^,]*", r"\1", buf.getvalue())
        assert blanked.splitlines() == expected
        assert builds == ["clique:3", "star:9"]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepSpec("count", (), (12,), (0.9,), (0.2,), 10, 0)
        with pytest.raises(ValueError):
            SweepSpec("count", ("clique:3",), (12,), (0.9,), (0.2,), 0, 0)


class TestWriteCsv:
    def test_header_and_shape(self):
        rows = sweep(TestSweep.SPEC)
        buf = io.StringIO()
        write_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "count" and first[1] == "clique:3"
        assert first[2] == "12" and first[5] == "20" and first[6] == "100"

    def test_six_significant_digits(self):
        est = RiskEstimate(
            type1=1 / 3, type2=0.125,
            trials_per_hypothesis=7, ci_halfwidth=0.0123456789,
        )
        row = SweepRow("count", "clique:3", 12, 0.9, 0.2, 7, 5, est, 1.5, "")
        buf = io.StringIO()
        write_csv([row], buf)
        fields = buf.getvalue().splitlines()[1].split(",")
        assert fields[7] == "0.333333"
        assert fields[8] == "0.125"
        assert fields[10] == "0.0123457"

    def test_error_row_has_empty_stats(self):
        row = SweepRow("scan", "clique:20", 30, 0.9, 0.2, 5, 0, None, 2.0,
                       "scan budget: too many copies")
        buf = io.StringIO()
        write_csv([row], buf)
        fields = buf.getvalue().splitlines()[1].split(",")
        assert fields[7] == fields[8] == fields[9] == fields[10] == ""
        assert "budget" in fields[-1]

    def test_deterministic_modulo_elapsed(self):
        def strip_elapsed(text: str) -> str:
            out = []
            for line in text.splitlines():
                parts = line.split(",")
                parts[11] = ""
                out.append(",".join(parts))
            return "\n".join(out)

        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_csv(sweep(TestSweep.SPEC), buf)
            bufs.append(strip_elapsed(buf.getvalue()))
        assert bufs[0] == bufs[1]

    def test_parallel_sweep_matches_serial(self):
        serial = io.StringIO()
        write_csv(sweep(TestSweep.SPEC), serial)
        threaded = io.StringIO()
        write_csv(sweep(TestSweep.SPEC, threads=4), threaded)

        def rows_without_elapsed(text):
            return [
                re.sub(r"^((?:[^,]*,){11})[^,]*", r"\1", line)
                for line in text.getvalue().splitlines()
            ]

        assert rows_without_elapsed(serial) == rows_without_elapsed(threaded)
