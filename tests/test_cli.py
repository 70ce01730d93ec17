"""Command-line interface: output formats, files, and exit codes."""

import csv
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plantedlab
from plantedlab import parse_edge_list, write_edge_list
from plantedlab import cli
from plantedlab.cli import _build_parser, run_command
from plantedlab.risklab import CSV_HEADER

from oracles import random_cubic_graph


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples():
    """(argv, printed lines) for each `$ plantedlab ...` example in the
    README's CLI block, in order; a trailing backslash continues a command."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    examples = []
    lines = iter(block.splitlines())
    for line in lines:
        if line.startswith("$ plantedlab "):
            command = line
            while command.endswith("\\"):
                command = command[:-1] + next(lines)
            examples.append((shlex.split(command)[2:], []))
        elif line and examples:
            examples[-1][1].append(line)
    return examples


def test_readme_examples_print_what_the_readme_shows(capsys, tmp_path, monkeypatch):
    # run in order: `detect` reads the observation that `sample` wrote
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) == 9
    for argv, printed in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.splitlines() == printed, argv


class TestStats:
    def test_family_line(self, capsys):
        code, out, _ = run(capsys, "stats", "--family", "clique:4")
        assert code == 0
        assert out == "|v|=4 |e|=6 d_max=3 mu=3/2 tau=3 aut=24\n"

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        code, _, _ = run(capsys, "gen", "--family", "star:3", "--out", str(path))
        assert code == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "stats", "--graph", str(path))
        assert code == 0
        assert out == "|v|=4 |e|=3 d_max=3 mu=3/4 tau=1 aut=6\n"

    @pytest.mark.parametrize(
        "family, line",
        [
            ("regular_tree:3,3", "|v|=22 |e|=21 d_max=3 mu=21/22 tau=7 aut=3072\n"),
            ("complete_bipartite:6,6", "|v|=12 |e|=36 d_max=6 mu=3 tau=6 aut=1036800\n"),
        ],
    )
    def test_components_past_ten_vertices(self, capsys, family, line):
        code, out, _ = run(capsys, "stats", "--family", family)
        assert code == 0
        assert out == line

    def test_budget_exit_code(self, capsys, tmp_path):
        # a random cubic graph on 300 vertices exhausts the vertex cover search
        path = tmp_path / "cubic.txt"
        write_edge_list(random_cubic_graph(np.random.default_rng(300), 300), str(path))
        code, _, err = run(capsys, "stats", "--graph", str(path))
        assert code == 3
        assert "budget" in err


class TestGen:
    def test_stdout_edge_list(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "star:3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# star:3"
        assert lines[1] == "n 4"
        assert lines[2:] == ["0 1", "0 2", "0 3"]

    def test_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "stars.txt"
        code, _, _ = run(
            capsys, "gen", "--family", "unbalanced_stars:4", "--out", str(path)
        )
        assert code == 0
        g = parse_edge_list(path.read_text())
        assert g.num_edges == 6  # four 1-leaf stars plus one 2-leaf star

    def test_bad_family_exit_code(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "clique")
        assert code == 2
        assert "error:" in err


class TestSampleAndDetect:
    def test_round_trip_scan(self, capsys, tmp_path):
        obs_path = tmp_path / "obs.txt"
        code, _, _ = run(
            capsys, "sample", "--family", "clique:3", "--n", "8",
            "--p", "0.95", "--q", "0.1", "--seed", "42", "--out", str(obs_path),
        )
        assert code == 0
        header = obs_path.read_text().splitlines()[0]
        assert header == "# planted n=8 p=0.95 q=0.1 family=clique:3 seed=42"
        capsys.readouterr()
        code, out, _ = run(
            capsys, "detect", "--observation", str(obs_path),
            "--detector", "scan", "--family", "clique:3",
            "--p", "0.95", "--q", "0.1",
        )
        assert code == 0
        assert out == "decision=1 statistic=2 threshold=1.575\n"

    def test_null_sample_comment(self, capsys, tmp_path):
        obs_path = tmp_path / "null.txt"
        code, _, _ = run(
            capsys, "sample", "--family", "clique:3", "--n", "8",
            "--p", "0.95", "--q", "0.1", "--seed", "7",
            "--hypothesis", "null", "--out", str(obs_path),
        )
        assert code == 0
        assert obs_path.read_text().startswith("# null n=8 q=0.1 seed=7\n")

    def test_lrt_prints_exact_rational(self, capsys, tmp_path):
        obs_path = tmp_path / "obs.txt"
        run(capsys, "sample", "--family", "clique:3", "--n", "6",
            "--p", "0.9", "--q", "0.2", "--seed", "1", "--out", str(obs_path))
        capsys.readouterr()
        code, out, _ = run(
            capsys, "detect", "--observation", str(obs_path),
            "--detector", "lrt", "--family", "clique:3",
            "--p", "0.9", "--q", "0.2",
        )
        assert code == 0
        assert out.startswith("decision=")
        assert "threshold=1" in out
        statistic = out.split()[1].removeprefix("statistic=")
        assert "/" in statistic  # exact rational, not a float

    def test_lrt_budget_exit(self, capsys, tmp_path):
        obs_path = tmp_path / "obs.txt"
        run(capsys, "sample", "--family", "clique:3", "--n", "12",
            "--p", "0.9", "--q", "0.2", "--seed", "1", "--out", str(obs_path))
        capsys.readouterr()
        # no vertex cap: 220 triangles at n=12
        code, out, _ = run(
            capsys, "detect", "--observation", str(obs_path),
            "--detector", "lrt", "--family", "clique:3",
            "--p", "0.9", "--q", "0.2",
        )
        assert code == 0
        assert out.startswith("decision=")
        # 12!/2 copies of an 11-edge path: past the tally's memory cap
        code, _, err = run(
            capsys, "detect", "--observation", str(obs_path),
            "--detector", "lrt", "--family", "path:11",
            "--p", "0.9", "--q", "0.2",
        )
        assert code == 3
        assert "copy-overlap tally" in err and "bytes > budget" in err

    def test_missing_observation_flag(self, capsys):
        code, _, _ = run(capsys, "detect", "--detector", "scan",
                         "--family", "clique:3", "--p", "0.9", "--q", "0.2")
        assert code == 2


class TestMomentAndLdp:
    def test_exact(self, capsys):
        code, out, _ = run(
            capsys, "moment", "--family", "clique:3", "--n", "6",
            "--lambda-sq", "1", "--method", "exact",
        )
        assert code == 0
        assert out == "value=9/5 float=1.8 method=exact_subgraph_sum\n"

    def test_pairs_agrees(self, capsys):
        code, out, _ = run(
            capsys, "moment", "--family", "clique:3", "--n", "6",
            "--lambda-sq", "1", "--method", "pairs",
        )
        assert code == 0
        assert out == "value=9/5 float=1.8 method=exact_intersection_mgf\n"

    def test_mc_reports_std_error(self, capsys):
        code, out, _ = run(
            capsys, "moment", "--family", "clique:3", "--n", "6",
            "--lambda-sq", "1", "--method", "mc",
            "--trials", "5000", "--seed", "3",
        )
        assert code == 0
        assert "method=monte_carlo" in out
        assert "std_error=" in out

    def test_fraction_lambda_sq(self, capsys):
        code, out, _ = run(
            capsys, "moment", "--family", "clique:2", "--n", "3",
            "--lambda-sq", "1/2", "--method", "exact",
        )
        assert code == 0
        assert out.startswith("value=7/6 ")

    def test_ldp_degree_zero(self, capsys):
        code, out, _ = run(
            capsys, "ldp", "--family", "clique:3", "--n", "6",
            "--lambda-sq", "1", "--degree", "0",
        )
        assert code == 0
        assert out.startswith("value=1 ")

    def test_ldp_degree_one(self, capsys):
        code, out, _ = run(
            capsys, "ldp", "--family", "clique:3", "--n", "6",
            "--lambda-sq", "1", "--degree", "1",
        )
        assert code == 0
        assert out == "value=8/5 float=1.6 method=exact_subgraph_sum\n"

    @pytest.mark.parametrize(
        "argv, method",
        [
            (("moment", "--family", "clique:40", "--n", "50", "--lambda-sq", "1000"),
             "exact_subgraph_sum"),
            (("ldp", "--family", "clique:40", "--n", "50", "--lambda-sq", "1000",
              "--degree", "780"), "exact_subgraph_sum"),
            (("moment", "--family", "clique:8", "--n", "9", "--lambda-sq", str(10**40),
              "--method", "pairs"), "exact_intersection_mgf"),
        ],
    )
    def test_exact_value_past_the_float_range(self, capsys, argv, method):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        value, rest = out.split(" ", 1)
        assert value.startswith("value=") and len(value) > 320
        assert rest == f"float=inf method={method}\n"


class TestRiskAndSweep:
    def test_risk_line(self, capsys):
        code, out, _ = run(
            capsys, "risk", "--detector", "count", "--family", "clique:8",
            "--n", "12", "--p", "0.95", "--q", "0.1",
            "--trials", "20", "--seed", "5",
        )
        assert code == 0
        assert out.startswith("type1=0 type2=0 risk=0 ci=")
        assert "trials=20 seed=5" in out

    def test_scan_risk_clique_seven_at_forty(self, capsys):
        # 18.6M copies to scan, but few search nodes: no copy cap refuses it
        code, out, _ = run(
            capsys, "risk", "--detector", "scan", "--family", "clique:7",
            "--n", "40", "--p", "1", "--q", "0.05", "--trials", "1",
        )
        assert code == 0
        assert out.startswith("type1=0 type2=0 risk=0 ")
        code, _, _ = run(
            capsys, "risk", "--detector", "scan", "--family", "clique:7",
            "--n", "40", "--p", "1", "--q", "0.05", "--scan-budget", "5000000",
        )
        assert code == 2

    @pytest.mark.parametrize("family, n", [("star:1200", 1300), ("path:1100", 1200)])
    def test_scan_of_a_thousand_positions(self, capsys, family, n):
        # one frame per target position, none on the interpreter's stack: a
        # target deeper than the recursion limit ends in a value or the budget
        code, out, err = run(
            capsys, "risk", "--detector", "scan", "--family", family, "--n", str(n),
            "--p", "1", "--q", "0.001", "--trials", "1",
        )
        if code == 0:
            assert out.startswith("type1=")
        else:
            assert (code, out) == (3, "") and "work units > budget" in err

    def test_risk_csv(self, capsys, tmp_path):
        path = tmp_path / "risk.csv"
        code, _, _ = run(
            capsys, "risk", "--detector", "count", "--family", "clique:8",
            "--n", "12", "--p", "0.95", "--q", "0.1",
            "--trials", "10", "--seed", "5", "--out", str(path),
        )
        assert code == 0
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == list(CSV_HEADER)
        assert len(rows) == 2
        assert rows[1][0] == "count" and rows[1][1] == "clique:8"

    def test_sweep_csv(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--detector", "count",
            "--family", "clique:3,star:3", "--n", "10,14",
            "--p", "0.9", "--q", "0.2",
            "--trials", "5", "--seed", "1", "--out", str(path),
        )
        assert code == 0
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == list(CSV_HEADER)
        assert len(rows) == 5
        assert [r[1] for r in rows[1:]] == [
            "clique:3", "clique:3", "star:3", "star:3"
        ]
        assert [r[6] for r in rows[1:]] == [
            "8431846347943309920", "4042681867674859579",
            "1275975541612323131", "10440292027562320097",
        ]

    @pytest.mark.parametrize("command", ["risk", "sweep"])
    @pytest.mark.parametrize("threads", ["0", "-1", "3"])
    def test_threads_outside_one_to_trials_exit_2(self, capsys, monkeypatch, command, threads):
        # refused before any trial draws, so no thread starts
        def no_draw(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(plantedlab.risklab, "sample_null", no_draw)
        code, out, err = run(
            capsys, command, "--detector", "count", "--family", "clique:3",
            "--n", "10", "--p", "0.9", "--q", "0.2", "--trials", "2", "--threads", threads,
        )
        assert (code, out) == (2, "")
        assert err == f"error: threads must lie in [1, 2] for 2 trials, got {threads}\n"

    def test_sweep_without_out_writes_csv_to_stdout(self, capsys, tmp_path):
        argv = ("sweep", "--detector", "count", "--family", "clique:3", "--n", "10",
                "--p", "0.9", "--q", "0.2", "--trials", "5", "--seed", "1")
        path = tmp_path / "sweep.csv"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        elapsed = CSV_HEADER.index("elapsed_ms")  # the one column that is not seeded
        for got, want in zip(csv.reader(out.splitlines()),
                             csv.reader(path.read_text().splitlines()), strict=True):
            assert got[:elapsed] + got[elapsed + 1:] == want[:elapsed] + want[elapsed + 1:]

    def test_sweep_splits_families_only_before_a_kind(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--detector", "count",
            "--family", "complete_bipartite:2,3,clique:3", "--n", "10",
            "--p", "0.9", "--q", "0.2",
            "--trials", "5", "--seed", "1", "--out", str(path),
        )
        assert code == 0
        header, *rows = csv.reader(path.read_text().splitlines())
        assert [r[1] for r in rows] == ["complete_bipartite:2,3", "clique:3"]
        assert [r[header.index("error")] for r in rows] == ["", ""]


class TestClassify:
    def test_sparse(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--regime", "sparse", "--alpha", "1",
            "--epsilon", "2", "--delta", "1", "--zeta", "1",
        )
        assert code == 0
        assert out == "stat_lower=0.666667 stat_upper=0.75 comp_lower=0.75\n"

    @pytest.mark.parametrize("beta", ["0.5", "1.5"])
    def test_sparse_ignores_beta(self, capsys, beta):
        argv = ("classify", "--regime", "sparse", "--alpha", "1",
                "--epsilon", "2", "--delta", "1", "--zeta", "1")
        without = run(capsys, *argv)
        assert without[0] == 0 and run(capsys, *argv, "--beta", beta) == without

    def test_superdense(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--regime", "superdense", "--alpha", "1"
        )
        assert code == 0
        assert out == "beta_threshold=0.75\n"

    def test_dense(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--regime", "dense", "--family", "clique:12",
            "--n", "250", "--p", "0.9", "--q", "0.2",
        )
        assert code == 0
        assert out.startswith("verdict=easy boundary=scan margin=")

    def test_dense_regular_tree(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--regime", "dense", "--family", "regular_tree:3,3",
            "--n", "1000", "--p", "0.9", "--q", "0.2",
        )
        assert code == 0
        assert out == "verdict=impossible boundary=edge-degree margin=0.45926\n"

    def test_dense_clique_200(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--regime", "dense", "--family", "clique:200",
            "--n", "1000", "--p", "0.8", "--q", "0.2",
        )
        assert code == 0
        assert out == "verdict=easy boundary=scan margin=9.89181\n"

    def test_critical(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--regime", "critical",
            "--family", "clique:12", "--n", "1000", "--alpha", "0.5",
        )
        assert code == 0
        assert out == "verdict=easy boundary=trivial-scan margin=1.75\n"

    def test_cubic_300_needs_no_vertex_cover(self, capsys, tmp_path):
        # the thresholds read mu but not tau, whose search on this graph
        # runs out of the budget, as `stats` still shows
        path = tmp_path / "cubic300.txt"
        write_edge_list(random_cubic_graph(np.random.default_rng(300), 300), str(path))
        assert run(
            capsys, "classify", "--regime", "dense", "--graph", str(path),
            "--n", "100000", "--lambda-sq", "1",
        ) == (0, "verdict=impossible boundary=edge-degree margin=0.369357\n", "")
        assert run(
            capsys, "classify", "--regime", "critical", "--graph", str(path),
            "--n", "100000", "--alpha", "0.5",
        ) == (0, "verdict=indeterminate boundary=bounded-density-window margin=0.280643\n", "")
        assert run(capsys, "stats", "--graph", str(path)) == (
            3, "", "error: vertex cover search: 50001813 work units > budget 50000000\n"
        )

    def test_sparse_missing_exponents(self, capsys):
        code, _, err = run(capsys, "classify", "--regime", "sparse")
        assert code == 2
        assert "error:" in err

    def test_dense_missing_signal(self, capsys):
        code, _, err = run(
            capsys, "classify", "--regime", "dense",
            "--family", "clique:12", "--n", "250",
        )
        assert code == 2

    def test_critical_small_beta_reads_past_the_float_range(self, capsys):
        # log(n)**(1/beta) and d**(1/beta) pass the float range and read inf
        assert run(
            capsys, "classify", "--regime", "critical", "--alpha", "1", "--sigma", "0.5",
            "--beta", "0.001", "--family", "path:3", "--n", "1000",
        ) == (0, "verdict=impossible boundary=bounded-sigma-small margin=15.3382\n", "")

    @pytest.mark.parametrize("sigma", ["0", "-2"])
    def test_critical_rejects_nonpositive_sigma(self, capsys, sigma):
        code, out, err = run(
            capsys, "classify", "--regime", "critical", "--alpha", "1", "--sigma", sigma,
            "--beta", "1", "--family", "star:8", "--n", "1000000",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: sigma must be > 0") and "q = sigma/n" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--beta", "-0.001", "--family", "path:3", "--n", "1000"),
            ("--beta", "-1", "--family", "star:8", "--n", "1000000"),
        ],
        ids=["underflow", "scan-verdict"],
    )
    def test_critical_rejects_negative_beta(self, capsys, argv):
        # log(n)**(1/beta) with beta < 0 is below 1: no exponent to compare
        code, out, err = run(
            capsys, "classify", "--regime", "critical", "--alpha", "1", "--sigma", "0.5", *argv
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: beta_degree must be > 0")

    def test_dense_without_divergence(self, capsys):
        # KL(p||q) = 0 makes the scan constant (1+eps)/KL infinite: no scan verdict
        assert run(
            capsys, "classify", "--regime", "dense", "--family", "clique:4",
            "--n", "100", "--p", "0.3", "--q", "0.3",
        ) == (0, "verdict=impossible boundary=density margin=0.331044\n", "")

    @pytest.mark.parametrize("q", ["0", "1"])
    def test_dense_degenerate_q(self, capsys, q):
        code, _, err = run(
            capsys, "classify", "--regime", "dense", "--family", "clique:4",
            "--n", "100", "--p", "0.5", "--q", q,
        )
        assert code == 2
        assert "q must lie in (0,1)" in err


class TestDecompose:
    def test_table(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--family", "unbalanced_stars:16",
            "--parts", "3",
        )
        assert code == 0
        assert out.splitlines() == [
            "part=1 edges=8 tau=1 d_max=8 tau_x_dmax=8",
            "part=2 edges=32 tau=16 d_max=2 tau_x_dmax=32",
            "part=3 edges=0",
            "bound=160",
        ]

    def test_clique_200(self, capsys):
        code, out, _ = run(capsys, "decompose", "--family", "clique:200", "--parts", "1")
        assert code == 0
        assert out.splitlines() == [
            "part=1 edges=19900 tau=199 d_max=199 tau_x_dmax=39601",
            "bound=7.9202e+06",
        ]

    def test_part_files(self, capsys, tmp_path):
        root = tmp_path / "parts.txt"
        code, _, _ = run(
            capsys, "decompose", "--family", "unbalanced_stars:16",
            "--parts", "2", "--out", str(root),
        )
        assert code == 0
        part1 = parse_edge_list((tmp_path / "parts-1.txt").read_text())
        part2 = parse_edge_list((tmp_path / "parts-2.txt").read_text())
        assert part1.num_edges + part2.num_edges == 40
        assert not (set(part1.edges) & set(part2.edges))

    def test_many_parts_are_charged_before_any_is_built(self, capsys):
        # 10^8 parts: the one-pass split ran for minutes before the meter saw it
        code, out, err = run(capsys, "decompose", "--family", "star:4", "--parts", "100000000")
        assert (code, out) == (3, "")
        assert err == "error: decomposition: 4500000160 work units > budget 50000000\n"

    def test_largest_part_count_past_the_budget(self, capsys):
        # 45 * 1111108 + 4 * 40 units: one part more than fits
        code, out, err = run(capsys, "decompose", "--family", "star:4", "--parts", "1111108")
        assert (code, out) == (3, "")
        assert err == "error: decomposition: 50000020 work units > budget 50000000\n"

    def test_thirty_thousand_parts(self, capsys):
        code, out, _ = run(capsys, "decompose", "--family", "star:4", "--parts", "30000")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 30001
        assert lines[0] == "part=1 edges=4 tau=1 d_max=4 tau_x_dmax=4"
        assert lines[1:-1] == [f"part={i} edges=0" for i in range(2, 30001)]
        assert lines[-1] == "bound=8.00037"


class TestIntersections:
    def test_histogram(self, capsys):
        code, out, _ = run(
            capsys, "intersections", "--family", "clique:3", "--n", "6",
            "--trials", "1000", "--seed", "2",
        )
        assert code == 0
        lines = out.splitlines()
        parsed = []
        for line in lines:
            fields = dict(kv.split("=") for kv in line.split())
            parsed.append((int(fields["edges"]), int(fields["trials"]),
                           float(fields["freq"])))
        assert [e for e, _, _ in parsed] == sorted(e for e, _, _ in parsed)
        assert sum(t for _, t, _ in parsed) == 1000
        assert sum(f for _, _, f in parsed) == pytest.approx(1.0, abs=1e-9)

    def test_no_vertices_exit_2(self, capsys):
        # a ZeroDivisionError traceback and exit 1 before the check
        code, out, err = run(
            capsys, "intersections", "--family", "path:2", "--n", "0", "--trials", "3"
        )
        assert (code, out, err) == (2, "", "error: n must be >= 1, got 0\n")


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ("risk", "--detector", "count", "--family", "clique:3", "--n", "10",
             "--p", "0.9", "--q", "0.2", "--trials", "2"),
            ("sample", "--hypothesis", "null", "--n", "5", "--q", "0.5"),
            ("moment", "--family", "clique:3", "--n", "10", "--lambda-sq", "1/2",
             "--method", "mc", "--trials", "3"),
            ("intersections", "--family", "path:2", "--n", "5", "--trials", "3"),
        ],
        ids=["risk", "sample", "moment-mc", "intersections"],
    )
    def test_negative_seed_names_the_seed(self, capsys, argv):
        # numpy's "expected non-negative integer" named no flag
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("stats",), "provide --family or --graph"),
            (("sample", "--hypothesis", "null", "--n", "5"), "null sampling needs --n and --q"),
            (("sample", "--family", "clique:3", "--n", "5", "--q", "0.5"),
             "planted sampling needs --n, --p, --q and a pattern"),
            (("classify", "--regime", "superdense"), "superdense classification needs --alpha"),
            (("classify", "--regime", "dense", "--family", "clique:3", "--lambda-sq", "1"),
             "dense classification needs --n"),
            (("classify", "--regime", "critical", "--family", "clique:3", "--n", "100"),
             "critical classification needs --alpha"),
        ],
        ids=["no-pattern", "null-sample", "planted-sample", "superdense", "dense", "critical"],
    )
    def test_missing_flags_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("lambda_sq, shown", [("-1/2", "-0.5"), ("-1", "-1.0")])
    def test_dense_negative_lambda_sq(self, capsys, lambda_sq, shown):
        # -1/2 printed an impossible verdict, -1 failed with "math domain error"
        code, out, err = run(
            capsys, "classify", "--regime", "dense", "--family", "clique:3", "--n", "1000",
            f"--lambda-sq={lambda_sq}",
        )
        assert (code, out, err) == (2, "", f"error: lambda_sq must be >= 0, got {shown}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("dense", "--n", "1000", "--lambda-sq", "1", "--slack", "nan"),
             "epsilon must lie in [0,1), got nan"),
            (("dense", "--n", "1000", "--p", "0.9", "--q", "0.2", "--slack", "-3"),
             "epsilon must lie in [0,1), got -3.0"),
            (("critical", "--n", "1000", "--alpha", "0.5", "--slack", "nan"),
             "epsilon must lie in [0,1), got nan"),
            (("sparse", "--alpha", "1", "--epsilon", "nan", "--delta", "1", "--zeta", "1"),
             "epsilon must be a number, got nan"),
        ],
        ids=["dense-nan-slack", "dense-negative-slack", "critical-nan-slack", "sparse-nan"],
    )
    def test_classify_refuses_nan_and_out_of_range_slack(self, capsys, argv, message):
        # each printed a verdict or thresholds and exited 0: an easy verdict with a
        # negative margin at --slack -3, the rest computed against a NaN
        family = () if argv[0] == "sparse" else ("--family", "clique:3")
        code, out, err = run(capsys, "classify", "--regime", *argv, *family)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["moment", "--n", "6"],
            ["ldp", "--n", "6", "--degree", "1"],
            ["classify", "--regime", "dense", "--n", "100"],
        ],
    )
    def test_zero_denominator_lambda_sq(self, capsys, argv):
        code, _, err = run(
            capsys, *argv, "--family", "clique:3", "--lambda-sq", "1/0"
        )
        assert code == 2
        assert "--lambda-sq" in err

    def test_out_of_memory_is_one_line_and_exit_3(self, capsys, monkeypatch):
        def exhausted(g):
            raise MemoryError

        monkeypatch.setattr(cli, "graph_stats", exhausted)
        code, out, err = run(capsys, "stats", "--family", "clique:3")
        assert (code, out, err) == (3, "", "error: out of memory\n")

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "nope")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "stats", "--bogus")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--regime", "dense", "--family", "clique:4",
             "--n", "100", "--p", "0.9", "--q", "0.3"),
            ("classify", "--regime", "critical", "--alpha", "1", "--sigma", "0",
             "--family", "star:8", "--n", "1000"),
        ],
        ids=["verdict", "error"],
    )
    def test_python_m_runs_the_command(self, capsys, argv):
        want = run(capsys, *argv)
        env = dict(os.environ, PYTHONPATH=str(Path(plantedlab.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "plantedlab.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == want
        assert want[1] or want[2]


class TestParserReuse:
    # run_command builds its parser once; no call may leave state for the next
    RISK = (
        "risk", "--detector", "count", "--family", "clique:4", "--n", "10",
        "--p", "0.9", "--q", "0.2", "--trials", "3", "--seed", "2",
    )

    def test_out_does_not_carry_over(self, capsys, tmp_path):
        path = tmp_path / "risk.csv"
        code, first, _ = run(capsys, *self.RISK, "--out", str(path))
        assert code == 0
        written = path.read_bytes()
        path.unlink()
        code, again, _ = run(capsys, *self.RISK)
        assert code == 0
        assert again == first
        assert list(tmp_path.iterdir()) == []
        assert written.startswith(",".join(CSV_HEADER).encode())

    def test_usage_error_and_help_leave_no_trace(self, capsys):
        _build_parser.cache_clear()
        code, fresh, _ = run(capsys, *self.RISK)
        assert code == 0
        assert run(capsys, "risk", "--detector", "count", "--bogus")[0] == 2
        code, out, _ = run(capsys, "risk", "--help")
        assert code == 0 and "--trials" in out
        code, out, err = run(capsys, *self.RISK)
        assert (code, out, err) == (0, fresh, "")
        assert _build_parser() is _build_parser()
