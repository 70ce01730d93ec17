"""Graph container, edge-list format, and family constructions."""

import math

import numpy as np
import pytest

from plantedlab import (
    DuplicateEdgeError,
    FamilySpec,
    Graph,
    InvalidSpecError,
    SelfLoopError,
    VertexOutOfRangeError,
    complete_graph,
    format_edge_list,
    is_pattern,
    make_family,
    parse_edge_list,
    read_edge_list,
    unbalanced_stars_degrees,
    unbalanced_stars_profile,
    write_edge_list,
)
from plantedlab.errors import FormatError
from plantedlab.graphs import FAMILY_KINDS

from oracles import edge_subgraph, random_graph, without_isolated


class TestGraphBasics:
    def test_edges_are_canonicalized_and_sorted(self):
        g = Graph(4, [(3, 1), (0, 2), (2, 1)])
        assert g.edges == ((0, 2), (1, 2), (1, 3))
        assert g.num_edges == 3

    def test_adjacency_and_degrees(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.neighbors(0) == frozenset({1, 2, 3})
        assert g.degrees() == [3, 1, 1, 1]
        assert g.max_degree() == 3
        assert g.has_edge(1, 0) and not g.has_edge(1, 2)

    # every valid family spec the tests name
    SPECS = (
        "clique:2 clique:3 clique:4 clique:5 clique:6 clique:7 clique:8 clique:9 clique:12"
        " clique:20 clique:40 clique:46 clique:200 complete_bipartite:2,2"
        " complete_bipartite:2,3 complete_bipartite:3,3 complete_bipartite:3,5"
        " complete_bipartite:6,6 complete_bipartite:300,300 disjoint_triangles:2"
        " disjoint_triangles:3 disjoint_triangles:4 disjoint_triangles:5 disjoint_triangles:30"
        " matching:2 matching:3 matching:4 matching:5 matching:6 matching:10 matching:30"
        " matching:40 path:2 path:3 path:4 path:5 path:6 path:9 path:10 path:11 path:12 path:14"
        " path:30 path:40 path:72 path:1100 path:3000 regular_tree:3,2 regular_tree:3,3"
        " regular_tree:3,4 regular_tree:3,8 star:2 star:3 star:4 star:5 star:6 star:7 star:8"
        " star:9 star:12 star:50 star:300 star:1200 unbalanced_stars:4 unbalanced_stars:16"
        " unbalanced_stars:64 unbalanced_stars:81 unbalanced_stars:256"
    ).split()

    def test_degrees_are_counted_without_the_neighbour_sets(self):
        rng = np.random.default_rng(14)
        graphs = [make_family(spec) for spec in self.SPECS] + [
            random_graph(rng, int(rng.integers(0, 40)), float(rng.random())) for _ in range(60)
        ]
        for g in graphs:
            g = Graph(g.n, g.edges)  # a fresh graph: no earlier read built its sets
            counted = (g.degrees(), g.max_degree())
            assert g._adj is None, "degrees() built the neighbour sets"
            kept = g._deg
            g.degrees().clear()  # the caller's list is its own
            sizes = [len(g.neighbors(v)) for v in range(g.n)]
            assert counted == (sizes, max(sizes, default=0))
            assert (g.degrees(), g.max_degree()) == counted
            assert kept is not None and g._deg is kept, "the degrees were not kept"

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph(3, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            Graph(3, [(0, 1), (1, 0)])

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            Graph(3, [(0, 3)])
        with pytest.raises(VertexOutOfRangeError):
            Graph(3, [(-1, 2)])
        with pytest.raises(VertexOutOfRangeError, match=r"^vertex count must be >= 0, got -1$"):
            Graph(-1, [])

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(4, [(0, 1), (1, 2)])
        with pytest.raises(AttributeError, match=r"^Graph is immutable$"):
            a.n = 4

    def test_components(self):
        g = Graph(6, [(0, 1), (1, 2), (4, 5)])
        assert g.components() == [[0, 1, 2], [3], [4, 5]]
        assert not g.is_connected()
        assert complete_graph(4).is_connected()

    def test_induced_subgraph_relabels(self):
        g = complete_graph(4)
        sub = g.induced_subgraph([1, 3])
        assert sub.n == 2 and sub.edges == ((0, 1),)

    def test_edge_subgraph(self):
        g = complete_graph(4)
        keep = [(0, 1), (2, 3)]
        assert edge_subgraph(g, keep).edges == ((0, 1), (2, 3))
        relabeled = without_isolated(edge_subgraph(g, [(1, 3)]))
        assert relabeled.n == 2 and relabeled.edges == ((0, 1),)

    def test_without_isolated(self):
        g = Graph(5, [(1, 3)])
        assert without_isolated(g) == Graph(2, [(0, 1)])

    def test_is_pattern(self, monkeypatch):
        assert is_pattern(Graph(2, [(0, 1)]))
        assert not is_pattern(Graph(3, [(0, 1)]))  # isolated vertex
        assert not is_pattern(Graph(2, []))

        # 10^11 vertices and two edges: isolated_vertices() would take 100 GB
        def walk(self):
            raise AssertionError("walked the vertices")

        monkeypatch.setattr(Graph, "isolated_vertices", walk)
        assert not is_pattern(Graph(10**11, [(0, 1), (1, 2)]))


class TestConstruction:
    """One validating pass, duplicates found on the sorted edges, and
    neighbour sets built on first read."""

    # self-loop, out-of-range and duplicate edges on n = 4, in every input
    # order; the first offending edge in input order names the error
    OFFENCES = {"L": (2, 2), "R": (0, 4), "D": (1, 3), "d": (3, 1),
                "S": (5, 5), "N": (-1, 2), "E": (0, 2)}
    MALFORMED = [
        ("DLRd", SelfLoopError, "self-loop at vertex 2"),
        ("DLdR", SelfLoopError, "self-loop at vertex 2"),
        ("DRLd", VertexOutOfRangeError, "edge (0,4) outside [0,4)"),
        ("DRdL", VertexOutOfRangeError, "edge (0,4) outside [0,4)"),
        ("DdLR", DuplicateEdgeError, "duplicate edge (1, 3)"),
        ("DdRL", DuplicateEdgeError, "duplicate edge (1, 3)"),
        ("LDRd", SelfLoopError, "self-loop at vertex 2"),
        ("LDdR", SelfLoopError, "self-loop at vertex 2"),
        ("LRDd", SelfLoopError, "self-loop at vertex 2"),
        ("LRdD", SelfLoopError, "self-loop at vertex 2"),
        ("LdDR", SelfLoopError, "self-loop at vertex 2"),
        ("LdRD", SelfLoopError, "self-loop at vertex 2"),
        ("RDLd", VertexOutOfRangeError, "edge (0,4) outside [0,4)"),
        ("RDdL", VertexOutOfRangeError, "edge (0,4) outside [0,4)"),
        ("RLDd", VertexOutOfRangeError, "edge (0,4) outside [0,4)"),
        ("RLdD", VertexOutOfRangeError, "edge (0,4) outside [0,4)"),
        ("RdDL", VertexOutOfRangeError, "edge (0,4) outside [0,4)"),
        ("RdLD", VertexOutOfRangeError, "edge (0,4) outside [0,4)"),
        ("dDLR", DuplicateEdgeError, "duplicate edge (1, 3)"),
        ("dDRL", DuplicateEdgeError, "duplicate edge (1, 3)"),
        ("dLDR", SelfLoopError, "self-loop at vertex 2"),
        ("dLRD", SelfLoopError, "self-loop at vertex 2"),
        ("dRDL", VertexOutOfRangeError, "edge (0,4) outside [0,4)"),
        ("dRLD", VertexOutOfRangeError, "edge (0,4) outside [0,4)"),
        ("EENS", DuplicateEdgeError, "duplicate edge (0, 2)"),
        ("EESN", DuplicateEdgeError, "duplicate edge (0, 2)"),
        ("ENES", VertexOutOfRangeError, "edge (-1,2) outside [0,4)"),
        ("ENSE", VertexOutOfRangeError, "edge (-1,2) outside [0,4)"),
        ("ESEN", SelfLoopError, "self-loop at vertex 5"),
        ("ESNE", SelfLoopError, "self-loop at vertex 5"),
        ("NEES", VertexOutOfRangeError, "edge (-1,2) outside [0,4)"),
        ("NESE", VertexOutOfRangeError, "edge (-1,2) outside [0,4)"),
        ("NSEE", VertexOutOfRangeError, "edge (-1,2) outside [0,4)"),
        ("SEEN", SelfLoopError, "self-loop at vertex 5"),
        ("SENE", SelfLoopError, "self-loop at vertex 5"),
        ("SNEE", SelfLoopError, "self-loop at vertex 5"),
    ]

    @pytest.mark.parametrize("order,error,message", MALFORMED)
    @pytest.mark.parametrize("container", [list, iter])
    def test_first_offending_edge_names_the_error(self, order, error, message, container):
        edges = [(0, 1)] + [self.OFFENCES[c] for c in order] + [(2, 3)]
        with pytest.raises(error) as caught:
            Graph(4, container(edges))
        assert type(caught.value) is error and str(caught.value) == message

    def test_input_forms(self):
        e = (0, 3)
        g = Graph(4, [e, [2, 1], (np.int64(3), np.int64(2)), (0, 1)])
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
        assert all(type(edge) is tuple for edge in g.edges)
        assert any(edge is e for edge in g.edges)  # a canonical tuple is kept
        assert hash(g) == hash((4, g.edges)) == hash(Graph(4, g.edges))

    READERS = {
        "neighbors": lambda g: [g.neighbors(v) for v in range(g.n)],
        "degree": lambda g: [g.degree(v) for v in range(g.n)],
        "degrees": lambda g: g.degrees(),
        "max_degree": lambda g: g.max_degree(),
        "has_edge": lambda g: [g.has_edge(u, v) for u in range(-1, g.n + 1) for v in range(g.n)],
        "components": lambda g: g.components(),
    }

    def test_neighbour_sets_built_on_first_read(self):
        rng = np.random.default_rng(27)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(1, 12)), 0.3)
            copy = Graph(g.n, reversed([(v, u) for u, v in g.edges]))
            assert copy == g and hash(copy) == hash(g)
            assert g.isolated_vertices() == [v for v in range(g.n)
                                             if all(v not in e for e in g.edges)]
            assert g._adj is None, "edges, hash, == or isolated_vertices built the sets"
            want = tuple(frozenset(w for e in g.edges if v in e for w in e if w != v)
                         for v in range(g.n))
            expected = Graph(g.n, g.edges)
            object.__setattr__(expected, "_adj", want)  # the eager sets
            for name, read in self.READERS.items():
                fresh = Graph(g.n, g.edges)
                assert read(fresh) == read(expected)
                if name in ("degrees", "max_degree"):
                    assert fresh._adj is None, f"{name} built the sets it only counts"
                    continue
                assert fresh._adj == want
                sets = fresh._adj
                assert read(fresh) == read(expected) and fresh._adj is sets

    def test_count_pattern_builds_no_neighbour_sets(self):
        g = make_family("clique:200")
        assert is_pattern(g) and g.num_edges == 19900
        assert g._adj is None


class TestEdgeListFormat:
    def test_round_trip(self):
        g = Graph(5, [(0, 4), (1, 2)])
        assert parse_edge_list(format_edge_list(g)) == g

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(1, 12)), 0.35)
            assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blank_lines_ignored(self):
        text = "# observed graph\n\nn 4\n0 1\n# middle comment\n2 3\n"
        assert parse_edge_list(text) == Graph(4, [(0, 1), (2, 3)])

    def test_missing_header_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("0 1\n")
        for text in ("", "# a comment\n\n"):
            with pytest.raises(FormatError, match=r"^missing 'n <count>' header line$"):
                parse_edge_list(text)

    def test_malformed_edge_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("n 3\n0 1 2\n")
        with pytest.raises(FormatError):
            parse_edge_list("n 3\nzero one\n")

    def test_file_round_trip(self, tmp_path):
        g = make_family("complete_bipartite:2,3")
        path = tmp_path / "g.txt"
        write_edge_list(g, path, comment="bipartite")
        assert read_edge_list(path) == g

    def test_from_edge_list_validates(self):
        assert Graph(3, [(2, 0)]).edges == ((0, 2),)
        with pytest.raises(VertexOutOfRangeError):
            Graph(2, [(0, 5)])


class TestFamilySpec:
    def test_parse(self):
        spec = FamilySpec.parse(" clique:4 ")
        assert spec.kind == "clique" and spec.params == (4,)
        assert str(spec) == "clique:4"
        two = FamilySpec.parse("complete_bipartite:2,3")
        assert two.params == (2, 3)

    def test_parse_errors(self):
        for bad in ("clique", "clique:", "clique:x", "clique:2,3", "mystery:4",
                    "complete_bipartite:2", "star:0"):
            with pytest.raises(InvalidSpecError):
                FamilySpec.parse(bad)

    def test_equality(self):
        assert FamilySpec.parse("star:3") == FamilySpec("star", [3])
        assert FamilySpec.parse("star:3") != FamilySpec.parse("star:4")

    @pytest.mark.parametrize("text", [
        "clique:4", "path:6", "star:3", "complete_bipartite:2,3", "regular_tree:3,2",
        "matching:5", "disjoint_triangles:2", "unbalanced_stars:16",
    ])
    def test_round_trips_and_hashes_as_its_fields(self, text):
        spec = FamilySpec.parse(text)
        assert str(spec) == text and FamilySpec.parse(str(spec)) == spec
        assert repr(spec) == f"FamilySpec({text!r})"
        assert hash(spec) == hash((spec.kind, spec.params))
        built = FamilySpec(spec.kind, list(spec.params))
        assert built == spec and hash(built) == hash(spec)

    def test_params_become_a_tuple_of_ints(self):
        spec = FamilySpec("complete_bipartite", [np.int64(2), "3"])
        assert spec.params == (2, 3) and all(type(p) is int for p in spec.params)

    def test_fields_cannot_be_assigned(self):
        spec = FamilySpec.parse("clique:4")
        with pytest.raises(AttributeError):
            spec.kind = "path"
        with pytest.raises(AttributeError):
            spec.params = (5,)
        assert spec == FamilySpec("clique", (4,))


class TestFamilies:
    @pytest.mark.parametrize(
        "spec,vertices,edges,dmax",
        [
            ("clique:5", 5, 10, 4),
            ("path:3", 4, 3, 2),
            ("star:7", 8, 7, 7),
            ("complete_bipartite:2,3", 5, 6, 3),
            ("matching:4", 8, 4, 1),
            ("disjoint_triangles:3", 9, 9, 2),
        ],
    )
    def test_shape(self, spec, vertices, edges, dmax):
        g = make_family(spec)
        assert (g.n, g.num_edges, g.max_degree()) == (vertices, edges, dmax)

    def test_regular_tree(self):
        g = make_family("regular_tree:3,2")
        # root with 3 children, each child with 2 more: 1 + 3 + 6 vertices
        assert g.n == 10 and g.num_edges == 9
        internal_degrees = [g.degree(v) for v in range(g.n) if g.degree(v) > 1]
        assert all(d == 3 for d in internal_degrees)
        assert g.is_connected()

    def test_clique_is_complete(self):
        g = complete_graph(6)
        assert g.num_edges == 15 and all(d == 5 for d in g.degrees())

    def test_unbalanced_stars_structure(self):
        k = 16
        g = make_family(f"unbalanced_stars:{k}")
        small, big = unbalanced_stars_degrees(k)
        assert (small, big) == (2, 8)
        comps = g.components()
        assert len(comps) == k + 1
        sizes = sorted(len(c) for c in comps)
        assert sizes == [small + 1] * k + [big + 1]

    def test_unbalanced_stars_profile_matches_graph(self):
        for k in (1, 2, 16, 81, 100):
            g = make_family(f"unbalanced_stars:{k}")
            num_edges, max_degree, cover = unbalanced_stars_profile(k)
            assert g.num_edges == num_edges
            assert g.max_degree() == max_degree
            # cover: one center per star is necessary and sufficient
            assert cover == k + 1 == len(g.components())

    def test_unbalanced_stars_degrees_exact_at_fourth_powers(self):
        # 255 vs 256 straddles 4**4; float rounding must not leak through
        assert unbalanced_stars_degrees(255)[0] == 3
        assert unbalanced_stars_degrees(256)[0] == 4
        assert unbalanced_stars_degrees(10**12)[0] == 1000

    def test_unbalanced_stars_huge_k(self):
        assert unbalanced_stars_degrees(10**120) == (10**30, 10**90)

    @pytest.mark.parametrize("k", [0, -3])
    def test_unbalanced_stars_needs_a_star(self, k):
        for closed_form in (unbalanced_stars_degrees, unbalanced_stars_profile):
            with pytest.raises(InvalidSpecError) as err:
                closed_form(k)
            assert str(err.value) == f"unbalanced_stars needs k >= 1, got {k}"
        assert isinstance(unbalanced_stars_profile(10**400), tuple)

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_built_canonical_as_the_checked_construction(self, kind):
        """Each family lists its edges canonical: the graph equals the one
        `Graph` builds, checked and sorted, from the same edges."""
        two = kind in ("complete_bipartite", "regular_tree")
        sizes = [(1, 1), (2, 3), (3, 1), (4, 4)] if two else [(1,), (2,), (5,), (16,), (81,)]
        for params in sizes:
            g = make_family(FamilySpec(kind, params))
            want = Graph(g.n, list(g.edges))
            assert (g.n, g.edges, hash(g)) == (want.n, want.edges, hash(want)) and g == want
            assert g.degrees() == want.degrees()

    def test_canonical_copy_edges(self):
        g = make_family("path:2")
        assert frozenset(g.edges) == frozenset({(0, 1), (1, 2)})
