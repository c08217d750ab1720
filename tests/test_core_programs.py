"""End-to-end correctness of RecStep on every benchmark program.

Each program runs on small random inputs and is checked against an
independent brute-force Python reference. PBME paths are additionally
checked for equivalence with the relational path.
"""

import heapq
from collections import Counter

import numpy as np
import pytest

from repro import PbmeMode, RecStep, RecStepConfig
from repro.programs import get_program
from tests.conftest import reference_closure, reference_same_generation


def run(name, data, **config_overrides):
    config = RecStepConfig(enforce_budgets=False, pbme=PbmeMode.OFF, **config_overrides)
    return RecStep(config).evaluate(get_program(name), data, dataset="test")


@pytest.fixture
def edges(random_graph):
    return random_graph


class TestTransitiveClosure:
    def test_tc_matches_reference(self, edges):
        result = run("TC", {"arc": edges})
        assert result.tuples["tc"] == reference_closure(edges)

    def test_tc_empty_graph(self):
        result = run("TC", {"arc": np.empty((0, 2), dtype=np.int64)})
        assert result.tuples["tc"] == set()

    def test_tc_single_edge(self):
        result = run("TC", {"arc": np.array([[1, 2]])})
        assert result.tuples["tc"] == {(1, 2)}

    def test_tc_cycle(self):
        edges = np.array([[0, 1], [1, 2], [2, 0]])
        result = run("TC", {"arc": edges})
        assert result.tuples["tc"] == {(a, b) for a in range(3) for b in range(3)}

    def test_tc_pbme_equivalence(self, edges):
        relational = run("TC", {"arc": edges})
        pbme = RecStep(RecStepConfig(enforce_budgets=False, pbme=PbmeMode.ON)).evaluate(
            get_program("TC"), {"arc": edges}, dataset="test"
        )
        assert pbme.tuples["tc"] == relational.tuples["tc"]
        assert pbme.detail["pbme_strata"] == 1.0


class TestSameGeneration:
    def test_sg_matches_reference(self, edges):
        result = run("SG", {"arc": edges})
        assert result.tuples["sg"] == reference_same_generation(edges)

    def test_sg_pbme_equivalence(self, edges):
        relational = run("SG", {"arc": edges})
        pbme = RecStep(RecStepConfig(enforce_budgets=False, pbme=PbmeMode.ON)).evaluate(
            get_program("SG"), {"arc": edges}, dataset="test"
        )
        assert pbme.tuples["sg"] == relational.tuples["sg"]

    def test_sg_pbme_coordination_same_answer(self, edges):
        plain = RecStep(RecStepConfig(enforce_budgets=False, pbme=PbmeMode.ON)).evaluate(
            get_program("SG"), {"arc": edges}, dataset="test"
        )
        coordinated = RecStep(
            RecStepConfig(enforce_budgets=False, pbme=PbmeMode.ON, sg_coordination=True)
        ).evaluate(get_program("SG"), {"arc": edges}, dataset="test")
        assert plain.tuples["sg"] == coordinated.tuples["sg"]


class TestReach:
    def test_reach_matches_bfs(self, edges):
        source = int(edges[0, 0])
        result = run("REACH", {"arc": edges, "id": np.array([[source]])})
        reached = {source}
        changed = True
        while changed:
            changed = False
            for a, b in edges.tolist():
                if a in reached and b not in reached:
                    reached.add(b)
                    changed = True
        assert result.tuples["reach"] == {(v,) for v in reached}

    def test_reach_isolated_source(self, edges):
        lonely = int(edges.max()) + 10
        result = run("REACH", {"arc": edges, "id": np.array([[lonely]])})
        assert result.tuples["reach"] == {(lonely,)}


class TestConnectedComponents:
    def test_cc_matches_label_propagation(self, edges):
        result = run("CC", {"arc": edges})
        labels = {int(x): int(x) for x in edges[:, 0]}
        changed = True
        while changed:
            changed = False
            for x, y in edges.tolist():
                if x in labels:
                    candidate = labels[x]
                    if y not in labels or candidate < labels[y]:
                        labels[y] = candidate
                        changed = True
        assert result.tuples["cc"] == {(v,) for v in set(labels.values())}


class TestSssp:
    def test_sssp_matches_dijkstra(self, edges):
        rng = np.random.default_rng(7)
        weights = rng.integers(1, 10, size=(edges.shape[0], 1))
        arc = np.hstack([edges, weights])
        source = int(edges[0, 0])
        result = run("SSSP", {"arc": arc, "id": np.array([[source]])})

        adjacency: dict[int, list[tuple[int, int]]] = {}
        for a, b, w in arc.tolist():
            adjacency.setdefault(a, []).append((b, w))
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, 1 << 62):
                continue
            for v, w in adjacency.get(u, []):
                if d + w < dist.get(v, 1 << 62):
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        assert result.tuples["sssp"] == set(dist.items())


class TestProgramAnalyses:
    def test_andersen_matches_reference(self):
        rng = np.random.default_rng(11)
        n = 14
        def rel(count):
            rows = np.unique(rng.integers(0, n, size=(count, 2)), axis=0)
            return rows
        address_of, assign, load, store = rel(10), rel(8), rel(5), rel(5)
        result = run(
            "AA",
            {"addressOf": address_of, "assign": assign, "load": load, "store": store},
        )
        pts = {(y, x) for y, x in address_of.tolist()}
        while True:
            new = set()
            new |= {(y, x) for (y, z) in assign.tolist() for (z2, x) in pts if z2 == z}
            new |= {
                (y, w)
                for (y, x) in load.tolist()
                for (x2, z) in pts
                if x2 == x
                for (z2, w) in pts
                if z2 == z
            }
            new |= {
                (z, w)
                for (y, x) in store.tolist()
                for (y2, z) in pts
                if y2 == y
                for (x2, w) in pts
                if x2 == x
            }
            if new <= pts:
                break
            pts |= new
        assert result.tuples["pointsTo"] == pts

    def test_csda_matches_reference(self, edges):
        null_edges = edges[:3]
        result = run("CSDA", {"nullEdge": null_edges, "arc": edges})
        null = {tuple(map(int, e)) for e in null_edges}
        edge_list = edges.tolist()
        while True:
            new = {
                (x, y) for (x, w) in null for (w2, y) in edge_list if w2 == w
            } - null
            if not new:
                break
            null |= new
        assert result.tuples["null"] == null

    def test_cspa_runs_and_is_mutual(self, edges):
        result = run("CSPA", {"assign": edges[:8], "dereference": edges[:6]})
        assert result.status == "ok"
        assert result.tuples["valueFlow"]


class TestNegationAndAggregation:
    def test_ntc_complement(self, edges):
        result = run("NTC", {"arc": edges})
        closure = reference_closure(edges)
        nodes = {int(v) for edge in edges for v in edge}
        expected = {(a, b) for a in nodes for b in nodes if (a, b) not in closure}
        assert result.tuples["ntc"] == expected

    def test_gtc_counts(self, edges):
        result = run("GTC", {"arc": edges})
        closure = reference_closure(edges)
        counts = Counter(a for a, _ in closure)
        assert result.tuples["gtc"] == set(counts.items())

    @pytest.mark.parametrize("constant, expected", [(5, set()), (7, {(1,), (2,)})])
    def test_ground_negated_atom_filters_the_whole_body(self, constant, expected):
        from repro.baselines import NaiveEngine
        from repro.programs.library import ProgramSpec

        spec = ProgramSpec(
            name="GN",
            title="ground negation",
            domain="graph",
            source=f"p(x) :- a(x), !b({constant}).",
            outputs=("p",),
        )
        edb = {"a": np.array([[1], [2]]), "b": np.array([[5]])}
        config = RecStepConfig(enforce_budgets=False, pbme=PbmeMode.OFF)
        result = RecStep(config).evaluate(spec, edb, dataset="test")
        oracle = NaiveEngine(enforce_budgets=False).evaluate(spec, edb, "test")
        assert result.status == oracle.status == "ok"
        assert result.tuples["p"] == oracle.tuples["p"] == expected


class TestConfigurationsAgree:
    """Every optimization configuration must compute the same fixpoint."""

    @pytest.mark.parametrize(
        "ablation",
        ["uie", "oof", "oof-fa", "dsd", "eost", "fast_dedup"],
    )
    def test_ablations_preserve_tc(self, edges, ablation):
        base = run("TC", {"arc": edges})
        config = RecStepConfig(enforce_budgets=False, pbme=PbmeMode.OFF).without(ablation)
        ablated = RecStep(config).evaluate(get_program("TC"), {"arc": edges}, "test")
        assert ablated.tuples["tc"] == base.tuples["tc"]

    def test_no_op_preserves_cspa(self, edges):
        base = run("CSPA", {"assign": edges[:8], "dereference": edges[:6]})
        config = RecStepConfig.no_op(enforce_budgets=False)
        no_op = RecStep(config).evaluate(
            get_program("CSPA"), {"assign": edges[:8], "dereference": edges[:6]}, "test"
        )
        assert no_op.tuples == base.tuples

    def test_thread_count_does_not_change_results(self, edges):
        one = run("TC", {"arc": edges}, threads=1)
        forty = run("TC", {"arc": edges}, threads=40)
        assert one.tuples == forty.tuples

    def test_more_threads_speed_up_large_inputs(self):
        rng = np.random.default_rng(5)
        big = np.unique(rng.integers(0, 300, size=(3000, 2)), axis=0)
        big = big[big[:, 0] != big[:, 1]]
        one = run("TC", {"arc": big}, threads=1)
        twenty = run("TC", {"arc": big}, threads=20)
        assert one.tuples == twenty.tuples
        assert one.sim_seconds > twenty.sim_seconds
