"""Cycle detection under the runtime sanitizer: witnesses are closed walks."""

from repro.analysis.cycles import find_cycles


def _cycles(adjacency):
    return list(find_cycles(adjacency))


class TestWitnesses:
    def test_empty_graph_has_no_cycle(self):
        assert _cycles({}) == []

    def test_diamond_dag_has_no_cycle(self):
        # Two paths into the same node are a partial order, not a cycle.
        assert _cycles({"a": {"b", "c"}, "b": {"d"}, "c": {"d"}, "d": set()}) == []

    def test_self_loop_is_a_one_node_cycle(self):
        assert _cycles({"a": {"a"}}) == [["a", "a"]]

    def test_two_node_inversion_is_a_closed_walk(self):
        assert _cycles({"a": {"b"}, "b": {"a"}}) == [["a", "b", "a"]]

    def test_every_witness_hop_is_an_edge(self):
        adjacency = {"a": {"b", "x"}, "b": {"c"}, "c": {"a", "y"}, "x": {"y"}}
        (cycle,) = _cycles(adjacency)
        assert cycle == ["a", "b", "c", "a"]
        for held, acquired in zip(cycle, cycle[1:]):
            assert acquired in adjacency[held]

    def test_nodes_missing_from_keys_are_sinks(self):
        # A child that is nobody's key is a dead end, not a KeyError.
        assert _cycles({"a": {"b"}, "c": {"d"}}) == []
        assert _cycles({"a": {"b", "z"}, "b": {"a"}}) == [["a", "b", "a"]]

    def test_disjoint_cycles_each_get_a_witness(self):
        adjacency = {"a": {"b"}, "b": {"a"}, "p": {"q"}, "q": {"p"}}
        assert _cycles(adjacency) == [["a", "b", "a"], ["p", "q", "p"]]


class TestTraversal:
    def test_witnesses_do_not_depend_on_insertion_order(self):
        forward = {1: {2, 3}, 2: {3}, 3: {1}, 4: {4}}
        backward = {4: {4}, 3: {1}, 2: {3}, 1: {3, 2}}
        assert _cycles(forward) == _cycles(backward) == [[1, 2, 3, 1], [4, 4]]

    def test_long_chain_stays_iterative(self):
        # Far past the interpreter's recursion limit: a recursive DFS
        # would raise RecursionError on this graph.
        n = 5000
        adjacency = {i: {i + 1} for i in range(n)}
        adjacency[n] = {0}
        (cycle,) = _cycles(adjacency)
        assert cycle == list(range(n + 1)) + [0]
