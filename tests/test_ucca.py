import pytest

from semgraph.model import ConceptNode, EntityNode, validate
from semgraph.ucca import UccaError, parse_ucca, ucca_to_graph
from helpers import in_edges

GOLF = """\
root u1
unit u1
unit u2
term t1 Golf
term t2 became
term t3 a passion
edge u1 u2 H
edge u2 t1 A
edge u2 t2 P
edge u2 t3 A
"""


class TestParseUcca:
    def test_minimal_passage(self):
        passage = parse_ucca("root u1\nunit u1\nterm t1 Golf\nterm t2 became\n"
                             "edge u1 t1 A\nedge u1 t2 P\n")
        assert len(passage.nodes) == 3
        assert len(passage.edges) == 2
        assert passage.root == "u1"
        assert passage.nodes["t1"].text == "Golf"

    def test_term_text_may_contain_spaces(self):
        passage = parse_ucca(GOLF)
        assert passage.nodes["t3"].text == "a passion"

    def test_terminal_with_children_rejected(self):
        text = "root u1\nunit u1\nterm t1 x\nterm t2 y\nedge u1 t1 A\nedge t1 t2 E\n"
        with pytest.raises(UccaError) as exc:
            parse_ucca(text)
        assert "cannot have children" in str(exc.value)
        assert exc.value.line == 6

    def test_duplicate_id_rejected(self):
        with pytest.raises(UccaError):
            parse_ucca("root u1\nunit u1\nterm u1 x\n")

    def test_edge_to_missing_node_rejected(self):
        with pytest.raises(UccaError) as exc:
            parse_ucca("root u1\nunit u1\nedge u1 zz A\n")
        assert "zz" in str(exc.value)

    @pytest.mark.parametrize("text,reason,line", [
        ("", "missing root declaration", 1),
        ("unit u1\n", "missing root declaration", 2),  # where the text ends
        ("# passage\nunit u1\nterm t1 x\nedge u1 t1 A", "missing root declaration", 4),
        ("unit u1\n\nroot u9\n# end\n", "root 'u9' is not a declared node", 3),
        ("root t1\nterm t1 Golf\n", "root 't1' must be a unit", 1),
        ("term t1 Golf\nroot t1\n", "root 't1' must be a unit", 2),
        ("root u1\nunit u1\nunit u2\n", "node 'u2' has no parent and is not the root", 3),
        ("root u1\nunit u1\nterm t1 x\nterm t2 y\n# t2\nedge u1 t1 A\n",
         "node 't2' has no parent and is not the root", 4),
        ("unit u0\nroot u0 u1\n", "root record needs exactly one id", 2),
        ("root u1\nunit u1\nedge zz u1 A\n", "edge references unknown node 'zz'", 3),
    ], ids=["empty", "missing-root", "missing-root-no-final-newline", "undeclared-root",
            "terminal-root", "terminal-root-after-term", "orphan", "orphan-terminal",
            "root-with-two-ids", "edge-from-undeclared"])
    def test_shape_errors_are_rejected_and_located(self, text, reason, line):
        with pytest.raises(UccaError) as exc:
            parse_ucca(text)
        assert (exc.value.reason, exc.value.line, exc.value.column) == (reason, line, None)

    def test_duplicate_root_rejected(self):
        with pytest.raises(UccaError):
            parse_ucca("root u1\nroot u1\nunit u1\n")

    def test_unknown_record_rejected(self):
        with pytest.raises(UccaError) as exc:
            parse_ucca("node u1\n")
        assert exc.value.line == 1

    def test_lines_end_at_newline_only(self):
        with pytest.raises(UccaError) as exc:
            parse_ucca("# passage\vnote\x1c\u2029\nroot u1\nunit u1\nnode u2\n")
        assert (exc.value.reason, exc.value.line) == ("unknown record type 'node'", 4)

    def test_crlf_lines(self):
        passage = parse_ucca("root u1\r\nunit u1\r\nterm t1 Golf\r\nedge u1 t1 A\r\n")
        assert passage.nodes["t1"].text == "Golf"

    def test_comments_and_blanks_skipped(self):
        passage = parse_ucca("# a comment\n\nroot u1\nunit u1\nterm t1 x\nedge u1 t1 A\n")
        assert len(passage.nodes) == 2


class TestUccaToGraph:
    def test_recipe(self):
        g = ucca_to_graph(parse_ucca(GOLF))
        assert validate(g) == []
        concepts = [n for n in g.nodes.values() if isinstance(n, ConceptNode)]
        entities = [n for n in g.nodes.values() if isinstance(n, EntityNode)]
        assert {c.name for c in concepts} == {"UCCA.Unit"}
        assert len(concepts) == 2
        assert all(e.classes == ("UCCA.Terminal",) for e in entities)
        assert sorted(e.value for e in entities) == ["Golf", "a passion", "became"]

    def test_counts_preserved(self):
        passage = parse_ucca(GOLF)
        g = ucca_to_graph(passage)
        assert len(g.nodes) == len(passage.nodes)
        assert len(g.edges) == len(passage.edges)

    def test_minimal_convertible_passage(self):
        g = ucca_to_graph(parse_ucca("root u1\nunit u1\nterm t1 x\nedge u1 t1 A\n"))
        assert len(g.nodes) == 2
        assert len(g.edges) == 1
        assert str(g.edges[0].label) == "A"

    def test_multi_parent_node_keeps_both_incoming_edges(self):
        text = ("root u1\nunit u1\nunit u2\nunit u3\nterm t1 she\n"
                "edge u1 u2 H\nedge u1 u3 H2\nedge u2 t1 A\nedge u3 t1 A\n")
        passage = parse_ucca(text)
        g = ucca_to_graph(passage)
        assert len(g.nodes) == len(passage.nodes)
        assert len(g.edges) == len(passage.edges)
        entity = [nid for nid, n in g.nodes.items() if isinstance(n, EntityNode)][0]
        assert len(in_edges(g, entity)) == 2

    def test_same_category_siblings_become_indexed(self):
        g = ucca_to_graph(parse_ucca(GOLF))
        u2_edges = [e for e in g.edges if e.label.name == "A"]
        assert [e.label.index for e in u2_edges] == [1, 2]
        targets = [g.nodes[e.target].value for e in u2_edges]
        assert targets == ["Golf", "a passion"]

    def test_remote_edges_preserved_and_valid(self):
        text = ("root u1\nunit u1\nunit u2\nunit u3\nterm t1 x\nterm t2 y\n"
                "edge u1 u2 H\nedge u1 u3 H2\nedge u2 t1 A\nedge u2 t2 P\n"
                "edge u3 t1 A\n")  # t1 also participates in u3 (remote)
        g = ucca_to_graph(parse_ucca(text))
        assert validate(g) == []
        assert len(g.edges) == 5
