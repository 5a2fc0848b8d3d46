"""Acceptance suite: one test per criterion. The conftest hook prints a
pass/fail line for each test in this module."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

from semgraph.cli import main
from semgraph.conll import causation_catalogue, causation_to_graph, parse_conll
from semgraph.dot import to_dot
from semgraph.kg import events_to_graph, parse_turtle
from semgraph.model import (
    ENTITY_OUT_EDGE,
    INDEXING_MISMATCH,
    UNKNOWN_CONCEPT,
    UNKNOWN_ROLE,
    VIOLATION_CODES,
    ConceptNode,
    EntityNode,
    OmittedNode,
    validate,
)
from semgraph.penman import amr_to_graph, parse_penman, parse_umr_document, umr_to_graph
from semgraph.ucca import parse_ucca, ucca_to_graph
from semgraph.xmlio import from_xml, to_xml

from graphgen import corpus
from helpers import constants, fig1_catalogue, fig1_graph, in_edges, shape, structure_key
from test_kg import GOLDEN
from test_model import VIOLATION_MATRIX
from test_penman import AMR_SUITE, INVERSE_PAIRS
from test_umr import S1T2_DOCUMENT

NODE_STMT = re.compile(r'^  ".*\[shape=', re.M)

ROUND_TRIP_SEED = 108_000
ROUND_TRIP_COUNT = 1000


def test_criterion_1_figure_reconstruction():
    graph = fig1_graph()
    assert validate(graph, fig1_catalogue(), "strict") == []
    assert len(NODE_STMT.findall(to_dot(graph))) == 8


def test_criterion_2_validation_matrix():
    assert len(VIOLATION_CODES) == 9
    for code in sorted(VIOLATION_CODES):
        graph, catalogue = VIOLATION_MATRIX[code]()
        mode = "strict" if catalogue is not None else "lax"
        assert [v.code for v in validate(graph, catalogue, mode)] == [code]
    # strict-only checks never fire in lax mode
    for code in (UNKNOWN_CONCEPT, UNKNOWN_ROLE, INDEXING_MISMATCH):
        graph, _ = VIOLATION_MATRIX[code]()
        assert validate(graph, None, "lax") == []
    # structural checks fire identically in strict mode
    graph, _ = VIOLATION_MATRIX[ENTITY_OUT_EDGE]()
    strict = validate(graph, fig1_catalogue(), "strict")
    assert [v.code for v in strict] == [ENTITY_OUT_EDGE]


def _corpus_digest() -> str:
    digest = hashlib.sha256()
    for graph in corpus(ROUND_TRIP_SEED, ROUND_TRIP_COUNT):
        digest.update(to_xml(graph).encode("utf-8"))
    return digest.hexdigest()


def test_criterion_3_round_trip_and_process_determinism():
    graphs = corpus(ROUND_TRIP_SEED, ROUND_TRIP_COUNT)
    kinds = set()
    saw_indexed = saw_plain = False
    serialized: dict[str, set] = {}
    for graph in graphs:
        assert len(graph.nodes) <= 30 and len(graph.edges) <= 60
        kinds.update(type(node).__name__ for node in graph.nodes.values())
        for edge in graph.edges:
            saw_indexed = saw_indexed or edge.label.index is not None
            saw_plain = saw_plain or edge.label.index is None
        document = to_xml(graph)
        assert structure_key(from_xml(document)) == structure_key(graph)
        serialized.setdefault(document, set()).add(structure_key(graph))
    assert kinds == {"ConceptNode", "EntityNode", "OmittedNode"}
    assert saw_indexed and saw_plain
    # injectivity: structurally different graphs never share bytes
    assert all(len(keys) == 1 for keys in serialized.values())

    tests_dir = str(Path(__file__).parent)
    script = (
        "import hashlib, sys\n"
        f"sys.path.insert(0, {tests_dir!r})\n"
        "from graphgen import corpus\n"
        "from semgraph.xmlio import to_xml\n"
        "digest = hashlib.sha256()\n"
        f"for g in corpus({ROUND_TRIP_SEED}, {ROUND_TRIP_COUNT}):\n"
        "    digest.update(to_xml(g).encode('utf-8'))\n"
        "print(digest.hexdigest())\n"
    )
    runs = [subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, check=True).stdout.strip()
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0] == _corpus_digest()


def test_criterion_4_amr_suite():
    assert len(AMR_SUITE) == 20
    for text in AMR_SUITE:
        tree = parse_penman(text)
        graph = amr_to_graph(tree)
        assert len(graph.nodes) == len(tree.concepts) + len(constants(tree))
        assert len(graph.edges) == len(tree.slots)
    assert len(INVERSE_PAIRS) == 5
    for inverted, forward in INVERSE_PAIRS:
        assert shape(amr_to_graph(parse_penman(inverted))) == \
            shape(amr_to_graph(parse_penman(forward)))


def test_criterion_5_umr_promotion():
    from semgraph.model import Edge, RoleLabel, SemanticGraph

    # promoted conversion: the s1t2 filler is a concept with the incoming
    # temporal edge and the outgoing contained edge, and the graph is valid
    graph = umr_to_graph(parse_umr_document(S1T2_DOCUMENT))
    assert validate(graph) == []
    s1t2 = [nid for nid, node in graph.nodes.items()
            if isinstance(node, ConceptNode) and node.name == "s1t2"]
    assert len(s1t2) == 1
    assert [str(e.label) for e in in_edges(graph, s1t2[0])] == ["temporal"]
    assert [str(e.label) for e in graph.out_edges(s1t2[0])] == ["contained"]

    # naive conversion (constant stays an entity) breaks the leaf rule
    naive = SemanticGraph()
    sentence = naive.add_concept("sentence")
    filler = naive.add_entity("s1t2")
    target = naive.add_entity("s1t")
    naive.add_edge(sentence, "temporal", filler)
    naive.add_edge(sentence, "aspect", target)
    naive.edges.append(Edge(filler, RoleLabel("contained"), target))
    assert ENTITY_OUT_EDGE in {v.code for v in validate(naive)}


def test_criterion_6_kg_golden_file():
    store = parse_turtle(GOLDEN)
    graph = events_to_graph(store)
    assert validate(graph) == []

    event_ids = {e.source: graph.nodes[e.target].value for e in graph.edges
                 if e.label.name == "id" and graph.nodes[e.source].name == "sem:Event"}
    assert sorted(event_ids.values()) == ["wd:Q1073320", "wd:Q2", "wd:Q3"]
    top = next(nid for nid, name in event_ids.items() if name == "wd:Q1073320")

    # rule 1: id role; rule 2: one label literal per event
    for event_node in event_ids:
        labels = [e for e in graph.edges
                  if e.source == event_node and e.label.name == "rdfs:label"]
        assert len(labels) == 1 and labels[0].label.index is None
        assert isinstance(graph.nodes[labels[0].target], EntityNode)
    # rule 3: subEvent indices 1..2 in document order
    subevents = [e for e in graph.edges
                 if e.source == top and e.label.name == "subEvent"]
    assert [e.label.index for e in subevents] == [1, 2]
    assert [event_ids[e.target] for e in subevents] == ["wd:Q2", "wd:Q3"]
    # rule 4: literal property -> value leaf; resource property -> id leaf
    stamp = [e for e in graph.edges
             if e.source == top and e.label.name == "sem:hasTimeStamp"]
    assert len(stamp) == 1
    stamp_leaf = graph.out_edges(stamp[0].target)
    assert [str(e.label) for e in stamp_leaf] == ["value"]
    assert graph.nodes[stamp_leaf[0].target].value == "1789-07-14"
    place = [e for e in graph.edges if e.source == top and e.label.name == "ex:place"]
    place_leaf = graph.out_edges(place[0].target)
    assert [str(e.label) for e in place_leaf] == ["id"]
    assert graph.nodes[place_leaf[0].target].value == "wd:P9"
    assert len(graph.nodes) == 13 and len(graph.edges) == 12

    # whitespace/comment permutations keep the XML byte-identical
    permuted = "# shuffled\n" + GOLDEN.replace(" ;\n    ", " ;   # c\n\t")
    permuted = permuted.replace("\n\n", "\n  \n# extra\n\n")
    assert to_xml(events_to_graph(parse_turtle(permuted))) == to_xml(graph)


CONLL_SUITE = """\
# lang = it
1\tla\tla\tDET\t_\t_\t2\tdet\tB-Cause
2\tpioggia\tpioggia\tNOUN\t_\t_\t4\tnsubj\tI-Cause
3\tha\tavere\tAUX\t_\t_\t4\taux\tO
4\treso\trendere\tVERB\t_\t_\t0\troot\tO
5\tla\tla\tDET\t_\t_\t6\tdet\tB-Effect
6\tstrada\tstrada\tNOUN\t_\t_\t4\tobj\tI-Effect
7\tbagnata\tbagnato\tADJ\t_\t_\t6\tamod\tI-Effect

# lang = it
1\til\til\tDET\t_\t_\t2\tdet\tB-Cause
2\tfuoco\tfuoco\tNOUN\t_\t_\t0\troot\tI-Cause

# lang = it
1\tallagata\tallagare\tVERB\t_\t_\t0\troot\tB-Effect
2\tsubito\tsubito\tADV\t_\t_\t1\tadvmod\tO

# lang = it
1\til\til\tDET\t_\t_\t2\tdet\tB-Cause
2\tvento\tvento\tNOUN\t_\t_\t3\tnsubj\tI-Cause
3\trompe\trompere\tVERB\t_\t_\t0\troot\tO
4\tvetri\tvetro\tNOUN\t_\t_\t3\tobj\tB-Effect
5\te\te\tCCONJ\t_\t_\t6\tcc\tO
6\tporte\tporta\tNOUN\t_\t_\t4\tconj\tB-Effect

# lang = it
1\tper\tper\tADP\t_\t_\t3\tcase\tO
2\tla\tla\tDET\t_\t_\t3\tdet\tB-Cause
3\tneve\tneve\tNOUN\t_\t_\t5\tobl\tI-Cause
4\tscuole\tscuola\tNOUN\t_\t_\t5\tnsubj\tB-Effect
5\tchiuse\tchiudere\tVERB\t_\t_\t0\troot\tI-Effect
"""


def test_criterion_7_conll_suite():
    sentences = parse_conll(CONLL_SUITE)
    assert len(sentences) == 5
    assert all(s.language == "it" for s in sentences)
    catalogue = causation_catalogue()
    for sentence in sentences:
        graph = causation_to_graph(sentence)
        assert validate(graph, catalogue, "strict") == []
        elements = sorted((e.label.index, graph.nodes[e.target].value)
                          for e in graph.edges if e.label.name == "element")
        reconstructed = " ".join(value for _, value in elements)
        annotated = " ".join(t.form for t in sentence.tokens if t.causation != "O")
        assert reconstructed == annotated
    cause_only = causation_to_graph(sentences[1])
    effect_edges = [e for e in cause_only.edges if e.label.name == "effect"]
    assert len(effect_edges) == 1
    assert isinstance(cause_only.nodes[effect_edges[0].target], OmittedNode)


def _chain_passage(depth):
    lines = ["root u0"] + [f"unit u{i}" for i in range(depth)] + ["term t0 leaf"]
    lines += [f"edge u{i} u{i+1} E" for i in range(depth - 1)]
    lines += [f"edge u{depth-1} t0 C"]
    return "\n".join(lines) + "\n"


def _star_passage(width):
    lines = ["root u0", "unit u0"] + [f"term t{i} w{i}" for i in range(width)]
    lines += [f"edge u0 t{i} A{i}" for i in range(width)]
    return "\n".join(lines) + "\n"


UCCA_SUITE = [
    "root u1\nunit u1\nterm t1 Golf\nterm t2 became\nedge u1 t1 A\nedge u1 t2 P\n",
    "root u1\nunit u1\nterm t1 x\nedge u1 t1 A\n",
    # multi-parent (remote edge): t1 participates in two units
    ("root u1\nunit u1\nunit u2\nunit u3\nterm t1 she\nterm t2 ran\n"
     "edge u1 u2 H\nedge u1 u3 H2\nedge u2 t1 A\nedge u2 t2 P\nedge u3 t1 A\n"),
    _chain_passage(4),
    _star_passage(5),
    # duplicate categories under one unit
    "root u1\nunit u1\nterm t1 a\nterm t2 b\nedge u1 t1 C\nedge u1 t2 C\n",
    ("root u1\nunit u1\nunit u2\nterm t1 Golf\nterm t2 became\nterm t3 a passion\n"
     "edge u1 u2 H\nedge u2 t1 A\nedge u2 t2 P\nedge u2 t3 A\n"),
    _chain_passage(6),
    _star_passage(3),
    "root u1\nunit u1\nterm t1 Zürich\nterm t2 café\nedge u1 t1 A\nedge u1 t2 E\n",
]


def test_criterion_8_ucca_suite():
    assert len(UCCA_SUITE) == 10
    multi_parent_seen = False
    for text in UCCA_SUITE:
        passage = parse_ucca(text)
        graph = ucca_to_graph(passage)
        assert len(graph.nodes) == len(passage.nodes)
        assert len(graph.edges) == len(passage.edges)
        assert validate(graph) == []
        units = [n for n in graph.nodes.values() if isinstance(n, ConceptNode)]
        assert all(u.name == "UCCA.Unit" for u in units)
        parents = {}
        for edge in passage.edges:
            parents.setdefault(edge.child, set()).add(edge.parent)
        multi_parent_seen = multi_parent_seen or any(len(p) > 1 for p in parents.values())
    assert multi_parent_seen


def test_criterion_9_cli_end_to_end(tmp_path, capsys):
    ttl = tmp_path / "events.ttl"
    ttl.write_text(GOLDEN, encoding="utf-8")
    amr = tmp_path / "doc.amr"
    amr.write_text(AMR_SUITE[2] + "\n", encoding="utf-8")
    out_xml = tmp_path / "out.xml"
    out_dot = tmp_path / "out.dot"
    amr_xml = tmp_path / "amr.xml"

    # ttl -> xml -> dot
    assert main(["convert", "--from", "ttl", "--to", "xml", str(ttl),
                 "-o", str(out_xml)]) == 0
    assert main(["render", str(out_xml), "-o", str(out_dot)]) == 0
    restored = from_xml(out_xml.read_text(encoding="utf-8"))
    assert validate(restored) == []
    assert main(["validate", str(out_xml)]) == 0
    expected_nodes = len(events_to_graph(parse_turtle(GOLDEN)).nodes)
    assert len(NODE_STMT.findall(out_dot.read_text(encoding="utf-8"))) == expected_nodes

    # amr -> xml
    assert main(["convert", "--from", "amr", "--to", "xml", str(amr),
                 "-o", str(amr_xml)]) == 0
    assert validate(from_xml(amr_xml.read_text(encoding="utf-8"))) == []

    # exit-code matrix
    bad_graph = tmp_path / "bad.xml"
    bad_graph.write_text(
        '<semanticgraph version="1"><entity id="a" value="4">'
        '<role name="X" target="a"/></entity></semanticgraph>', encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(bad_graph)]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith(f"{ENTITY_OUT_EDGE}\t")
    assert main(["convert", "--from", "amr", "--to", "xml",
                 str(tmp_path / "nosuch.txt")]) == 2
    assert main(["convert", "--from", "amr", "--to", "xml", "--frobnicate",
                 str(amr)]) == 3
