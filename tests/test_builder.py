"""The one edge builder: ``add_planned_edges`` inserts a plan in one batch,
checks each source's slots once per batch, inserts all or nothing, and
makes one role label per (name, index) per call."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

import builder_oracle
from semgraph import model, penman, ucca
from semgraph.cli import main
from semgraph.model import (
    BAD_INDEX_SET,
    DUPLICATE_ROLE_SLOT,
    ENTITY_OUT_EDGE,
    GraphError,
    RoleLabel,
    SemanticGraph,
    add_planned_edges,
    validate,
)

HUB = 4000


@pytest.fixture(params=[RoleLabel, str], ids=["label", "name"])
def role(request):
    """How a plan gives an unindexed role: as a ``RoleLabel`` or by its name."""
    return request.param


def amr_hub(roles) -> str:
    return "(a / and" + "".join(f" :{role} c" for role in roles) + ")"


BUILDS = {
    "amr-repeated-op": lambda: penman.amr_to_graph(penman.parse_penman(amr_hub(["op"] * HUB))),
    "amr-numbered-op": lambda: penman.amr_to_graph(
        penman.parse_penman(amr_hub(f"op{i}" for i in range(1, HUB + 1)))),
    "ucca-wide-root": lambda: ucca.ucca_to_graph(ucca.parse_ucca(
        "unit u0\n" + "".join(f"term t{i} w\nedge u0 t{i} A\n" for i in range(HUB))
        + "root u0\n")),
}


@pytest.mark.parametrize("build", BUILDS.values(), ids=list(BUILDS))
def test_slot_checks_are_linear_in_the_edges(monkeypatch, build):
    # The slot rule is linear in the edges it is given, so the total length
    # handed to it bounds the checking work without reading a clock.
    given = []
    slot_fault = model._slot_fault
    monkeypatch.setattr(model, "_slot_fault",
                        lambda out: given.append(len(out)) or slot_fault(out))
    graph = build()
    assert len(graph.edges) == HUB and validate(graph) == []
    assert HUB <= sum(given) <= 3 * HUB


def test_cli_converts_an_8000_op_hub(tmp_path):
    path = tmp_path / "hub.amr"
    path.write_text(amr_hub(["op"] * 8000), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["convert", "--from", "amr", "--to", "xml", str(path)])
    assert code == 0, err.getvalue()
    assert out.getvalue().count('<role name="op" index=') == 8000


def test_repeated_role_is_indexed_in_plan_order(role):
    g = SemanticGraph()
    a, x, y, z = (g.add_concept(name) for name in "axyz")
    add_planned_edges(g, [(a, role("r"), x), (a, role("s"), y),
                          (a, RoleLabel("r", 1), z), (a, role("s"), x)])
    assert [(str(e.label), e.target) for e in g.edges] == [
        ("r[1]", x), ("r[2]", z), ("s[1]", y), ("s[2]", x)]


def test_indexed_group_keeps_its_plan_order():
    g = SemanticGraph()
    a, x, y = (g.add_concept(name) for name in "axy")
    add_planned_edges(g, [(a, RoleLabel("r", 2), x), (a, RoleLabel("r", 1), y)])
    assert [(str(e.label), e.target) for e in g.edges] == [("r[2]", x), ("r[1]", y)]


@pytest.mark.parametrize("second, code", [
    (("a", RoleLabel("s"), "b"), DUPLICATE_ROLE_SLOT),
    (("a", RoleLabel("t", 2), "b"), BAD_INDEX_SET),
    (("e", RoleLabel("s"), "b"), ENTITY_OUT_EDGE),
], ids=["duplicate-slot", "index-gap", "entity-source"])
def test_planned_batch_is_all_or_nothing(second, code, role):
    g = SemanticGraph()
    ids = {"a": g.add_concept("A"), "b": g.add_concept("B"), "e": g.add_entity("E")}
    g.add_edge(ids["a"], "s", ids["b"])
    edges, out = list(g.edges), g.out_edges(ids["a"])
    source, label, target = second
    if label.index is None:
        label = role(label.name)
    with pytest.raises(GraphError) as exc:
        add_planned_edges(g, [(ids["a"], role("r"), ids["b"]),
                              (ids[source], label, ids[target])])
    assert exc.value.code == code
    assert g.edges == edges and g.out_edges(ids["a"]) == out
    g.add_edge(ids["a"], "r", ids["b"])  # the first group's slot is still free
    assert validate(g) == []


def test_insertion_checks_only_the_role_names_it_adds(role):
    # An invalid graph read from XML may already break the slot rule on one
    # role; edges of another role can still be added to that node.
    g = SemanticGraph()
    a, b = g.add_concept("A"), g.add_concept("B")
    g.edges += [model.Edge(a, RoleLabel("r"), b), model.Edge(a, RoleLabel("r"), b)]
    g.add_edge(a, "s", b)
    add_planned_edges(g, [(a, role("t"), b), (a, role("t"), a)])
    assert [str(e.label) for e in g.out_edges(a)] == ["r", "r", "s", "t[1]", "t[2]"]
    with pytest.raises(GraphError) as exc:
        add_planned_edges(g, [(a, role("u"), b), (a, RoleLabel("r", 1), b)])
    assert exc.value.code == DUPLICATE_ROLE_SLOT and len(g.edges) == 5


def _label_objects(edges) -> dict[tuple[str, int | None], set[int]]:
    objects: dict[tuple[str, int | None], set[int]] = {}
    for edge in edges:
        objects.setdefault((edge.label.name, edge.label.index), set()).add(id(edge.label))
    return objects


def test_one_call_shares_one_label_per_name_and_index():
    # 100 units with two A children each: the 200 A edges are relabelled
    # A[1] and A[2], and hold two label objects between them.
    passage = "unit u0\n" + "".join(
        f"unit u{i}\nedge u0 u{i} H\nterm t{i}a w\nterm t{i}b w\n"
        f"edge u{i} t{i}a A\nedge u{i} t{i}b A\n" for i in range(1, 101)) + "root u0\n"
    g = ucca.ucca_to_graph(ucca.parse_ucca(passage))
    objects = _label_objects(g.edges)
    assert {key: len(ids) for key, ids in objects.items() if key[0] == "A"} == {
        ("A", 1): 1, ("A", 2): 1}
    assert sum(str(e.label).startswith("A[") for e in g.edges) == 200
    assert all(len(ids) == 1 for ids in objects.values())


def test_relabelled_group_takes_the_planned_label_of_its_pair():
    g = SemanticGraph()
    a, b, c, x = (g.add_concept(name) for name in "abcx")
    first = RoleLabel("r", 1)
    add_planned_edges(g, [(a, "r", x), (b, first, x), (c, "r", x), (c, RoleLabel("r"), a),
                          (a, RoleLabel("s", 1), x), (b, RoleLabel("s", 1), x),
                          (a, "q", x), (b, RoleLabel("q"), x)])
    assert [str(e) for e in g.edges] == [
        "n1 -r-> n4", "n2 -r[1]-> n4", "n3 -r[1]-> n4", "n3 -r[2]-> n1",
        "n1 -s[1]-> n4", "n2 -s[1]-> n4", "n1 -q-> n4", "n2 -q-> n4"]
    assert g.edges[1].label is first and g.edges[2].label is first
    assert all(len(ids) == 1 for ids in _label_objects(g.edges).values())


def test_empty_role_name_in_a_plan_inserts_nothing():
    g = SemanticGraph()
    a, b = g.add_concept("A"), g.add_concept("B")
    with pytest.raises(GraphError, match="^role name must be non-empty$"):
        add_planned_edges(g, [(a, "r", b), (b, "", a)])
    assert g.edges == [] and g.out_edges(a) == []


# Node kinds of the graphs drawn below; endpoints are drawn mostly from the
# graph's nodes, and sources from its concepts, so that most plans get past
# the endpoint rule to the slot rule.
KINDS = ["concept"] * 4 + ["entity", "omitted"]
NAMES = ["r", "s"]

indexed_labels = st.builds(RoleLabel, st.sampled_from(NAMES), st.integers(1, 3))
role_labels = st.one_of(st.sampled_from(NAMES), st.builds(RoleLabel, st.sampled_from(NAMES)),
                        indexed_labels)


@st.composite
def plans(draw):
    """A graph description (node kinds, and edges appended straight to
    ``edges``, valid or not) and a plan on it, with ids that may be missing:
    its labels are names and ``RoleLabel``s mixed, or indexed labels only."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    ids = [f"n{i}" for i in range(1, len(kinds) + 1)]
    concepts = [i for i, kind in zip(ids, kinds) if kind == "concept"] or ids
    target = st.sampled_from(ids * 8 + ["ghost"])
    existing = draw(st.lists(st.tuples(st.sampled_from(concepts), role_labels, target),
                             max_size=4))
    source = st.sampled_from(concepts * 8 + ids + ["ghost"])
    labels = draw(st.sampled_from([role_labels, indexed_labels]))
    plan = draw(st.lists(st.tuples(source, labels, target), max_size=10))
    return kinds, existing, plan


def _graph(kinds, existing) -> SemanticGraph:
    g = SemanticGraph()
    for kind in kinds:
        {"concept": lambda: g.add_concept("C"), "entity": lambda: g.add_entity("v"),
         "omitted": g.add_omitted}[kind]()
    g.edges += [model.Edge(s, RoleLabel(label) if isinstance(label, str) else label, t)
                for s, label, t in existing]
    return g


def _outcome(builder, kinds, existing, plan):
    """What ``builder`` does with ``plan``: its error, or the edges it added
    with, for each, which planned label object it holds (by the first plan
    position that holds it), if any."""
    g = _graph(kinds, existing)
    before = list(g.edges)
    try:
        builder(g, plan)
    except Exception as exc:  # the same failure from both builders, whatever it is
        assert g.edges == before  # nothing inserted
        return type(exc), getattr(exc, "code", None), str(exc)
    assert g.edges[:len(before)] == before
    added = g.edges[len(before):]
    assert all(len(ids) == 1 for ids in _label_objects(added).values())
    position = {}
    for i, (_, label, _) in enumerate(plan):
        position.setdefault(id(label), i)
    return added, [position.get(id(edge.label)) for edge in added]


@given(plans())
@settings(max_examples=400)
def test_builder_matches_the_one_it_replaced(drawn):
    assert _outcome(add_planned_edges, *drawn) == _outcome(builder_oracle.add_planned_edges,
                                                           *drawn)
