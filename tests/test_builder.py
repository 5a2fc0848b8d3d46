"""The one edge builder: ``add_planned_edges`` inserts a plan in one batch,
checks each source's slots once per batch, and inserts all or nothing."""

import contextlib
import io

import pytest

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


def test_repeated_role_is_indexed_in_plan_order():
    g = SemanticGraph()
    a, x, y, z = (g.add_concept(name) for name in "axyz")
    add_planned_edges(g, [(a, RoleLabel("r"), x), (a, RoleLabel("s"), y),
                          (a, RoleLabel("r", 1), z), (a, RoleLabel("s"), x)])
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
def test_planned_batch_is_all_or_nothing(second, code):
    g = SemanticGraph()
    ids = {"a": g.add_concept("A"), "b": g.add_concept("B"), "e": g.add_entity("E")}
    g.add_edge(ids["a"], "s", ids["b"])
    edges, out = list(g.edges), g.out_edges(ids["a"])
    source, label, target = second
    with pytest.raises(GraphError) as exc:
        add_planned_edges(g, [(ids["a"], RoleLabel("r"), ids["b"]),
                              (ids[source], label, ids[target])])
    assert exc.value.code == code
    assert g.edges == edges and g.out_edges(ids["a"]) == out
    g.add_edge(ids["a"], "r", ids["b"])  # the first group's slot is still free
    assert validate(g) == []


def test_insertion_checks_only_the_role_names_it_adds():
    # An invalid graph read from XML may already break the slot rule on one
    # role; edges of another role can still be added to that node.
    g = SemanticGraph()
    a, b = g.add_concept("A"), g.add_concept("B")
    g.edges += [model.Edge(a, RoleLabel("r"), b), model.Edge(a, RoleLabel("r"), b)]
    g.add_edge(a, "s", b)
    add_planned_edges(g, [(a, RoleLabel("t"), b), (a, RoleLabel("t"), a)])
    assert [str(e.label) for e in g.out_edges(a)] == ["r", "r", "s", "t[1]", "t[2]"]
    with pytest.raises(GraphError) as exc:
        add_planned_edges(g, [(a, RoleLabel("u"), b), (a, RoleLabel("r", 1), b)])
    assert exc.value.code == DUPLICATE_ROLE_SLOT and len(g.edges) == 5
