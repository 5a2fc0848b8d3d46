"""A scaling gate with no clock: the Python and C calls a command makes,
counted with ``sys.setprofile``, grow linearly with its input.

Each format is converted, and XML graphs and catalogues are read by the
other commands, at three sizes drawn from the benchmark's generators
(``bench/gen.py``). The gate compares marginal calls per element across the
two size steps, not totals, so that work done once per command cancels out.
A warm-up run first does the once-per-process work, such as building the
CLI's argument parser.
"""

import contextlib
import io
import random
import sys

import pytest

import gen
from semgraph.cli import main
from semgraph.model import RoleLabel, SemanticGraph

FLAT = 1.1  # the second step's marginal calls per element, at most, over the first's

# format -> (file maker, three sizes in the maker's unit)
FORMATS = {
    "amr": (lambda rng, n: gen.amr_file(rng, "d", n), (20, 80, 320)),
    "conll": (lambda rng, n: gen.conll_file(rng, "d", n), (20, 80, 320)),
    "umr": (gen.umr_file, (12, 48, 192)),
    "ttl": (lambda rng, n: gen.turtle_file(rng, n)[:2], (20, 80, 320)),
    "ucca": (gen.ucca_file, (200, 800, 3200)),
}


def count_calls(run) -> int:
    """The Python and C function calls made while ``run()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def marginals(points: list[tuple[int, int]]) -> list[float]:
    """Calls per element added, between each (elements, calls) point and the next."""
    return [(c2 - c1) / (e2 - e1) for (e1, c1), (e2, c2) in zip(points, points[1:])]


def run(args: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0


def assert_flat(sized: list[tuple[int, list[str]]]) -> None:
    """Run each (elements, command line), smallest input first, after a
    warm-up run of the first, and gate the marginal calls per element."""
    run(sized[0][1])  # the warm-up
    points = [(elements, count_calls(lambda: run(args))) for elements, args in sized]
    first, second = marginals(points)
    assert second <= FLAT * first, points


@pytest.mark.parametrize("fmt", FORMATS)
def test_convert_to_xml_makes_flat_calls_per_element(fmt, tmp_path):
    make, sizes = FORMATS[fmt]
    sized = []
    for size in sizes:
        text, counts = make(random.Random(1), size)
        path = tmp_path / f"{size}.{fmt}"
        path.write_text(text, encoding="utf-8")
        sized.append((counts.elements(), ["convert", "--from", fmt, "--to", "xml", str(path)]))
    assert_flat(sized)


# command -> its command line on a graph file, the catalogue file and an output file
XML_COMMANDS = {
    "validate": lambda graph, catalogue, out: ["validate", graph],
    "validate-strict": lambda graph, catalogue, out: [
        "validate", "--strict", "--catalogue", catalogue, graph],
    "render": lambda graph, catalogue, out: ["render", graph, "-o", out],
}


@pytest.mark.parametrize("command", XML_COMMANDS)
def test_xml_commands_make_flat_calls_per_element(command, tmp_path):
    spec = gen.catalogue_spec(random.Random(1), 100)
    catalogue = tmp_path / "catalogue.xml"
    catalogue.write_text(spec.xml(), encoding="utf-8")
    sized = []
    for nodes in (250, 1000, 4000):
        text, counts, _, _ = gen.xml_graph(random.Random(1), spec, nodes, 0, 0)
        path = tmp_path / f"{nodes}.xml"
        path.write_text(text, encoding="utf-8")
        sized.append((counts.elements(), XML_COMMANDS[command](
            str(path), str(catalogue), str(tmp_path / f"{nodes}.dot"))))
    assert_flat(sized)


def test_catalogue_list_makes_flat_calls_per_element(tmp_path):
    sized = []
    for concepts in (100, 400, 1600):
        spec = gen.catalogue_spec(random.Random(1), concepts)
        path = tmp_path / f"{concepts}.xml"
        path.write_text(spec.xml(), encoding="utf-8")
        elements = len(spec.concepts) + sum(map(len, spec.concepts.values()))
        sized.append((elements, ["catalogue", "list", str(path)]))
    assert_flat(sized)


@pytest.mark.xfail(strict=True, reason="add_edge copies the source's same-name edges"
                   " into the slot check, so k indexed calls on one hub cost O(k^2)")
def test_add_edge_on_one_hub_makes_flat_calls_per_edge():
    points = []
    for k in (250, 500, 1000):
        g = SemanticGraph()
        hub, leaf = g.add_concept("and"), g.add_concept("c")

        def fill():
            for i in range(1, k + 1):
                g.add_edge(hub, RoleLabel("op", i), leaf)

        points.append((k, count_calls(fill)))
    first, second = marginals(points)
    assert second <= FLAT * first, points
