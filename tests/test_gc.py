"""No reference cycles: a command, and the XML readers, leave nothing for
the cyclic garbage collector, so ``main`` can run with it paused."""

import gc

import pytest

from semgraph import cli
from semgraph.cli import main
from semgraph.conll import causation_catalogue
from semgraph.xmlio import XmlError, catalogue_from_xml, catalogue_to_xml, from_xml

TWO_EVENTS = """\
@prefix wd:   <http://www.wikidata.org/entity/> .
@prefix sem:  <http://semanticweb.cs.vu.nl/2009/11/sem/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
wd:Q1 a sem:Event ; rdfs:label "Storming of the Bastille" .
wd:Q2 a sem:Event ; sem:subEventOf wd:Q1 .
wd:Q3 a sem:Event ; rdfs:label "Tennis Court Oath" .
"""

INPUTS = {
    "in.amr": "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))\n\n(b / boy)\n",
    "in.umr": "(s1s / sentence :temporal s1t2)\n\n# doc\n(s1t2 contained s1s)\n",
    "in.ttl": TWO_EVENTS,
    "in.conll": "1\ta\ta\tX\t_\t_\t0\td\tB-Cause\n2\tb\tb\tX\t_\t_\t0\td\tB-Effect\n",
    "in.ucca": "root u1\nunit u1\nterm t1 Golf\nedge u1 t1 A\n",
    "ok.xml": '<semanticgraph version="1"><concept id="a" name="X">'
              '<role name="r" target="b"/></concept><entity id="b" value="4"/></semanticgraph>',
    "bad.xml": '<semanticgraph version="1"><entity id="a" value="4">'
               '<role name="X" target="a"/></entity></semanticgraph>',
    "dangling.xml": '<semanticgraph version="1">\n<concept id="a" name="X">\n'
                    '<role name="r" target="zz"/></concept></semanticgraph>',
    "malformed.xml": '<semanticgraph version="1"><concept id="a"',
    "orphan.ucca": "root u1\nunit u1\nunit u2\n",
    "cat.xml": catalogue_to_xml(causation_catalogue()),
}

CONVERTS = [([*f"convert --from {source} --to {target} in.{source}".split(),
              *(["-o", "out.xml"] if target == "xml" else [])], 0)
            for source in ("amr", "umr", "ttl", "conll", "ucca") for target in ("xml", "dot")]

COMMANDS = CONVERTS + [
    ("convert --from ttl --to xml --no-combine in.ttl -o split.xml".split(), 0),
    ("validate ok.xml".split(), 0),
    ("validate bad.xml".split(), 1),
    ("validate --strict --catalogue cat.xml ok.xml".split(), 1),
    ("render ok.xml".split(), 0),
    ("catalogue list cat.xml".split(), 0),
    ("render bad.xml".split(), 1),
    ("validate malformed.xml".split(), 2),
    ("validate dangling.xml".split(), 2),
    ("convert --from ucca --to xml orphan.ucca".split(), 2),
    ("render missing.xml".split(), 2),
    ("validate --strict ok.xml".split(), 3),
]
# Not covered: a usage error that argparse reports itself. Its help formatter
# is a cycle, but that error is raised before the collector is paused.


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("argv,code", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_a_command_leaves_no_cyclic_garbage(inputs, capsys, argv, code):
    assert main(argv) == code  # the first call builds the parser and fills caches
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == code
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("argv,code", [
    ("validate ok.xml".split(), 0),
    ("render bad.xml".split(), 1),
    ("validate dangling.xml".split(), 2),
    ("validate --strict ok.xml".split(), 3),
    ("convert --from nope --to xml in.amr".split(), 3),
], ids=["exit-0", "exit-1", "exit-2", "exit-3", "exit-3-usage"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_leaves_the_collector_as_it_found_it(inputs, capsys, argv, code, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_an_escaping_exception_restores_the_collector(inputs, monkeypatch, enabled):
    def fail(path):
        raise RuntimeError(path)

    monkeypatch.setattr(cli, "_read", fail)
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError):
            main(["validate", "ok.xml"])
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("read,name", [
    (from_xml, "ok.xml"),
    (from_xml, "bad.xml"),
    (from_xml, "dangling.xml"),
    (from_xml, "malformed.xml"),
    (catalogue_from_xml, "cat.xml"),
], ids=["graph", "invalid-graph", "dangling-target", "malformed", "catalogue"])
def test_a_read_document_is_freed_by_reference_counting(read, name):
    text = INPUTS[name]

    def read_and_drop():
        try:
            read(text)
        except XmlError:
            pass

    read_and_drop()
    gc.collect()
    gc.disable()
    try:
        read_and_drop()
        assert gc.collect() == 0
    finally:
        gc.enable()
