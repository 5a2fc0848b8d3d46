"""Mutation fuzzing of every reader and of the CLI on top of it.

Each case starts from a valid seed file and inserts, deletes or replaces a
few characters. The reader may accept the result or reject it, but only with
its own ``SourceError`` subclass, which carries a location, never with a
``GraphError``; a frontend's graphs must be lax-valid, with no role of a node
filled both unindexed and indexed. The CLI may exit 0 or 2, or 1 with the
violations printed, and never lets an exception escape.
The CLI is also fed seed files with bytes that are not UTF-8, seed files
with one field emptied or dropped, and the XML seed with one attribute
dropped or renamed: faults the random edits do not reach.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from semgraph import conll, kg, penman, ucca, xmlio
from semgraph.cli import main
from semgraph.model import VIOLATION_CODES, SourceError, validate

SEEDS = {
    "amr": ('# ::id 1\n(w / want-01 :ARG0 (b / boy~e.1)\n'
            '   :ARG1 (g / go-02 :ARG0 b :mod "fast \\" x" :polarity -))\n\n'
            '# comment only\n\n(t / tall :op1 "a b")\n'),
    "umr": ("(s1a / say :ARG0 (p / person) :ARG1 \"yes\")\n\n"
            "(s2b / buy :ARG0 (p2 / person) :ARG1 (c / car))\n\n"
            "# doc\n(s1a :before s2b)\n(p :coref p2)\n(yes :modal s2b)\n"),
    "ttl": ("@prefix ex: <http://example.org/> .\n@prefix sem: <http://s/> .\n"
            '@prefix rdfs: <http://r/> .\n'
            'ex:a a sem:Event ; rdfs:label "A"@en , "B" ; ex:p "7"^^ex:int .\n'
            "ex:b a sem:Event ; sem:subEventOf ex:a ; ex:q <http://x/y> . # note\n"
            "ex:a rdfs:label ex:r .\n"),
    "conll": ("# lang = en\n1\tRain\train\tNOUN\t_\t_\t2\tnsubj\tB-Cause\n"
              "2\tfell\tfall\tVERB\t_\t_\t0\troot\tI-Cause\n"
              "3\tso\tso\tADV\t_\t_\t4\tadv\tO\n"
              "4\tfloods\tflood\tNOUN\t_\t_\t2\tobj\tB-Effect\n\n"
              "1\tHeat\theat\tNOUN\t_\t_\t0\troot\tB-Effect\n"),
    "ucca": ("# passage\nunit u0\nunit u1\nterm t1 hello there\nterm t2 world\n"
             "edge u0 u1 H\nedge u1 t1 A\nedge u1 t2 A\nroot u0\n"),
    "xml": ('<semanticgraph version="1">\n'
            '  <concept id="a" name="X">\n'
            '    <role name="r" index="1" target="b"/>\n'
            '    <role name="r" index="2" target="c"/>\n'
            '  </concept>\n'
            '  <entity id="b" value="v"><class name="k"/></entity>\n'
            '  <omitted id="c"/>\n'
            '</semanticgraph>\n'),
}

# format -> (library call giving the graphs read, the errors it may raise, CLI
# arguments before the file)
READERS = {
    "amr": (lambda text: [penman.amr_to_graph(t) for t in penman.parse_penman_file(text)],
            (penman.PenmanError,), ["convert", "--from", "amr", "--to", "xml"]),
    "umr": (lambda text: [penman.umr_to_graph(penman.parse_umr_document(text))],
            (penman.PenmanError, penman.UmrError), ["convert", "--from", "umr", "--to", "xml"]),
    "ttl": (lambda text: [kg.events_to_graph(kg.parse_turtle(text))],
            (kg.TurtleError,), ["convert", "--from", "ttl", "--to", "xml"]),
    "conll": (lambda text: [conll.causation_to_graph(s) for s in conll.parse_conll(text)],
              (conll.ConllError,), ["convert", "--from", "conll", "--to", "xml"]),
    "ucca": (lambda text: [ucca.ucca_to_graph(ucca.parse_ucca(text))],
             (ucca.UccaError,), ["convert", "--from", "ucca", "--to", "xml"]),
    "xml": (lambda text: [xmlio.from_xml(text)], (xmlio.XmlError,), ["validate"]),
}

# Characters that mean something to at least one format, plus ones that have
# broken a reader before (\v, \f, '>'); arbitrary characters are drawn too.
SPECIAL = list('()/:"~#\\<>@^;,.[]{}=-_ \t\n\v\f\r\x85\u2028') + ["B-Cause", "I-Effect"]


@st.composite
def mutated(draw, seed: str) -> str:
    text = seed
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 6)))
        piece = draw(st.lists(st.sampled_from(SPECIAL) | st.characters(), max_size=3))
        text = text[:start] + "".join(piece) + text[end:]
    return text


@pytest.mark.parametrize("fmt", list(READERS))
def test_reader_errors_are_source_errors(fmt):
    assert all(issubclass(error, SourceError) for error in READERS[fmt][1])


def mixed_roles(graph) -> list[tuple[str, str]]:
    """The (source, role name) pairs whose role is filled both unindexed and
    indexed."""
    kinds: dict[tuple[str, str], set[bool]] = {}
    for edge in graph.edges:
        kinds.setdefault((edge.source, edge.label.name), set()).add(edge.label.index is None)
    return [key for key, seen in kinds.items() if len(seen) == 2]


@pytest.mark.parametrize("fmt", list(READERS))
def test_mutated_input_fails_cleanly(fmt, tmp_path):
    convert, errors, command = READERS[fmt]
    path = tmp_path / "input"

    @settings(max_examples=100)
    @given(mutated(SEEDS[fmt]))
    def check(text):
        try:
            graphs = convert(text)
        except errors as exc:
            assert exc.line is not None, (str(exc), text)
            graphs = []
        for graph in graphs:
            violations = validate(graph)
            if fmt != "xml":  # the XML reader keeps invalid graphs for validate to report
                assert violations == [] and mixed_roles(graph) == [], text
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, str(path)])
        assert code in (0, 1, 2), err.getvalue()
        if code == 1:
            printed = (out.getvalue() + err.getvalue()).splitlines()
            assert printed and all(line.split("\t")[0] in VIOLATION_CODES for line in printed)
        if code == 2:
            assert err.getvalue().startswith("semgraph: error: ")

    check()


# Bytes that break UTF-8 (a stray 0xff, a lone lead or continuation byte, a
# lead byte cut off by the end of the file) and some that do not.
BYTES = [b"\xff", b"\xc3", b"\x80", b"\xe2\x82", b"\xc3\xa9", b"\r", b"\n", b"\x00"]


@st.composite
def mutated_bytes(draw, seed: str) -> bytes:
    data = seed.encode("utf-8")
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 6)))
        data = data[:start] + b"".join(draw(st.lists(st.sampled_from(BYTES), max_size=3))) \
            + data[end:]
    return data


@pytest.mark.parametrize("fmt", list(READERS))
def test_mutated_bytes_fail_cleanly(fmt, tmp_path):
    command = READERS[fmt][2]
    path = tmp_path / "input"

    @settings(max_examples=50)
    @given(mutated_bytes(SEEDS[fmt]))
    def check(data):
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, str(path)])
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            [line] = err.getvalue().splitlines()
            assert line.startswith("semgraph: error: ")
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            assert code == 2 and "is not valid UTF-8 (line " in err.getvalue()

    check()


# format -> a pattern whose group 1 is a field that may not be empty: a
# PENMAN concept, a Turtle literal, a CoNLL FORM, a UCCA term text, an XML
# attribute.
FIELDS = {
    "amr": r"/ ([^\s()]+)",
    "umr": r"/ ([^\s()]+)",
    "ttl": r'"([^"]*)"',
    "conll": r"^\d+\t([^\t]*)",
    "ucca": r"^term \S+ (.*)$",
    "xml": r'(?:id|name|value|target|index)="([^"]*)"',
}


# format -> a pattern whose group 1 is a field that may not be left out,
# with the white space in front of it on its line: a PENMAN "/ concept", a
# Turtle object or prefix IRI, a CoNLL LEMMA, a UCCA term text or edge
# category.
DROPPED = {
    "amr": r"( / [^\s()]+)",
    "umr": r"( / [^\s()]+)",
    "ttl": r"( \S+)(?= [;,.]\s)",
    "conll": r"^\d+\t[^\t\n]*(\t[^\t\n]*)",
    "ucca": r"^(?:term|edge \S+) \S+( .+)$",
}


@pytest.mark.parametrize("fmt,start,end", [
    (fmt, match.start(1), match.end(1))
    for fields in (FIELDS, DROPPED)
    for fmt, pattern in fields.items()
    for match in re.finditer(pattern, SEEDS[fmt], re.M)])
def test_emptied_field_is_a_located_error(fmt, start, end, tmp_path):
    seed = SEEDS[fmt]
    path = tmp_path / "input"
    path.write_text(seed[:start] + seed[end:], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*READERS[fmt][2], str(path)])
    assert (code, out.getvalue()) == (2, "")
    [line] = err.getvalue().splitlines()
    assert line.startswith("semgraph: error: ")
    lineno = seed.count("\n", 0, start) + 1
    assert re.search(rf"\(line {lineno}(, column \d+)?\)$", line), line


def _xml_attribute_edits():
    """Each attribute of the XML seed dropped, and each renamed to a name the
    grammar does not know, with the error the edit must give. Dropping
    ``index`` is left out: it is optional, so the role stays readable."""
    seed = SEEDS["xml"]
    for match in re.finditer(r' (\w+)="[^"]*"', seed):
        element = re.match(r"<(\w+)", seed[seed.rfind("<", 0, match.start()):]).group(1)
        attribute = match.group(1)
        where = f"{element}.{attribute}@{match.start()}"
        if attribute != "index":
            yield pytest.param(seed[:match.start()] + seed[match.end():], match.start(),
                               f"missing attribute '{attribute}' on element '{element}'",
                               id=f"drop-{where}")
        yield pytest.param(seed[:match.start(1)] + "x" + seed[match.start(1):], match.start(),
                           f"unknown attribute 'x{attribute}' on element '{element}'",
                           id=f"rename-{where}")


@pytest.mark.parametrize("text,at,reason", list(_xml_attribute_edits()))
def test_dropped_or_renamed_xml_attribute_is_a_located_error(text, at, reason, tmp_path):
    path = tmp_path / "input.xml"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])
    assert (code, out.getvalue()) == (2, "")
    [line] = err.getvalue().splitlines()
    start = text.rfind("<", 0, at)  # of the element's start tag
    column = start - text.rfind("\n", 0, start)
    lineno = text.count("\n", 0, start) + 1
    assert line == f"semgraph: error: {path}: {reason} (line {lineno}, column {column})"
