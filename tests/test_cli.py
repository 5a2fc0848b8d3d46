import functools
import os
import re
import subprocess
import sys

import pytest

from semgraph.cli import main
from semgraph.dot import to_dot
from semgraph.kg import events_to_graph, parse_turtle
from semgraph.model import merge, validate
from semgraph.penman import amr_to_graph, parse_penman_file
from semgraph.xmlio import catalogue_to_xml, from_xml, to_xml
from semgraph.conll import causation_catalogue, causation_to_graph, parse_conll

TTL = """\
@prefix wd:   <http://www.wikidata.org/entity/> .
@prefix sem:  <http://semanticweb.cs.vu.nl/2009/11/sem/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
wd:Q1 a sem:Event ; rdfs:label "Storming of the Bastille" .
wd:Q2 a sem:Event ; sem:subEventOf wd:Q1 .
"""

AMR = "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))\n"

BAD_GRAPH_XML = ('<semanticgraph version="1"><entity id="a" value="4">'
                 '<role name="X" target="a"/></entity></semanticgraph>')

NODE_STMT = re.compile(r'^  ".*\[shape=', re.M)


@pytest.fixture
def ttl_file(tmp_path):
    path = tmp_path / "events.ttl"
    path.write_text(TTL, encoding="utf-8")
    return path


class TestConvert:
    def test_ttl_to_xml_then_render(self, tmp_path, ttl_file):
        out_xml = tmp_path / "out.xml"
        out_dot = tmp_path / "out.dot"
        assert main(["convert", "--from", "ttl", "--to", "xml",
                     str(ttl_file), "-o", str(out_xml)]) == 0
        assert main(["render", str(out_xml), "-o", str(out_dot)]) == 0
        expected = events_to_graph(parse_turtle(TTL))
        dot_text = out_dot.read_text(encoding="utf-8")
        assert len(NODE_STMT.findall(dot_text)) == len(expected.nodes)

    def test_xml_output_revalidates_clean(self, tmp_path, ttl_file):
        out_xml = tmp_path / "out.xml"
        main(["convert", "--from", "ttl", "--to", "xml", str(ttl_file), "-o", str(out_xml)])
        graph = from_xml(out_xml.read_text(encoding="utf-8"))
        assert validate(graph) == []
        assert main(["validate", str(out_xml)]) == 0

    def test_amr_to_xml_stdout(self, tmp_path, capsys):
        source = tmp_path / "in.amr"
        source.write_text(AMR, encoding="utf-8")
        assert main(["convert", "--from", "amr", "--to", "xml", str(source)]) == 0
        out = capsys.readouterr().out
        assert out.startswith('<semanticgraph version="1">')
        assert out.endswith("\n")

    def test_pipeline_deterministic(self, tmp_path, ttl_file):
        first = tmp_path / "a.xml"
        second = tmp_path / "b.xml"
        main(["convert", "--from", "ttl", "--to", "xml", str(ttl_file), "-o", str(first)])
        main(["convert", "--from", "ttl", "--to", "xml", str(ttl_file), "-o", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_combine_is_default_for_multi_sentence_conll(self, tmp_path, capsys):
        source = tmp_path / "in.conll"
        source.write_text(
            "1\ta\ta\tX\t_\t_\t0\td\tB-Cause\n\n1\tb\tb\tX\t_\t_\t0\td\tB-Effect\n",
            encoding="utf-8")
        assert main(["convert", "--from", "conll", "--to", "xml", str(source)]) == 0
        graph = from_xml(capsys.readouterr().out)
        names = [n.name for n in graph.nodes.values() if hasattr(n, "name")]
        assert names.count("Sentence") == 2

    @pytest.mark.parametrize("source,text,convert", [
        ("amr", AMR + "\n(s / sleep-01 :ARG0 (b / boy))\n\n" + AMR,
         lambda text: [amr_to_graph(t) for t in parse_penman_file(text)]),
        ("conll", "1\ta\ta\tX\t_\t_\t0\td\tB-Cause\n2\tb\tb\tX\t_\t_\t1\td\tB-Effect\n\n"
         "1\tc\tc\tX\t_\t_\t0\td\tB-Effect\n\n1\td\td\tX\t_\t_\t0\td\tB-Cause\n",
         lambda text: [causation_to_graph(s) for s in parse_conll(text, default_language="und")]),
    ], ids=["amr", "conll"])
    @pytest.mark.parametrize("target,serialize", [("xml", to_xml), ("dot", to_dot)])
    def test_combine_gives_the_bytes_of_folding_merge(self, tmp_path, capsys, source, text,
                                                      convert, target, serialize):
        path = tmp_path / f"in.{source}"
        path.write_text(text, encoding="utf-8")
        assert main(["convert", "--from", source, "--to", target, str(path)]) == 0
        graphs = convert(text)
        assert len(graphs) == 3
        expected = serialize(functools.reduce(merge, graphs))
        assert capsys.readouterr().out == expected.removesuffix("\n") + "\n"

    def test_no_combine_writes_numbered_files(self, tmp_path, ttl_file):
        two_tops = TTL + 'wd:Q9 a sem:Event ; rdfs:label "Other" .\n'
        source = tmp_path / "two.ttl"
        source.write_text(two_tops, encoding="utf-8")
        out = tmp_path / "out.xml"
        assert main(["convert", "--from", "ttl", "--to", "xml", "--no-combine",
                     str(source), "-o", str(out)]) == 0
        first = tmp_path / "out-01.xml"
        second = tmp_path / "out-02.xml"
        assert first.exists() and second.exists()
        assert not out.exists()
        for path in (first, second):
            assert validate(from_xml(path.read_text(encoding="utf-8"))) == []

    def test_no_combine_to_stdout_is_usage_error(self, tmp_path):
        source = tmp_path / "in.conll"
        source.write_text(
            "1\ta\ta\tX\t_\t_\t0\td\tB-Cause\n\n1\tb\tb\tX\t_\t_\t0\td\tB-Effect\n",
            encoding="utf-8")
        assert main(["convert", "--from", "conll", "--to", "xml",
                     "--no-combine", str(source)]) == 3

    def test_lang_flag_overrides_default(self, tmp_path, capsys):
        source = tmp_path / "in.conll"
        source.write_text("1\ta\ta\tX\t_\t_\t0\td\tB-Cause\n", encoding="utf-8")
        assert main(["convert", "--from", "conll", "--to", "xml", "--lang", "it",
                     str(source)]) == 0
        assert 'value="it"' in capsys.readouterr().out

    def test_ucca_to_dot(self, tmp_path, capsys):
        source = tmp_path / "in.ucca"
        source.write_text("root u1\nunit u1\nterm t1 Golf\nedge u1 t1 A\n",
                          encoding="utf-8")
        assert main(["convert", "--from", "ucca", "--to", "dot", str(source)]) == 0
        assert "digraph semanticgraph {" in capsys.readouterr().out

    def test_umr_to_xml(self, tmp_path, capsys):
        source = tmp_path / "in.umr"
        source.write_text(
            "(s1s / sentence :temporal s1t2)\n\n# doc\n(s1t2 contained s1s)\n",
            encoding="utf-8")
        assert main(["convert", "--from", "umr", "--to", "xml", str(source)]) == 0
        graph = from_xml(capsys.readouterr().out)
        assert validate(graph) == []
        assert "s1t2" in {getattr(n, "name", None) for n in graph.nodes.values()}


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a file is not part of its text."""

    INPUTS = {
        "amr": AMR,
        "umr": "(s1s / sentence :temporal s1t2)\n\n# doc\n(s1t2 contained s1s)\n",
        "ttl": TTL,
        "conll": "1\ta\ta\tX\t_\t_\t0\td\tB-Cause\n",
        "ucca": "root u1\nunit u1\nterm t1 Golf\nedge u1 t1 A\n",
    }

    @pytest.mark.parametrize("source", INPUTS)
    def test_convert_ignores_it(self, tmp_path, capsys, source):
        text = self.INPUTS[source]
        outcomes = []
        for name, data in (("plain", text), ("marked", "\ufeff" + text)):
            path = tmp_path / f"{name}.{source}"
            path.write_text(data, encoding="utf-8")
            code = main(["convert", "--from", source, "--to", "xml", str(path)])
            outcomes.append((code, capsys.readouterr()))
        assert outcomes[0][0] == 0
        assert outcomes[1] == outcomes[0]

    def test_validate_ignores_it(self, tmp_path, capsys):
        outcomes = []
        for name, data in (("plain", BAD_GRAPH_XML), ("marked", "\ufeff" + BAD_GRAPH_XML)):
            path = tmp_path / f"{name}.xml"
            path.write_text(data, encoding="utf-8")
            outcomes.append((main(["validate", str(path)]), capsys.readouterr()))
        assert outcomes[0][0] == 1
        assert outcomes[1] == outcomes[0]


class TestValidateCommand:
    def test_valid_file_exits_zero_silently(self, tmp_path, capsys):
        path = tmp_path / "ok.xml"
        path.write_text('<semanticgraph version="1"/>', encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_entity_out_edge_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.xml"
        path.write_text(BAD_GRAPH_XML, encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ENTITY_OUT_EDGE\t")
        assert lines[0].count("\t") == 2

    def test_strict_against_catalogue(self, tmp_path, capsys):
        graph_path = tmp_path / "g.xml"
        graph_path.write_text(
            '<semanticgraph version="1"><concept id="a" name="Nowhere"/>'
            '</semanticgraph>', encoding="utf-8")
        cat_path = tmp_path / "cat.xml"
        cat_path.write_text(catalogue_to_xml(causation_catalogue()), encoding="utf-8")
        assert main(["validate", str(graph_path)]) == 0
        assert main(["validate", "--strict", "--catalogue", str(cat_path),
                     str(graph_path)]) == 1
        assert capsys.readouterr().out.startswith("UNKNOWN_CONCEPT\t")

    def test_strict_without_catalogue_is_usage_error(self, tmp_path):
        path = tmp_path / "ok.xml"
        path.write_text('<semanticgraph version="1"/>', encoding="utf-8")
        assert main(["validate", "--strict", str(path)]) == 3


class TestRender:
    def test_invalid_graph_exits_one_with_violations_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "bad.xml"
        path.write_text(BAD_GRAPH_XML, encoding="utf-8")
        assert main(["render", str(path)]) == 1
        captured = capsys.readouterr()
        assert "ENTITY_OUT_EDGE" in captured.err
        assert captured.out == ""

    def test_invalid_graph_is_refused_before_the_output_is_opened(self, tmp_path, capsys):
        path = tmp_path / "bad.xml"
        path.write_text(BAD_GRAPH_XML, encoding="utf-8")
        assert main(["render", str(path), "-o", str(tmp_path / "missing" / "out.dot")]) == 1
        assert capsys.readouterr().err.startswith("ENTITY_OUT_EDGE\t")


class TestCatalogueCommand:
    def test_list_signatures(self, tmp_path, capsys):
        path = tmp_path / "cat.xml"
        path.write_text(catalogue_to_xml(causation_catalogue()), encoding="utf-8")
        assert main(["catalogue", "list", str(path)]) == 0
        assert capsys.readouterr().out == (
            "Causation(cause[], effect[])\n"
            "LanguageDoc(language, element[])\n"
            "Sentence(content, source)\n")


class TestExitCodeMatrix:
    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["convert", "--from", "amr", "--to", "xml",
                     str(tmp_path / "nosuch.txt")]) == 2
        assert capsys.readouterr().err != ""

    def test_malformed_input_is_data_error(self, tmp_path):
        source = tmp_path / "bad.amr"
        source.write_text("(b / boy", encoding="utf-8")
        assert main(["convert", "--from", "amr", "--to", "xml", str(source)]) == 2

    def test_malformed_xml_is_data_error(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text("<semanticgraph", encoding="utf-8")
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("command,text,location", [
        (["convert", "--from", "amr", "--to", "xml"],
         "(a / alpha)\n\n(b / beta\n   :ARG0 (c gamma))\n", "(line 4, column 13)"),
        (["convert", "--from", "umr", "--to", "xml"],
         "(s / say)\n\n# doc\n(s :before)\n", "(line 4, column 1)"),
        (["convert", "--from", "ttl", "--to", "xml"],
         "@prefix ex: <http://e/> .\nex:a ex:b >\n", "(line 2, column 11)"),
        (["convert", "--from", "conll", "--to", "xml"],
         "1\ta\ta\tX\t_\t_\t0\td\tB-Cause\n2\tb\tb\tX\t_\t_\t0\td\tB-Nope\n", "(line 2)"),
        (["convert", "--from", "ucca", "--to", "xml"],
         "unit u0\nroot u0\nunit u0\n", "(line 3)"),
        (["convert", "--from", "ucca", "--to", "xml"],
         "# passage\vnote\nunit u0\nroot u0\nunit u0\n", "(line 4)"),
        (["convert", "--from", "conll", "--to", "xml"],
         "# a\x85b\n1\ta\ta\tX\t_\t_\t0\td\tB-Cause\n2\tb\tb\tX\t_\t_\t0\td\tB-Nope\n",
         "(line 3)"),
        (["validate"], '<semanticgraph version="1">\n<concept id="a"', "(line 2, column 1)"),
        (["validate"], '<semanticgraph version="1">\n  <concept id="a" name="X">\n'
         '    <role name="r" target="b"/></concept></semanticgraph>\n', "(line 3, column 5)"),
        (["convert", "--from", "ttl", "--to", "xml"],
         '@prefix ex: <http://e/> .\nex:a a ex:E ; ex:b "x", ""@en .\n',
         "empty string literal (line 2, column 25)"),
        (["convert", "--from", "conll", "--to", "xml"],
         "1\ta\ta\tX\t_\t_\t0\td\tB-Cause\n2\t\tb\tX\t_\t_\t0\td\tB-Effect\n",
         "empty FORM column (line 2)"),
        (["convert", "--from", "conll", "--to", "xml"],
         "1\ta\ta\tX\t_\t_\t0\td\tB-Cause\n\n# lang = it\n1\tb\tb\tX\t_\t_\t0\td\tO\n",
         "no causation annotation in sentence (line 4)"),
    ], ids=["amr", "umr", "ttl", "conll", "ucca", "ucca-vt", "conll-nel", "validate",
            "validate-schema", "ttl-empty-literal", "conll-empty-form", "conll-unannotated"])
    def test_malformed_input_reports_location(self, tmp_path, capsys, command, text, location):
        source = tmp_path / "bad.txt"
        source.write_text(text, encoding="utf-8")
        assert main([*command, str(source)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("semgraph: error: ")
        assert lines[0].endswith(location)

    @pytest.mark.parametrize("source,text,message", [
        ("amr", "(a / alpha)\n\n(b / beta :ARG0 (c / gamma))\n\n(d / delta :ARG0 (e epsilon))\n",
         "expected '/' after variable 'e' (line 5, column 21)"),
        ("conll", "1\ta\ta\tX\t_\t_\t0\td\tO\n\n1\tb\tb\tX\t_\t_\t0\td\tB-Cause\n\n"
         "1\tc\tc\tX\t_\t_\t0\td\tB-Nope\n", "unknown causation tag 'B-Nope' (line 5)"),
    ], ids=["amr", "conll-after-unannotated"])
    def test_parse_error_after_good_units_wins_and_writes_nothing(self, tmp_path, capsys, source,
                                                                  text, message):
        # The CoNLL file's first sentence has no causation annotation, which is
        # a conversion error; the parse error further on is the one reported.
        source_path = tmp_path / f"in.{source}"
        source_path.write_text(text, encoding="utf-8")
        out = tmp_path / "out.xml"
        assert main(["convert", "--from", source, "--to", "xml", str(source_path),
                     "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"semgraph: error: {message}\n"
        assert [path.name for path in tmp_path.iterdir()] == [source_path.name]

    @pytest.mark.parametrize("command,text,message", [
        (["validate"],
         '<semanticgraph version="1"><concept id="a" name="X">'
         f'<role name="r" index="1{"0" * 5000}" target="a"/></concept></semanticgraph>',
         "role index has too many digits (5001) (line 1, column 53)"),
        (["render"],
         '<!DOCTYPE s [<!ENTITY a "Room">]>\n<semanticgraph version="1">'
         '<concept id="a" name="&a;"/></semanticgraph>',
         "DOCTYPE declarations are not allowed (line 1, column 1)"),
    ], ids=["validate-index", "render-doctype"])
    def test_input_past_a_reader_limit_is_data_error(self, tmp_path, capsys, command, text,
                                                     message):
        source = tmp_path / "bad.txt"
        source.write_text(text, encoding="utf-8")
        assert main([*command, str(source)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"semgraph: error: {message}\n"

    @pytest.mark.parametrize("command,data,byte,location", [
        (["validate"], b'<semanticgraph version="1">\r\n<concept id="\xc3\xa9\xff"/>',
         "0xff", "(line 2, column 15)"),
        (["convert", "--from", "ttl", "--to", "xml"], b'ex:a ex:b "x\r\ry\xc3',
         "0xc3", "(line 3, column 2)"),
        (["catalogue", "list"], b"\x80<catalogue/>", "0x80", "(line 1, column 1)"),
        (["render"], b"<!--\n" + b"x" * 100_000 + b"\xff-->", "0xff", "(line 2, column 100001)"),
        (["convert", "--from", "amr", "--to", "xml"], b"\xef\xbb\xbf(a\xff", "0xff",
         "(line 1, column 3)"),
    ], ids=["validate", "ttl-lone-cr", "catalogue", "past-100k", "after-bom"])
    def test_undecodable_input_reports_path_and_location(self, tmp_path, capsys, command,
                                                         data, byte, location):
        source = tmp_path / "bad.txt"
        source.write_bytes(data)
        assert main([*command, str(source)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"semgraph: error: {source}: byte {byte} is not valid UTF-8 {location}\n"

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["validate", "--frobnicate", str(tmp_path)]) == 3

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["transmogrify"]) == 3

    def test_bad_choice_is_usage_error(self, tmp_path):
        assert main(["convert", "--from", "tex", "--to", "xml", str(tmp_path)]) == 3

    def test_empty_conll_input_is_data_error(self, tmp_path):
        source = tmp_path / "empty.conll"
        source.write_text("", encoding="utf-8")
        assert main(["convert", "--from", "conll", "--to", "xml", str(source)]) == 2

    def test_diagnostics_go_to_stderr_not_stdout(self, tmp_path, capsys):
        source = tmp_path / "bad.amr"
        source.write_text("(b / boy", encoding="utf-8")
        main(["convert", "--from", "amr", "--to", "xml", str(source)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "semgraph: error:" in captured.err


DEPTH = 20_000
# A root with DEPTH nested nodes under it: DEPTH + 1 concepts.
DEEP_AMR = "".join(f"(a{i} / x :r " for i in range(DEPTH)) + f"(a{DEPTH} / x" + ")" * (DEPTH + 1)


class TestOversizedInput:
    """Inputs far past the fuzz's size, converted in a child process whose
    address space is capped at 1 GiB, so that a reader that recurses or
    copies per level fails instead of filling RAM."""

    @pytest.mark.parametrize("fmt,text,concepts", [
        ("amr", DEEP_AMR + "\n", DEPTH + 1),
        ("umr", DEEP_AMR + f"\n\n# doc\n(a0 :before a{DEPTH})\n", DEPTH + 1),
        ("ucca", "".join(f"unit u{i}\n" for i in range(DEPTH))
         + "".join(f"edge u{i} u{i + 1} H\n" for i in range(DEPTH - 1)) + "root u0\n", DEPTH),
    ], ids=["amr-deep", "umr-deep", "ucca-chain"])
    def test_converts_in_capped_memory(self, tmp_path, fmt, text, concepts):
        source = tmp_path / f"big.{fmt}"
        source.write_text(text, encoding="utf-8")
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                  "from semgraph.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        done = subprocess.run(
            [sys.executable, "-c", script, "convert", "--from", fmt, "--to", "xml", str(source)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert done.stdout.count("<concept ") == concepts
