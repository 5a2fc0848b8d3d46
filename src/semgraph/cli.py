"""Command-line pipelines over the frontends, validation and serializers.

Exit codes: 0 success/valid, 1 validation violations found, 2 parse or
conversion error, 3 usage error. Diagnostics go to stderr, data to stdout.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import tempfile
from typing import Iterator

from . import conll, dot, kg, model, penman, ucca, xmlio

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semgraph",
        description="Convert, validate and render semantic graph files.")
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="convert an input file to XML or DOT")
    convert.add_argument("--from", dest="source", required=True,
                         choices=["amr", "umr", "ttl", "conll", "ucca"],
                         help="input format")
    convert.add_argument("--to", dest="target", required=True, choices=["xml", "dot"],
                         help="output format")
    convert.add_argument("input", help="input file")
    convert.add_argument("-o", "--output", help="output file (default: stdout)")
    convert.add_argument("--combine", action=argparse.BooleanOptionalAction, default=True,
                         help="combine multi-graph inputs into one graph (default);"
                              " --no-combine writes one numbered file per graph")
    convert.add_argument("--lang", default="und",
                         help="default language for conll input (default: und)")
    convert.set_defaults(func=_cmd_convert)

    val = sub.add_parser("validate", help="validate a semantic graph XML file")
    val.add_argument("input", help="semantic graph XML file")
    val.add_argument("--catalogue", help="concept catalogue XML file")
    val.add_argument("--strict", action="store_true",
                     help="check concepts and roles against the catalogue")
    val.set_defaults(func=_cmd_validate)

    render = sub.add_parser("render", help="render a semantic graph XML file as DOT")
    render.add_argument("input", help="semantic graph XML file")
    render.add_argument("-o", "--output", help="output file (default: stdout)")
    render.set_defaults(func=_cmd_render)

    cat = sub.add_parser("catalogue", help="inspect a concept catalogue file")
    cat.add_argument("action", choices=["list"])
    cat.add_argument("input", help="catalogue XML file")
    cat.set_defaults(func=_cmd_catalogue)
    return parser


def _read(path: str) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:  # read() decodes all of the file in one call
            data, bad = exc.object, exc.start
    # Located as read() would give the text before the bad byte.
    valid = data[:bad].decode("utf-8").removeprefix("\ufeff")
    raise model.SourceError(f"{path}: byte 0x{data[bad]:02x} is not valid UTF-8",
                            *model.line_col_after(valid))


def _write(output: str | None, parts: Iterator[str]) -> None:
    """Write a serializer's parts to ``output`` atomically, or to stdout."""
    # Taking the first part runs the serializer's validation, so a graph that
    # it refuses opens no file, not even a temporary one.
    parts = itertools.chain([next(parts)], parts)
    if output is None:
        sys.stdout.writelines(parts)
        return
    directory = os.path.dirname(os.path.abspath(output))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".semgraph-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(parts)
        os.replace(tmp, output)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _serialized(target: str, graph: model.SemanticGraph) -> Iterator[str]:
    """The output file's text in parts: the serializer's, then a newline
    after XML, whose text ends without one."""
    if target == "dot":
        return dot._dot_parts(graph)
    return itertools.chain(xmlio._xml_parts(graph), ["\n"])


def _numbered(path: str, i: int) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}-{i:02d}{ext}"


# The formats whose files hold many units (AMR trees, CoNLL sentences): each
# one's lazy reader, and how one unit is added into a graph.
_UNIT_READERS = {
    "amr": (lambda text, lang: penman._penman_trees(text),
            lambda graph, tree: penman._to_graph(graph, [tree], [])),
    "conll": (conll._conll_sentences, conll._add_causation),
}


def _one_graph(units: Iterator, add) -> list[model.SemanticGraph]:
    """Add each unit into one graph as soon as it is read, so that no unit
    outlives its turn. The ids and edges are those that ``model.union`` of
    the per-unit graphs gives; ``[]`` if there was no unit."""
    graph = model.SemanticGraph()
    for unit in units:
        try:
            add(graph, unit)
        except (model.GraphError, model.SourceError):
            for _ in units:  # a parse error further on is the one reported
                pass
            raise
    return [graph] if graph.nodes else []  # every unit adds a node


def _convert_units(source: str, text: str, lang: str, combine: bool) -> list[model.SemanticGraph]:
    if source in _UNIT_READERS:
        read, add = _UNIT_READERS[source]
        if combine:
            return _one_graph(read(text, lang), add)
        units = list(read(text, lang))  # a parse error anywhere comes first
        return [add(model.SemanticGraph(), unit) for unit in units]
    if source == "umr":
        return [penman.umr_to_graph(penman.parse_umr_document(text))]
    if source == "ttl":
        store = kg.parse_turtle(text)
        if combine:
            return [kg.events_to_graph(store)]
        return [kg.events_to_graph(sub) for sub in kg.split_events(store)]
    return [ucca.ucca_to_graph(ucca.parse_ucca(text))]


def _cmd_convert(args) -> int:
    graphs = _convert_units(args.source, _read(args.input), args.lang, args.combine)
    if not graphs:
        print("semgraph: error: input contains no convertible content", file=sys.stderr)
        return 2
    if len(graphs) == 1:  # always so when combining
        _write(args.output, _serialized(args.target, graphs[0]))
        return 0
    if not args.output:
        print("semgraph: error: --no-combine with multiple graphs requires -o/--output",
              file=sys.stderr)
        return 3
    for i, graph in enumerate(graphs, start=1):
        _write(_numbered(args.output, i), _serialized(args.target, graph))
    return 0


def _cmd_validate(args) -> int:
    if args.strict and not args.catalogue:
        print("semgraph: error: --strict requires --catalogue", file=sys.stderr)
        return 3
    graph = xmlio.from_xml(_read(args.input))
    catalogue = xmlio.catalogue_from_xml(_read(args.catalogue)) if args.catalogue else None
    mode = "strict" if args.strict else "lax"
    violations = model.validate(graph, catalogue, mode)
    for violation in violations:
        print(f"{violation.code}\t{violation.subject}\t{violation.message}")
    return 1 if violations else 0


def _cmd_render(args) -> int:
    graph = xmlio.from_xml(_read(args.input))
    _write(args.output, dot._dot_parts(graph))
    return 0


def _cmd_catalogue(args) -> int:
    catalogue = xmlio.catalogue_from_xml(_read(args.input))
    for name in catalogue.names():
        definition = catalogue.entries[name]
        signature = ", ".join(role.name + ("[]" if role.indexed else "")
                              for role in definition.roles)
        print(f"{name}({signature})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 3 if code == 2 else int(code)  # argparse uses 2 for usage errors
    try:
        return args.func(args)
    except model.InvalidGraphError as exc:
        for violation in exc.violations:
            print(f"{violation.code}\t{violation.subject}\t{violation.message}",
                  file=sys.stderr)
        return 1
    except (model.GraphError, model.SourceError, OSError) as exc:
        print(f"semgraph: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
