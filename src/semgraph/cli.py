"""Command-line pipelines over the frontends, validation and serializers.

Exit codes: 0 success/valid, 1 validation violations found, 2 parse or
conversion error, 3 usage error. Diagnostics go to stderr, data to stdout.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import itertools
import os
import sys
from typing import Iterator

# A frontend is imported by the conversion that reads its format, so that a
# command loads only the one it runs.
from . import dot, model, xmlio


def _non_empty(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("must be non-empty")
    return value


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, which drops its sections once it has formatted
    them: a section refers to the formatter and to its parent section, and
    they refer back to it through their items, so they would be a cycle."""

    def format_help(self) -> str:
        text = super().format_help()
        self._root_section.items.clear()
        self._root_section = self._current_section = None
        return text


@functools.cache  # one per process, built at the first main(): a parser is a cycle
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semgraph",
        description="Convert, validate and render semantic graph files.",
        formatter_class=_HelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="convert an input file to XML or DOT",
                             formatter_class=_HelpFormatter)
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
    convert.add_argument("--lang", default="und", type=_non_empty,
                         help="default language for conll input (default: und)")
    convert.set_defaults(func=_cmd_convert)

    val = sub.add_parser("validate", help="validate a semantic graph XML file",
                         formatter_class=_HelpFormatter)
    val.add_argument("input", help="semantic graph XML file")
    val.add_argument("--catalogue", help="concept catalogue XML file")
    val.add_argument("--strict", action="store_true",
                     help="check concepts and roles against the catalogue")
    val.set_defaults(func=_cmd_validate)

    render = sub.add_parser("render", help="render a semantic graph XML file as DOT",
                            formatter_class=_HelpFormatter)
    render.add_argument("input", help="semantic graph XML file")
    render.add_argument("-o", "--output", help="output file (default: stdout)")
    render.set_defaults(func=_cmd_render)

    cat = sub.add_parser("catalogue", help="inspect a concept catalogue file",
                         formatter_class=_HelpFormatter)
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
    raise model.SourceError(f"byte 0x{data[bad]:02x} is not valid UTF-8",
                            *model.line_col_after(valid))


def _load(path: str, reader, *args):
    """``reader(text, *args)`` on the text of the file at ``path``; a
    ``SourceError`` from reading or from ``reader`` names ``path``."""
    try:
        return reader(_read(path), *args)
    except model.SourceError as exc:
        raise model.SourceError(f"{path}: {exc.reason}", exc.line, exc.column) from None


def _write(output: str | None, parts: Iterator[str]) -> None:
    """Write a serializer's parts to ``output`` atomically, or to stdout.

    The file gets the mode that ``open`` would give it, and an error names
    ``output``, not the temporary file."""
    # Taking the first part runs the serializer's validation, so a graph that
    # it refuses opens no file, not even a temporary one.
    parts = itertools.chain([next(parts)], parts)
    if output is None:
        sys.stdout.writelines(parts)
        return
    import tempfile  # only -o needs it

    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(output)),
                                   prefix=".semgraph-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(parts)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp gives 0o600
        os.replace(tmp, output)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, output) from None
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


def _build(units: Iterator, add, combine: bool) -> list[model.SemanticGraph]:
    """Add each unit of a file that holds many (AMR trees, CoNLL sentences)
    as soon as it is read, so that no unit outlives its turn: into one shared
    graph when combining, else each into a fresh one. ``[]`` if there was no
    unit."""
    graphs: list[model.SemanticGraph] = []
    for unit in units:
        if not (combine and graphs):
            graphs.append(model.SemanticGraph())
        try:
            add(graphs[-1], unit)
        except (model.GraphError, model.SourceError):
            for _ in units:  # a parse error further on is the one reported
                pass
            raise
    return graphs


def _convert_units(text: str, source: str, lang: str, combine: bool) -> list[model.SemanticGraph]:
    if source == "amr":
        from . import penman
        return _build(penman._penman_trees(text),
                      lambda graph, tree: penman._to_graph(graph, [tree], []), combine)
    if source == "umr":
        from . import penman
        return [penman.umr_to_graph(penman.parse_umr_document(text))]
    if source == "conll":
        from . import conll
        return _build(conll._conll_sentences(text, lang), conll._add_causation, combine)
    if source == "ttl":
        from . import kg
        store = kg.parse_turtle(text)
        if combine:
            return [kg.events_to_graph(store)]
        return [kg.events_to_graph(sub) for sub in kg.split_events(store)]
    from . import ucca
    return [ucca.ucca_to_graph(ucca.parse_ucca(text))]


def _cmd_convert(args) -> int:
    graphs = _load(args.input, _convert_units, args.source, args.lang, args.combine)
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


def _field(text: str) -> str:
    """``text`` with a backslash, tab, CR or LF written as ``\\\\``, ``\\t``,
    ``\\r`` or ``\\n``, so that it stays one field of one line."""
    if "\\" not in text and "\t" not in text and "\n" not in text and "\r" not in text:
        return text
    text = text.replace("\\", "\\\\").replace("\t", "\\t")
    return text.replace("\r", "\\r").replace("\n", "\\n")


def _violation_line(violation: model.Violation) -> str:
    """``CODE<TAB>subject<TAB>message``, each field escaped by ``_field``."""
    return "\t".join(map(_field, (violation.code, str(violation.subject), violation.message)))


def _cmd_validate(args) -> int:
    if args.strict and not args.catalogue:
        print("semgraph: error: --strict requires --catalogue", file=sys.stderr)
        return 3
    graph = _load(args.input, xmlio.from_xml)
    catalogue = _load(args.catalogue, xmlio.catalogue_from_xml) if args.catalogue else None
    mode = "strict" if args.strict else "lax"
    violations = model.validate(graph, catalogue, mode)
    for violation in violations:
        print(_violation_line(violation))
    return 1 if violations else 0


def _cmd_render(args) -> int:
    _write(args.output, _serialized("dot", _load(args.input, xmlio.from_xml)))
    return 0


def _cmd_catalogue(args) -> int:
    catalogue = _load(args.input, xmlio.catalogue_from_xml)
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
        # Python 3.10's argparse keeps the ArgumentError it reports in a local
        # of a frame on its own traceback, a cycle; clearing the frames ends it.
        # Imported here, as importing it costs about 3 ms of every start-up.
        import traceback
        traceback.clear_frames(exc.__traceback__)
        code = exc.code if exc.code is not None else 0
        return 3 if code == 2 else int(code)  # argparse uses 2 for usage errors
    if isinstance(sys.stdout, io.TextIOWrapper):  # data is UTF-8, as in -o files
        sys.stdout.reconfigure(encoding="utf-8")
    # A command leaves no cyclic garbage, so the collector's passes over the
    # growing graph would find nothing; it is paused, then left as it was.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except model.InvalidGraphError as exc:
        for violation in exc.violations:
            print(_violation_line(violation), file=sys.stderr)
        return 1
    except (model.GraphError, model.SourceError, OSError) as exc:
        print(f"semgraph: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()
