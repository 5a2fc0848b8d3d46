"""PENMAN notation parsing and conversion of AMR/UMR structures to semantic graphs."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .model import RoleLabel, SemanticGraph, SourceError, _lines, add_planned_edges, line_col

NODE = "node"
REF = "ref"
CONST = "const"


class PenmanError(SourceError):
    """Parse failure; ``offset`` is a character position in the input text."""

    def __init__(self, reason: str, text: str, offset: int):
        super().__init__(reason, *line_col(text, offset))
        self.offset = offset


class UmrError(SourceError):
    """Document-level conversion failure."""


@dataclass
class Slot:
    """One role filling in surface order.

    ``kind`` is "node" for an inline definition, "ref" for a variable
    reference, or "const" for a constant; ``value`` holds the variable name
    or the constant token.
    """

    owner: str
    role: str
    kind: str
    value: str


@dataclass
class PenmanTree:
    root: str
    concepts: dict[str, str]  # variable -> concept label, in definition order
    slots: list[Slot]


@dataclass
class DocRelation:
    source: str
    relation: str
    target: str


@dataclass
class UmrDocument:
    sentences: list[PenmanTree]
    relations: list[DocRelation]


# One match per token, with the white space in front of it; the token's kind
# is the name of its group, and its offset is where group 1 ends. A whole "#"
# comment line is one match, skipped, so that a quote inside it opens no
# string; a "#word" after other text on its line stays a token. Every
# non-blank character starts some alternative after `(\s*)`, at worst the
# catch-all `error`, and `\Z` ends the range, so no match backtracks into
# the white space in front of it. Alignment markers (`~e.1`, alone or as a
# suffix) match outside every named group.
_TOKEN_RE = re.compile(r'''(?:^|\s*\n)[^\S\n]*\#.*|(\s*)(?:
    (?P<token>[^\s()/":~][^\s()/"~]*)[^\s()/"]*
  | (?P<open>\() | (?P<close>\)) | (?P<slash>/)
  | :(?P<role>[^\s()/"~]+)[^\s()/"]*
  | "(?P<string>[^"\\]*(?:\\.[^"\\]*)*)"
  | ~[^\s()/"]* | \Z
  | (?P<error>[":])
)''', re.MULTILINE | re.VERBOSE)
_UNESCAPE_RE = re.compile(r"\\(.)")
_ERRORS = {'"': "unexpected character '\"'", ":": "role token ':' has no name"}


def _tokenize(text: str, start: int, end: int) -> list[tuple[str, str, int]]:
    """The (kind, value, offset) tokens of ``text[start:end]``, with offsets
    into the whole ``text``; kind is "token", "open", "close", "slash",
    "role" (value without its colon) or "string" (value unquoted)."""
    tokens: list[tuple[str, str, int]] = []
    for match in _TOKEN_RE.finditer(text, start, end):
        kind = match.lastgroup
        if kind is None:  # a comment line, an alignment marker or the end
            continue
        value = match[kind]
        if kind == "string":
            if not value:
                raise PenmanError("empty string constant", text, match.end(1))
            if "\\" in value:
                value = _UNESCAPE_RE.sub(r"\1", value)
        elif kind == "error":
            raise PenmanError(_ERRORS[value], text, match.end(1))
        tokens.append((kind, value, match.end(1)))
    return tokens


def _parse_tokens(tokens: list[tuple[str, str, int]], text: str, end: int) -> PenmanTree:
    """Parse one expression in one loop; ``open_vars`` holds the variables of
    the open nodes, innermost last."""
    concepts: dict[str, str] = {}
    slots: list[Slot] = []
    open_vars: list[str] = []
    pos = 0

    def take(kind: str, reason: str) -> tuple[str, str, int]:
        nonlocal pos
        if pos == len(tokens):
            raise PenmanError("unexpected end of input", text, end)
        token = tokens[pos]
        if token[0] != kind:
            raise PenmanError(reason, text, token[2])
        pos += 1
        return token

    # ``child`` is the NODE slot that the next node fills, appended before the
    # node opens so that slots keep surface order; the root fills one of its own.
    top = child = Slot("", "", NODE, "")
    while child is not None or open_vars:
        if child is not None:
            take("open", "expected '('")
            _, var, var_at = take("token", "expected a variable name")
            take("slash", f"expected '/' after variable '{var}'")
            concept = take("token", "expected a concept label")[1]
            if var in concepts:
                raise PenmanError(f"variable '{var}' defined twice", text, var_at)
            concepts[var] = concept
            child.value = var
            child = None
            open_vars.append(var)
        if pos == len(tokens):
            raise PenmanError("unbalanced parentheses: missing ')'", text, end)
        kind, role, at = tokens[pos]
        pos += 1
        if kind == "close":
            open_vars.pop()
            continue
        if kind != "role":
            raise PenmanError("expected a role or ')'", text, at)
        if pos == len(tokens):
            raise PenmanError(f"role ':{role}' has no value", text, end)
        kind, value, at = tokens[pos]
        if kind == "role" or kind == "close":
            raise PenmanError(f"role ':{role}' has no value", text, at)
        if kind == "open":
            child = Slot(open_vars[-1], role, NODE, "")
            slots.append(child)
        elif kind == "slash":
            raise PenmanError("unexpected '/'", text, at)
        else:
            pos += 1
            # A REF is resolved below.
            slots.append(Slot(open_vars[-1], role, CONST if kind == "string" else REF, value))
    if pos < len(tokens):
        raise PenmanError("unexpected trailing content", text, tokens[pos][2])
    for slot in slots:
        if slot.kind == REF and slot.value not in concepts:
            slot.kind = CONST
    return PenmanTree(top.value, concepts, slots)


def parse_penman(text: str) -> PenmanTree:
    """Parse one PENMAN expression.

    Slots keep surface order; quoted constants lose their quotes; a bare token
    is a variable reference when the variable is defined anywhere in the
    expression (forward references included) and a constant otherwise.
    Alignment markers (``~e.N``) and ``#`` comment lines are ignored.
    """
    tokens = _tokenize(text, 0, len(text))
    if not tokens:
        raise PenmanError("empty input", text, 0)
    return _parse_tokens(tokens, text, len(text))


def _blocks(text: str) -> Iterator[tuple[int, int, list[tuple[int, str]]]]:
    """The runs of non-blank lines, each as (start, end, its (offset, line) pairs)."""
    run: list[tuple[int, str]] = []
    for offset, line in _lines(text):
        if line.strip():
            run.append((offset, line))
        elif run:
            yield run[0][0], offset, run
            run = []
    if run:
        yield run[0][0], len(text), run


def parse_penman_file(text: str) -> list[PenmanTree]:
    """Parse a file of blank-line-separated PENMAN expressions."""
    return list(_penman_trees(text))


def _penman_trees(text: str) -> Iterator[PenmanTree]:
    """The expressions of a PENMAN file, each parsed when it is asked for."""
    for start, end, _ in _blocks(text):
        tokens = _tokenize(text, start, end)
        if tokens:  # else a comment-only block
            yield _parse_tokens(tokens, text, end)


_DOC_RELATION_RE = re.compile(r"\(\s*(\S+)\s+(\S+)\s+(\S+)\s*\)\Z")


def parse_umr_document(text: str) -> UmrDocument:
    """Parse sentence expressions plus ``# doc`` blocks of (source rel target) lines."""
    sentences: list[PenmanTree] = []
    relations: list[DocRelation] = []
    for start, end, lines in _blocks(text):
        if lines[0][1].strip() == "# doc":
            for offset, line in lines:
                if not line.lstrip().startswith("#"):
                    match = _DOC_RELATION_RE.match(line.strip())
                    if not match:
                        raise PenmanError("malformed document-level relation", text, offset)
                    relations.append(DocRelation(*match.groups()))
        else:
            tokens = _tokenize(text, start, end)
            if tokens:
                sentences.append(_parse_tokens(tokens, text, end))
    return UmrDocument(sentences, relations)


def _plan_slot_edge(planned: list, source: str, role: str, target: str,
                    target_is_concept: bool) -> None:
    # X-of roles flip to a forward X edge, but only onto concept targets:
    # an entity may never become an edge source.
    if role.endswith("-of") and len(role) > 3 and target_is_concept:
        planned.append((target, RoleLabel(role[:-3]), source))
    else:
        planned.append((source, RoleLabel(role), target))


def amr_to_graph(tree: PenmanTree) -> SemanticGraph:
    """Convert a parsed AMR tree.

    Each variable becomes a concept node named by its concept label (created
    in definition order), each constant occurrence becomes its own leaf
    entity, and each slot becomes a role edge; variable references connect to
    the already-created node. No variables survive in the output.
    """
    return _to_graph(SemanticGraph(), [tree], [])


def umr_to_graph(document: UmrDocument) -> SemanticGraph:
    """Convert a UMR document into one combined semantic graph.

    Sentences convert as AMR and are combined by disjoint union, with two
    document-level twists: a constant that acts as the source of any
    document-level relation is promoted to a single concept node named by its
    token (so it may carry outgoing edges), and every document-level relation
    (x, rel, y) -- temporal, modal or coreference -- is added as an x -rel-> y
    edge between the corresponding nodes, never by unifying them.
    """
    return _to_graph(SemanticGraph(), document.sentences, document.relations)


def _to_graph(graph: SemanticGraph, sentences: list[PenmanTree],
              relations: list[DocRelation]) -> SemanticGraph:
    """Add the sentences and document-level relations into ``graph``, with
    all of their edges in one batch, and return it."""
    var_defined: set[str] = set()
    for tree in sentences:
        for var in tree.concepts:
            if var in var_defined:
                raise UmrError(f"variable '{var}' is defined in more than one sentence")
            var_defined.add(var)
    const_tokens = {slot.value for tree in sentences
                    for slot in tree.slots if slot.kind == CONST}
    promoted: set[str] = set()
    for relation in relations:
        if relation.source not in var_defined:
            if relation.source in const_tokens:
                promoted.add(relation.source)
            else:
                raise UmrError(f"document-level source '{relation.source}'"
                               " does not occur in any sentence")
        if relation.target not in var_defined and relation.target not in const_tokens:
            raise UmrError(f"document-level target '{relation.target}'"
                           " does not occur in any sentence")
    var_node: dict[str, str] = {}
    promoted_node: dict[str, str] = {}
    const_entity: dict[str, str] = {}
    planned: list[tuple[str, RoleLabel, str]] = []
    for tree in sentences:
        for var, label in tree.concepts.items():
            var_node[var] = graph.add_concept(label)
        for slot in tree.slots:
            source = var_node[slot.owner]
            if slot.kind == CONST:
                token = slot.value
                if token in promoted:
                    node = promoted_node.get(token)
                    if node is None:
                        node = promoted_node[token] = graph.add_concept(token)
                    _plan_slot_edge(planned, source, slot.role, node, True)
                else:
                    node = graph.add_entity(token)
                    const_entity.setdefault(token, node)
                    _plan_slot_edge(planned, source, slot.role, node, False)
            else:
                _plan_slot_edge(planned, source, slot.role, var_node[slot.value], True)
    for relation in relations:
        source = var_node.get(relation.source, promoted_node.get(relation.source))
        target = var_node.get(relation.target)
        if target is None:
            target = promoted_node.get(relation.target, const_entity.get(relation.target))
        planned.append((source, RoleLabel(relation.relation), target))
    add_planned_edges(graph, planned)
    return graph
