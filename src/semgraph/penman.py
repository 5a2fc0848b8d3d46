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


@dataclass
class _Token:
    kind: str  # "(", ")", "/", "role", "string", "token"
    value: str
    offset: int


# A whole "#" comment line is one token, skipped, so that a quote inside it
# opens no string; a "#word" after other text on its line stays a token. The
# last alternative catches a quote that opens no complete string.
_TOKEN_RE = re.compile(r'(?P<comment>^[^\S\n]*#.*)|"(?:[^"\\]|\\.)*"|[()/]|[^\s()/"]+|"',
                       re.MULTILINE)
_UNESCAPE_RE = re.compile(r"\\(.)")


def _tokenize(text: str, start: int, end: int) -> list[_Token]:
    """Tokens of ``text[start:end]``, with offsets into the whole ``text``."""
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text, start, end):
        if match.lastgroup == "comment":
            continue
        at = match.start()
        value = match.group(0)
        if value == '"':
            raise PenmanError("unexpected character '\"'", text, at)
        if value.startswith('"'):
            inner = _UNESCAPE_RE.sub(r"\1", value[1:-1])
            if not inner:
                raise PenmanError("empty string constant", text, at)
            tokens.append(_Token("string", inner, at))
        elif value in "()/":
            tokens.append(_Token(value, value, at))
        elif value.startswith(":"):
            name = value[1:].split("~", 1)[0]
            if not name:
                raise PenmanError("role token ':' has no name", text, at)
            tokens.append(_Token("role", name, at))
        elif value.startswith("~"):
            continue  # alignment marker, ignored
        else:
            bare = value.split("~", 1)[0]
            if bare:
                tokens.append(_Token("token", bare, at))
    return tokens


def _parse_tokens(tokens: list[_Token], text: str, end: int) -> PenmanTree:
    """Parse one expression in one loop; ``open_vars`` holds the variables of
    the open nodes, innermost last."""
    concepts: dict[str, str] = {}
    slots: list[Slot] = []
    open_vars: list[str] = []
    pos = 0

    def take(kind: str, reason: str) -> _Token:
        nonlocal pos
        if pos == len(tokens):
            raise PenmanError("unexpected end of input", text, end)
        token = tokens[pos]
        if token.kind != kind:
            raise PenmanError(reason, text, token.offset)
        pos += 1
        return token

    # ``child`` is the NODE slot that the next node fills, appended before the
    # node opens so that slots keep surface order; the root fills one of its own.
    top = child = Slot("", "", NODE, "")
    while child is not None or open_vars:
        if child is not None:
            take("(", "expected '('")
            var_token = take("token", "expected a variable name")
            var = var_token.value
            take("/", f"expected '/' after variable '{var}'")
            concept = take("token", "expected a concept label").value
            if var in concepts:
                raise PenmanError(f"variable '{var}' defined twice", text, var_token.offset)
            concepts[var] = concept
            child.value = var
            child = None
            open_vars.append(var)
        if pos == len(tokens):
            raise PenmanError("unbalanced parentheses: missing ')'", text, end)
        token = tokens[pos]
        pos += 1
        if token.kind == ")":
            open_vars.pop()
            continue
        if token.kind != "role":
            raise PenmanError("expected a role or ')'", text, token.offset)
        value = tokens[pos] if pos < len(tokens) else None
        if value is None or value.kind in ("role", ")"):
            raise PenmanError(f"role ':{token.value}' has no value", text,
                              value.offset if value is not None else end)
        if value.kind == "(":
            child = Slot(open_vars[-1], token.value, NODE, "")
            slots.append(child)
        elif value.kind == "/":
            raise PenmanError("unexpected '/'", text, value.offset)
        else:
            pos += 1
            kind = CONST if value.kind == "string" else REF  # a REF is resolved below
            slots.append(Slot(open_vars[-1], token.value, kind, value.value))
    if pos < len(tokens):
        raise PenmanError("unexpected trailing content", text, tokens[pos].offset)
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
