"""Turtle-subset triple parsing and conversion of knowledge-graph events."""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field

from .model import RoleLabel, SemanticGraph, SourceError, add_planned_edges, line_col

EVENT_TYPE = "sem:Event"
TYPE_PRED = "rdf:type"
SUBEVENT_PRED = "sem:subEventOf"
LABEL_PRED = "rdfs:label"

RESOURCE = "resource"
LITERAL = "literal"


class TurtleError(SourceError):
    """Malformed or unsupported Turtle input."""


@dataclass(frozen=True)
class Term:
    kind: str  # resource | literal
    text: str  # prefixed name / IRI, or the literal's lexical form
    datatype: str | None = None
    lang: str | None = None


@dataclass
class TripleStore:
    prefixes: dict[str, str] = field(default_factory=dict)
    triples: list[tuple[Term, Term, Term]] = field(default_factory=list)


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

# One match per token, white space first. Every non-blank character starts
# some alternative, at worst the catch-all `error`, and `\Z` ends the text,
# so a match never backtracks into the white space in front of it.
_TOKEN_RE = re.compile(r'''[ \t\r\n]*(?:
    (?P<word>[^\s;,<>"#^\[\](){}.@][^\s;,<>"#^\[\](){}]*)
  | (?P<semi>;) | (?P<comma>,) | (?P<dot>\.) | (?P<dtype>\^\^)
  | (?P<string>"(?!"")[^"\\]*(?:\\.[^"\\]*)*")
  | (?P<iri><[^>]+>)
  | (?P<at>@[A-Za-z][A-Za-z0-9-]*)
  | \#[^\n]* | \Z
  | (?P<error>"""|<>|[^ \t\r\n])
)''', re.VERBOSE | re.DOTALL)

# Turtle's numeric literals (INTEGER, DECIMAL, DOUBLE) and boolean literals,
# which the subset leaves out. A word never ends with ".": the lexer splits
# trailing dots off.
_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_BOOLEANS = ("true", "false")

_ERRORS = {
    '"""': "unsupported construct: triple-quoted strings",
    '"': "unterminated string literal",
    "<>": "empty IRI",
    "<": "unterminated IRI",
    "@": "malformed '@' token",
    "[": "unsupported construct: blank nodes",
    "]": "unsupported construct: blank nodes",
    "(": "unsupported construct: collections",
    ")": "unsupported construct: collections",
    "{": "unsupported construct: graph blocks",
    "}": "unsupported construct: graph blocks",
}


def _fail(text: str, offset: int, message: str):
    raise TurtleError(message, *line_col(text, offset))


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, value, offset) tokens of ``text``; kind is "word", "iri",
    "string", "at", "dtype", "dot", "semi" or "comma"."""
    tokens: list[tuple[str, str, int]] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind is None:  # a comment, or the end of the text
            continue
        value, offset = match[kind], match.start(kind)
        if kind == "word" and value[-1] == ".":  # trailing dots end the statement
            word = value.rstrip(".")
            if len(value) - len(word) > 1:
                _fail(text, offset + len(word) + 1, "unexpected '.'")
            tokens.append(("word", word, offset))
            kind, value, offset = "dot", ".", offset + len(word)
        elif kind == "string":
            value = _ESCAPE_RE.sub(_unescape, value[1:-1])
        elif kind == "iri":
            value = value[1:-1]
        elif kind == "error":
            _fail(text, offset, _ERRORS.get(value) or f"unexpected character {value!r}")
        tokens.append((kind, value, offset))
    return tokens


def parse_turtle(text: str) -> TripleStore:
    """Parse the supported Turtle subset into a prefix map plus ordered triples.

    Supported: @prefix directives, prefixed names, <IRI> references, the `a`
    keyword (stored as rdf:type), string literals with optional @lang or
    ^^datatype, ';' predicate lists, ',' object lists and '#' comments.
    Blank nodes, blank-node labels, collections, graph blocks and
    triple-quoted strings raise an "unsupported construct" error.
    Prefixed names are kept as written, not expanded.
    """
    tokens = _tokenize(text)
    store = TripleStore()
    pos = 0

    def take(expectation: str, kind: str | None = None) -> tuple[str, str, int]:
        nonlocal pos
        if pos == len(tokens):
            _fail(text, len(text), f"unexpected end of input, expected {expectation}")
        token = tokens[pos]
        if kind is not None and token[0] != kind:
            _fail(text, token[2], f"expected {expectation}, got {token[1]!r}")
        pos += 1
        return token

    def next_is(kind: str) -> bool:
        nonlocal pos
        if pos < len(tokens) and tokens[pos][0] == kind:
            pos += 1
            return True
        return False

    def resource(token: tuple[str, str, int]) -> Term:
        kind, value, offset = token
        if kind == "iri":
            return Term(RESOURCE, value)
        if kind != "word":
            _fail(text, offset, f"expected a resource, got {value!r}")
        if value.startswith("_:"):
            _fail(text, offset, "unsupported construct: blank node labels")
        if ":" not in value:
            _fail(text, offset, f"{value!r} is not a prefixed name or IRI")
        prefix = value.split(":", 1)[0]
        if prefix not in store.prefixes:
            _fail(text, offset, f"unknown prefix '{prefix}:'")
        return Term(RESOURCE, value)

    # Each pass reads one object, first reading the subject or verb it lacks:
    # `subject` is None between statements, `predicate` between ';' entries.
    subject = predicate = None
    while subject is not None or pos < len(tokens):
        if subject is None:
            token = take("a subject")
            if token[0] == "at":
                if token[1] != "@prefix":
                    _fail(text, token[2], f"unknown directive '{token[1]}'")
                kind, name, offset = take("a prefix name")
                if kind != "word" or not name.endswith(":") or name.count(":") != 1:
                    _fail(text, offset, "expected a prefix name like 'ex:'")
                store.prefixes[name[:-1]] = take("an IRI", "iri")[1]
                take("'.'", "dot")
                continue
            subject = resource(token)
        if predicate is None:
            verb = take("a predicate")
            predicate = (Term(RESOURCE, TYPE_PRED) if verb[0] == "word" and verb[1] == "a"
                         else resource(verb))
        kind, value, offset = token = take("an object")
        if kind == "word" and ":" not in value:
            if value in _BOOLEANS:
                _fail(text, offset, "unsupported construct: boolean literals")
            if _NUMBER_RE.fullmatch(value):
                _fail(text, offset, "unsupported construct: numeric literals")
        if kind != "string":
            obj = resource(token)
        elif not value:
            _fail(text, offset, "empty string literal")
        elif pos < len(tokens) and tokens[pos][0] == "at" and tokens[pos][1] != "@prefix":
            obj = Term(LITERAL, value, lang=tokens[pos][1][1:])
            pos += 1
        elif next_is("dtype"):
            obj = Term(LITERAL, value, datatype=resource(take("a datatype")).text)
        else:
            obj = Term(LITERAL, value)
        store.triples.append((subject, predicate, obj))
        kind, value, offset = take("',', ';' or '.'")
        if kind == "semi":
            predicate = None
            while next_is("semi"):  # an empty ';' entry
                pass
            if next_is("dot"):  # a trailing ';' before '.'
                subject = None
        elif kind == "dot":
            subject = predicate = None
        elif kind != "comma":
            _fail(text, offset, f"expected ',', ';' or '.', got {value!r}")
    return store


def _leaf_edge(graph: SemanticGraph, pred_node: str, obj: Term) -> tuple[str, str, str]:
    role = "id" if obj.kind == RESOURCE else "value"
    return (pred_node, role, graph.add_entity(obj.text))


def events_to_graph(store: TripleStore) -> SemanticGraph:
    """Build a semantic graph from event data following the triple rules.

    Every resource typed sem:Event becomes a "sem:Event" concept carrying:
    an `id` role to an entity holding the resource's name; one `rdfs:label`
    role per label literal (indexed when there are several); `subEvent[1..k]`
    roles, in document order, to the concepts of typed events that declare
    sem:subEventOf pointing at it (the direction is inverted so the
    encompassing event owns its children); and, for every remaining triple, a
    role named after the predicate leading to a fresh predicate concept whose
    `id` (resource object) or `value` (literal object) role holds the object.
    A role an event gets twice, say from an `<id>` predicate, is indexed 1..k
    in that order. Triples whose subject is not a typed event yield the same
    detached predicate-concept/leaf pairs, so no triple is dropped.
    """
    children = _events(store.triples)
    graph = SemanticGraph()
    events = {name: graph.add_concept(EVENT_TYPE) for name in children}
    labels: dict[str, list[str]] = {name: [] for name in events}
    own: dict[str, list[tuple[Term, Term]]] = {name: [] for name in events}
    islands: list[tuple[Term, Term]] = []
    for s, p, o in store.triples:
        if s.text not in events:
            islands.append((p, o))
        elif p.text == TYPE_PRED and o.kind == RESOURCE and o.text == EVENT_TYPE:
            continue
        elif p.text == LABEL_PRED and o.kind == LITERAL:
            labels[s.text].append(o.text)
        elif not (p.text == SUBEVENT_PRED and o.kind == RESOURCE and o.text in events):
            own[s.text].append((p, o))
    planned = []
    for event, event_node in events.items():
        planned.append((event_node, "id", graph.add_entity(event)))
        planned += [(event_node, LABEL_PRED, graph.add_entity(label)) for label in labels[event]]
        for position, child in enumerate(children[event], start=1):
            planned.append((event_node, RoleLabel("subEvent", position), events[child]))
        for p, o in own[event]:
            pred_node = graph.add_concept(p.text)
            planned.append((event_node, p.text, pred_node))
            planned.append(_leaf_edge(graph, pred_node, o))
    planned += [_leaf_edge(graph, graph.add_concept(p.text), o) for p, o in islands]
    add_planned_edges(graph, planned)
    return graph


def _events(triples: list[tuple[Term, Term, Term]]) -> dict[str, list[str]]:
    """The typed events, in the order each is first typed, each mapped to its
    sub-events: the typed events that declare sem:subEventOf it, in document
    order."""
    children: dict[str, list[str]] = {}
    declared: list[tuple[str, str]] = []
    for s, p, o in triples:
        if p.text == TYPE_PRED and o.kind == RESOURCE and o.text == EVENT_TYPE:
            children.setdefault(s.text, [])
        elif p.text == SUBEVENT_PRED and o.kind == RESOURCE:
            declared.append((s.text, o.text))
    for child, parent in declared:
        if child in children and parent in children:
            children[parent].append(child)
    return children


def _top_level(children: dict[str, list[str]]) -> list[str]:
    nested = {child for subs in children.values() for child in subs}
    return [name for name in children if name not in nested]


def split_events(store: TripleStore) -> list[TripleStore]:
    """One store per top-level event, holding the triples of the event and its
    transitive sub-events. Triples of subjects outside every event tree drop."""
    children = _events(store.triples)
    stores: list[TripleStore] = []
    stores_of: dict[str, list[TripleStore]] = {}  # subject -> the stores whose tree holds it
    for top in _top_level(children):
        sub = TripleStore(dict(store.prefixes))
        stores.append(sub)
        closure = {top}
        queue = deque([top])
        while queue:
            name = queue.popleft()
            stores_of.setdefault(name, []).append(sub)
            for child in children[name]:
                if child not in closure:
                    closure.add(child)
                    queue.append(child)
    for triple in store.triples:
        for sub in stores_of.get(triple[0].text, ()):
            sub.triples.append(triple)
    return stores
