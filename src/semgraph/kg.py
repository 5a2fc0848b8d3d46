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


@dataclass
class _Token:
    kind: str  # "word", "iri", "string", "at", "dtype", "dot", "semi", "comma"
    value: str
    offset: int


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


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind is None:  # a comment, or the end of the text
            continue
        value, offset = match[kind], match.start(kind)
        if kind == "word" and value[-1] == ".":  # trailing dots end the statement
            word = value.rstrip(".")
            if len(value) - len(word) > 1:
                _fail(text, offset + len(word) + 1, "unexpected '.'")
            tokens.append(_Token("word", word, offset))
            kind, value, offset = "dot", ".", offset + len(word)
        elif kind == "string":
            value = _ESCAPE_RE.sub(_unescape, value[1:-1])
        elif kind == "iri":
            value = value[1:-1]
        elif kind == "error":
            _fail(text, offset, _ERRORS.get(value) or f"unexpected character {value!r}")
        tokens.append(_Token(kind, value, offset))
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

    def take(expectation: str, kind: str | None = None) -> _Token:
        nonlocal pos
        if pos == len(tokens):
            _fail(text, len(text), f"unexpected end of input, expected {expectation}")
        token = tokens[pos]
        if kind is not None and token.kind != kind:
            _fail(text, token.offset, f"expected {expectation}, got {token.value!r}")
        pos += 1
        return token

    def next_is(kind: str) -> bool:
        nonlocal pos
        if pos < len(tokens) and tokens[pos].kind == kind:
            pos += 1
            return True
        return False

    def resource(token: _Token) -> Term:
        if token.kind == "iri":
            return Term(RESOURCE, token.value)
        if token.kind != "word":
            _fail(text, token.offset, f"expected a resource, got {token.value!r}")
        if token.value.startswith("_:"):
            _fail(text, token.offset, "unsupported construct: blank node labels")
        if ":" not in token.value:
            _fail(text, token.offset, f"{token.value!r} is not a prefixed name or IRI")
        prefix = token.value.split(":", 1)[0]
        if prefix not in store.prefixes:
            _fail(text, token.offset, f"unknown prefix '{prefix}:'")
        return Term(RESOURCE, token.value)

    # Each pass reads one object, first reading the subject or verb it lacks:
    # `subject` is None between statements, `predicate` between ';' entries.
    subject = predicate = None
    while subject is not None or pos < len(tokens):
        if subject is None:
            token = take("a subject")
            if token.kind == "at":
                if token.value != "@prefix":
                    _fail(text, token.offset, f"unknown directive '{token.value}'")
                name = take("a prefix name")
                if (name.kind != "word" or not name.value.endswith(":")
                        or name.value.count(":") != 1):
                    _fail(text, name.offset, "expected a prefix name like 'ex:'")
                store.prefixes[name.value[:-1]] = take("an IRI", "iri").value
                take("'.'", "dot")
                continue
            subject = resource(token)
        if predicate is None:
            verb = take("a predicate")
            predicate = (Term(RESOURCE, TYPE_PRED) if verb.kind == "word" and verb.value == "a"
                         else resource(verb))
        token = take("an object")
        if token.kind != "string":
            obj = resource(token)
        elif not token.value:
            _fail(text, token.offset, "empty string literal")
        elif pos < len(tokens) and tokens[pos].kind == "at" and tokens[pos].value != "@prefix":
            obj = Term(LITERAL, token.value, lang=tokens[pos].value[1:])
            pos += 1
        elif next_is("dtype"):
            obj = Term(LITERAL, token.value, datatype=resource(take("a datatype")).text)
        else:
            obj = Term(LITERAL, token.value)
        store.triples.append((subject, predicate, obj))
        separator = take("',', ';' or '.'")
        if separator.kind == "semi":
            predicate = None
            while next_is("semi"):  # an empty ';' entry
                pass
            if next_is("dot"):  # a trailing ';' before '.'
                subject = None
        elif separator.kind == "dot":
            subject = predicate = None
        elif separator.kind != "comma":
            _fail(text, separator.offset, f"expected ',', ';' or '.', got {separator.value!r}")
    return store


def _leaf_edge(graph: SemanticGraph, pred_node: str, obj: Term) -> tuple[str, RoleLabel, str]:
    role = "id" if obj.kind == RESOURCE else "value"
    return (pred_node, RoleLabel(role), graph.add_entity(obj.text))


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
    for event, event_node in events.items():
        planned = [(event_node, RoleLabel("id"), graph.add_entity(event))]
        for label in labels[event]:
            planned.append((event_node, RoleLabel(LABEL_PRED), graph.add_entity(label)))
        for position, child in enumerate(children[event], start=1):
            planned.append((event_node, RoleLabel("subEvent", position), events[child]))
        for p, o in own[event]:
            pred_node = graph.add_concept(p.text)
            planned.append((event_node, RoleLabel(p.text), pred_node))
            planned.append(_leaf_edge(graph, pred_node, o))
        add_planned_edges(graph, planned)
    add_planned_edges(graph, [_leaf_edge(graph, graph.add_concept(p.text), o)
                              for p, o in islands])
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
