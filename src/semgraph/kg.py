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


class _TurtleParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.store = TripleStore()

    def _peek(self) -> _Token | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def _next(self, expectation: str) -> _Token:
        token = self._peek()
        if token is None:
            _fail(self.text, len(self.text), f"unexpected end of input, expected {expectation}")
        self.pos += 1
        return token

    def _expect(self, kind: str, expectation: str) -> _Token:
        token = self._next(expectation)
        if token.kind != kind:
            _fail(self.text, token.offset, f"expected {expectation}, got {token.value!r}")
        return token

    def _resource(self, token: _Token) -> Term:
        if token.kind == "iri":
            return Term(RESOURCE, token.value)
        if token.kind == "word":
            if token.value.startswith("_:"):
                _fail(self.text, token.offset, "unsupported construct: blank node labels")
            if ":" not in token.value:
                _fail(self.text, token.offset,
                      f"{token.value!r} is not a prefixed name or IRI")
            prefix = token.value.split(":", 1)[0]
            if prefix not in self.store.prefixes:
                _fail(self.text, token.offset, f"unknown prefix '{prefix}:'")
            return Term(RESOURCE, token.value)
        _fail(self.text, token.offset, f"expected a resource, got {token.value!r}")

    def _object(self) -> Term:
        token = self._next("an object")
        if token.kind == "string":
            if not token.value:
                _fail(self.text, token.offset, "empty string literal")
            nxt = self._peek()
            if nxt is not None and nxt.kind == "at" and nxt.value != "@prefix":
                self.pos += 1
                return Term(LITERAL, token.value, lang=nxt.value[1:])
            if nxt is not None and nxt.kind == "dtype":
                self.pos += 1
                datatype = self._resource(self._next("a datatype"))
                return Term(LITERAL, token.value, datatype=datatype.text)
            return Term(LITERAL, token.value)
        return self._resource(token)

    def _verb(self) -> Term:
        token = self._next("a predicate")
        if token.kind == "word" and token.value == "a":
            return Term(RESOURCE, TYPE_PRED)
        return self._resource(token)

    def _prefix_directive(self):
        name = self._next("a prefix name")
        if name.kind != "word" or not name.value.endswith(":") or name.value.count(":") != 1:
            _fail(self.text, name.offset, "expected a prefix name like 'ex:'")
        iri = self._expect("iri", "an IRI")
        self._expect("dot", "'.'")
        self.store.prefixes[name.value[:-1]] = iri.value

    def _triples_block(self):
        subject = self._resource(self._next("a subject"))
        while True:
            predicate = self._verb()
            while True:
                obj = self._object()
                self.store.triples.append((subject, predicate, obj))
                token = self._next("',', ';' or '.'")
                if token.kind == "comma":
                    continue
                break
            if token.kind == "semi":
                nxt = self._peek()
                if nxt is not None and nxt.kind == "dot":  # trailing ';' before '.'
                    self.pos += 1
                    return
                continue
            if token.kind == "dot":
                return
            _fail(self.text, token.offset, f"expected ',', ';' or '.', got {token.value!r}")

    def parse(self) -> TripleStore:
        while True:
            token = self._peek()
            if token is None:
                return self.store
            if token.kind == "at":
                if token.value != "@prefix":
                    _fail(self.text, token.offset, f"unknown directive '{token.value}'")
                self.pos += 1
                self._prefix_directive()
            else:
                self._triples_block()


def parse_turtle(text: str) -> TripleStore:
    """Parse the supported Turtle subset into a prefix map plus ordered triples.

    Supported: @prefix directives, prefixed names, <IRI> references, the `a`
    keyword (stored as rdf:type), string literals with optional @lang or
    ^^datatype, ';' predicate lists, ',' object lists and '#' comments.
    Blank nodes, blank-node labels, collections, graph blocks and
    triple-quoted strings raise an "unsupported construct" error.
    Prefixed names are kept as written, not expanded.
    """
    return _TurtleParser(text).parse()


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
