"""Reader for CoNLL-style sentences with BIO causation tags, and the
Sentence/Causation/LanguageDoc graph construction."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .model import (
    ConceptCatalogue,
    ConceptDefinition,
    RoleLabel,
    RoleSpec,
    SemanticGraph,
    SourceError,
    _lines,
    add_planned_edges,
)

UNANALYSED_CLASS = "UnanalysedSubtree"

_LANG_RE = re.compile(r"#\s*lang\s*=\s*(\S+)\s*\Z")
_TAGS = frozenset({"O", "B-Cause", "I-Cause", "B-Effect", "I-Effect"})


class ConllError(SourceError):
    """Malformed CoNLL input or an unannotated sentence; carries a line only."""


@dataclass
class ConllToken:
    id: int
    form: str
    lemma: str
    upos: str
    xpos: str
    feats: str
    head: str
    deprel: str
    causation: str


@dataclass
class ConllSentence:
    tokens: list[ConllToken]
    language: str = "und"
    line: int | None = None  # of the first token, when read from text


@dataclass(frozen=True)
class Span:
    """A maximal BIO run; start/end are 0-based token indices, end inclusive."""

    label: str
    start: int
    end: int


def parse_conll(text: str, default_language: str = "und") -> list[ConllSentence]:
    """Parse blank-line-separated sentences of 9 tab-separated columns.

    Columns: ID FORM LEMMA UPOS XPOS FEATS HEAD DEPREL CAUSATION, with
    CAUSATION a BIO tag over Cause/Effect. A ``# lang = xx`` comment sets the
    sentence language; other comment lines are ignored. Each sentence keeps
    the line of its first token.
    """
    return list(_conll_sentences(text, default_language))


def _conll_sentences(text: str, default_language: str) -> Iterator[ConllSentence]:
    """The sentences of ``parse_conll``, each parsed when it is asked for."""
    tokens: list[ConllToken] = []
    language: str | None = None
    first_line = 0
    for lineno, (_, line) in enumerate(_lines(text), start=1):
        if not line.strip():
            if tokens:
                yield ConllSentence(tokens, language or default_language, first_line)
            tokens, language = [], None
            continue
        if line.lstrip().startswith("#"):
            match = _LANG_RE.match(line.strip())
            if match:
                language = match.group(1)
            continue
        columns = line.split("\t")
        if len(columns) != 9:
            raise ConllError(
                f"expected 9 tab-separated columns, got {len(columns)}", lineno)
        try:
            token_id = int(columns[0])
        except ValueError:
            raise ConllError(f"token id {columns[0]!r} is not an integer", lineno) from None
        if token_id != len(tokens) + 1:
            raise ConllError(
                f"token ids must be contiguous from 1; got {token_id}"
                f" after {len(tokens)} tokens", lineno)
        if not columns[1]:
            raise ConllError("empty FORM column", lineno)
        tag = columns[8]
        if tag not in _TAGS:
            raise ConllError(f"unknown causation tag {tag!r}", lineno)
        if tag.startswith("I-"):
            previous = tokens[-1].causation if tokens else "O"
            if previous not in (f"B-{tag[2:]}", f"I-{tag[2:]}"):
                raise ConllError(
                    f"{tag} does not continue a {tag[2:]} span", lineno)
        if not tokens:
            first_line = lineno
        tokens.append(ConllToken(token_id, *columns[1:9]))
    if tokens:
        yield ConllSentence(tokens, language or default_language, first_line)


def causation_spans(sentence: ConllSentence) -> list[Span]:
    """Extract the Cause/Effect spans in sentence order.

    Tags are read as conlleval reads IOB tags: a span starts at a ``B-`` tag,
    and at an ``I-`` tag that does not continue a span of its own label.
    """
    spans: list[Span] = []
    current: list | None = None
    for i, token in enumerate(sentence.tokens):
        tag = token.causation
        if tag.startswith("I-") and current and current[0] == tag[2:]:
            current[2] = i
            continue
        if current:
            spans.append(Span(*current))
        current = [tag[2:], i, i] if tag.startswith(("B-", "I-")) else None
    if current:
        spans.append(Span(*current))
    return spans


def span_text(sentence: ConllSentence, span: Span) -> str:
    return " ".join(t.form for t in sentence.tokens[span.start:span.end + 1])


def causation_catalogue() -> ConceptCatalogue:
    """The catalogue pinning the causation construction's concepts and roles."""
    return ConceptCatalogue([
        ConceptDefinition("Sentence", [RoleSpec("content"), RoleSpec("source")]),
        ConceptDefinition("Causation", [RoleSpec("cause", indexed=True),
                                        RoleSpec("effect", indexed=True)]),
        ConceptDefinition("LanguageDoc", [RoleSpec("language"),
                                          RoleSpec("element", indexed=True)]),
    ])


def causation_to_graph(sentence: ConllSentence) -> SemanticGraph:
    """Build the Sentence/Causation/LanguageDoc graph for one sentence.

    A Sentence concept holds a `content` role to a Causation concept and a
    `source` role to a LanguageDoc. Each annotated span becomes an
    UnanalysedSubtree entity holding the space-joined forms, shared between
    the Causation side (cause[i]/effect[i]) and the LanguageDoc side
    (element[i], in sentence order). A label with no span gets an omitted
    node so the unexpressed counterpart stays visible. Tokens tagged O are
    not represented.
    """
    return _add_causation(SemanticGraph(), sentence)


def _add_causation(graph: SemanticGraph, sentence: ConllSentence) -> SemanticGraph:
    """Add ``causation_to_graph``'s nodes into ``graph``, with all of their
    edges in one batch, and return it."""
    spans = causation_spans(sentence)
    if not spans:
        raise ConllError("no causation annotation in sentence", sentence.line)
    sentence_node = graph.add_concept("Sentence")
    causation_node = graph.add_concept("Causation")
    doc_node = graph.add_concept("LanguageDoc")
    planned = [(sentence_node, "content", causation_node), (sentence_node, "source", doc_node)]
    entity_of = {span: graph.add_entity(span_text(sentence, span), (UNANALYSED_CLASS,))
                 for span in spans}
    for label, role in (("Cause", "cause"), ("Effect", "effect")):
        targets = [entity_of[span] for span in spans if span.label == label]
        for i, target in enumerate(targets or [graph.add_omitted()], start=1):
            planned.append((causation_node, RoleLabel(role, i), target))
    planned.append((doc_node, "language", graph.add_entity(sentence.language)))
    planned += [(doc_node, RoleLabel("element", i), entity_of[span])
                for i, span in enumerate(spans, start=1)]
    add_planned_edges(graph, planned)
    return graph
