import pytest
from hypothesis import given, strategies as st

from semgraph.conll import (
    ConllError,
    ConllSentence,
    ConllToken,
    Span,
    causation_catalogue,
    causation_spans,
    causation_to_graph,
    parse_conll,
)
from semgraph.model import OmittedNode, validate
from helpers import in_edges


def _line(i, form, tag):
    return f"{i}\t{form}\t{form}\tX\t_\t_\t0\tdep\t{tag}"


def _sentence_text(forms_tags, lang="it"):
    lines = [f"# lang = {lang}"]
    lines += [_line(i, form, tag) for i, (form, tag) in enumerate(forms_tags, start=1)]
    return "\n".join(lines) + "\n"


RAIN_SENTENCE = _sentence_text([
    ("la", "B-Cause"), ("pioggia", "I-Cause"), ("ha", "O"), ("reso", "O"),
    ("la", "B-Effect"), ("strada", "I-Effect"), ("bagnata", "I-Effect"),
])


class TestParseConll:
    def test_two_minimal_spans(self):
        sentences = parse_conll(_sentence_text([("a", "B-Cause"), ("b", "B-Effect")]))
        assert len(sentences) == 1
        assert causation_spans(sentences[0]) == [
            Span("Cause", 0, 0), Span("Effect", 1, 1)]

    def test_bio_continuation_single_span(self):
        sentences = parse_conll(_sentence_text([("a", "B-Cause"), ("b", "I-Cause")]))
        assert causation_spans(sentences[0]) == [Span("Cause", 0, 1)]

    def test_i_without_b_rejected(self):
        text = _sentence_text([("a", "O"), ("b", "I-Effect")])
        with pytest.raises(ConllError) as exc:
            parse_conll(text)
        assert exc.value.line == 3

    def test_label_switch_without_b_rejected(self):
        with pytest.raises(ConllError):
            parse_conll(_sentence_text([("a", "B-Cause"), ("b", "I-Effect")]))

    def test_wrong_column_count_rejected(self):
        with pytest.raises(ConllError) as exc:
            parse_conll("1\tla\tB-Cause\n")
        assert "9 tab-separated columns" in str(exc.value)

    def test_lines_end_at_newline_only(self):
        text = _sentence_text([("a", "B-Cause"), ("b", "B-Effect")])
        assert len(parse_conll("# a\x85b\f\n" + text)) == 1
        with pytest.raises(ConllError) as exc:
            parse_conll("# a\u2028b\n" + _line(1, "a", "B-Nope") + "\n")
        assert exc.value.line == 2

    def test_crlf_lines(self):
        text = _sentence_text([("a", "B-Cause"), ("b", "B-Effect")]).replace("\n", "\r\n")
        [sentence] = parse_conll(text)
        assert [t.causation for t in sentence.tokens] == ["B-Cause", "B-Effect"]
        assert sentence.language == "it"

    def test_non_contiguous_ids_rejected(self):
        text = "\n".join([_line(1, "a", "O"), _line(3, "b", "B-Cause")]) + "\n"
        with pytest.raises(ConllError) as exc:
            parse_conll(text)
        assert exc.value.line == 2

    def test_empty_form_rejected(self):
        text = _sentence_text([("a", "B-Cause"), ("", "O"), ("b", "B-Effect")])
        with pytest.raises(ConllError) as exc:
            parse_conll(text)
        assert (exc.value.reason, exc.value.line) == ("empty FORM column", 3)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConllError):
            parse_conll(_sentence_text([("a", "B-Reason")]))

    def test_language_metadata(self):
        sentences = parse_conll(RAIN_SENTENCE)
        assert sentences[0].language == "it"

    def test_default_language(self):
        text = _line(1, "a", "B-Cause") + "\n"
        assert parse_conll(text)[0].language == "und"
        assert parse_conll(text, default_language="xx")[0].language == "xx"

    def test_multiple_sentences(self):
        text = RAIN_SENTENCE + "\n" + _sentence_text([("x", "B-Cause")], lang="en")
        sentences = parse_conll(text)
        assert [s.language for s in sentences] == ["it", "en"]
        assert [len(s.tokens) for s in sentences] == [7, 1]

    def test_last_sentence_without_trailing_newline(self):
        text = RAIN_SENTENCE + "\n" + _sentence_text([("x", "B-Cause")], lang="en")
        sentences = parse_conll(text.removesuffix("\n"))
        assert [(s.language, len(s.tokens)) for s in sentences] == [("it", 7), ("en", 1)]
        g = causation_to_graph(sentences[1])
        assert validate(g) == []
        assert [n.value for n in g.nodes.values() if hasattr(n, "value")] == ["x", "en"]

    def test_syntax_columns_preserved_opaque(self):
        token = parse_conll(_sentence_text([("la", "O")]))[0].tokens[0]
        assert (token.lemma, token.upos, token.head, token.deprel) == ("la", "X", "0", "dep")


def _oracle_spans(tags):
    """Independent span extractor: group maximal B/I runs by scanning pairs."""
    spans = []
    for i, tag in enumerate(tags):
        if tag.startswith("B-"):
            spans.append([tag[2:], i, i])
        elif tag.startswith("I-"):
            spans[-1][2] = i
    return [Span(*s) for s in spans]


@st.composite
def _valid_tag_sequences(draw):
    tags = []
    previous = "O"
    for _ in range(draw(st.integers(1, 12))):
        options = ["O", "B-Cause", "B-Effect"]
        if previous != "O":
            options.append("I-" + previous[2:])
        tag = draw(st.sampled_from(options))
        tags.append(tag)
        previous = tag
    return tags


@given(_valid_tag_sequences())
def test_span_extraction_matches_oracle(tags):
    text = "\n".join(_line(i, f"w{i}", tag) for i, tag in enumerate(tags, 1)) + "\n"
    sentence = parse_conll(text)[0]
    assert causation_spans(sentence) == _oracle_spans(tags)


def _conlleval_spans(tags):
    """Spans as conlleval reads IOB tags: one starts at each B- tag and at each
    I- tag whose predecessor is O or of another label, and runs over the I-
    tags of its label that follow."""
    spans = []
    for start, tag in enumerate(tags):
        label = tag[2:]
        before = tags[start - 1] if start else "O"
        if tag.startswith("B-") or (tag.startswith("I-") and before[2:] != label):
            end = start
            while end + 1 < len(tags) and tags[end + 1] == "I-" + label:
                end += 1
            spans.append(Span(label, start, end))
    return spans


def _sentence(tags):
    return ConllSentence([ConllToken(i, f"w{i}", "w", "X", "_", "_", "0", "dep", tag)
                          for i, tag in enumerate(tags, start=1)])


@given(st.lists(st.sampled_from(["O", "B-Cause", "I-Cause", "B-Effect", "I-Effect"]),
                min_size=1, max_size=12))
def test_any_tag_sequence_is_read_as_iob(tags):
    # A sentence built in code need not pass the reader's I- check.
    sentence = _sentence(tags)
    spans = causation_spans(sentence)
    assert spans == _conlleval_spans(tags)
    if spans:
        graph = causation_to_graph(sentence)
        assert validate(graph, causation_catalogue(), "strict") == []
        effects = [e for e in graph.edges if e.label.name == "effect"]
        assert isinstance(graph.nodes[effects[0].target], OmittedNode) == (
            all(span.label != "Effect" for span in spans))


@pytest.mark.parametrize("tags, spans", [
    (["I-Cause"], [Span("Cause", 0, 0)]),
    (["I-Cause", "I-Cause", "O", "I-Effect"], [Span("Cause", 0, 1), Span("Effect", 3, 3)]),
    (["B-Cause", "I-Effect"], [Span("Cause", 0, 0), Span("Effect", 1, 1)]),
    (["B-Effect", "I-Effect", "I-Cause", "I-Cause"],
     [Span("Effect", 0, 1), Span("Cause", 2, 3)]),
], ids=["leading-I", "I-after-O", "I-of-another-label", "I-run-after-I-run"])
def test_an_i_tag_that_continues_no_span_starts_one(tags, spans):
    assert causation_spans(_sentence(tags)) == spans


class TestCausationToGraph:
    def test_rain_sentence_structure(self):
        sentence = parse_conll(RAIN_SENTENCE)[0]
        g = causation_to_graph(sentence)
        assert validate(g, causation_catalogue(), "strict") == []
        by_name = {g.nodes[nid].name: nid for nid in g.nodes
                   if hasattr(g.nodes[nid], "name")}
        cause_edges = [e for e in g.out_edges(by_name["Causation"])
                       if e.label.name == "cause"]
        assert len(cause_edges) == 1
        cause_entity = g.nodes[cause_edges[0].target]
        assert cause_entity.value == "la pioggia"
        assert cause_entity.classes == ("UnanalysedSubtree",)
        effect_edges = [e for e in g.out_edges(by_name["Causation"])
                        if e.label.name == "effect"]
        assert g.nodes[effect_edges[0].target].value == "la strada bagnata"
        language = [e for e in g.out_edges(by_name["LanguageDoc"])
                    if e.label.name == "language"]
        assert g.nodes[language[0].target].value == "it"
        # span entities are shared leaves: causation side plus document side
        for edge in cause_edges + effect_edges:
            assert len(in_edges(g, edge.target)) == 2
            assert not g.out_edges(edge.target)

    def test_sentence_tops_the_construction(self):
        g = causation_to_graph(parse_conll(RAIN_SENTENCE)[0])
        sentence_node = [nid for nid, n in g.nodes.items()
                         if getattr(n, "name", None) == "Sentence"][0]
        assert {str(e.label) for e in g.out_edges(sentence_node)} == {"content", "source"}
        assert not in_edges(g, sentence_node)

    def test_cause_only_yields_omitted_effect(self):
        sentence = parse_conll(_sentence_text([("fuoco", "B-Cause")]))[0]
        g = causation_to_graph(sentence)
        assert validate(g, causation_catalogue(), "strict") == []
        effect_edges = [e for e in g.edges if e.label.name == "effect"]
        assert len(effect_edges) == 1
        assert isinstance(g.nodes[effect_edges[0].target], OmittedNode)

    def test_effect_only_yields_omitted_cause(self):
        sentence = parse_conll(_sentence_text([("bagnata", "B-Effect")]))[0]
        g = causation_to_graph(sentence)
        cause_edges = [e for e in g.edges if e.label.name == "cause"]
        assert isinstance(g.nodes[cause_edges[0].target], OmittedNode)

    def test_two_effect_spans_indexed(self):
        sentence = parse_conll(_sentence_text([
            ("a", "B-Cause"), ("x", "O"), ("b", "B-Effect"), ("y", "O"),
            ("c", "B-Effect"), ("d", "I-Effect")]))[0]
        # oracle: independent extractor fixes the expected span count
        assert len([s for s in _oracle_spans(
            [t.causation for t in sentence.tokens]) if s.label == "Effect"]) == 2
        g = causation_to_graph(sentence)
        effect_edges = [e for e in g.edges if e.label.name == "effect"]
        assert [e.label.index for e in effect_edges] == [1, 2]
        assert [g.nodes[e.target].value for e in effect_edges] == ["b", "c d"]

    def test_no_annotation_rejected(self):
        sentence = parse_conll(_sentence_text([("a", "O"), ("b", "O")]))[0]
        with pytest.raises(ConllError) as exc:
            causation_to_graph(sentence)
        assert "no causation annotation" in str(exc.value)
        assert exc.value.line == 2  # after the "# lang" line

    def test_no_annotation_rejected_at_the_first_token_line(self):
        text = (_sentence_text([("a", "B-Cause")]) + "\n# note\n"
                + _sentence_text([("b", "O"), ("c", "O")]))
        annotated, unannotated = parse_conll(text)
        assert (annotated.line, unannotated.line) == (2, 6)
        with pytest.raises(ConllError) as exc:
            causation_to_graph(unannotated)
        assert str(exc.value) == "no causation annotation in sentence (line 6)"

    def test_span_text_reconstruction(self):
        sentence = parse_conll(RAIN_SENTENCE)[0]
        g = causation_to_graph(sentence)
        elements = sorted((e.label.index, g.nodes[e.target].value)
                          for e in g.edges if e.label.name == "element")
        reconstructed = " ".join(value for _, value in elements)
        annotated = " ".join(t.form for t in sentence.tokens if t.causation != "O")
        assert reconstructed == annotated

    def test_elements_follow_sentence_order(self):
        sentence = parse_conll(_sentence_text([
            ("early", "B-Effect"), ("then", "O"), ("late", "B-Cause")]))[0]
        g = causation_to_graph(sentence)
        elements = [g.nodes[e.target].value for e in g.edges
                    if e.label.name == "element"]
        assert elements == ["early", "late"]


def test_bundled_catalogue_shape():
    catalogue = causation_catalogue()
    assert catalogue.names() == ["Causation", "LanguageDoc", "Sentence"]
    assert catalogue.get("Causation").role("cause").indexed
    assert catalogue.get("LanguageDoc").role("element").indexed
    assert not catalogue.get("LanguageDoc").role("language").indexed
