import pytest
from hypothesis import assume, given, settings, strategies as st

import penman_oracle
from semgraph import penman
from semgraph.model import ConceptNode, EntityNode, validate, SemanticGraph
from semgraph.penman import (
    CONST,
    NODE,
    REF,
    PenmanError,
    UmrDocument,
    amr_to_graph,
    parse_penman,
    parse_penman_file,
    umr_to_graph,
)
from semgraph.xmlio import to_xml
from helpers import constants, in_edges, shape
from test_fuzz import SEEDS, mutated


class TestParsePenman:
    def test_minimal_expression(self):
        tree = parse_penman("(b / boy)")
        assert tree.root == "b"
        assert tree.concepts == {"b": "boy"}
        assert tree.slots == []

    def test_blank_and_comment_line_runs(self):
        # A blank line ends an expression in a file, but not in parse_penman.
        padded = ("(a" + " \n" * 1_000_000 + "/ x\n" + '  # c "q\n' * 100_000
                  + "\n" * 1_000_000 + ':r "q")')
        assert parse_penman(padded) == parse_penman('(a / x :r "q")')

    def test_nested_node_and_symbol_constant(self):
        tree = parse_penman("(s / say-01 :ARG0 (b / boy) :polarity -)")
        assert tree.concepts == {"s": "say-01", "b": "boy"}
        assert [(slot.owner, slot.role, slot.kind, slot.value) for slot in tree.slots] == [
            ("s", "ARG0", NODE, "b"),
            ("s", "polarity", CONST, "-"),
        ]

    def test_reentrancy_is_a_reference(self):
        tree = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")
        assert len(tree.concepts) == 3
        last = tree.slots[-1]
        assert (last.owner, last.role, last.kind, last.value) == ("g", "ARG0", REF, "b")

    def test_forward_reference(self):
        tree = parse_penman("(s / see-01 :ARG0 x :ARG1 (x / girl))")
        assert tree.slots[0].kind == REF
        assert tree.slots[0].value == "x"

    def test_quoted_string_keeps_spaces_drops_quotes(self):
        tree = parse_penman('(c / city :name "New York")')
        slot = tree.slots[0]
        assert slot.kind == CONST
        assert slot.value == "New York"

    def test_string_escapes(self):
        tree = parse_penman(r'(c / c1 :op1 "say \"hi\"")')
        assert tree.slots[0].value == 'say "hi"'

    def test_number_constant(self):
        tree = parse_penman("(r / room :quant 55)")
        assert (tree.slots[0].kind, tree.slots[0].value) == (CONST, "55")

    def test_slot_order_is_surface_order(self):
        tree = parse_penman("(a / A :r1 (b / B :inner c) :r2 (c / C))")
        assert [slot.role for slot in tree.slots] == ["r1", "inner", "r2"]

    def test_alignments_and_comments_ignored(self):
        text = "# ::id example-1\n(b / boy~e.2 :mod~e.3 (t / tall))\n"
        tree = parse_penman(text)
        assert tree.concepts == {"b": "boy", "t": "tall"}
        assert tree.slots[0].role == "mod"

    def test_comment_line_may_hold_a_quote(self):
        text = '# ::snt He said "go\n(g / go-01 :ARG0 (b / boy :name "Bob"))'
        tree = parse_penman(text)
        assert tree.concepts == {"g": "go-01", "b": "boy"}
        assert (tree.slots[-1].kind, tree.slots[-1].value) == (CONST, "Bob")

    def test_hash_word_after_other_text_is_a_token(self):
        tree = parse_penman("(a / A :mod #x\n  # a comment line\n)")
        assert [(slot.kind, slot.value) for slot in tree.slots] == [(CONST, "#x")]

    def test_nesting_depth_is_not_limited(self):
        depth = 5000  # past Python's default recursion limit
        text = "".join(f"(a{i} / x :r " for i in range(depth)) + "1" + ")" * depth
        tree = parse_penman_file("(a / alpha)\n\n" + text)[1]
        assert tree.root == "a0"
        assert len(tree.concepts) == depth
        assert [(slot.owner, slot.value) for slot in tree.slots[:2]] == \
            [("a0", "a1"), ("a1", "a2")]
        assert (tree.slots[-1].owner, tree.slots[-1].kind) == (f"a{depth - 1}", CONST)

    @pytest.mark.parametrize("text,fragment", [
        ("(b / boy", "missing ')'"),
        ("(b boy)", "expected '/'"),
        ("(b / boy :mod)", "has no value"),
        ("(b / boy :mod :pol -)", "has no value"),
        ("(b / boy) (c / cat)", "trailing"),
        ("(b / boy :ARG0 (b / man))", "defined twice"),
        ("", "empty input"),
        ("   \n", "empty input"),
        ('(b / boy :op ")', "unexpected character"),
        ('(b / boy :op "")', "empty string constant"),
    ])
    def test_errors_carry_offset(self, text, fragment):
        with pytest.raises(PenmanError) as exc:
            parse_penman(text)
        assert fragment in exc.value.reason
        assert isinstance(exc.value.offset, int)

    def test_error_offset_points_at_problem(self):
        with pytest.raises(PenmanError) as exc:
            parse_penman("(b boy)")
        assert exc.value.offset == 3


class TestParsePenmanFile:
    def test_blank_line_separated_blocks(self):
        text = "(a / alpha)\n\n# comment only\n\n(b / beta :mod (c / gamma))\n"
        trees = parse_penman_file(text)
        assert [tree.root for tree in trees] == ["a", "b"]

    def test_lines_end_at_newline_only(self):
        text = "(a / alpha)\n\n# note\u2028more\v\n(b beta)\n"
        with pytest.raises(PenmanError) as exc:
            parse_penman_file(text)
        assert (exc.value.line, exc.value.column) == (4, 4)

    def test_crlf_blocks(self):
        text = "(a / alpha)\r\n\r\n# c\r\n(b / beta\r\n  :mod (c / gamma))\r\n"
        trees = parse_penman_file(text)
        assert [tree.root for tree in trees] == ["a", "b"]

    def test_error_offset_is_file_global(self):
        text = "(a / alpha)\n\n(b beta)\n"
        with pytest.raises(PenmanError) as exc:
            parse_penman_file(text)
        assert exc.value.offset == text.index("beta")
        assert (exc.value.line, exc.value.column) == (3, 4)
        assert str(exc.value) == "expected '/' after variable 'b' (line 3, column 4)"

    @pytest.mark.parametrize("text,fault,column", [
        ('(a / alpha)\n\n(b / beta :op ")\n', '"', 15),
        ("(a / alpha)\n\n(b / beta :)\n", ":", 11),
    ])
    def test_token_error_offset_is_file_global(self, text, fault, column):
        with pytest.raises(PenmanError) as exc:
            parse_penman_file(text)
        assert exc.value.offset == text.index(fault)
        assert (exc.value.line, exc.value.column) == (3, column)


class TestAmrToGraph:
    def test_minimal(self):
        g = amr_to_graph(parse_penman("(b / boy)"))
        assert len(g.nodes) == 1
        assert not g.edges
        node = next(iter(g.nodes.values()))
        assert isinstance(node, ConceptNode) and node.name == "boy"

    def test_reentrancy_against_hand_built_graph(self):
        # Expected graph assembled by hand-applying the replacement rules:
        # one concept per variable, one edge per slot, references connect to
        # the existing node. Compared through canonical XML.
        expected = SemanticGraph()
        want = expected.add_concept("want-01")
        boy = expected.add_concept("boy")
        go = expected.add_concept("go-02")
        expected.add_edge(want, "ARG0", boy)
        expected.add_edge(want, "ARG1", go)
        expected.add_edge(go, "ARG0", boy)

        converted = amr_to_graph(
            parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))"))
        assert to_xml(converted) == to_xml(expected)
        assert len(in_edges(converted, boy)) == 2

    def test_quantity_constant_becomes_entity(self):
        g = amr_to_graph(parse_penman("(r / room :quant 55)"))
        assert len(g.nodes) == 2
        entity = [n for n in g.nodes.values() if isinstance(n, EntityNode)][0]
        assert entity.value == "55"
        assert entity.classes == ()
        edge = g.edges[0]
        assert edge.label.name == "quant"
        assert edge.target == entity.id

    def test_no_variables_survive(self):
        g = amr_to_graph(parse_penman("(w / want-01 :ARG0 (b / boy))"))
        names = {n.name for n in g.nodes.values() if isinstance(n, ConceptNode)}
        assert names == {"want-01", "boy"}

    def test_inverse_role_normalized(self):
        inverted = amr_to_graph(parse_penman("(a / A :rel-of (b / B))"))
        forward = amr_to_graph(parse_penman("(b / B :rel (a / A))"))
        assert shape(inverted) == shape(forward)
        assert inverted.edges[0].label.name == "rel"

    def test_inverse_role_onto_constant_not_flipped(self):
        g = amr_to_graph(parse_penman('(a / A :poss-of "x")'))
        assert validate(g) == []
        edge = g.edges[0]
        assert edge.label.name == "poss-of"
        assert isinstance(g.nodes[edge.target], EntityNode)

    def test_repeated_role_switches_to_indexed(self):
        g = amr_to_graph(parse_penman("(a / A :mod (b / B) :mod (c / C))"))
        assert validate(g) == []
        labels = [str(e.label) for e in g.edges]
        assert labels == ["mod[1]", "mod[2]"]

    def test_constants_not_deduplicated(self):
        g = amr_to_graph(parse_penman("(a / A :op1 3 :op2 3)"))
        values = [n.value for n in g.nodes.values() if isinstance(n, EntityNode)]
        assert values == ["3", "3"]

    def test_equals_one_sentence_umr_document(self):
        for text in AMR_SUITE:
            tree = parse_penman(text)
            assert to_xml(amr_to_graph(tree)) == to_xml(umr_to_graph(UmrDocument([tree], [])))


AMR_SUITE = [
    "(b / boy)",
    "(s / say-01 :ARG0 (b / boy) :polarity -)",
    "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))",
    "(r / room :quant 55)",
    "(a / and :op1 (x / run-02) :op2 (y / jump-03))",
    '(c / city :name "New York" :quant 2)',
    "(p / possible-01 :ARG1 (g / go-02 :ARG0 (i / i)))",
    "(s / see-01 :ARG0 x :ARG1 (x / girl))",
    "(h / have-org-role-91 :ARG0 (p / person) :ARG1 (o / org) :ARG2 (m / mayor))",
    "(k / know-01 :polarity - :ARG0 (i / i) :ARG1 (t / thing))",
    "(a / A :rel-of (b / B))",
    "(m / multi-sentence :snt1 (s1 / sleep-01) :snt2 (s2 / dream-01 :ARG0 s1))",
    "(d / date-entity :year 2020 :month 1 :day 14)",
    "(t / temperature :quant 25 :scale (c / celsius))",
    "(b / borrow-01 :ARG0 (w / we) :ARG1 (m / monetary-quantity :quant 55))",
    "(n / nest :deep1 (x1 / a :deep2 (x2 / b :deep3 (x3 / c))))",
    "(e / eat-01 :ARG0 (d / dog) :ARG1 (f / food) :time (n / now) :manner (q / quick))",
    "(g / go-02 :ARG0 (i / i) :destination-of (p / plan-01))",
    '(q / quote :value "a \\"quoted\\" thing")',
    "(u / über :mod (ü / schnell))",
]


def _tree_counts(tree):
    return len(tree.concepts), len(constants(tree)), len(tree.slots)


@pytest.mark.parametrize("text", AMR_SUITE)
def test_suite_node_and_edge_counts(text):
    tree = parse_penman(text)
    variables, constants, slots = _tree_counts(tree)
    g = amr_to_graph(tree)
    assert len(g.nodes) == variables + constants
    assert len(g.edges) == slots
    assert validate(g) == []


INVERSE_PAIRS = [
    ("(a / A :rel-of (b / B))", "(b / B :rel (a / A))"),
    ("(s / sing-01 :ARG0-of (p / person))", "(p / person :ARG0 (s / sing-01))"),
    ("(c / cat :poss-of (o / owner))", "(o / owner :poss (c / cat))"),
    ("(x / X :r1-of (y / Y :r2 (z / Z)))", "(y / Y :r1 (x / X) :r2 (z / Z))"),
    ("(g / go-02 :time-of (d / day))", "(d / day :time (g / go-02))"),
]


@pytest.mark.parametrize("inverted,forward", INVERSE_PAIRS)
def test_inverse_normalization_pairs(inverted, forward):
    assert shape(amr_to_graph(parse_penman(inverted))) == \
        shape(amr_to_graph(parse_penman(forward)))


def _outcome(parse_file, text):
    """The (root, concepts, slots) of each expression, or the reason and
    location of the error."""
    try:
        return [(tree.root, tree.concepts, tree.slots) for tree in parse_file(text)]
    except PenmanError as exc:
        return exc.reason, exc.line, exc.column


def _oracle_file(text):
    """``parse_penman_file`` with the lexer and the recursive parser it replaced."""
    return [penman_oracle.parse_tokens(tokens, text, end)
            for start, end, _ in penman._blocks(text)
            if (tokens := penman_oracle.tokenize(text, start, end))]


# Whole role fillings, closings, every token kind alone, an alignment, a
# comment line and a block break; drawn after an opened root.
PARSER_ALPHABET = [" :r x", ' :r "s"', " :r (y / d", " :r-of (z / e", ")", ")", " :r", " /",
                   " (", " x", "~e.1", "\n\n", "\n# c\n"]


class TestAgainstRecursiveParser:
    """The one-loop parser against the recursive one it replaced."""

    @pytest.mark.parametrize("strategy", [
        mutated(SEEDS["amr"]),
        mutated(SEEDS["umr"]),
        mutated("\n\n".join(AMR_SUITE)),
        st.lists(st.sampled_from(PARSER_ALPHABET), max_size=16).map(
            lambda parts: "(x / c" + "".join(parts)),
    ], ids=["fuzz-amr", "fuzz-umr", "suite", "alphabet"])
    def test_same_trees_or_same_error(self, strategy):
        @settings(max_examples=400)
        @given(strategy)
        def check(text):
            try:
                expected = _outcome(_oracle_file, text)
            except RecursionError:
                assume(False)
            assert _outcome(parse_penman_file, text) == expected

        check()

    def test_same_trees_on_the_suite(self):
        text = "\n\n".join(AMR_SUITE)
        trees = _outcome(parse_penman_file, text)
        assert len(trees) == len(AMR_SUITE)
        assert trees == _outcome(_oracle_file, text)


def _lexed(tokenize, text, start, end):
    """The tokens of ``text[start:end]``, or the reason and location of its error."""
    try:
        return tokenize(text, start, end)
    except PenmanError as exc:
        return exc.reason, exc.line, exc.column


# Every character the lexer treats specially, white space of each kind, a
# comment line holding a quote, an indented "#word" and whole tokens.
LEXER_ALPHABET = list('()/:~"\\# \t\r\n\v\x85\xa0') + [
    '\n# c "q\n', "\n  #w", "\r\n", ":r~e.2", "~e.1", "x~e.3", "x", ":~", '"s"', '""', "\\\n"]


class TestAgainstOracleLexer:
    """The one-match-per-token lexer against the one it replaced, which tries
    every alternative at each character, over random ``start`` and ``end``."""

    @pytest.mark.parametrize("strategy", [
        mutated(SEEDS["amr"]),
        mutated(SEEDS["umr"]),
        mutated("\n\n".join(AMR_SUITE)),
        st.lists(st.sampled_from(LEXER_ALPHABET) | st.characters(), max_size=14).map("".join),
    ], ids=["fuzz-amr", "fuzz-umr", "suite", "alphabet"])
    def test_same_tokens_or_same_error(self, strategy):
        @settings(max_examples=400)
        @given(strategy.flatmap(lambda text: st.tuples(
            st.just(text), st.integers(0, len(text)), st.integers(0, len(text)))))
        def check(case):
            text, start, end = case
            start, end = min(start, end), max(start, end)
            assert (_lexed(penman._tokenize, text, start, end)
                    == _lexed(penman_oracle.tokenize, text, start, end))

        check()

    def test_same_tokens_on_the_suite(self):
        for text in (SEEDS["amr"], SEEDS["umr"], *AMR_SUITE):
            tokens = penman._tokenize(text, 0, len(text))
            assert tokens and tokens == penman_oracle.tokenize(text, 0, len(text))
