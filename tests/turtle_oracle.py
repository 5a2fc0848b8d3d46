"""The per-character Turtle lexer that the master-regex one in
``semgraph.kg`` replaced, kept as an oracle for differential tests.

It returns the same ``(kind, value, offset)`` tokens, or raises the same
``TurtleError`` reason at the same line and column, as ``kg._tokenize``.
"""

import re

from semgraph.kg import TurtleError
from semgraph.model import line_col

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_WORD_RE = re.compile(r'[^\s;,<>"#^\[\](){}]+')
_AT_RE = re.compile(r"@[A-Za-z][A-Za-z0-9-]*")

_UNSUPPORTED = {
    "[": "blank nodes",
    "]": "blank nodes",
    "(": "collections",
    ")": "collections",
    "{": "graph blocks",
    "}": "graph blocks",
}


def _fail(text: str, offset: int, message: str):
    raise TurtleError(message, *line_col(text, offset))


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == "#":
            end = text.find("\n", i)
            i = n if end < 0 else end + 1
        elif c == "<":
            end = text.find(">", i)
            if end < 0:
                _fail(text, i, "unterminated IRI")
            iri = text[i + 1:end]
            if not iri:
                _fail(text, i, "empty IRI")
            tokens.append(("iri", iri, i))
            i = end + 1
        elif c == '"':
            if text.startswith('"""', i):
                _fail(text, i, "unsupported construct: triple-quoted strings")
            j = i + 1
            parts = []
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    if j + 1 >= n:
                        _fail(text, i, "unterminated string literal")
                    parts.append(_ESCAPES.get(text[j + 1], text[j + 1]))
                    j += 2
                else:
                    parts.append(text[j])
                    j += 1
            if j >= n:
                _fail(text, i, "unterminated string literal")
            tokens.append(("string", "".join(parts), i))
            i = j + 1
        elif c == "@":
            match = _AT_RE.match(text, i)
            if not match:
                _fail(text, i, "malformed '@' token")
            tokens.append(("at", match.group(0), i))
            i = match.end()
        elif c == ";":
            tokens.append(("semi", ";", i))
            i += 1
        elif c == ",":
            tokens.append(("comma", ",", i))
            i += 1
        elif c == ".":
            tokens.append(("dot", ".", i))
            i += 1
        elif c == "^":
            if text.startswith("^^", i):
                tokens.append(("dtype", "^^", i))
                i += 2
            else:
                _fail(text, i, "unexpected character '^'")
        elif c in _UNSUPPORTED:
            _fail(text, i, f"unsupported construct: {_UNSUPPORTED[c]}")
        else:
            match = _WORD_RE.match(text, i)
            if not match:
                _fail(text, i, f"unexpected character {c!r}")
            word = match.group(0)
            end = match.end()
            stripped = word.rstrip(".")
            if len(word) - len(stripped) > 1:
                _fail(text, i + len(stripped) + 1, "unexpected '.'")
            if stripped:
                tokens.append(("word", stripped, i))
            if stripped != word:
                tokens.append(("dot", ".", i + len(stripped)))
            i = end
    return tokens
