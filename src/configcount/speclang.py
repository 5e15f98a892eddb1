"""The .ccspec problem-description language: parser, validator, printer.

A spec file is a sequence of blocks::

    problem <ident> { <field>* }

Fields are ``key: value`` pairs.  Keys come from the fixed set {kind, cols,
rows, variant, word, layout, rows-data, adjacency, distinct-cells}.  Values
are bare identifiers, decimal integers, quoted strings (with \\" and \\\\
escapes), or ``[`` comma-separated quoted strings ``]``.  ``#`` starts a
comment to end of line.  Whitespace separates tokens and is otherwise
insignificant.  Identifiers are a letter followed by letters, digits,
underscores, or hyphens.

Two problem kinds exist:

* ``squares`` with ``cols``, ``rows`` (positive integers) and ``variant``
  (``axis`` or ``all``);
* ``word-paths`` with ``word`` (non-empty string), ``layout``
  (``manhattan-rings`` or ``explicit``), ``rows-data`` (list of equal-length
  row strings, required exactly when the layout is explicit), ``adjacency``
  (``side``, ``king``, or ``none``) and optional ``distinct-cells``
  (``true``/``false``, default false).

The manhattan-rings layout additionally requires an odd word length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class SpecError(ValueError):
    """Base class for everything that can go wrong with a spec file."""


class ParseError(SpecError):
    """A syntax violation, positioned at the offending token."""

    def __init__(self, line: int, column: int, message: str, expected: str | None = None):
        self.line = line
        self.column = column
        self.message = message
        self.expected = expected
        text = f"{line}:{column}: {message}"
        if expected is not None:
            text += f" (expected {expected})"
        super().__init__(text)


class ValidationError(SpecError):
    """A well-formed but semantically invalid problem description."""


@dataclass(frozen=True)
class ProblemSpec:
    """One parsed counting problem."""

    name: str
    kind: str
    cols: int | None = None
    rows: int | None = None
    variant: str | None = None
    word: str | None = None
    layout: str | None = None
    rows_data: tuple[str, ...] | None = None
    adjacency: str | None = None
    distinct_cells: bool = False


_IDENTIFIER = ("ident", None, "an identifier", "identifier")

# Every field, with the token its value starts with: kind, value (None for
# any), what the field takes, and the expected text of the error.
_FIELDS = {
    "kind": _IDENTIFIER,
    "cols": ("int", None, "an integer", "integer"),
    "rows": ("int", None, "an integer", "integer"),
    "variant": _IDENTIFIER,
    "word": ("string", None, "a quoted string", "quoted string"),
    "layout": _IDENTIFIER,
    "rows-data": ("punct", "[", "a list of quoted strings", "'['"),
    "adjacency": _IDENTIFIER,
    "distinct-cells": _IDENTIFIER,
}

_ENUM_VALUES = {
    "kind": ("squares", "word-paths"),
    "variant": ("axis", "all"),
    "layout": ("manhattan-rings", "explicit"),
    "adjacency": ("side", "king", "none"),
    "distinct-cells": ("true", "false"),
}


@dataclass
class _Token:
    kind: str  # ident | int | string | punct | eof
    value: object
    line: int
    column: int


# Whitespace and comments, then at most one token.  \d is str.isdecimal, the
# digits int() accepts, and [\w-] is isalnum() or "_-"; [^\W\d_] also admits
# non-decimal digits such as "²", so an identifier's first character is
# checked with isalpha() as well.  A string group stops before the first
# character that cannot continue it; that character decides the outcome.
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]|\#[^\n]*)*
    (?:(?P<punct>[{}:,\[\]])
      |(?P<string>"(?:[^"\\\x00-\x1f\x7f]|\\["\\])*)
      |(?P<int>\d+)
      |(?P<ident>[^\W\d_][\w-]*))?
""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")


def _tokens(source: str):
    """Yield the tokens of ``source``, ending with one eof token."""
    pos, line, line_start = 0, 1, 0
    while True:
        match = _TOKEN.match(source, pos)
        kind = match.lastgroup
        start = match.start(kind) if kind else match.end()
        newline = source.rfind("\n", pos, start)
        if newline >= 0:
            line += source.count("\n", pos, start)
            line_start = newline + 1
        column = start - line_start + 1
        pos = match.end()
        if kind is None:
            if pos == len(source):
                yield _Token("eof", None, line, column)
                return
            raise ParseError(line, column, f"unexpected character {source[pos]!r}")
        value = match.group(kind)
        if kind == "ident" and not value[0].isalpha():
            raise ParseError(line, column, f"unexpected character {value[0]!r}")
        if kind == "int":
            try:
                value = int(value)
            except ValueError:  # longer than sys.get_int_max_str_digits()
                raise ParseError(line, column,
                                 f"integer literal too long ({len(value)} digits)") from None
        elif kind == "string":
            end = source[pos:pos + 1]
            if end == "\\" and pos + 1 < len(source):
                raise ParseError(line, pos + 2 - line_start, f"invalid escape \\{source[pos + 1]}")
            if end != '"':
                raise ParseError(line, column, "unterminated string" if end in ("", "\\", "\n")
                                 else "control character in string")
            pos += 1
            value = _ESCAPE.sub(r"\1", value[1:])
        yield _Token(kind, value, line, column)


def _expect(tok: _Token, kind: str, value: str | None, what: str,
            message: str | None = None) -> _Token:
    """``tok`` if it has this kind (and value, unless None); else a ParseError."""
    if tok.kind != kind or (value is not None and tok.value != value):
        raise ParseError(tok.line, tok.column, message or f"expected {what}", expected=what)
    return tok


class _Parser:
    # Pulls one token at a time and never reads ahead; tokens are made only
    # when asked for, so an early parse error is reported before a tokenizer
    # error further down the file.
    def __init__(self, source: str):
        self.tokens = _tokens(source)

    def parse_file(self) -> list[ProblemSpec]:
        specs = []
        names = set()
        for tok in self.tokens:
            if tok.kind == "eof":
                break
            spec = self._parse_block(tok)
            if spec.name in names:
                raise ValidationError(f"duplicate problem name: {spec.name}")
            names.add(spec.name)
            specs.append(spec)
        return specs

    def _parse_block(self, keyword: _Token) -> ProblemSpec:
        _expect(keyword, "ident", "problem", "'problem'")
        name = _expect(next(self.tokens), "ident", None, "problem name")
        _expect(next(self.tokens), "punct", "{", "'{'")
        fields: dict[str, object] = {}
        for tok in self.tokens:
            if tok.kind == "punct" and tok.value == "}":
                break
            if tok.kind == "eof":
                raise ParseError(tok.line, tok.column, "unterminated problem block", expected="'}'")
            key = _expect(tok, "ident", None, "field name").value
            if key not in _FIELDS:
                raise ParseError(tok.line, tok.column, f"unknown field: {key}")
            if key in fields:
                raise ParseError(tok.line, tok.column, f"duplicate field: {key}")
            _expect(next(self.tokens), "punct", ":", "':'")
            fields[key] = self._parse_value(key)
        return _validate(str(name.value), fields)

    def _parse_value(self, key: str):
        kind, value, takes, what = _FIELDS[key]
        tok = _expect(next(self.tokens), kind, value, what, f"field {key} takes {takes}")
        if key == "rows-data":
            return self._parse_string_list()
        if key in _ENUM_VALUES and tok.value not in _ENUM_VALUES[key]:
            allowed = ", ".join(_ENUM_VALUES[key])
            raise ParseError(tok.line, tok.column, f"field {key} must be one of {allowed}")
        return tok.value

    def _parse_string_list(self) -> tuple[str, ...]:
        items: list[str] = []
        tok = next(self.tokens)
        if tok.kind == "punct" and tok.value == "]":
            return ()
        while True:
            items.append(_expect(tok, "string", None, "quoted string",
                                 "expected a quoted string").value)
            tok = next(self.tokens)
            if tok.kind == "punct" and tok.value == "]":
                return tuple(items)
            _expect(tok, "punct", ",", "',' or ']'")
            tok = next(self.tokens)


def _require(fields: dict, name: str, key: str):
    if key not in fields:
        raise ValidationError(f"problem {name}: missing field: {key}")
    return fields[key]


def _reject(fields: dict, name: str, kind: str, keys) -> None:
    for key in keys:
        if key in fields:
            raise ValidationError(f"problem {name}: field {key} not allowed for kind {kind}")


def _validate(name: str, fields: dict) -> ProblemSpec:
    kind = _require(fields, name, "kind")
    if kind == "squares":
        _reject(fields, name, kind, ("word", "layout", "rows-data", "adjacency", "distinct-cells"))
        cols = _require(fields, name, "cols")
        rows = _require(fields, name, "rows")
        variant = _require(fields, name, "variant")
        if cols < 1:
            raise ValidationError(f"problem {name}: cols must be positive")
        if rows < 1:
            raise ValidationError(f"problem {name}: rows must be positive")
        return ProblemSpec(name, "squares", cols=cols, rows=rows, variant=variant)

    _reject(fields, name, kind, ("cols", "rows", "variant"))
    word = _require(fields, name, "word")
    layout = _require(fields, name, "layout")
    adjacency = _require(fields, name, "adjacency")
    distinct = fields.get("distinct-cells", "false") == "true"
    if not word:
        raise ValidationError(f"problem {name}: word must be non-empty")
    rows_data = None
    if layout == "explicit":
        rows_data = _require(fields, name, "rows-data")
        if not rows_data or any(not row for row in rows_data):
            raise ValidationError(f"problem {name}: rows-data rows must be non-empty")
        if len({len(row) for row in rows_data}) != 1:
            raise ValidationError(f"problem {name}: rows-data rows must have equal length")
    else:
        if "rows-data" in fields:
            raise ValidationError(
                f"problem {name}: field rows-data not allowed for manhattan-rings layout"
            )
        if len(word) % 2 == 0:
            raise ValidationError(
                f"problem {name}: manhattan-rings layout requires odd word length"
            )
    return ProblemSpec(
        name,
        "word-paths",
        word=word,
        layout=layout,
        rows_data=rows_data,
        adjacency=adjacency,
        distinct_cells=distinct,
    )


def parse_spec(source: str) -> list[ProblemSpec]:
    """Parse a spec file into validated problem descriptions."""
    return _Parser(source).parse_file()


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def print_spec(specs) -> str:
    """Canonical text form: fixed field order, two-space indent, defaults explicit.

    ``parse_spec(print_spec(specs))`` reproduces the input structurally.
    """
    blocks = []
    for spec in specs:
        lines = [f"problem {spec.name} {{", f"  kind: {spec.kind}"]
        if spec.kind == "squares":
            lines.append(f"  cols: {spec.cols}")
            lines.append(f"  rows: {spec.rows}")
            lines.append(f"  variant: {spec.variant}")
        else:
            lines.append(f"  word: {_quote(spec.word)}")
            lines.append(f"  layout: {spec.layout}")
            if spec.layout == "explicit":
                lines.append("  rows-data: [" + ", ".join(_quote(r) for r in spec.rows_data) + "]")
            lines.append(f"  adjacency: {spec.adjacency}")
            lines.append(f"  distinct-cells: {'true' if spec.distinct_cells else 'false'}")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
