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


_KEYS = (
    "kind",
    "cols",
    "rows",
    "variant",
    "word",
    "layout",
    "rows-data",
    "adjacency",
    "distinct-cells",
)

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


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha()


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch in "_-"


class _Tokenizer:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def _advance(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def _peek(self) -> str:
        return self.source[self.pos] if self.pos < len(self.source) else ""

    def next_token(self) -> _Token:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "#":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            else:
                break
        line, column = self.line, self.column
        if self.pos >= len(self.source):
            return _Token("eof", None, line, column)
        ch = self._peek()
        if ch in "{}:,[]":
            self._advance()
            return _Token("punct", ch, line, column)
        if ch == '"':
            return self._string(line, column)
        # isdecimal, not isdigit: int() takes exactly the decimal digits of any
        # script, and refuses superscripts such as "²" that isdigit accepts.
        if ch.isdecimal():
            digits = []
            while self.pos < len(self.source) and self._peek().isdecimal():
                digits.append(self._advance())
            try:
                value = int("".join(digits))
            except ValueError:  # longer than sys.get_int_max_str_digits()
                raise ParseError(line, column,
                                 f"integer literal too long ({len(digits)} digits)") from None
            return _Token("int", value, line, column)
        if _is_ident_start(ch):
            parts = [self._advance()]
            while self.pos < len(self.source) and _is_ident_part(self._peek()):
                parts.append(self._advance())
            return _Token("ident", "".join(parts), line, column)
        raise ParseError(line, column, f"unexpected character {ch!r}")

    def _string(self, line: int, column: int) -> _Token:
        self._advance()  # opening quote
        chars = []
        while True:
            if self.pos >= len(self.source):
                raise ParseError(line, column, "unterminated string")
            ch = self._advance()
            if ch == '"':
                return _Token("string", "".join(chars), line, column)
            if ch == "\n":
                raise ParseError(line, column, "unterminated string")
            if ch == "\\":
                esc_line, esc_col = self.line, self.column
                if self.pos >= len(self.source):
                    raise ParseError(line, column, "unterminated string")
                esc = self._advance()
                if esc not in ('"', "\\"):
                    raise ParseError(esc_line, esc_col, f"invalid escape \\{esc}")
                chars.append(esc)
            elif ord(ch) < 0x20 or ch == "\x7f":
                raise ParseError(line, column, "control character in string")
            else:
                chars.append(ch)


class _Parser:
    # Tokens are pulled lazily so an early parse error is reported before a
    # tokenizer error further down the file.
    def __init__(self, tokenizer: _Tokenizer):
        self.tokenizer = tokenizer
        self.lookahead: _Token | None = None

    def _peek(self) -> _Token:
        if self.lookahead is None:
            self.lookahead = self.tokenizer.next_token()
        return self.lookahead

    def _take(self) -> _Token:
        tok = self._peek()
        if tok.kind != "eof":
            self.lookahead = None
        return tok

    def _expect_punct(self, ch: str) -> _Token:
        tok = self._take()
        if tok.kind != "punct" or tok.value != ch:
            raise ParseError(tok.line, tok.column, f"expected {ch!r}", expected=repr(ch))
        return tok

    def _expect_ident(self, what: str) -> _Token:
        tok = self._take()
        if tok.kind != "ident":
            raise ParseError(tok.line, tok.column, f"expected {what}", expected=what)
        return tok

    def parse_file(self) -> list[ProblemSpec]:
        specs = []
        names = set()
        while self._peek().kind != "eof":
            spec = self._parse_block()
            if spec.name in names:
                raise ValidationError(f"duplicate problem name: {spec.name}")
            names.add(spec.name)
            specs.append(spec)
        return specs

    def _parse_block(self) -> ProblemSpec:
        kw = self._expect_ident("'problem'")
        if kw.value != "problem":
            raise ParseError(kw.line, kw.column, "expected 'problem'", expected="'problem'")
        name = self._expect_ident("problem name")
        self._expect_punct("{")
        fields: dict[str, object] = {}
        while True:
            tok = self._peek()
            if tok.kind == "punct" and tok.value == "}":
                self._take()
                break
            if tok.kind == "eof":
                raise ParseError(tok.line, tok.column, "unterminated problem block", expected="'}'")
            key_tok = self._expect_ident("field name")
            key = key_tok.value
            if key not in _KEYS:
                raise ParseError(key_tok.line, key_tok.column, f"unknown field: {key}")
            if key in fields:
                raise ParseError(key_tok.line, key_tok.column, f"duplicate field: {key}")
            self._expect_punct(":")
            fields[key] = self._parse_value(key)
        return _validate(str(name.value), fields)

    def _parse_value(self, key: str):
        tok = self._take()
        if key in ("cols", "rows"):
            if tok.kind != "int":
                raise ParseError(tok.line, tok.column, f"field {key} takes an integer",
                                 expected="integer")
            return tok.value
        if key == "word":
            if tok.kind != "string":
                raise ParseError(tok.line, tok.column, "field word takes a quoted string",
                                 expected="quoted string")
            return tok.value
        if key == "rows-data":
            if tok.kind != "punct" or tok.value != "[":
                raise ParseError(tok.line, tok.column,
                                 "field rows-data takes a list of quoted strings",
                                 expected="'['")
            return self._parse_string_list()
        # remaining keys are enumerations over bare identifiers
        if tok.kind != "ident":
            raise ParseError(tok.line, tok.column, f"field {key} takes an identifier",
                             expected="identifier")
        allowed = _ENUM_VALUES[key]
        if tok.value not in allowed:
            raise ParseError(tok.line, tok.column,
                             f"field {key} must be one of {', '.join(allowed)}")
        return tok.value

    def _parse_string_list(self) -> tuple[str, ...]:
        items: list[str] = []
        tok = self._peek()
        if tok.kind == "punct" and tok.value == "]":
            self._take()
            return ()
        while True:
            tok = self._take()
            if tok.kind != "string":
                raise ParseError(tok.line, tok.column, "expected a quoted string",
                                 expected="quoted string")
            items.append(str(tok.value))
            tok = self._take()
            if tok.kind == "punct" and tok.value == "]":
                return tuple(items)
            if not (tok.kind == "punct" and tok.value == ","):
                raise ParseError(tok.line, tok.column, "expected ',' or ']'",
                                 expected="',' or ']'")


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
    return _Parser(_Tokenizer(source)).parse_file()


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
