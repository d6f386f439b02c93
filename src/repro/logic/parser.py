"""Parser for a compact FO(MTC) notation.

Grammar (EBNF; quantifiers scope as far right as possible)::

    formula := iff
    iff     := impl ( '<->' impl )*
    impl    := or ( '->' impl )?
    or      := and ( '|' and )*
    and     := unary ( '&' unary )*
    unary   := '~' unary | quant | atom
    quant   := ('exists' | 'all') VAR+ '.' formula
    atom    := 'true' | 'false'
             | VAR '=' VAR | VAR '!=' VAR
             | REL '(' VAR ',' VAR ')'             -- child/right/descendant/...
             | ('tc' | 'rtc') '[' VAR ',' VAR ']' '(' formula ')' '(' VAR ',' VAR ')'
             | ('root' | 'leaf' | 'first' | 'last') '(' VAR ')'
             | NAME '(' VAR ')'                     -- label atom
             | '(' formula ')'

Example::

    parse_formula("exists y. child(x,y) & a(y) & ~rtc[u,v](right(u,v))(y,y)")
"""

from __future__ import annotations

from ..runtime.errors import DepthLimitError, ReproSyntaxError
from . import ast

__all__ = ["DEFAULT_MAX_DEPTH", "parse_formula", "FormulaSyntaxError"]

_RELATIONS = set(ast.RELATION_NAMES)
#: The unary macros, expanded as XPath's ``root``/``leaf``/``first``/``last``.
_MACROS = {
    "root": ast.root_formula,
    "leaf": ast.leaf_formula,
    "first": ast.first_formula,
    "last": ast.last_formula,
}
_KEYWORDS = {"exists", "all", "true", "false", "tc", "rtc"} | set(_MACROS) | _RELATIONS

#: Default bound on recursive grammar productions; deep nesting raises a
#: positioned :class:`DepthLimitError` instead of a bare ``RecursionError``.
DEFAULT_MAX_DEPTH = 200


class FormulaSyntaxError(ReproSyntaxError):
    """Raised on malformed formula text."""


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif text.startswith("<->", i):
            tokens.append(("<->", "<->", i))
            i += 3
        elif text.startswith("->", i):
            tokens.append(("->", "->", i))
            i += 2
        elif text.startswith("!=", i):
            tokens.append(("!=", "!=", i))
            i += 2
        elif ch in "~&|().,[]=":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isalnum() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, max_depth: int = DEFAULT_MAX_DEPTH):
        self.tokens = _tokenize(text)
        self.index = 0
        self.max_depth = max_depth
        self._depth = 0

    def _enter(self) -> None:
        self._depth += 1
        if self._depth > self.max_depth:
            raise DepthLimitError(
                "formula nesting exceeds the parser depth limit",
                self.current[2],
                self.max_depth,
            )

    @property
    def current(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        if token[0] != "end":
            self.index += 1
        return token

    def accept(self, kind: str) -> bool:
        if self.current[0] == kind:
            self.advance()
            return True
        return False

    def accept_word(self, word: str) -> bool:
        if self.current[0] == "name" and self.current[1] == word:
            self.advance()
            return True
        return False

    def expect(self, kind: str) -> tuple[str, str, int]:
        if self.current[0] != kind:
            raise FormulaSyntaxError(
                f"expected {kind!r}, found {self.current[1] or 'end of input'!r}",
                self.current[2],
            )
        return self.advance()

    def expect_var(self) -> str:
        kind, value, pos = self.current
        if kind != "name" or value in _KEYWORDS:
            raise FormulaSyntaxError("expected a variable name", pos)
        self.advance()
        return value

    # -- grammar -------------------------------------------------------------

    def formula(self) -> ast.Formula:
        self._enter()
        try:
            left = self.impl()
            while self.accept("<->"):
                left = ast.iff(left, self.impl())
            return left
        finally:
            self._depth -= 1

    def impl(self) -> ast.Formula:
        left = self.disj()
        if self.accept("->"):
            self._enter()
            try:
                return ast.implies(left, self.impl())
            finally:
                self._depth -= 1
        return left

    def disj(self) -> ast.Formula:
        left = self.conj()
        while self.accept("|"):
            left = ast.Or(left, self.conj())
        return left

    def conj(self) -> ast.Formula:
        left = self.unary()
        while self.accept("&"):
            left = ast.And(left, self.unary())
        return left

    def unary(self) -> ast.Formula:
        if self.accept("~"):
            self._enter()
            try:
                return ast.Not(self.unary())
            finally:
                self._depth -= 1
        if self.accept_word("exists"):
            return self._quantifier(ast.Exists)
        if self.accept_word("all"):
            return self._quantifier(ast.Forall)
        return self.atom()

    def _quantifier(self, ctor) -> ast.Formula:
        # Guarded in addition to formula(): a quantifier prefix recurses
        # through ~6 interpreter frames per level, so charging it a second
        # depth unit keeps the counter ahead of the interpreter stack.
        self._enter()
        try:
            variables = [self.expect_var()]
            while self.current[0] == "name" and self.current[1] not in _KEYWORDS:
                variables.append(self.expect_var())
            self.expect(".")
            body = self.formula()
            for var in reversed(variables):
                body = ctor(var, body)
            return body
        finally:
            self._depth -= 1

    def atom(self) -> ast.Formula:
        kind, value, pos = self.current
        if kind == "(":
            self._enter()
            try:
                self.advance()
                inner = self.formula()
                self.expect(")")
                return inner
            finally:
                self._depth -= 1
        if kind != "name":
            raise FormulaSyntaxError(
                f"expected an atom, found {value or 'end of input'!r}", pos
            )
        if value == "true":
            self.advance()
            return ast.TRUE
        if value == "false":
            self.advance()
            return ast.FALSE
        if value in ("tc", "rtc"):
            self.advance()
            self.expect("[")
            x = self.expect_var()
            self.expect(",")
            y = self.expect_var()
            self.expect("]")
            self.expect("(")
            body = self.formula()
            self.expect(")")
            self.expect("(")
            source = self.expect_var()
            self.expect(",")
            target = self.expect_var()
            self.expect(")")
            if value == "tc":
                return ast.TC(x, y, body, source, target)
            return ast.rtc(x, y, body, source, target)
        if value in _MACROS:
            self.advance()
            self.expect("(")
            var = self.expect_var()
            self.expect(")")
            return _MACROS[value](var)
        if value in _RELATIONS:
            self.advance()
            self.expect("(")
            left = self.expect_var()
            self.expect(",")
            right = self.expect_var()
            self.expect(")")
            return ast.Rel(value, left, right)
        # Variable-led equality or a label atom.
        self.advance()
        if self.accept("="):
            return ast.Eq(value, self.expect_var())
        if self.accept("!="):
            return ast.Not(ast.Eq(value, self.expect_var()))
        if self.accept("("):
            var = self.expect_var()
            self.expect(")")
            return ast.LabelAtom(value, var)
        raise FormulaSyntaxError(
            f"expected '=', '!=' or '(' after {value!r}", self.current[2]
        )


def parse_formula(text: str, max_depth: int = DEFAULT_MAX_DEPTH) -> ast.Formula:
    """Parse an FO(MTC) formula in the compact notation.

    Nesting beyond ``max_depth`` recursive productions raises
    :class:`~repro.runtime.errors.DepthLimitError` with the offending
    position, never a bare ``RecursionError``.
    """
    parser = _Parser(text, max_depth)
    result = parser.formula()
    if parser.current[0] != "end":
        raise FormulaSyntaxError(
            f"unexpected trailing input {parser.current[1]!r}", parser.current[2]
        )
    return result
