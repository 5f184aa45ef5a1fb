"""Words in the braid generators and their evaluation in a representation.

Surface syntax uses s1, s2 for the two elementary braids so they cannot be
confused with eigenvalue names.  Three reserved macros come with the
algebra: a = s1 s2, b = s1 s2 s1 and c = (s1 s2)^3, the central element.
Macros stay symbolic in the parsed word and expand only at evaluation.

Grammar:

    word    := term {term}
    term    := atom ['^' integer]
    atom    := 's1' | 's2' | 'a' | 'b' | 'c' | '(' word ')'
    integer := ['-'] digits        (nonzero, |k| <= MAX_EXPONENT)

'^' binds tighter than juxtaposition; whitespace separates factors.
Exponentiated groups are expanded at parse time, so the AST is a flat
factor list.  A word is measured in letters: a factor g^k counts |k|
letters of g, and a macro counts the letters it stands for (a 2, b 3,
c 6).  A word or group longer than MAX_FACTORS letters, or an exponent
past MAX_EXPONENT, is rejected before it is expanded, which also bounds
the work of :func:`evaluate`.  A one-factor group merges its exponents,
and the product obeys the exponent bound.  The empty string parses to the
empty word (identity).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

from .field import TooLarge
from .linalg import Matrix

__all__ = [
    "GENERATORS",
    "MAX_EXPONENT",
    "MAX_FACTORS",
    "BraidWord",
    "WordSyntaxError",
    "parse",
    "format_word",
    "evaluate",
]

GENERATORS = ("s1", "s2", "a", "b", "c")
MAX_EXPONENT = 1000
MAX_FACTORS = 10_000  # letters in a word or group, see _letters
_LETTER_LENGTH = {"s1": 1, "s2": 1, "a": 2, "b": 3, "c": 6}


class WordSyntaxError(ValueError):
    """Malformed braid word; carries the character position of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class BraidWord:
    """Flat product of generator powers.

    Zero exponents are tolerated; such a factor evaluates to the identity.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for gen, exp in self.factors:
            if gen not in GENERATORS:
                raise ValueError(f"unknown generator {gen!r}")
            if not isinstance(exp, int):
                raise ValueError(f"exponent {exp!r} is not an integer")

    def __str__(self) -> str:
        return format_word(self)


_TOKEN = re.compile(r"\s*(s1|s2|a|b|c|\(|\)|\^|-?\d+)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise WordSyntaxError(f"unexpected character {text[at]!r}", at)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def _invert(factors: list[tuple[str, int]]) -> list[tuple[str, int]]:
    return [(g, -e) for g, e in reversed(factors)]


def _letters(factors: list[tuple[str, int]]) -> int:
    """Length in s1/s2 letters: g^k counts |k| times the letters of g."""
    return sum(abs(e) * _LETTER_LENGTH[g] for g, e in factors)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self):
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def word(self, inside_group: bool) -> list[tuple[str, int]]:
        factors: list[tuple[str, int]] = []
        letters = 0
        while True:
            tok = self.peek()
            if tok is None or tok == ")":
                if not inside_group and tok == ")":
                    raise WordSyntaxError("unmatched ')'", self.pos())
                return factors
            term = self.term()
            factors.extend(term)
            letters += _letters(term)
            if letters > MAX_FACTORS:
                raise WordSyntaxError(
                    f"word expands to more than {MAX_FACTORS} letters", self.pos()
                )

    def term(self) -> list[tuple[str, int]]:
        tok, at = self.tokens[self.i]
        if tok in GENERATORS:
            self.i += 1
            base: list[tuple[str, int]] = [(tok, 1)]
        elif tok == "(":
            self.i += 1
            base = self.word(inside_group=True)
            if self.peek() != ")":
                raise WordSyntaxError("missing ')'", self.pos())
            self.i += 1
        else:
            raise WordSyntaxError(f"expected a generator or '(', got {tok!r}", at)
        if self.peek() != "^":
            return base
        self.i += 1
        tok = self.peek()
        if tok is None or not re.fullmatch(r"-?\d+", tok):
            raise WordSyntaxError("expected an integer exponent after '^'", self.pos())
        digits = tok.lstrip("-").lstrip("0")
        if not digits:
            raise WordSyntaxError("exponent must be nonzero", self.pos())
        # a one-factor group merges: (s1^e)^k = s1^(e k), under the same bound
        scale = abs(base[0][1]) if len(base) == 1 else 1
        if len(digits) > len(str(MAX_EXPONENT)) or scale * int(digits) > MAX_EXPONENT:
            raise WordSyntaxError(
                f"exponent exceeds {MAX_EXPONENT} in absolute value", self.pos()
            )
        exp = -int(digits) if tok.startswith("-") else int(digits)
        if _letters(base) * abs(exp) > MAX_FACTORS:
            raise WordSyntaxError(
                f"group expands to more than {MAX_FACTORS} letters", self.pos()
            )
        self.i += 1
        if len(base) == 1:
            gen, e = base[0]
            return [(gen, e * exp)]
        if exp < 0:
            base = _invert(base)
            exp = -exp
        return base * exp


def parse(text: str) -> BraidWord:
    """Parse surface syntax into a word; raises WordSyntaxError with position."""
    parser = _Parser(text)
    factors = parser.word(inside_group=False)
    return BraidWord(tuple(factors))


def format_word(w: BraidWord) -> str:
    """Inverse of parse up to whitespace; the empty word prints as ''."""
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in w.factors)


def evaluate(w: BraidWord, rep) -> Matrix:
    """Exact product of the factor matrices inside ``rep``.

    Inverses exist because det g_i = prod x_i^{m_i} is nonzero for every
    valid representation.  Raises :class:`TooLarge` as soon as a numerator
    or denominator in the running product has more digits than Python
    converts to text (``sys.get_int_max_str_digits()``; 0 means no limit).
    """
    limit = sys.get_int_max_str_digits()
    # an integer past this many bits is at least 10^limit
    max_bits = math.ceil(limit * math.log2(10)) + 1 if limit else None
    g1, g2 = rep.g1, rep.g2
    base: dict[str, Matrix] = {"s1": g1, "s2": g2}
    steps: dict[tuple[str, int], Matrix] = {}
    result = None
    for gen, exp in w.factors:
        if gen not in base:
            a = g1 @ g2
            if gen == "a":
                base[gen] = a
            elif gen == "b":
                base[gen] = a @ g1
            else:
                base[gen] = a @ a @ a
        if exp != 0:
            if (gen, exp) not in steps:
                steps[gen, exp] = base[gen].power(exp)
            step = steps[gen, exp]
            result = step if result is None else result @ step
            # the reduced coefficients, as printed, are measured; none is larger
            # than its entry's stored numbers, so only entries past max_bits are read
            if max_bits and any(
                max(c.numerator.bit_length(), c.denominator.bit_length()) > max_bits
                for e in result.entries
                if max(e.den, *map(abs, e.num)).bit_length() > max_bits
                for c in e.coeffs
            ):
                raise TooLarge()
    return Matrix.identity(rep.context, rep.dim) if result is None else result
