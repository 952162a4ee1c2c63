"""Manifest files and the polynomial expression grammar.

A manifest is a JSON object with keys

    dim       even integer, 2 <= dim <= 16
    omega     optional dim x dim matrix of omega_{ij}; entries are integers
              or rational strings like "-1/2"; omitted means the standard
              pairwise blocks
    gamma     list of {"indices": [i, j, k], "poly": "<expression>"}
    defaults  optional {"max_degree": N, "hbar_order": K}

Expressions use +, -, *, ^ with integer exponents up to 32, the imaginary
unit i, variables q1..q<dim>, and rational literals; '/' is only allowed
between two integer literals, never after a variable.  Numbers must be
exact: floats anywhere in the manifest are rejected.  Parentheses and
unary signs nest at most 64 deep, a number or variable token is at most
1000 characters long, and multiplying out one expression may form at
most 100,000 products of two terms, so that no input makes the parser
run long or overflow the stack.

Two error channels: ExprError for text that does not parse (bad JSON,
bad expression), ManifestError for well-formed input that violates the
manifest contract.  The CLI maps these to distinct exit codes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .geometry import ConnectionSpec, ManifoldSpec
from .poly import BasePolynomial, format_poly
from .scalars import GaussianRational, format_scalar
from .weyl import WeylSeries


class ManifestError(ValueError):
    """Well-formed input that is not a valid manifest."""


class ExprError(ValueError):
    """Input text that fails to parse."""


# --- expression parser ---------------------------------------------------

_MAX_EXPONENT = 32
_MAX_NESTING = 64
_MAX_TOKEN = 1000
_MAX_TERM_PAIRS = 100_000
_MAX_DIM = 16
_TOKEN = re.compile(r"\s*(\d+|[iI]\b|q\d+|\*\*|[-+*^/()])")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExprError(f"unexpected character {rest[0]!r} in {text!r}")
        tok = m.group(1)
        if len(tok) > _MAX_TOKEN:
            raise ExprError(f"token of {len(tok)} characters, above {_MAX_TOKEN}")
        out.append(tok)
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over +, -, *, ^; precedence ^ > unary - > * > +-."""

    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses and unary signs
        self.pairs = 0  # term products formed so far

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_int(self, what: str) -> int:
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise ExprError(f"expected {what} in {self.text!r}, got {tok!r}")
        return int(tok)

    def nested(self, parse) -> BasePolynomial:
        """parse() one level down; parentheses and unary signs share the depth cap."""
        if self.depth == _MAX_NESTING:
            raise ExprError(f"parentheses and signs nested more than {_MAX_NESTING} deep")
        self.depth += 1
        p = parse()
        self.depth -= 1
        return p

    def mul(self, p: BasePolynomial, q: BasePolynomial) -> BasePolynomial:
        self.pairs += len(p._coeffs) * len(q._coeffs)
        if self.pairs > _MAX_TERM_PAIRS:
            raise ExprError(f"expression multiplies out to over {_MAX_TERM_PAIRS} term products")
        return p * q

    def parse(self) -> BasePolynomial:
        if not self.toks:
            raise ExprError("empty expression")
        p = self.expr()
        if self.peek() is not None:
            raise ExprError(f"trailing {self.peek()!r} in {self.text!r}")
        return p

    def expr(self) -> BasePolynomial:
        p = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> BasePolynomial:
        p = self.signed()
        while self.peek() == "*":
            self.take()
            p = self.mul(p, self.signed())
        return p

    def signed(self) -> BasePolynomial:
        if self.peek() in ("+", "-"):
            op = self.take()
            p = self.nested(self.signed)
            return -p if op == "-" else p
        return self.power()

    def power(self) -> BasePolynomial:
        p = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            e = self.expect_int("a nonnegative integer exponent")
            if e > _MAX_EXPONENT:
                raise ExprError(f"exponent {e} above {_MAX_EXPONENT} in {self.text!r}")
            out = BasePolynomial.constant(self.dim, 1)
            for _ in range(e):
                out = self.mul(out, p)
            return out
        return p

    def atom(self) -> BasePolynomial:
        tok = self.take()
        if tok is None:
            raise ExprError(f"unexpected end of {self.text!r}")
        if tok == "(":
            p = self.nested(self.expr)
            if self.take() != ")":
                raise ExprError(f"missing ')' in {self.text!r}")
            return p
        if tok in ("i", "I"):
            return BasePolynomial.constant(self.dim, GaussianRational(Fraction(0), Fraction(1)))
        if tok.isdigit():
            num = int(tok)
            if self.peek() == "/":
                self.take()
                den = self.expect_int("an integer denominator")
                if den == 0:
                    raise ExprError(f"zero denominator in {self.text!r}")
                return BasePolynomial.constant(self.dim, Fraction(num, den))
            return BasePolynomial.constant(self.dim, num)
        if tok.startswith("q"):
            if self.dim == 0:
                raise ExprError(f"variable {tok} not allowed in a constant expression")
            idx = int(tok[1:])
            if not 1 <= idx <= self.dim:
                raise ExprError(
                    f"variable {tok} out of range (coordinates are q1..q{self.dim})"
                )
            return BasePolynomial.variable(self.dim, idx)
        if tok == "/":
            raise ExprError("'/' is only allowed between integer literals")
        raise ExprError(f"unexpected token {tok!r} in {self.text!r}")


def parse_poly(text: str, dim: int) -> BasePolynomial:
    if not isinstance(text, str):
        raise ManifestError(f"expected an expression string, got {type(text).__name__}")
    return _Parser(text, dim).parse()


def parse_scalar(text: str) -> GaussianRational:
    """Parse a constant expression such as "3/4", "-i" or "1+1/2*i"."""
    p = parse_poly(text, 0)
    return p.constant_value()


# --- manifest loading ----------------------------------------------------

def _exact_number(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ManifestError(f"{where}: expected a number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ManifestError(f"{where}: floats are not exact, write \"a/b\" instead")
    if isinstance(value, str):
        v = parse_scalar(value)
        if v.im:
            raise ManifestError(f"{where}: entry must be real")
        return v.re
    raise ManifestError(f"{where}: expected an integer or rational string")


def _expect_keys(obj: dict, allowed: set, where: str):
    extra = set(obj) - allowed
    if extra:
        raise ManifestError(f"{where}: unknown keys {sorted(extra)}")


@dataclass(frozen=True)
class Manifest:
    dim: int
    omega_lower: tuple | None
    gamma: tuple
    max_degree: int
    hbar_order: int

    def manifold(self) -> ManifoldSpec:
        return ManifoldSpec(self.dim, self.omega_lower)

    def connection(self) -> ConnectionSpec:
        return ConnectionSpec(self.dim, self.gamma)


def parse_manifest(text: str) -> Manifest:
    try:
        raw = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer too long to convert
        raise ExprError(f"manifest is not valid JSON: {e}") from None
    except RecursionError:
        raise ExprError("manifest is not valid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ManifestError("manifest must be a JSON object")
    _expect_keys(raw, {"dim", "omega", "gamma", "defaults"}, "manifest")

    dim = raw.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ManifestError("dim must be an integer")
    if dim < 2 or dim % 2:
        raise ManifestError(f"dim must be even and >= 2, got {dim}")
    if dim > _MAX_DIM:
        raise ManifestError(f"dim must be <= {_MAX_DIM}, got {dim}")

    omega = None
    if "omega" in raw:
        rows = raw["omega"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ManifestError("omega must be a matrix (list of rows)")
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ManifestError(f"omega must be {dim}x{dim}")
        omega = tuple(
            tuple(_exact_number(v, f"omega[{i+1}][{j+1}]") for j, v in enumerate(row))
            for i, row in enumerate(rows)
        )

    entries = raw.get("gamma", [])
    if not isinstance(entries, list):
        raise ManifestError("gamma must be a list")
    gamma = []
    for n, entry in enumerate(entries):
        where = f"gamma[{n}]"
        if not isinstance(entry, dict):
            raise ManifestError(f"{where}: expected an object")
        _expect_keys(entry, {"indices", "poly"}, where)
        idx = entry.get("indices")
        if (
            not isinstance(idx, list)
            or len(idx) != 3
            or any(isinstance(v, bool) or not isinstance(v, int) for v in idx)
        ):
            raise ManifestError(f"{where}: indices must be three integers")
        if "poly" not in entry:
            raise ManifestError(f"{where}: missing poly")
        gamma.append((tuple(idx), parse_poly(entry["poly"], dim)))

    defaults = raw.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ManifestError("defaults must be an object")
    _expect_keys(defaults, {"max_degree", "hbar_order"}, "defaults")
    max_degree = defaults.get("max_degree", 6)
    hbar_order = defaults.get("hbar_order", 2)
    for name, v, lo in (("max_degree", max_degree, 3), ("hbar_order", hbar_order, 0)):
        if isinstance(v, bool) or not isinstance(v, int) or v < lo:
            raise ManifestError(f"defaults.{name} must be an integer >= {lo}")

    return Manifest(dim, omega, tuple(gamma), max_degree, hbar_order)


def load_manifest(path: str) -> Manifest:
    with open(path, encoding="utf-8") as fh:
        return parse_manifest(fh.read())


# --- lossless series dump ------------------------------------------------

def poly_to_records(p: BasePolynomial) -> list[dict]:
    return [
        {"exps": list(exps), "c": format_scalar(c)}
        for exps, c in p.items()
    ]


def series_to_records(a: WeylSeries) -> list[dict]:
    """Canonical record list: sorted and exact, so it reads back losslessly."""
    return [
        {
            "hbar": t.hbar,
            "fiber": list(t.fiber),
            "wedge": list(t.word),
            "coeff": poly_to_records(t.coeff),
        }
        for t in a.terms()
    ]
