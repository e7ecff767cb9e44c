"""Scalar field pairs (A, B) over R^3 and the metric they induce.

A field is either a trivariate polynomial (parsed from text, analytic
gradients exact) or an arbitrary smooth callable (gradients by central
differences only).  The metric at a point is the circulant circ(A, B, B);
its degeneracy factor is D = (A - B)(A + 2B).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .circulant import CirculantMatrix
from .errors import DegenerateMetric, ParseError, StencilCollapsed, UnknownBuiltin

Monomial = tuple[int, int, int]


@dataclass(frozen=True)
class Polynomial:
    """Trivariate polynomial as a map from exponent triples to coefficients."""

    terms: tuple[tuple[Monomial, float], ...]

    @staticmethod
    def from_dict(d: dict[Monomial, float]) -> "Polynomial":
        cleaned = {m: float(c) for m, c in d.items() if c != 0.0}
        return Polynomial(tuple(sorted(cleaned.items())))

    def __call__(self, p) -> float:
        return self._compiled[0](*np.asarray(p, dtype=float).tolist())

    def partial(self, axis: int) -> "Polynomial":
        """Exact partial derivative along axis 0, 1 or 2."""
        out: dict[Monomial, float] = {}
        for mono, coef in self.terms:
            e = mono[axis]
            if e == 0:
                continue
            new = list(mono)
            new[axis] = e - 1
            key = (new[0], new[1], new[2])
            out[key] = out.get(key, 0.0) + coef * e
        return Polynomial.from_dict(out)

    @cached_property
    def _compiled(self) -> tuple[Callable[[float, float, float], float], ...]:
        """The value and the three partials as functions of x1, x2, x3, compiled once."""
        return (_compile(self.terms), *(_compile(self.partial(k).terms) for k in range(3)))

    def gradient(self, p) -> np.ndarray:
        x = np.asarray(p, dtype=float).tolist()
        return np.array([d(*x) for d in self._compiled[1:]])

    def degree(self) -> int:
        return max((sum(m) for m, _ in self.terms), default=0)


def _compile(terms) -> Callable[[float, float, float], float]:
    """The term table as straight-line code with the bits of 0.0 + t1 + t2 + ...

    x**0 (exactly 1.0) is dropped and x**1 written x (exact); x**e, Python's pow,
    stays for e >= 2.  Coefficients are closure values, so only names and exponents
    are compiled; lines of at most 200 terms keep the compiler's recursion shallow.
    """
    names = [f"c{k}" for k in range(len(terms))]
    summands = []
    for c, (mono, _) in zip(names, terms):
        powers = [x if e == 1 else f"{x}**{e}" for x, e in zip(("x1", "x2", "x3"), mono) if e]
        summands.append(" * ".join([c, *powers]))
    lines = [f"s = s + {' + '.join(summands[k:k + 200])}" for k in range(0, len(summands), 200)]
    body = "".join(f"\n        {line}" for line in ["s = 0.0", *lines, "return s"])
    exec(f"def bind({', '.join(names)}):\n    def f(x1, x2, x3):{body}\n    return f", scope := {})
    return scope["bind"](*(coef for _, coef in terms))


ScalarField = Union[Polynomial, Callable[[np.ndarray], float]]


# ---------------------------------------------------------------------------
# Field-spec parsing.  Grammar: "A: <poly>; B: <poly>" where <poly> is a
# signed sum of terms, each term a '*'-separated product of factors, and a
# factor is a number (integer, decimal, or p/q rational) or x1|x2|x3 with an
# optional ^exponent.  Alternatively the whole spec is a builtin name.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<var>x[123])|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def _tokenize(text: str, base: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        if m.group("bad"):
            raise ParseError(f"unexpected character {m.group('bad')!r}", base + m.start("bad"))
        kind = "num" if m.group("num") else ("var" if m.group("var") else "op")
        tokens.append((kind, m.group(kind), base + m.start(kind)))
        pos = m.end()
    return tokens


def _number(convert, raw, pos: int):
    """convert(raw); ParseError at pos when the value does not fit in a float."""
    try:
        float(value := convert(raw))
    except (OverflowError, ValueError):  # ValueError: past int()'s digit limit
        raise ParseError("number too large for a float", pos) from None
    return value


class _PolyParser:
    def __init__(self, text: str, base: int):
        self.tokens = _tokenize(text, base)
        self.i = 0
        self.end_pos = base + len(text)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.end_pos)

    def take(self):
        tok = self.peek()
        if tok[0] is not None:
            self.i += 1
        return tok

    def parse(self) -> Polynomial:
        result = self.parse_sum()
        kind, value, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected {value!r}", pos)
        return result

    def parse_sum(self) -> Polynomial:
        out: dict[Monomial, float] = {}
        sign = 1.0
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            sign = -1.0 if value == "-" else 1.0
        while True:
            mono, coef = self.parse_term()
            out[mono] = out.get(mono, 0.0) + sign * coef
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                sign = -1.0 if value == "-" else 1.0
            else:
                return Polynomial.from_dict(out)

    def parse_term(self) -> tuple[Monomial, float]:
        exps = [0, 0, 0]
        coef = self.parse_factor(exps)
        while True:
            kind, value, _pos = self.peek()
            if kind == "op" and value == "*":
                self.take()
                coef *= self.parse_factor(exps)
            else:
                return (exps[0], exps[1], exps[2]), coef

    def parse_factor(self, exps: list[int]) -> float:
        kind, value, pos = self.take()
        if kind == "num":
            num = _number(Fraction, value, pos)
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "/":
                self.take()
                dk, dv, dpos = self.take()
                if dk != "num":
                    raise ParseError("expected denominator after '/'", dpos)
                denom = _number(Fraction, dv, dpos)
                if denom == 0:
                    raise ParseError("zero denominator", dpos)
                num /= denom
            return _number(float, num, pos)
        if kind == "var":
            axis = int(value[1]) - 1
            exp = 1
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "^":
                self.take()
                ek, ev, epos = self.take()
                if ek != "num" or "." in ev:
                    raise ParseError("expected integer exponent after '^'", epos)
                exp = _number(int, ev, epos)
            exps[axis] += exp
            return 1.0
        raise ParseError("expected number or x1/x2/x3", pos)


def parse_polynomial(text: str, base: int = 0) -> Polynomial:
    """Parse one polynomial expression; raises ParseError with position."""
    if not text.strip():
        raise ParseError("empty polynomial", base)
    return _PolyParser(text, base).parse()


def _paper_example() -> tuple[Polynomial, Polynomial]:
    a = Polynomial.from_dict({(1, 0, 0): 4.0, (0, 1, 0): 2.0})
    b = Polynomial.from_dict({(1, 0, 0): 1.0, (0, 1, 0): 2.0, (0, 0, 1): 3.0})
    return a, b


BUILTIN_FIELDS: dict[str, Callable[[], tuple[Polynomial, Polynomial]]] = {
    "paper-example": _paper_example,
}


@dataclass(frozen=True)
class FieldPair:
    """The two scalar fields defining the metric, with a gradient mode.

    grad_mode is "analytic" (polynomials only) or "fd" (central differences
    with per-coordinate step fd_step * (1 + |x_i|)).
    """

    a: ScalarField
    b: ScalarField
    grad_mode: str = "analytic"
    fd_step: float = 1e-6

    def __post_init__(self):
        if self.grad_mode not in ("analytic", "fd"):
            raise ValueError(f"unknown grad_mode {self.grad_mode!r}")
        if self.grad_mode == "analytic":
            for f in (self.a, self.b):
                if not isinstance(f, Polynomial):
                    raise ValueError("analytic gradients require polynomial fields")


def parse_field_spec(text: str, grad_mode: str = "analytic", fd_step: float = 1e-6) -> FieldPair:
    """Build a FieldPair from spec text or a builtin name."""
    stripped = text.strip()
    if ":" not in stripped:
        if stripped in BUILTIN_FIELDS:
            a, b = BUILTIN_FIELDS[stripped]()
            return FieldPair(a, b, grad_mode=grad_mode, fd_step=fd_step)
        raise UnknownBuiltin(f"unknown builtin field pair {stripped!r}")

    parts = text.split(";")
    if len(parts) != 2:
        raise ParseError("expected exactly one ';' separating A and B", len(text))
    polys: dict[str, Polynomial] = {}
    offset = 0
    for part in parts:
        head, colon, body = part.partition(":")
        if not colon:
            raise ParseError("missing ':' in field definition", offset)
        name = head.strip()
        if name not in ("A", "B"):
            raise ParseError(f"expected field name 'A' or 'B', got {name!r}", offset)
        polys[name] = parse_polynomial(body, base=offset + len(head) + 1)
        offset += len(part) + 1
    if set(polys) != {"A", "B"}:
        raise ParseError("spec must define both A and B", 0)
    return FieldPair(polys["A"], polys["B"], grad_mode=grad_mode, fd_step=fd_step)


def field_eval(f: FieldPair, p) -> tuple[float, float]:
    """Values (A(p), B(p))."""
    p = np.asarray(p, dtype=float)
    return float(f.a(p)), float(f.b(p))


def _fd_gradient(func: ScalarField, p: np.ndarray, step: float) -> np.ndarray:
    """Central differences; StencilCollapsed when p +- h == p on some axis."""
    grad = np.empty(3)
    for k in range(3):
        h = step * (1.0 + abs(p[k]))
        up = p.copy()
        dn = p.copy()
        up[k] += h
        dn[k] -= h
        if up[k] == p[k] or dn[k] == p[k]:
            raise StencilCollapsed(
                f"gradient step {step!r} vanishes against coordinate {p[k]} (axis {k})"
                f" at {tuple(p.tolist())}"
            )
        grad[k] = (func(up) - func(dn)) / (2.0 * h)
    return grad


def field_grad(f: FieldPair, p) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (grad A, grad B) at p."""
    p = np.asarray(p, dtype=float)
    if f.grad_mode == "analytic":
        return f.a.gradient(p), f.b.gradient(p)
    return _fd_gradient(f.a, p, f.fd_step), _fd_gradient(f.b, p, f.fd_step)


def field_jet(f: FieldPair, p) -> tuple[float, ...]:
    """(A, B, A_1, A_2, A_3, B_1, B_2, B_3) at p as floats, A_k = dA/dx_k: the
    values of field_eval and field_grad, for polynomials from one tolist() of p."""
    if f.grad_mode == "analytic":
        x1, x2, x3 = np.asarray(p, dtype=float).tolist()
        a, a1, a2, a3 = f.a._compiled
        b, b1, b2, b3 = f.b._compiled
        return (a(x1, x2, x3), b(x1, x2, x3), a1(x1, x2, x3), a2(x1, x2, x3), a3(x1, x2, x3),
                b1(x1, x2, x3), b2(x1, x2, x3), b3(x1, x2, x3))
    grad_a, grad_b = field_grad(f, p)
    return (*field_eval(f, p), *grad_a.tolist(), *grad_b.tolist())


@dataclass(frozen=True)
class DomainStatus:
    """Degeneracy and definiteness report for one point."""

    a: float
    b: float
    d: float
    eps: float
    degenerate: bool
    definite: bool


def _status(a: float, b: float) -> tuple[float, float, bool, bool]:
    """D = (A - B)(A + 2B), its threshold, and whether D ~ 0 and g is definite."""
    d = (a - b) * (a + 2.0 * b)
    eps = 1e-10 * (1.0 + a * a + b * b)
    return d, eps, abs(d) < eps, (a - b > 0.0) and (a + 2.0 * b > 0.0)


def domain_check(f: FieldPair, p) -> DomainStatus:
    """Report |D|, degeneracy, and positive definiteness at p."""
    a, b = field_eval(f, p)
    return DomainStatus(a, b, *_status(a, b))


def degeneracy_factor(a: float, b: float, p) -> tuple[float, bool]:
    """D and definiteness from the field values at p; DegenerateMetric when D ~ 0."""
    d, _, degenerate, definite = _status(a, b)
    if degenerate:
        raise DegenerateMetric(f"D = {d} at point {tuple(np.asarray(p, float).tolist())}")
    return d, definite


def row(v) -> np.ndarray:
    """One 3-vector as a (1, 3) stack, the n = 1 input of the stacked functions."""
    return np.asarray(v, dtype=float).reshape(1, 3)


@dataclass(frozen=True)
class MetricAtPoint:
    """Metric circ(A, B, B), its inverse, and the degeneracy factor at a point."""

    g: CirculantMatrix
    g_inv: CirculantMatrix
    d: float
    definite: bool

    def inners(self, x, y) -> np.ndarray:
        """g(x_n, y_n) for each row n of two (n, 3) stacks."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.matmul(np.matmul(x[:, None, :], self.g.dense()), y[:, :, None])[:, 0, 0]

    def inner(self, x, y) -> float:
        """Bilinear form g(x, y) = x^T g y."""
        return float(self.inners(row(x), row(y))[0])


def metric_at(f: FieldPair, p) -> MetricAtPoint:
    """Assemble metric and inverse at p; raises DegenerateMetric when D ~ 0."""
    a, b = field_eval(f, p)
    d, definite = degeneracy_factor(a, b, p)
    g_inv = CirculantMatrix((a + b) / d, -b / d, -b / d)
    return MetricAtPoint(g=CirculantMatrix(a, b, b), g_inv=g_inv, d=d, definite=definite)
