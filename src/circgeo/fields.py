"""Scalar field pairs (A, B) over R^3 and the metric they induce.

A field is a trivariate polynomial, parsed from text; its gradients are exact.
The metric at a point is the circulant circ(A, B, B); its degeneracy factor is
D = (A - B)(A + 2B).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable

import numpy as np

from .circulant import CirculantMatrix
from .errors import DegenerateMetric, ParseError

Monomial = tuple[int, int, int]


@dataclass(frozen=True)
class Polynomial:
    """Trivariate polynomial as a map from exponent triples to coefficients."""

    terms: tuple[tuple[Monomial, float], ...]

    @staticmethod
    def from_dict(d: dict[Monomial, float]) -> "Polynomial":
        cleaned = {m: float(c) for m, c in d.items() if c != 0.0}
        return Polynomial(tuple(sorted(cleaned.items())))

    def __call__(self, p):
        """The value at one point, a float, or at each row of an (n, 3) block, an (n,) array."""
        return self._value(*_arguments(p))[0]

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
    def _value(self) -> Callable[..., tuple]:
        """The value alone, compiled once (see _compile)."""
        return _compile((self.terms,))

    @cached_property
    def _jet(self) -> Callable[..., tuple]:
        """The value and the three partials, compiled once as one function."""
        return _compile((self.terms, *(self.partial(k).terms for k in range(3))))

    def __getstate__(self) -> dict:
        """The terms alone: _value and _jet, once cached, are closures that do not pickle."""
        return {"terms": self.terms}

    def gradient(self, p) -> np.ndarray:
        return np.array(self._jet(*_arguments(p))[1:])

    def degree(self) -> int:
        return max((sum(m) for m, _ in self.terms), default=0)


_VARIABLES = ("x1", "x2", "x3")


def _compile(tables) -> Callable[..., tuple]:
    """The term tables as one function f(x1, x2, x3, zero) returning one sum per table,
    each with the bits of zero + t1 + t2 + ... in term order.

    x**0 (exactly 1.0) is dropped, x**1 is x and x**e (e >= 2) the product that
    _power_lines names once for all tables: one point's floats and a block's columns
    (see _arguments) run the same multiplications.  A table with no terms returns zero
    itself.  Coefficients are bound as closure values, so only names and exponents are
    compiled; lines of at most 200 terms keep the compiler's recursion shallow.
    """
    lines = [line for i, x in enumerate(_VARIABLES)
             for line in _power_lines(x, {mono[i] for terms in tables for mono, _ in terms})]
    coefficients = {}
    for t, terms in enumerate(tables):
        summands = []
        for k, (mono, coef) in enumerate(terms):
            coefficients[f"c{t}_{k}"] = coef
            factors = [x if e == 1 else f"{x}_{e}" for x, e in zip(_VARIABLES, mono) if e]
            summands.append(" * ".join([f"c{t}_{k}", *factors]))
        lines.append(f"v{t} = zero")
        lines += [f"v{t} = v{t} + {' + '.join(summands[k:k + 200])}"
                  for k in range(0, len(summands), 200)]
    lines.append(f"return {', '.join(f'v{t}' for t in range(len(tables)))},")
    body = "".join(f"\n        {line}" for line in lines)
    scope: dict = {}
    exec(f"def bind({', '.join(coefficients)}):\n"
         f"    def f(x1, x2, x3, zero):{body}\n    return f", scope)
    return scope["bind"](*coefficients.values())


def _power_lines(x: str, exponents) -> list[str]:
    """Lines naming x_e = x**e for each e >= 2 of exponents, by square-and-multiply: the
    squares x_2 = x * x, x_4 = x_2 * x_2, ..., and for each set bit of e above its lowest,
    the power of e's lower bits times that bit's square, as x_5 = x * x_4 and
    x_13 = x_5 * x_8.  Each partial power is named once, however many exponents share it."""
    products: dict[int, tuple[int, int]] = {}
    for e in exponents:
        for k in range(1, e.bit_length()):
            products.setdefault(1 << k, (1 << k - 1, 1 << k - 1))
            low = e & (1 << k) - 1
            if e >> k & 1 and low:
                products.setdefault(low | 1 << k, (low, 1 << k))
    return [f"{x}_{e} = {' * '.join(x if f == 1 else f'{x}_{f}' for f in products[e])}"
            for e in sorted(products)]  # each factor is a smaller power, named above


def _arguments(p) -> tuple:
    """The arguments (x1, x2, x3, zero) of a compiled polynomial at p: at one point its
    three floats and 0.0; over an (n, 3) block its contiguous columns and an array of +0.0."""
    x = np.asarray(p, dtype=float)
    if x.ndim == 2:
        return (*np.ascontiguousarray(x.T), np.zeros(len(x)))
    return *x.tolist(), 0.0


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


def _fits(coef: float, mono: Monomial) -> bool:
    """Whether three times a term's coefficient and those of its partials, which scale
    it by one exponent each and merge no terms, are finite floats: the Christoffel
    symbols sum three partials of the metric."""
    try:
        return coef == 0.0 or math.isfinite(3.0 * abs(coef) * max(1, *mono))
    except OverflowError:  # an exponent past the float range
        return False


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
        first_pos: dict[Monomial, int] = {}
        sign = 1.0
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            sign = -1.0 if value == "-" else 1.0
        while True:
            term_pos = self.peek()[2]
            mono, coef = self.parse_term()
            first_pos.setdefault(mono, term_pos)
            out[mono] = out.get(mono, 0.0) + sign * coef
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                sign = -1.0 if value == "-" else 1.0
            else:
                break
        for mono, coef in out.items():
            if not _fits(coef, mono):
                raise ParseError(
                    "coefficient too large: three times it or its derivative is not a float",
                    first_pos[mono],
                )
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


#: Builtin field pairs: a spec that is one of these names stands for its text.
BUILTIN_FIELDS = {"paper-example": "A: 4*x1 + 2*x2; B: x1 + 2*x2 + 3*x3"}


@dataclass(frozen=True)
class FieldPair:
    """The two scalar fields defining the metric."""

    a: Polynomial
    b: Polynomial

    def __post_init__(self):
        if not (isinstance(self.a, Polynomial) and isinstance(self.b, Polynomial)):
            raise ValueError("fields must be Polynomials")


def parse_field_spec(text: str) -> FieldPair:
    """Build a FieldPair from spec text, or from a builtin name: text with no ':' or ';'."""
    if ":" not in text and ";" not in text:
        name = text.strip()
        if name not in BUILTIN_FIELDS:
            raise ParseError(f"unknown builtin field pair {name!r}", 0)
        text = BUILTIN_FIELDS[name]
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
    return FieldPair(polys["A"], polys["B"])


def field_eval(f: FieldPair, p):
    """Values (A(p), B(p)): floats at one point, (n,) arrays over an (n, 3) block.  They
    overflow to inf or NaN without raising, at a point and over a block alike."""
    args = _arguments(p)
    if isinstance(args[-1], np.ndarray):  # a block, told to overflow as Python floats do
        with np.errstate(over="ignore", invalid="ignore"):
            return f.a._value(*args)[0], f.b._value(*args)[0]
    return f.a._value(*args)[0], f.b._value(*args)[0]


def field_grad(f: FieldPair, p) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (grad A, grad B) at p, from field_jet."""
    _, _, *grad = field_jet(f, p)
    return np.array(grad[:3]), np.array(grad[3:])


def field_jet(f: FieldPair, p) -> tuple:
    """(A, B, A_1, A_2, A_3, B_1, B_2, B_3) at p, A_k = dA/dx_k: floats at one point
    and (n,) arrays with the same bits at every row of an (n, 3) block.  Each field
    gives its four from one compiled function.  Unlike field_eval, a block follows the
    caller's errstate: a quiet NaN partial would pass for a skipped row downstream."""
    args = _arguments(p)
    a, a1, a2, a3 = f.a._jet(*args)
    b, b1, b2, b3 = f.b._jet(*args)
    return a, b, a1, a2, a3, b1, b2, b3


def _status(a, b, quiet=False):
    """D = (A - B)(A + 2B) and whether D ~ 0 (elementwise over arrays), both overflowing
    without raising at a point and over a block alike; OverflowError, naming D (a block's
    first that is not finite), where D is not a finite float: g^-1 and Gamma would be 0."""
    if isinstance(a, np.ndarray) and not quiet:  # a point pays no errstate (microseconds)
        with np.errstate(over="ignore", invalid="ignore"):
            return _status(a, b, quiet=True)
    d = (a - b) * (a + 2.0 * b)
    first = d if isinstance(d, float) else next(iter(d[~np.isfinite(d)].tolist()), 0.0)
    if not math.isfinite(first):
        raise OverflowError(f"D = (A - B)(A + 2B) = {first}")
    return d, abs(d) < 1e-10 * (1.0 + a * a + b * b)


def degenerate_metric(d: float, p) -> DegenerateMetric:
    """The skip of a point p where D ~ 0, naming D."""
    return DegenerateMetric(f"D = {float(d)} at point {tuple(np.asarray(p, float).tolist())}")


def degeneracy_factor(a, b):
    """D from the field values, NaN where D ~ 0: a float at one point, (n,) over the
    values of an (n, 3) block."""
    d, degenerate = _status(a, b)
    if isinstance(d, np.ndarray):
        return np.where(degenerate, np.nan, d)
    return math.nan if degenerate else d


def row(v) -> np.ndarray:
    """One 3-vector as a (1, 3) stack, the n = 1 input of the stacked functions."""
    return np.asarray(v, dtype=float).reshape(1, 3)


@dataclass(frozen=True)
class MetricAtPoint:
    """The metric circ(A, B, B) at a point: the field values, D = (A - B)(A + 2B),
    whether D ~ 0 and whether g is definite, as floats and bools at one point or
    (n,) arrays over an (n, 3) block, and the point (block) it was checked at;
    g and g^-1 are built when read.

    They are plain properties: on Python 3.11 a cached_property takes a lock on
    first use, which cost more than building the 3-value circulant again.
    """

    a: float
    b: float
    d: float
    degenerate: bool
    definite: bool
    point: np.ndarray

    @property
    def g(self) -> CirculantMatrix:
        return CirculantMatrix(self.a, self.b, self.b)

    @property
    def g_inv(self) -> CirculantMatrix:
        """(A + B, -B, -B) / D, read only where D is not ~ 0."""
        a, b, d = self.a, self.b, self.d
        return CirculantMatrix((a + b) / d, -b / d, -b / d)

    def take(self, rows) -> "MetricAtPoint":
        """The record at the points of the block that rows, a list or array of indices, names."""
        return MetricAtPoint(*(v[rows] for v in vars(self).values()))

    def inners(self, x, y) -> np.ndarray:
        """g(x_m, y_m) for each row m of two (m, 3) stacks; over a block, (n, m) from
        shared stacks or (n, m, 3) ones.

        A block's g is an (n, 3, 3) array, C-ordered so that each point's 3x3 is
        laid out as one point's dense(): the bits of a stacked matmul depend on it.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        g = self.g.dense()
        if g.ndim == 3:
            g = np.ascontiguousarray(np.moveaxis(g, -1, 0))[:, None]
        return np.matmul(np.matmul(x[..., None, :], g), y[..., :, None])[..., 0, 0]

    def inner(self, x, y) -> float:
        """Bilinear form g(x, y) = x^T g y."""
        return float(self.inners(row(x), row(y))[0])


def domain_check(f: FieldPair, p) -> MetricAtPoint:
    """The metric record at p, degenerate or not; over an (n, 3) block, of (n,) arrays."""
    p = np.asarray(p, dtype=float)
    a, b = field_eval(f, p)
    return MetricAtPoint(a, b, *_status(a, b), (a - b > 0.0) & (a + 2.0 * b > 0.0), p)


def metric_at(f: FieldPair, p) -> MetricAtPoint:
    """The record of domain_check at p; raises DegenerateMetric when D ~ 0."""
    metric = domain_check(f, p)
    if metric.degenerate:
        raise degenerate_metric(metric.d, p)
    return metric
