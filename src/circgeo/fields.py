"""Scalar field pairs (A, B) over R^3 and the metric they induce.

A field is either a trivariate polynomial (parsed from text, analytic
gradients exact) or an arbitrary smooth callable (gradients by central
differences only).  The metric at a point is the circulant circ(A, B, B);
its degeneracy factor is D = (A - B)(A + 2B).
"""

from __future__ import annotations

import math
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

    def __call__(self, p):
        """The value at one point, a float, or at each row of an (n, 3) block, an (n,) array."""
        x = np.asarray(p, dtype=float)
        if x.ndim == 2:
            return self._block(*np.ascontiguousarray(x.T))[0]
        return self._compiled[0](*x.tolist())

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
    def _tables(self) -> tuple[tuple[tuple[Monomial, float], ...], ...]:
        """The term tables of the value and of the three partials."""
        return (self.terms, *(self.partial(k).terms for k in range(3)))

    @cached_property
    def _compiled(self) -> tuple[Callable[[float, float, float], float], ...]:
        """The value and the three partials as functions of x1, x2, x3, compiled once."""
        return tuple(map(_compile, self._tables))

    @cached_property
    def _block(self) -> Callable[..., tuple[np.ndarray, ...]]:
        """The value and the three partials at each row of a block, as one function of
        the columns x1, x2, x3; compiled on first use, like _compiled."""
        return _compile_block(self._tables)

    def gradient(self, p) -> np.ndarray:
        x = np.asarray(p, dtype=float).tolist()
        return np.array([d(*x) for d in self._compiled[1:]])

    def degree(self) -> int:
        return max((sum(m) for m, _ in self.terms), default=0)


_VARIABLES = ("x1", "x2", "x3")


def _sum_lines(terms, prefix: str, power) -> list[str]:
    """Statements s = s + c0 * x1 * x2**2 + ... adding the terms in order.

    x**0 (exactly 1.0) is dropped and x**1 written x (exact); power(x, e) writes x**e
    for e >= 2.  Coefficients are the names prefix0, prefix1, ...; lines of at most
    200 terms keep the compiler's recursion shallow.
    """
    summands = []
    for k, (mono, _) in enumerate(terms):
        powers = [x if e == 1 else power(x, e) for x, e in zip(_VARIABLES, mono) if e]
        summands.append(" * ".join([f"{prefix}{k}", *powers]))
    return [f"s = s + {' + '.join(summands[k:k + 200])}" for k in range(0, len(summands), 200)]


def _bind(lines: list[str], coefficients: dict[str, float], scope: dict) -> Callable:
    """f(x1, x2, x3) running lines, with the coefficients bound as closure values, so
    only names and exponents are compiled."""
    body = "".join(f"\n        {line}" for line in lines)
    header = f"def bind({', '.join(coefficients)}):\n    def f(x1, x2, x3):"
    exec(f"{header}{body}\n    return f", scope)
    return scope["bind"](*coefficients.values())


def _compile(terms) -> Callable[[float, float, float], float]:
    """The term table as straight-line code with the bits of 0.0 + t1 + t2 + ...;
    x**e, Python's pow, stays for e >= 2."""
    lines = ["s = 0.0", *_sum_lines(terms, "c", lambda x, e: f"{x}**{e}"), "return s"]
    return _bind(lines, {f"c{k}": coef for k, (_, coef) in enumerate(terms)}, {})


def _powers(x: np.ndarray, e: int) -> np.ndarray:
    """x**e by Python's float pow, element by element: numpy's array power can round
    the last bit differently, and the block values must equal the one-point ones."""
    return np.array([v**e for v in x.tolist()])


def _compile_block(tables) -> Callable[..., tuple[np.ndarray, ...]]:
    """The term tables as one function of three (n,) columns returning one (n,) array
    per table, each with the bits of _compile's function at every row.  A power
    x**e (e >= 2) is computed once for all tables, by _powers; the sums start from
    an array of +0.0, as the one-point sums start from 0.0."""
    used = sorted({(x, e) for terms in tables for mono, _ in terms
                   for x, e in zip(_VARIABLES, mono) if e >= 2})
    lines = [f"{x}_{e} = powers({x}, {e})" for x, e in used]
    coefficients = {}
    for t, terms in enumerate(tables):
        lines += ["s = zeros(len(x1))", *_sum_lines(terms, f"c{t}_", lambda x, e: f"{x}_{e}")]
        lines.append(f"v{t} = s")
        coefficients.update({f"c{t}_{k}": coef for k, (_, coef) in enumerate(terms)})
    lines.append(f"return {', '.join(f'v{t}' for t in range(len(tables)))},")
    return _bind(lines, coefficients, {"powers": _powers, "zeros": np.zeros})


ScalarField = Union[Polynomial, Callable[[np.ndarray], float]]

#: Step of every central difference, h_k = DEFAULT_FD_STEP * (1 + |x_k|).  1e-5
#: keeps the truncation error of the curvature itself well below 1e-6, but the
#: orbit-section spread inherits the pair-symmetry defect of the differenced
#: tensor and needs the finer step to stay inside its tolerance.
DEFAULT_FD_STEP = 1e-6


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
    """Whether a term's coefficient and those of its partials, which scale it by
    one exponent each and merge no terms, are finite floats."""
    try:
        return coef == 0.0 or math.isfinite(coef * max(1, *mono))
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
                    "coefficient or its derivative too large for a float", first_pos[mono]
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


def _paper_example() -> tuple[Polynomial, Polynomial]:
    a = Polynomial.from_dict({(1, 0, 0): 4.0, (0, 1, 0): 2.0})
    b = Polynomial.from_dict({(1, 0, 0): 1.0, (0, 1, 0): 2.0, (0, 0, 1): 3.0})
    return a, b


BUILTIN_FIELDS: dict[str, Callable[[], tuple[Polynomial, Polynomial]]] = {
    "paper-example": _paper_example,
}


@dataclass(frozen=True)
class FieldPair:
    """The two scalar fields defining the metric, with a gradient mode and a step.

    grad_mode is "analytic" (polynomials only) or "fd" (central differences).
    fd_step is the step of every central difference (see central_differences):
    the curvature's always, the field gradients' under "fd".
    """

    a: ScalarField
    b: ScalarField
    grad_mode: str = "analytic"
    fd_step: float = DEFAULT_FD_STEP

    def __post_init__(self):
        if self.grad_mode not in ("analytic", "fd"):
            raise ValueError(f"unknown grad_mode {self.grad_mode!r}")
        if self.grad_mode == "analytic":
            for f in (self.a, self.b):
                if not isinstance(f, Polynomial):
                    raise ValueError("analytic gradients require polynomial fields")


def parse_field_spec(
    text: str, grad_mode: str = "analytic", fd_step: float = DEFAULT_FD_STEP
) -> FieldPair:
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


def _rows(g: ScalarField, x: np.ndarray) -> np.ndarray:
    """A field's values at the rows of an (n, 3) block; a callable that is not a
    Polynomial is called one row at a time."""
    return g(x) if isinstance(g, Polynomial) else np.array([float(g(p)) for p in x])


def field_eval(f: FieldPair, p):
    """Values (A(p), B(p)): floats at one point, (n,) arrays over an (n, 3) block."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 2:
        return _rows(f.a, p), _rows(f.b, p)
    return float(f.a(p)), float(f.b(p))


def central_differences(func, x, step: float) -> list:
    """(func(x + h_k e_k) - func(x - h_k e_k)) / (2 h_k), h_k = step * (1 + |x_k|), k = 0, 1, 2.

    The one stencil of the fd field gradients and the curvature's Gamma derivatives.
    x is one point, a list of three floats, or an (n, 3) array of points with h_k per
    row; func takes points of the same kind, and its values over a block carry the
    batch axis last.  StencilCollapsed if x_k +- h_k == x_k (at the first such row).
    """
    block = isinstance(x, np.ndarray)
    derivatives = []
    for k in range(3):
        at = (slice(None), k) if block else k
        h = step * (1.0 + abs(x[at]))
        up = x.copy() if block else list(x)
        dn = x.copy() if block else list(x)
        up[at] += h
        dn[at] -= h
        collapsed = (up[at] == x[at]) | (dn[at] == x[at])
        if collapsed.any() if block else collapsed:
            point = x[np.argmax(collapsed)].tolist() if block else x
            raise StencilCollapsed(
                f"step {step!r} vanishes against coordinate {point[k]} (axis {k})"
                f" at {tuple(point)}"
            )
        derivatives.append((func(up) - func(dn)) / (2.0 * h))
    return derivatives


def field_grad(f: FieldPair, p) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (grad A, grad B) at p."""
    p = np.asarray(p, dtype=float)
    if f.grad_mode == "analytic":
        return f.a.gradient(p), f.b.gradient(p)
    x = p.tolist()
    return tuple(
        np.array(central_differences(lambda q: g(np.array(q)), x, f.fd_step)) for g in (f.a, f.b)
    )


def field_jet(f: FieldPair, p) -> tuple:
    """(A, B, A_1, A_2, A_3, B_1, B_2, B_3) at p, A_k = dA/dx_k: the values of
    field_eval and field_grad.  At one point they are floats, for polynomials from
    one tolist() of p; over an (n, 3) block they are (n,) arrays with the same bits
    at every row."""
    x = np.asarray(p, dtype=float)
    if x.ndim == 2:
        if f.grad_mode == "analytic":
            columns = np.ascontiguousarray(x.T)
            a, *grad_a = f.a._block(*columns)
            b, *grad_b = f.b._block(*columns)
            return (a, b, *grad_a, *grad_b)
        grad_a, grad_b = (
            central_differences(lambda q: _rows(g, q), x, f.fd_step) for g in (f.a, f.b)
        )
        return (*field_eval(f, x), *grad_a, *grad_b)
    if f.grad_mode == "analytic":
        x1, x2, x3 = x.tolist()
        a, a1, a2, a3 = f.a._compiled
        b, b1, b2, b3 = f.b._compiled
        return (a(x1, x2, x3), b(x1, x2, x3), a1(x1, x2, x3), a2(x1, x2, x3), a3(x1, x2, x3),
                b1(x1, x2, x3), b2(x1, x2, x3), b3(x1, x2, x3))
    grad_a, grad_b = field_grad(f, p)
    return (*field_eval(f, p), *grad_a.tolist(), *grad_b.tolist())


def _status(a, b):
    """D = (A - B)(A + 2B) and whether D ~ 0 (elementwise over arrays)."""
    d = (a - b) * (a + 2.0 * b)
    return d, abs(d) < 1e-10 * (1.0 + a * a + b * b)


def _degenerate(d: float, p) -> DegenerateMetric:
    return DegenerateMetric(f"D = {d} at point {tuple(np.asarray(p, float).tolist())}")


def degeneracy_factor(a, b, p):
    """D from the field values at p; DegenerateMetric when D ~ 0.  Over the (n,)
    values of an (n, 3) block, D with NaN in the rows where D ~ 0."""
    d, degenerate = _status(a, b)
    if isinstance(d, np.ndarray):
        return np.where(degenerate, np.nan, d)
    if degenerate:
        raise _degenerate(d, p)
    return d


def row(v) -> np.ndarray:
    """One 3-vector as a (1, 3) stack, the n = 1 input of the stacked functions."""
    return np.asarray(v, dtype=float).reshape(1, 3)


@dataclass(frozen=True)
class MetricAtPoint:
    """The metric circ(A, B, B) at a point: the field values, D = (A - B)(A + 2B),
    whether D ~ 0 and whether g is definite, as floats and bools at one point or
    (n,) arrays over an (n, 3) block; g and g^-1 are built when read.

    They are plain properties: on Python 3.11 a cached_property takes a lock on
    first use, which cost more than building the 3-value circulant again.
    """

    a: float
    b: float
    d: float
    degenerate: bool
    definite: bool

    @property
    def g(self) -> CirculantMatrix:
        return CirculantMatrix(self.a, self.b, self.b)

    @property
    def g_inv(self) -> CirculantMatrix | None:
        """(A + B, -B, -B) / D, or None when D ~ 0 (at any row of a block)."""
        if self.degenerate is not False and np.any(self.degenerate):  # cheap at one point
            return None
        a, b, d = self.a, self.b, self.d
        return CirculantMatrix((a + b) / d, -b / d, -b / d)

    def inners(self, x, y) -> np.ndarray:
        """g(x_m, y_m) for each row m of two (m, 3) stacks; over a block, (n, m).

        A block's g is one C-ordered 3x3 per point, laid out as one point's
        dense(), because the bits of a stacked matmul depend on that layout.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        g = self.g.dense()
        if g.ndim == 3:
            g = np.ascontiguousarray(np.moveaxis(g, -1, 0))[:, None]
        return np.matmul(np.matmul(x[:, None, :], g), y[:, :, None])[..., 0, 0]

    def inner(self, x, y) -> float:
        """Bilinear form g(x, y) = x^T g y."""
        return float(self.inners(row(x), row(y))[0])


def domain_check(f: FieldPair, p) -> MetricAtPoint:
    """The metric record at p, degenerate or not; over an (n, 3) block, of (n,) arrays."""
    a, b = field_eval(f, p)
    return MetricAtPoint(a, b, *_status(a, b), (a - b > 0.0) & (a + 2.0 * b > 0.0))


def metric_at(f: FieldPair, p) -> MetricAtPoint:
    """The record of domain_check at p; raises DegenerateMetric when D ~ 0."""
    metric = domain_check(f, p)
    if metric.degenerate:
        raise _degenerate(metric.d, p)
    return metric
