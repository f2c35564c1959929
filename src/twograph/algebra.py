"""Exact symbolic calculus on the span of words s_mu s_nu^*.

Elements are finite rational-coefficient sums of pairs of paths, keyed
by the integer path codes of ``graphs.py``, with the word product
computed through minimal common extensions: the product
s_mu s_nu^* . s_alpha s_beta^* expands over all pairs (z, x) with
nu*z == alpha*x of degree join(d(nu), d(alpha)), giving terms
s_{mu z} s_{beta x}^*.  When one inner path is a prefix of the other
this reduces to the familiar absorption rule, and the product vanishes
when no common extension exists.

Coefficients are exact rationals held as integer numerators over one
shared positive denominator per element, kept in lowest terms.  Every
suite coefficient lies in Z[1/N1, 1/N2]: the word product multiplies
the two denominators, shift keeps the denominator and transfer
multiplies it by the path count, so no Fraction is built inside the
algebra.  The boundary (the constructor, word coefficients, scalar
multiples and ``==``) accepts an int or a Fraction and refuses anything
else, and ``terms`` reads the coefficients back as Fractions.

The word product runs in one kernel, ``_product``, and the transfer in
one per-word kernel, ``_transfer``: T(w), the numerators of the
transfer of the one word w at degree n, over the path count of n.  A
kernel returns raw numerators: zeros are kept and no gcd is taken.
Every transfer, :func:`transfer` included, goes through one helper,
``_add_transfers``, the kernel's only caller: the transfer is linear,
so the helper adds c T(w) into a numerator dict for each term c w.
``GradedElement.__mul__`` and :func:`transfer` hand their numerators to
``GradedElement._of``, the one place where numerators are reduced to
lowest terms and zeros dropped.  Every word product goes through the
module-level ``_product``, every shift through :func:`shift` and every
word transfer through ``_transfer``, names the tests patch.  These three
and ``_vanishes`` read each memo hit straight from the graph's
``_ext_cache`` and ``_compose_cache`` with one probe, and call
``_extensions`` or ``_compose`` only on a miss, so ``graphs.py`` stays
the only writer of those tables.

Since the path count of m + n is the product of those of m and n, every
side of the suite's transfer checks is a sum of T(w) over one common
count, compared without denominator bookkeeping: transfer-action sums
T(m, x) over the terms x of T(n, w) against T(m + n, w), module-orthonormal
sums over the product of two basis words against 0 or 1, and
transfer-section sums over shift(n, a) against a scaled by the shift's
denominator times the path count.

The algebra keeps nothing on the graph, and its tables live no longer
than one ``identity_suite`` call.  ``_add_transfers`` caches each T(w)
in a dict its caller owns: :func:`transfer` and each covariance table
fill pass a fresh one, and the suite one per degree of a
transfer-identity check (whose right sides are the cached T(b)
themselves), one for the transfer-action check, one per case of
transfer-section (whose shifted words never repeat) and one per level of
module-orthonormal.  The memo of skipped transfer-identity cases lives
for one degree, and the covariance table for one suite call:

- The transfer identity transfer(n, shift(n, a) b) == a transfer(n, b)
  computes shift(n, a) once per word.  A case whose two sides are both
  empty is counted and nothing else is done: its difference is the empty
  dict, which vanishes, so skipping it is exact.  The left side is empty
  exactly when no second path of shift(n, a) has a minimal common
  extension with the first path of b, and the right side exactly when
  the second path of a has none with any first path of T(b); both are
  read from the graph's ``_extensions`` table.  So whether a case is
  skipped depends on a only through the pair (the set of second paths
  of shift(n, a), the second path of a), read from the actual shift:
  one memo per n maps each such pair to the ascending indices of the b
  with a non-empty side.  Every other case still makes its two
  ``_product`` calls and passes the difference of the two sides to
  ``_vanishes``, so it builds no element.
- covariance keeps the elements shift(n, <(nu, lam), (alpha, beta)>) it
  multiplies back; they do not depend on the word's first path, so they
  are keyed by (nu, lam, alpha, beta), each computed once through the
  kernels: the inner product is the ``_add_transfers`` numerators of the
  ``_product`` of s_lam s_nu^* and s_alpha s_beta^* over 1, since the
  path count of n cancels the transfer's denominator (as in
  module-orthonormal), and :func:`shift` multiplies it back.

Equality is decided modulo the summation relation
s_mu s_nu^* == sum over d(lambda)=n of s_{mu lambda} s_{nu lambda}^*:
terms are grouped by the degree difference d(mu)-d(nu) and expanded to
a common level, where distinct word pairs are linearly independent.

Module vectors at level n carry the square-root normalization of the
orthonormal basis implicitly: a vector is stored as a rational payload
y and denotes N^(n/2) q_n(y).  Basis vectors then have payload
s_mu s_nu^* exactly, every inner product picks up the integer factor
N^n, and all identities stay inside the rationals.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from . import doubling
from .graphs import (
    DEFAULT_PATH_CAP,
    EMPTY,
    BadRangeError,
    Degree,
    GraphError,
    Path,
    SpecMismatchError,
    TwoGraph,
    _as_degree,
    _compose,
    _extensions,
)


class LevelMismatchError(GraphError):
    """Module vectors at different levels cannot be paired."""


class GradedElement:
    """A formal rational combination of words s_mu s_nu^*.

    The coefficients are held as integer numerators ``nums``, keyed by
    pairs of path codes ``(mu, nu)``, over one shared positive
    denominator ``den``, in lowest terms: no numerator is zero, and
    ``den`` has no factor common to all of them (the zero element has
    ``den == 1``).  :attr:`terms` gives the coefficients as Fractions,
    keyed by pairs of Paths.  Addition and scalar multiples are
    coefficient-wise, and ``x + (-1) * y`` is a difference; ``*`` is
    the word product (or a scalar multiple when given a number).
    ``==`` compares modulo the summation relation, so e.g. the identity
    equals its level-n expansion.
    """

    __slots__ = ("graph", "nums", "den")

    def __init__(self, graph: TwoGraph, terms: Optional[dict] = None):
        terms = terms or {}
        if not all(p.graph is graph or p.graph == graph for pair in terms for p in pair):
            raise SpecMismatchError("a path of the terms lives on another graph")
        ratios = {(mu.code, nu.code): _ratio(c) for (mu, nu), c in terms.items()}
        den = math.lcm(*(d for _, d in ratios.values()))
        element = GradedElement._of(
            graph, {key: n * (den // d) for key, (n, d) in ratios.items()}, den
        )
        self.graph = graph
        self.nums = element.nums
        self.den = element.den

    # -- constructors --------------------------------------------------

    @classmethod
    def _of(cls, graph: TwoGraph, nums: dict, den: int) -> "GradedElement":
        """The element nums/den in lowest terms; zero numerators dropped."""
        if 0 in nums.values():
            nums = {key: n for key, n in nums.items() if n}
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {key: n // g for key, n in nums.items()}
        element = cls.__new__(cls)
        element.graph = graph
        element.nums = nums
        element.den = den
        return element

    @classmethod
    def zero(cls, graph: TwoGraph) -> "GradedElement":
        return cls._of(graph, {}, 1)

    @classmethod
    def one(cls, graph: TwoGraph) -> "GradedElement":
        return cls._of(graph, {(EMPTY, EMPTY): 1}, 1)

    @classmethod
    def word(cls, mu: Path, nu: Path, coeff=1) -> "GradedElement":
        if not (mu.graph is nu.graph or mu.graph == nu.graph):
            raise SpecMismatchError("paths live on different graphs")
        num, den = _ratio(coeff)
        return cls._of(mu.graph, {(mu.code, nu.code): num}, den)

    @property
    def terms(self) -> dict:
        """The coefficients as ``{(Path, Path): Fraction}``; a fresh dict."""
        graph, den = self.graph, self.den
        return {
            (Path._of(graph, mu), Path._of(graph, nu)): Fraction(n, den)
            for (mu, nu), n in self.nums.items()
        }

    # -- linear structure ----------------------------------------------

    def _check_same(self, other: "GradedElement") -> None:
        if not (self.graph is other.graph or self.graph == other.graph):
            raise SpecMismatchError("elements live on different graphs")

    def _combine(self, other: "GradedElement", sign: int) -> tuple:
        """Numerators and denominator of self + sign*other, zeros kept."""
        self._check_same(other)
        g = math.gcd(self.den, other.den)
        mine = other.den // g
        theirs = sign * (self.den // g)
        if mine == 1:
            out = dict(self.nums)
        else:
            out = {key: n * mine for key, n in self.nums.items()}
        for key, n in other.nums.items():
            out[key] = out.get(key, 0) + n * theirs
        return out, self.den * mine

    def __add__(self, other: "GradedElement") -> "GradedElement":
        return GradedElement._of(self.graph, *self._combine(other, 1))

    def _scaled(self, scalar) -> "GradedElement":
        num, den = _ratio(scalar)
        return GradedElement._of(
            self.graph, {key: n * num for key, n in self.nums.items()}, self.den * den
        )

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self._scaled(scalar)
        return NotImplemented

    # -- the word product ------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, GradedElement):
            return self.__rmul__(other)  # a scalar multiple, or NotImplemented
        self._check_same(other)
        return GradedElement._of(
            self.graph, _product(self.graph, self.nums, other.nums), self.den * other.den
        )

    def adjoint(self) -> "GradedElement":
        """The *-operation: swap word sides (rational coefficients)."""
        return GradedElement._of(
            self.graph, {(nu, mu): n for (mu, nu), n in self.nums.items()}, self.den
        )

    # -- equality modulo the summation relation --------------------------

    def is_zero(self) -> bool:
        """Whether the element vanishes after common-level expansion."""
        return _vanishes(self.graph, self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = other * GradedElement.one(self.graph)
        elif not isinstance(other, GradedElement):
            return NotImplemented
        return _vanishes(self.graph, self._combine(other, -1)[0])

    def __hash__(self):
        raise TypeError("GradedElement equality is modulo expansion; not hashable")

    def __repr__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for (mu, nu), coeff in sorted(self.terms.items()):
            parts.append(f"{coeff}*s[{mu.pretty()}]s[{nu.pretty()}]*")
        return " + ".join(parts)


def _ratio(value) -> tuple:
    """An int (a bool too) or a Fraction as (numerator, positive denominator).

    Anything else is refused, as ``*`` refuses it: a float would be read
    as its binary expansion.
    """
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"a coefficient must be an int or a Fraction, got {value!r}")


def _vanishes(graph: TwoGraph, nums: dict) -> bool:
    """Whether the numerators ``nums`` sum to zero modulo the summation relation.

    Terms are grouped by the degree difference d(mu)-d(nu) and each group
    is expanded to the join of its left degrees, where distinct word
    pairs are linearly independent.  A term already at that join is its
    own expansion and is added as it is.
    """
    classes: dict = {}
    for (mu, nu), n in nums.items():
        if n:
            delta = (mu[0] - nu[0], mu[1] - nu[1])
            classes.setdefault(delta, []).append((mu, nu, n))
    composed = graph._compose_cache
    for items in classes.values():
        top1 = max(mu[0] for mu, _, _ in items)
        top2 = max(mu[1] for mu, _, _ in items)
        acc: dict = {}
        for mu, nu, n in items:
            if mu[0] == top1 and mu[1] == top2:  # its expansion is itself
                acc[mu, nu] = acc.get((mu, nu), 0) + n
                continue
            for lam in graph._paths((top1 - mu[0], top2 - mu[1])):
                key = (
                    composed.get((mu, lam)) or _compose(graph, mu, lam),
                    composed.get((nu, lam)) or _compose(graph, nu, lam),
                )
                acc[key] = acc.get(key, 0) + n
        if any(acc.values()):
            return False
    return True


def shift(degree, element: GradedElement) -> GradedElement:
    """The degree-n shift endomorphism: sum of s_lam a s_lam^*.

    Unital on the identity (the result is the level-n expansion of 1)
    and multiplicative in the degree.  The denominator is unchanged.
    """
    graph = element.graph
    composed = graph._compose_cache
    out: dict = {}
    for lam in graph._paths(_as_degree(degree)):
        for (mu, nu), n in element.nums.items():
            key = (
                composed.get((lam, mu)) or _compose(graph, lam, mu),
                composed.get((lam, nu)) or _compose(graph, lam, nu),
            )
            out[key] = out.get(key, 0) + n
    return GradedElement._of(graph, out, element.den)


def transfer(degree, element: GradedElement) -> GradedElement:
    """The transfer operator: the exact average of s_lam^* a s_lam.

    A positive left inverse companion to :func:`shift`: it satisfies
    transfer(n, shift(n, a) * b) == a * transfer(n, b) and composes
    additively in the degree.  The average multiplies the denominator
    by the number of paths of degree n.
    """
    graph = element.graph
    degree = _as_degree(degree)
    count = len(graph._paths(degree))  # checks the degree, even on the zero element
    return GradedElement._of(
        graph, _add_transfers(graph, {}, {}, degree, element.nums), element.den * count
    )


# -- the two kernels: numerator dicts in, raw numerator dicts out -------------


def _product(graph: TwoGraph, left: dict, right: dict) -> dict:
    """Numerators of the word product left*right, zeros kept and no gcd taken.

    ``left`` and ``right`` are numerator dicts; the product's denominator
    is the product of theirs.
    """
    extended, composed = graph._ext_cache, graph._compose_cache
    out: dict = {}
    for (mu, nu), c in left.items():
        for (alpha, beta), d in right.items():
            tails = extended.get((nu, alpha))
            if tails is None:
                tails = _extensions(graph, nu, alpha)
            for tail_nu, tail_al in tails:
                key = (
                    composed.get((mu, tail_nu)) or _compose(graph, mu, tail_nu),
                    composed.get((beta, tail_al)) or _compose(graph, beta, tail_al),
                )
                out[key] = out.get(key, 0) + c * d
    return out


def _transfer(graph: TwoGraph, degree: Degree, word: tuple) -> dict:
    """Numerators of the transfer of the one word ``word`` = (mu, nu) at ``degree``.

    The sum of s_lam^* s_mu s_nu^* s_lam over the paths lam of
    ``degree``, no gcd taken; its denominator is the path count of
    ``degree``.
    """
    mu, nu = word
    extended, composed = graph._ext_cache, graph._compose_cache
    out: dict = {}
    for lam in graph._paths(degree):
        # s_lam^* s_mu expands first, then s_nu^* s_lam on the right
        heads = extended.get((lam, mu))
        if heads is None:
            heads = _extensions(graph, lam, mu)
        for head_tail, mu_tail in heads:
            left_nu = composed.get((nu, mu_tail)) or _compose(graph, nu, mu_tail)
            mids = extended.get((left_nu, lam))
            if mids is None:
                mids = _extensions(graph, left_nu, lam)
            for mid_tail, lam_tail in mids:
                key = (
                    composed.get((head_tail, mid_tail))
                    or _compose(graph, head_tail, mid_tail),
                    lam_tail,
                )
                out[key] = out.get(key, 0) + 1
    return out


def _add_transfers(graph: TwoGraph, cache: dict, diff: dict, degree: Degree, nums: dict):
    """Add the transfer numerators of ``nums`` at ``degree`` to ``diff``; return ``diff``.

    The transfer is linear, so this adds c T(w) for each term c w of
    ``nums``, where T(w) = ``_transfer(graph, degree, w)`` is over the
    path count of ``degree``.  Each T(w) is computed once and
    kept in ``cache`` under (degree, w); the caller owns ``cache``.
    """
    for w, c in nums.items():
        tw = cache.get((degree, w))
        if tw is None:
            tw = cache[degree, w] = _transfer(graph, degree, w)
        for key, t in tw.items():
            diff[key] = diff.get(key, 0) + c * t
    return diff


class ModuleVector:
    """A vector of the level-n bimodule in basis-scaled form.

    The stored payload y denotes the actual vector N^(n/2) q_n(y), so
    the basis vector with word pair (mu, nu) has payload s_mu s_nu^*
    and all pairings of stored vectors are exactly rational: the inner
    product of payloads x and y is N^n transfer(n, x^* y).
    """

    __slots__ = ("level", "payload")

    def __init__(self, level, payload: GradedElement):
        if not isinstance(payload, GradedElement):
            raise TypeError(
                f"module payload must be a GradedElement, got {type(payload).__name__}"
            )
        level = _as_degree(level)
        if not level.is_valid():
            raise BadRangeError(f"module level must be non-negative, got {tuple(level)}")
        self.level = level
        self.payload = payload

    @property
    def graph(self) -> TwoGraph:
        return self.payload.graph

    def _check_level(self, other: "ModuleVector") -> None:
        if self.level != other.level:
            raise LevelMismatchError(
                f"levels {tuple(self.level)} and {tuple(other.level)} differ"
            )

    def inner(self, other: "ModuleVector") -> GradedElement:
        """The bimodule inner product; 0/1 on distinct/equal basis vectors."""
        self._check_level(other)
        scale = self.graph.path_count(self.level)
        return scale * transfer(self.level, self.payload.adjoint() * other.payload)

    def __mul__(self, other: "ModuleVector") -> "ModuleVector":
        """Product in the graded module; adds levels."""
        return ModuleVector(
            self.level + other.level,
            self.payload * shift(self.level, other.payload),
        )

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._check_level(other)
        return ModuleVector(self.level, self.payload + other.payload)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self.level == other.level and self.payload == other.payload

    def __hash__(self):
        raise TypeError("ModuleVector is not hashable")

    def __repr__(self) -> str:
        return f"ModuleVector(level={tuple(self.level)}, payload={self.payload!r})"


def _word(graph: TwoGraph, mu: tuple, nu: tuple) -> GradedElement:
    """The word s_mu s_nu^* of two path codes."""
    return GradedElement._of(graph, {(mu, nu): 1}, 1)


def _covariant(graph: TwoGraph, mu: tuple, nu: tuple, table: dict) -> bool:
    """Left multiplication by s_mu s_nu^* equals its rank-one expansion.

    ``mu`` and ``nu`` are path codes of one degree n.  For every basis
    vector v at level n, compare the left action of the word with the
    sum over lambda of the rank-one operators built from the vectors
    with words (mu, lambda) and (nu, lambda): each applies v to the
    inner product and multiplies back.  True exactly when all basis
    vectors agree.

    The right side applies the basis vector v = (alpha, beta) to the
    vector (nu, lam) and multiplies back: the element
    shift(n, <(nu, lam), v>) does not depend on ``mu``, so it is kept in
    ``table`` under the key (nu, lam, alpha, beta), filled on first use
    through the kernels.  The inner product is the path count of n times
    the transfer of s_lam s_nu^* s_alpha s_beta^*, and that count cancels
    the transfer's denominator (as in module-orthonormal), so it is the
    ``_add_transfers`` numerators of the ``_product`` of the two words
    over 1, and the module-level :func:`shift` multiplies it back.  The
    caller owns the table: ``identity_suite`` passes one per call.  Both
    sides are numerator dicts over the lcm of the looked-up elements'
    denominators, and their difference goes to ``_vanishes``.  With the
    true shift and transfer every inner product is 0 or 1, so that lcm
    is 1.
    """
    level = Degree(mu[0], mu[1])
    lams = graph._paths(level)
    word = {(mu, nu): 1}
    for alpha in lams:
        for beta in lams:
            backs = []
            for lam in lams:
                key = (nu, lam, alpha, beta)
                back = table.get(key)
                if back is None:
                    product = _product(graph, {(lam, nu): 1}, {(alpha, beta): 1})
                    inner = _add_transfers(graph, {}, {}, level, product)
                    back = table[key] = shift(level, GradedElement._of(graph, inner, 1))
                if back.nums:
                    backs.append((lam, back))
            scale = math.lcm(*(back.den for _, back in backs))
            diff = {
                key: scale * c
                for key, c in _product(graph, word, {(alpha, beta): 1}).items()
            }
            for lam, back in backs:
                factor = scale // back.den
                for key, c in _product(graph, {(mu, lam): 1}, back.nums).items():
                    diff[key] = diff.get(key, 0) - factor * c
            if not _vanishes(graph, diff):
                return False
    return True


# -- the identity suite -------------------------------------------------------


@dataclass(frozen=True)
class SuiteCheck:
    """One verified identity: name, case count, outcome, counterexample."""

    name: str
    cases: int
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "passed": self.passed,
            "detail": self.detail,
        }


_BLUE_STEP = Degree(1, 0)
_RED_STEP = Degree(0, 1)


def _shown(graph: TwoGraph, case):
    """``case`` with its path codes (plain 4-tuples of ints) shown as Paths."""
    if type(case) is not tuple:  # a Degree is a tuple subclass, shown as it is
        return case
    if len(case) == 4 and all(type(x) is int for x in case):
        return Path._of(graph, case)
    return tuple(_shown(graph, x) for x in case)


def degrees_upto(bound) -> Iterator[Degree]:
    bound = Degree(*bound)
    for n1 in range(bound.n1 + 1):
        for n2 in range(bound.n2 + 1):
            yield Degree(n1, n2)


def _balanced_words(graph: TwoGraph, bound: Degree) -> list:
    """Code pairs (mu, nu) of equal degree, for every degree up to ``bound``."""
    words = []
    for level in degrees_upto(bound):
        paths = graph._paths(level)
        for mu in paths:
            for nu in paths:
                words.append((mu, nu))
    return words


def identity_suite(
    graph: TwoGraph,
    max_degree=(2, 2),
    seed: int = 0,
    cap: int = DEFAULT_PATH_CAP,
) -> list:
    """Run the full identity suite; every check should pass on any graph.

    ``max_degree`` bounds the shift and transfer degrees, the
    basis-word degrees and the module levels.  ``cap`` bounds the paths
    of each degree up to ``max_degree``; every such degree is checked
    at entry.  Products can reach higher degrees (e.g. (3, 0) in
    transfer-identity-generators on a 2x3 graph at (2, 2)), and their
    enumerations run under ``DEFAULT_PATH_CAP``.  The exhaustive
    transfer-operator identity runs over single-color shift degrees for
    all word pairs, plus all shift degrees for word pairs whose degree
    plus the shift stays within the bound; the remaining checks are
    exhaustive at their stated ranges.  Randomized checks
    (associativity, adjoint anti-multiplicativity) draw from ``seed``.
    """
    bound = _as_degree(max_degree)
    if not bound.is_valid():
        raise BadRangeError(f"max_degree must be non-negative, got {tuple(bound)}")
    for level in degrees_upto(bound):
        graph.check_path_cap(level, cap)
    rng = random.Random(seed)
    one = GradedElement.one(graph)
    checks = []

    def run(name, cases_iter, predicate):
        cases = 0
        for case in cases_iter:
            cases += 1
            if not predicate(case):
                checks.append(
                    SuiteCheck(
                        name, cases, False, f"counterexample: {_shown(graph, case)}"
                    )
                )
                return
        checks.append(SuiteCheck(name, cases, True))

    # transfer of the identity
    run(
        "transfer-unit",
        list(degrees_upto(bound)),
        lambda n: transfer(n, one) == one,
    )

    # shift of the identity (the level-n expansion of 1)
    run(
        "shift-unit",
        list(degrees_upto(bound)),
        lambda n: shift(n, one) == one,
    )

    def transfer_identity(name, groups):
        # transfer(n, shift(n, a) * b) == a * transfer(n, b) for all word
        # pairs (a, b) of each group, in order, on numerator dicts.  The
        # left side is over sa.den times the path count of n and the right
        # side over that count, so the right side is scaled by sa.den.
        cases = 0
        for n, group in groups:
            cache: dict = {}  # the word transfers of this n
            _add_transfers(graph, cache, {}, n, dict.fromkeys(group, 0))
            rights = [cache[n, b] for b in group]  # the cached T(b), not copies
            # A case whose two sides are both empty has diff {}, which
            # vanishes, so it is counted and nothing else is done.  The left
            # side is empty exactly when no second path of shift(n, a) has a
            # common extension with b's first path, and the right side
            # exactly when a's second path has none with any first path of
            # T(b).  So both depend on a only through the key of ``lives``,
            # read from the actual shift (so this holds for any shift the
            # tests patch in); its value lists the indices j, ascending, of
            # the b = group[j] with a non-empty side.
            lives: dict = {}
            for a in group:
                word = _word(graph, *a)
                sa = shift(n, word)
                key = (frozenset(nu for _, nu in sa.nums), a[1])
                live = lives.get(key)
                if live is None:
                    live = lives[key] = [
                        j
                        for j, ((alpha, _), right) in enumerate(zip(group, rights))
                        if any(_extensions(graph, nu, alpha) for nu in key[0])
                        or any(_extensions(graph, a[1], x) for x, _ in right)
                    ]
                for j in live:
                    b = group[j]
                    right = _product(graph, word.nums, rights[j])
                    diff = {k: -c * sa.den for k, c in right.items()}
                    _add_transfers(graph, cache, diff, n, _product(graph, sa.nums, {b: 1}))
                    if not _vanishes(graph, diff):
                        b = _word(graph, *b)
                        detail = f"counterexample: n={tuple(n)}, a={word!r}, b={b!r}"
                        checks.append(SuiteCheck(name, cases + j + 1, False, detail))
                        return
                cases += len(group)
        checks.append(SuiteCheck(name, cases, True))

    # on the generators, all word pairs
    words = _balanced_words(graph, bound)
    transfer_identity(
        "transfer-identity-generators",
        [(n, words) for n in (_BLUE_STEP, _RED_STEP) if n.leq(bound)],
    )
    # at every degree, words small enough to stay in bound
    transfer_identity(
        "transfer-identity-all-degrees",
        [(n, _balanced_words(graph, bound - n)) for n in degrees_upto(bound)],
    )

    # semigroup law for transfer: all degree splits, all word pairs
    action_cases = [
        (m, n, w)
        for m in degrees_upto(bound)
        for n in degrees_upto(bound - m)
        for w in words
    ]

    def transfer_action(cache, case):
        # The sum of the T(m, x) over the terms x of T(n, w) is over the path
        # count of m times that of n, which is the path count of m + n.
        m, n, w = case
        tn = _add_transfers(graph, cache, {}, n, {w: 1})
        diff = _add_transfers(graph, cache, {}, m + n, {w: -1})
        return _vanishes(graph, _add_transfers(graph, cache, diff, m, tn))

    # the word transfers live for this check only
    run("transfer-action", action_cases, functools.partial(transfer_action, {}))

    # transfer is a left inverse of shift
    section_cases = [(n, w) for n in degrees_upto(bound) for w in words]

    def transfer_section(case):
        # The words of the true shift(n, a) are the (lam mu, lam nu) for
        # the paths lam of degree n, so no two cases share one: the word
        # transfers live for one case.
        n, w = case
        sa = shift(n, _word(graph, *w))
        diff = {w: -sa.den * graph.path_count(n)}
        return _vanishes(graph, _add_transfers(graph, {}, diff, n, sa.nums))

    run("transfer-section", section_cases, transfer_section)

    # orthonormal module bases
    def orthonormal(level):
        # <(mu, nu), (al, be)> = path_count * transfer(level, s_nu s_mu^* s_al s_be^*)
        # is 1 on equal basis words and 0 otherwise.  The path count cancels
        # the transfer's denominator, so the transfer numerators are
        # compared with that 0 or 1 directly.
        paths = graph._paths(level)
        cache: dict = {}  # the word transfers of this level
        for mu in paths:
            for nu in paths:
                adjoint = {(nu, mu): 1}
                for al in paths:
                    for be in paths:
                        diff = {(EMPTY, EMPTY): -1} if (mu, nu) == (al, be) else {}
                        product = _product(graph, adjoint, {(al, be): 1})
                        _add_transfers(graph, cache, diff, level, product)
                        if not _vanishes(graph, diff):
                            return False
        return True

    run("module-orthonormal", list(degrees_upto(bound)), orthonormal)

    # product rule for basis vectors
    prod_cases = []
    for m in degrees_upto(bound):
        for n in degrees_upto(bound - m):
            m_paths = graph._paths(m)
            n_paths = graph._paths(n)
            prod_cases.extend(
                (m, n, mu, nu, al, be)
                for mu in m_paths
                for nu in m_paths
                for al in n_paths
                for be in n_paths
            )

    def product_rule(case):
        m, n, mu, nu, al, be = case
        left = ModuleVector(m, _word(graph, mu, nu))
        right = ModuleVector(n, _word(graph, al, be))
        expected = ModuleVector(
            m + n, _word(graph, _compose(graph, mu, al), _compose(graph, nu, be))
        )
        return left * right == expected

    run("module-product", prod_cases, product_rule)

    # commutation of the doubled Cuntz family
    doubled = doubling.double(graph)

    def family_blue(i):
        e, f = doubled.blue_pair(i)
        return ModuleVector(_BLUE_STEP, _word(graph, (1, 0, e, 0), (1, 0, f, 0)))

    def family_red(j):
        g, h = doubled.red_pair(j)
        return ModuleVector(_RED_STEP, _word(graph, (0, 1, 0, g), (0, 1, 0, h)))

    def commutation(case):
        i, j = case
        j2, i2 = doubled.commute_blue_red(i, j)
        return family_blue(i) * family_red(j) == family_red(j2) * family_blue(i2)

    run(
        "cuntz-commutation",
        [(i, j) for i in range(doubled.n_blue) for j in range(doubled.n_red)],
        commutation,
    )

    # isometry and reconstruction for the doubled Cuntz families
    def cuntz_family(color):
        if color == "blue":
            level = _BLUE_STEP
            family = [family_blue(i) for i in range(doubled.n_blue)]
        else:
            level = _RED_STEP
            family = [family_red(j) for j in range(doubled.n_red)]
        for vec in family:
            if vec.inner(vec) != 1:
                return False
        paths = graph._paths(level)
        for al in paths:
            for be in paths:
                target = ModuleVector(level, _word(graph, al, be))
                total = ModuleVector(level, GradedElement.zero(graph))
                for vec in family:
                    total = total + vec * ModuleVector((0, 0), vec.inner(target))
                if total != target:
                    return False
        return True

    run("cuntz-family", ["blue", "red"], cuntz_family)

    # covariance of the left action at small levels
    small_words = _balanced_words(graph, bound.meet(Degree(1, 1)))
    cov_table: dict = {}
    run("covariance", small_words, lambda case: _covariant(graph, *case, cov_table))

    # *-algebra axioms on random word triples
    triples = [
        tuple(rng.choice(small_words) for _ in range(3)) for _ in range(25)
    ]

    def star_axioms(case):
        x, y, z = (_word(graph, mu, nu) for mu, nu in case)
        if (x * y) * z != x * (y * z):
            return False
        return (x * y).adjoint() == y.adjoint() * x.adjoint()

    run("star-axioms", triples, star_axioms)

    return checks
