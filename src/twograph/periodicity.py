"""Periodicity decision for single-vertex rank-2 graphs.

Periodicity is equivalent to the existence of a degree pair (a, b) and
a bijection gamma between the blue paths of degree (a,0) and the red
paths of degree (0,b) under which every product mu*nu refactors
red-first as gamma(mu) followed by gamma^-1(nu).  Instead of searching
the (N1^a)! bijections, one pass over the products decides it.  A
pairing exists exactly when four conditions hold:

1. the red head of mu*nu does not depend on nu;
2. the blue tail of mu*nu does not depend on mu;
3. the tail map inverts the head map;
4. no two blue paths share a head.

A pairing that satisfies the refactorization condition is therefore
the one read off the heads.  The candidate pairing is the head map
under conditions 1 and 4 alone.

Paths in that pass are the integer codes of ``graphs.py``: a blue path
of degree (a,0) is its blue code and a red path of degree (0,b) its red
code, so code i is ``enumerate_paths(...)[i]``.  The red-first
factorization of mu*nu moves each red letter of nu leftward through the
current blue word with the shared move routine ``graphs._move``.  The
pass walks one row mu at a time, one red letter per level: the words
reached after j letters are shared by every nu with the same j-letter
prefix, and condition 1 holds exactly when, at every level, every word
reached puts out one common letter for every red letter moved in.  So a
row's head is built digit by digit and a row fails at the first level
whose letters differ, with no per-product list of heads.  Each word's
moves are memoized for the length of one call.  Path objects are built
only for the pairing a caller gets back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graphs import (
    DEFAULT_PATH_CAP,
    BadRangeError,
    Degree,
    GraphError,
    SizeLimitError,
    TwoGraph,
    _move,
)


class DegenerateCountsError(GraphError):
    """Fewer than two edges of some color; the decision needs both >= 2."""


def _factorize(n: int) -> dict:
    factors: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def minimal_exponents(n_blue: int, n_red: int) -> Optional[tuple]:
    """Least positive (a, b) with n_blue**a == n_red**b, if any.

    Every solution is a multiple of the minimal one.  Returns None when
    the counts are not rationally related (e.g. 2 and 3).
    """
    if n_blue < 2 or n_red < 2:
        raise DegenerateCountsError(
            f"need at least two edges of each color, got {(n_blue, n_red)}"
        )
    blue_f = _factorize(n_blue)
    red_f = _factorize(n_red)
    if set(blue_f) != set(red_f):
        return None
    # n_blue^a = n_red^b forces a*e_p = b*f_p for every prime p
    ratios = {Fraction(red_f[p], blue_f[p]) for p in blue_f}
    if len(ratios) != 1:
        return None
    ratio = ratios.pop()
    return (ratio.numerator, ratio.denominator)


def _pairing_codes(
    graph: TwoGraph, a: int, b: int, heads_only: bool = False
) -> Optional[list]:
    """The red code paired with each blue code at (a, b), or None.

    Walks each blue row mu one level at a time.  Level j holds, in the
    order of the red prefixes of nu, the blue words left behind once j
    red letters have moved through mu.  A word's moves are memoized as
    the pair (the red letter that every move puts out, or None if they
    differ; the blue words left behind), so a level passes exactly when
    all its words carry one common letter, which is the next digit of
    the row's head.  After b levels the list holds the row's tails.

    Returns None at the first failure, each kind at its own site: two
    products of a row with different heads; a tail that differs from
    row 0's; a tail map that does not send the head back to mu; two
    rows with the same head.  With ``heads_only``, only the first and
    the last are checked, which gives the canonical candidate; otherwise
    the result is a verified period.
    """
    fwd, n_blue, n_red = graph._fwd, graph.n_blue, graph.n_red
    moves: dict = {}
    heads_of: list = []
    tails_of = None
    for mu in range(n_blue**a):
        head, words = 0, [mu]
        for _ in range(b):
            # letter stays -1 until the level's first word sets it
            letter, level = -1, []
            for word in words:
                move = moves.get(word)
                if move is None:
                    letters, blues = set(), []
                    for f in range(n_red):
                        f, blue = _move(fwd, n_blue, n_red, a, word, f)
                        letters.add(f)
                        blues.append(blue)
                    move = moves[word] = (
                        letters.pop() if len(letters) == 1 else None,
                        blues,
                    )
                f, blues = move
                if f != letter:
                    if f is None or letter >= 0:
                        # two products mu*nu of this row have different heads
                        return None
                    letter = f
                level += blues
            head, words = head * n_red + letter, level
        heads_of.append(head)
        if heads_only:
            continue
        if tails_of is None:
            tails_of = words
        elif words != tails_of:
            # the tail of some mu*nu depends on mu
            return None
        if tails_of[head] != mu:
            # the tail map does not invert the head map at mu
            return None
    if len(set(heads_of)) != len(heads_of):
        # two rows share a head, so the head map is not a bijection
        return None
    return heads_of


def _check_exponents(a: int, b: int) -> None:
    # (0, 0) would pair the empty paths vacuously; negative ones have no paths
    if not (isinstance(a, int) and isinstance(b, int) and a >= 1 and b >= 1):
        raise BadRangeError(
            f"exponents must be integers of at least 1, got (a, b) = {(a, b)}"
        )


def _pairing_paths(graph: TwoGraph, a: int, b: int, codes: list, cap: int) -> dict:
    blues = graph.enumerate_paths(Degree(a, 0), cap)
    reds = graph.enumerate_paths(Degree(0, b), cap)
    return {blues[mu]: reds[nu] for mu, nu in enumerate(codes)}


def candidate_pairing(
    graph: TwoGraph, a: int, b: int, cap: int = DEFAULT_PATH_CAP
) -> Optional[dict]:
    """The canonical candidate bijection blue^(a,0) -> red^(0,b), or None.

    For each blue path mu the red prefix of mu*beta is extracted; the
    candidate exists only if that prefix is independent of the choice of
    the red path beta and the resulting map is a bijection.
    """
    _check_exponents(a, b)
    if graph.path_count(Degree(a, 0)) != graph.path_count(Degree(0, b)):
        raise GraphError(f"path counts differ at (a, b) = {(a, b)}")
    graph.check_path_cap(Degree(a, 0), cap)
    codes = _pairing_codes(graph, a, b, heads_only=True)
    return None if codes is None else _pairing_paths(graph, a, b, codes, cap)


def verify_period(graph: TwoGraph, a: int, b: int, pairing: dict) -> bool:
    """Check the full refactorization condition for a given pairing.

    True iff for every (mu, nu) in blue^(a,0) x red^(0,b) the product
    mu*nu has red-first factorization pairing[mu] followed by the
    inverse pairing of nu.  A period's pairing is unique, so this holds
    exactly when the single verified pass finds this pairing.
    """
    _check_exponents(a, b)
    blues = graph.enumerate_paths(Degree(a, 0))
    reds = graph.enumerate_paths(Degree(0, b))
    if set(pairing.keys()) != set(blues) or set(pairing.values()) != set(reds):
        raise GraphError("pairing is not a bijection between the stated path sets")
    return _pairing_codes(graph, a, b) == [pairing[mu].code[3] for mu in blues]


@dataclass(frozen=True)
class PeriodWitness:
    """A verified period: exponents plus the blue-to-red pairing."""

    a: int
    b: int
    pairing: dict

    def to_json(self) -> dict:
        rows = sorted(
            (mu.pretty(), nu.pretty()) for mu, nu in self.pairing.items()
        )
        return {"a": self.a, "b": self.b, "gamma": [list(r) for r in rows]}


PERIODIC = "periodic"
APERIODIC = "aperiodic"
NO_CANDIDATE_PAIRS = "no_candidate_pairs"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class PeriodicityVerdict:
    """Outcome of the bounded periodicity search.

    ``aperiodic`` means every candidate pair up to the multiple bound
    failed; ``checked`` lists the pairs examined.  ``no_candidate_pairs``
    means the edge counts admit no exponent pair at all, which rules out
    periodicity outright.  ``unknown`` is reserved for searches cut off
    by the path cap before the bound was exhausted.
    """

    kind: str
    witness: Optional[PeriodWitness] = None
    checked: tuple = ()
    kmax: int = 0
    detail: str = ""

    @property
    def is_unknown(self) -> bool:
        return self.kind == UNKNOWN

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.kind in (APERIODIC, UNKNOWN):
            out["checked"] = [list(pair) for pair in self.checked]
            out["kmax"] = self.kmax
        if self.detail:
            out["detail"] = self.detail
        return out


def decide_periodicity(
    graph: TwoGraph, kmax: int = 4, cap: int = DEFAULT_PATH_CAP, *, _counted=None
) -> PeriodicityVerdict:
    """Bounded periodicity decision.

    Tries the multiples k*(a0, b0) of the minimal exponent pair for
    k = 1..kmax, one verified pass each.  A verified pairing gives
    ``periodic``; its uniqueness means no other bijection needs to be
    searched.  ``kmax`` below 1 is rejected: an empty search would read
    as ``aperiodic``.  So is ``cap`` below 1, on every input.
    """
    if kmax < 1:
        raise GraphError(f"kmax must be at least 1, got {kmax}")
    if cap < 1:
        raise BadRangeError(f"path cap must be at least 1, got {cap}")
    minimal = minimal_exponents(graph.n_blue, graph.n_red)
    if minimal is None:
        return PeriodicityVerdict(
            kind=NO_CANDIDATE_PAIRS,
            detail="edge counts are not rationally related",
        )
    a0, b0 = minimal
    checked = []
    for k in range(1, kmax + 1):
        a, b = k * a0, k * b0
        try:
            # caps the paths of _counted, if given; N1^a == N2^b caps the red too
            (_counted or graph).check_path_cap(Degree(a, 0), cap)
        except SizeLimitError as exc:
            return PeriodicityVerdict(
                kind=UNKNOWN,
                checked=tuple(checked),
                kmax=kmax,
                detail=f"path cap hit at (a, b) = {(a, b)}: {exc}",
            )
        codes = _pairing_codes(graph, a, b)
        if codes is not None:
            pairing = _pairing_paths(graph, a, b, codes, cap)
            return PeriodicityVerdict(
                kind=PERIODIC, witness=PeriodWitness(a, b, pairing), kmax=kmax
            )
        checked.append((a, b))
    return PeriodicityVerdict(kind=APERIODIC, checked=tuple(checked), kmax=kmax)
