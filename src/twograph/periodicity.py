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
current blue word with the shared move routine ``graphs._move``.  Once
j letters have moved, the rest of the factorization depends only on the
blue word w left behind and the d = b - j letters still to come: call
that the subtree (w, d).  Its products share one head exactly when every
move through w puts out one letter and the subtrees below share their
heads; its tails are the blue words left at its leaves.  A depth holds
at most N1^a words, so a pass looks at each subtree at most once per
call and reuses it wherever w reappears at depth d, in any row.

Every pass walks row 0 first, one level at a time, so a row 0 whose
heads differ fails at the first level whose letters differ, with no
per-product list of heads.  Level j lists the words of row 0's subtrees
at depth b - j, and entry i of it has its children at entries i*N2 to
i*N2 + N2 - 1 of level j + 1.  A candidate pass, which checks
conditions 1 and 4, then finds the head of every blue word at every
depth, one depth at a time from the bottom, in lists indexed by code.
A full pass instead gives each subtree of row 0 an integer tails id,
bottom up from its levels: ids are interned from the children's ids,
so two subtrees at one depth have the same tails exactly when they have
the same id.  Each later row is then compared with row 0's ids from the
top down, so the first tail that differs ends the pass, and condition 3
reads row 0's tails, its last level.  Either pass takes
O(b * N1^a * N2) steps and holds O(b * N1^a * N2) integers, all freed
when it returns.

``verify_period`` checks that a caller's pairing is a bijection on the
path codes and compares it with the full pass's.  Path objects are
built only for the pairing a caller gets back.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .graphs import (
    DEFAULT_PATH_CAP,
    BadRangeError,
    Degree,
    GraphError,
    Path,
    SizeLimitError,
    TwoGraph,
    _check_bound,
    _move,
    _word_texts,
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
    # n_blue^a = n_red^b forces a*e_p = b*f_p for every prime p, so
    # (a, b) is f_p : e_p in lowest terms, the same for every p
    ratios = set()
    for p, e in blue_f.items():
        g = math.gcd(e, red_f[p])
        ratios.add((red_f[p] // g, e // g))
    if len(ratios) != 1:
        return None
    return ratios.pop()


def _word_moves(fwd: tuple, n_blue: int, n_red: int, a: int, word: int) -> tuple:
    """The moves of every red letter through the blue word ``word``.

    Returns the one red letter they all put out and the tuple of the
    blue words they leave behind, in the order of the letters moved in;
    or (None, ()) as soon as two of them put out different letters.
    """
    letter, blues = None, []
    for f in range(n_red):
        f, blue = _move(fwd, n_blue, n_red, a, word, f)
        if f != letter and blues:
            return None, ()
        letter = f
        blues.append(blue)
    return letter, tuple(blues)


def _pairing_codes(
    graph: TwoGraph, a: int, b: int, heads_only: bool = False
) -> Optional[list]:
    """The red code paired with each blue code at (a, b), or None.

    Walks row 0 one level at a time.  Level j holds, in the order of the
    red prefixes of nu, the blue words left behind once j red letters
    have moved through blue word 0, so a level passes exactly when all
    its words put out one common letter, the next digit of the row's
    head, and entry i of level j has its children at entries i*N2 to
    i*N2 + N2 - 1 of level j + 1.  After b levels the list holds the
    row's tails.  A candidate pass then finds every row's head with
    ``_candidate_heads``, a full pass compares the other rows with row
    0 in ``_later_rows``.

    Returns None at the first failure of any kind: two products of a
    row with different heads; a tail that differs from row 0's; a tail
    map that does not send the head back to mu; two rows with the same
    head.  With ``heads_only``, only the first and the last are checked,
    which gives the canonical candidate; otherwise the result is a
    verified period.
    """
    fwd, n_blue, n_red = graph._fwd, graph.n_blue, graph.n_red
    moves: dict = {}
    head, words, levels = 0, [0], []
    for _ in range(b):
        # letter stays -1 until the level's first word sets it
        letter, level = -1, []
        for word in words:
            move = moves.get(word)
            if move is None:
                move = moves[word] = _word_moves(fwd, n_blue, n_red, a, word)
            f, blues = move
            if f != letter:
                if f is None or letter >= 0:
                    # two products mu*nu of row 0 have different heads
                    return None
                letter = f
            level += blues
        levels.append(words)
        head, words = head * n_red + letter, level
    if heads_only:
        return _candidate_heads(graph, a, b, moves)
    if words[head] != 0:
        # the tail map does not invert the head map at row 0
        return None
    # a separate function: the closure there would turn the names this
    # loop reads into cells, and most passes end in this loop
    return _later_rows(graph, a, b, moves, levels, words, head)


def _candidate_heads(graph: TwoGraph, a: int, b: int, moves: dict) -> Optional[list]:
    """Finish a candidate pass of ``_pairing_codes`` once row 0 passed.

    Finds the head of every subtree (w, d), one depth at a time from
    the bottom: ``heads[w]`` is the head of (w, d) as an integer of d
    digits, or None if its products' heads differ.  A word's head at
    depth d + 1 is its moves' common letter followed by its children's
    common head at depth d.  Depth b gives each row's head.  A row can
    fail at any depth, so the pass always runs all b depths over all
    N1^a blue words.
    """
    fwd, n_blue, n_red = graph._fwd, graph.n_blue, graph.n_red
    size = n_blue**a
    letters, kids = [], []
    for word in range(size):
        move = moves.get(word) or _word_moves(fwd, n_blue, n_red, a, word)
        letters.append(move[0])
        # a word whose moves disagree has no children; word 0 stands in for
        # them, as its head stays None whatever theirs are
        kids += move[1] or (0,) * n_red
    heads = letters
    for d in range(1, b):
        place = n_red**d
        below = zip(*[iter(map(heads.__getitem__, kids))] * n_red)
        heads = [
            None if f is None or h[0] is None or h.count(h[0]) < n_red else f * place + h[0]
            for f, h in zip(letters, below)
        ]
    if None in heads or len(set(heads)) != size:
        # two products of some row have different heads, or two rows
        # share a head, so the head map is not a bijection
        return None
    return heads


def _later_rows(
    graph: TwoGraph, a: int, b: int, moves: dict, levels: list, tails_of: list, head: int
) -> Optional[list]:
    """Finish a full pass of ``_pairing_codes`` once row 0 passed.

    ``levels`` are row 0's levels, ``tails_of`` its tails and ``head``
    its head.  First row 0's subtrees get their tails ids, bottom-up
    from its levels: the id of a subtree indexes ``kids``, which holds
    its blue words at depth 1 and its children's ids deeper down.  Ids
    are compared only at one depth, so one table serves every depth.
    ``memo[d]`` maps each word w to the pair (head digits, tails id) of
    the subtree (w, d).

    ``walk(word, d, r)`` then gives that pair for a subtree of a later
    row, where ``r`` is row 0's id at the same place, or None as soon
    as a head differs within it or a tail differs from row 0's.  It
    runs only where ``memo`` has no pair yet.
    """
    fwd, n_blue, n_red = graph._fwd, graph.n_blue, graph.n_red
    memo = [{} for _ in range(b + 1)]
    ids: dict = {}
    # the ids of one level of row 0; at depth 0 a tail is its own id
    level_ids = tails_of
    for d in range(1, b + 1):
        digits, row = head % n_red**d, memo[d]
        level_ids = [
            ids.setdefault(tails, len(ids)) for tails in zip(*[iter(level_ids)] * n_red)
        ]
        for word, r in zip(levels[b - d], level_ids):
            row[word] = (digits, r)
    kids, root = list(ids), level_ids[0]

    def walk(word: int, d: int, r: int) -> Optional[tuple]:
        move = moves.get(word)
        if move is None:
            move = moves[word] = _word_moves(fwd, n_blue, n_red, a, word)
        f, blues = move
        if f is None:
            return None
        if d == 1:
            if blues != kids[r]:
                return None
            digits = f
        else:
            below, digits = memo[d - 1], None
            for c, rc in zip(blues, kids[r]):
                node = below.get(c) or walk(c, d - 1, rc)
                if node is None or node[1] != rc:
                    return None
                if digits is None:
                    digits = node[0]
                elif node[0] != digits:
                    return None
            digits += f * n_red ** (d - 1)
        node = memo[d][word] = (digits, r)
        return node

    heads_of = [head]
    for mu in range(1, n_blue**a):
        node = walk(mu, b, root)
        if node is None:
            # two products of this row have different heads, or the tail
            # of some mu*nu depends on mu
            return None
        if tails_of[node[0]] != mu:
            # the tail map does not invert the head map at mu; as it
            # holds at every other row, no two rows share a head
            return None
        heads_of.append(node[0])
    return heads_of


def _check_exponents(a: int, b: int) -> None:
    # (0, 0) would pair the empty paths vacuously; negative ones have no paths
    if not all(
        isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in (a, b)
    ):
        raise BadRangeError(
            f"exponents must be integers of at least 1, got (a, b) = {(a, b)}"
        )


def _check_counts(graph: TwoGraph, a: int, b: int) -> int:
    """The number of blue paths of degree (a, 0), which must equal the red
    paths of degree (0, b)."""
    size = graph.n_blue**a
    if size != graph.n_red**b:
        raise GraphError(f"path counts differ at (a, b) = {(a, b)}")
    return size


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
    the red path beta and the resulting map is a bijection.  Row 0 still
    fails at its first level whose letters differ, but once it passes,
    the pass finds every row's head one depth at a time and always
    takes the full O(b * N1^a * N2) steps.
    """
    _check_exponents(a, b)
    _check_counts(graph, a, b)
    graph.check_path_cap(Degree(a, 0), cap)
    codes = _pairing_codes(graph, a, b, heads_only=True)
    return None if codes is None else _pairing_paths(graph, a, b, codes, cap)


def _is_path_on(graph: TwoGraph, path) -> bool:
    return isinstance(path, Path) and (path.graph is graph or path.graph == graph)


def verify_period(graph: TwoGraph, a: int, b: int, pairing: dict) -> bool:
    """Check the full refactorization condition for a given pairing.

    True iff for every (mu, nu) in blue^(a,0) x red^(0,b) the product
    mu*nu has red-first factorization pairing[mu] followed by the
    inverse pairing of nu.  A period's pairing is unique, so this holds
    exactly when the single verified pass finds this pairing.

    Raises GraphError if the two path sets differ in size, or if the
    pairing is not a bijection between them, which is checked on the
    path codes; SizeLimitError if they hold more than
    ``DEFAULT_PATH_CAP`` paths.
    """
    _check_exponents(a, b)
    size = _check_counts(graph, a, b)
    graph.check_path_cap(Degree(a, 0), DEFAULT_PATH_CAP)
    codes = sorted(
        (mu.code, nu.code)
        for mu, nu in pairing.items()
        if _is_path_on(graph, mu) and _is_path_on(graph, nu)
    )
    if (
        len(pairing) != size
        or [mu for mu, _ in codes] != [(a, 0, i, 0) for i in range(size)]
        or sorted(nu for _, nu in codes) != [(0, b, 0, j) for j in range(size)]
    ):
        raise GraphError("pairing is not a bijection between the stated path sets")
    return _pairing_codes(graph, a, b) == [nu[3] for _, nu in codes]


class PeriodWitness(NamedTuple):
    """A verified period: exponents plus the blue-to-red pairing.

    ``pairing`` maps each blue path of degree (a, 0) to a red path of
    degree (0, b), all on one graph.
    """

    a: int
    b: int
    pairing: dict

    def to_json(self) -> dict:
        rows = []
        if self.pairing:
            graph = next(iter(self.pairing)).graph
            blues = _word_texts("b", graph.n_blue, self.a, {mu.code[2] for mu in self.pairing})
            reds = _word_texts(
                "r", graph.n_red, self.b, {nu.code[3] for nu in self.pairing.values()}
            )
            # sorted by text, as written: b10 comes before b2
            rows = sorted(
                [blues[mu.code[2]], reds[nu.code[3]]] for mu, nu in self.pairing.items()
            )
        return {"a": self.a, "b": self.b, "gamma": rows}


PERIODIC = "periodic"
APERIODIC = "aperiodic"
NO_CANDIDATE_PAIRS = "no_candidate_pairs"
UNKNOWN = "unknown"


class PeriodicityVerdict(NamedTuple):
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
    as ``aperiodic``.  So is ``cap`` below 1, on every input, and a
    ``kmax`` or ``cap`` that is not an int (a bool is not one).
    """
    _check_bound("kmax", kmax)
    _check_bound("path cap", cap)
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
