"""Periodicity decision for single-vertex rank-2 graphs.

Periodicity is equivalent to the existence of a degree pair (a, b) and
a bijection gamma between the blue paths of degree (a,0) and the red
paths of degree (0,b) under which every product mu*nu refactors
red-first as gamma(mu) followed by gamma^-1(nu).  Instead of searching
the (N1^a)! bijections, one pass over the blue words decides it.  A
pairing exists exactly when four conditions hold:

1. the red head of mu*nu does not depend on nu;
2. the blue tail of mu*nu does not depend on mu;
3. the tail map inverts the head map;
4. no two blue paths share a head.

A pairing that satisfies the refactorization condition is therefore
the one read off the heads.  The candidate pairing is the head map
under conditions 1 and 4 alone, and when N1^a = N2^b condition 4
follows from condition 1 (the corollary below).

Paths in that pass are the integer codes of ``graphs.py``: a blue path
of degree (a,0) is its blue code and a red path of degree (0,b) its red
code, so code i is ``enumerate_paths(...)[i]``, and a red word's first
letter is its leading digit.  The red-first factorization of mu*nu
moves each red letter of nu leftward through the current blue word.
Moving the red letter f through the blue word w puts out a red letter
g_f(w) and leaves a blue word c_f(w): these are the moves of w.  The
letters of a red word move one at a time, so the head of w*(f s) is
g_f(w) followed by the head of c_f(w)*s, and the head of w*rho extends
the head of w*p for every prefix p of rho.

Recurrence (moves): let w = p e, with e its last blue letter, and let
``_fwd[e*N2 + f] = (f', e')``, the rule (b_e)(r_f) = (r_f')(b_e').
Then g_f(w) = g_f'(p) and c_f(w) = c_f'(p) e', whose code is
c_f'(p) * N1 + e'.  Proof: f meets e first, which turns p e f into
p f' e', and f' then moves through p, which turns p f' into
g_f'(p) c_f'(p).  The moves of a one-letter word e are the table's
row ``_fwd[e*N2 : (e+1)*N2]`` itself.  So the pass reads each word's
moves off its prefix's with N2 lookups, where moving each letter
through the whole word takes a * N2.

Lemma (candidates): let N1^a = N2^b, and let Z[w] be the head of
w*0^b, so that Z_1[w] = g_0(w), Z_(d+1)[w] = g_0(w) Z_d[c_0(w)] and
Z = Z_b.  Every row has one head (condition 1) exactly when, for every
blue word w and red letter f, g_f(w) = Z[w][0] and Z[c_f(w)] starts
with Z[w][1:].  The heads are then Z.

(<=) By induction on d <= b, the head of w*rho is Z[w][:d] for every
blue word w and red word rho of length d.  At d = 0 both are empty.
For rho = f s of length d + 1 <= b, the head of w*rho is g_f(w)
followed by the head of c_f(w)*s, that is Z[w][0] followed by
Z[c_f(w)][:d] = Z[w][1:d+1], as d <= b - 1.  At d = b the head of
every w*rho is Z[w].

(=>) Take s = 0^(b-1).  The head of w*(f s) is g_f(w) followed by the
head of c_f(w)*s, which is Z[c_f(w)][:b-1].  If row w has one head, it
is the head Z[w] of w*0^b, so g_f(w) = Z[w][0] and Z[c_f(w)] starts
with Z[w][1:].

Corollary: under N1^a = N2^b, condition 1 implies condition 4.
Red-first factorization is a bijection from the pairs (mu, nu) of a
blue word of length a and a red word of length b onto the pairs
(nu', mu') of a red word of length b and a blue word of length a: both
are factorizations of the one path mu*nu of degree (a, b), and each
path has exactly one factorization of each order.  So every red word
is the head of some product.  Under condition 1 that product's head is
its row's, so the head map sends the N1^a blue words onto the N2^b red
words; as the two sets have one size, it is one-to-one.  Unequal counts
leave no candidate: with N1^a > N2^b the heads cannot be distinct, and
with N1^a < N2^b the N1^a row heads cannot cover the N2^b red words, so
condition 1 fails.

Lemma (periods): let N1^a = N2^b.  A period exists at (a, b) exactly
when every row has one head Z and, for every blue word w and red
letter f, the word c_f(w) that f leaves behind has the head Z[w][1:] f.
The period is then Z.

(<=) Z is a bijection by the corollary; let words be its inverse.  For
nu = Z[w], moving f through w = words[nu] puts out Z[w][0] = nu[0], by
the candidate lemma, and leaves c_f(w) = words[nu[1:] f].  By induction
on j, moving f1...fj through words[nu] puts out nu[:j] and leaves
words[nu[j:] f1...fj]: at j = 0 nothing moves, and the step on
words[nu[j:] f1...fj] and f(j+1) puts out nu[j] and leaves
words[nu[j+1:] f1...f(j+1)].  At j = b, every product words[nu]*rho
has head nu and tail words[rho], so mu*rho = Z(mu) Z^-1(rho) for every
blue word mu and red word rho: Z is a period.

(=>) Let gamma be a period.  Every row mu has the one head gamma(mu),
so Z = gamma.  Let w be a blue word, nu = gamma(w), and let f leave c
when it moves through w.  As 0*nu = gamma(0) gamma^-1(nu), moving nu
through blue word 0 leaves w.  The path 0*nu*f of degree (a, b + 1)
factors red-first by moving nu and then f, which leaves c; or by
moving nu[0], which leaves some u, and then nu[1:] f through u, which
leaves gamma^-1(nu[1:] f).  Red-first factorizations are unique, so
c = gamma^-1(nu[1:] f) and Z[c] = nu[1:] f = Z[w][1:] f.

Certificate (every k): let Phi_e be the map f -> f' and Psi_f the map
e -> e' of the rule (b_e)(r_f) = (r_f')(b_e').  A red letter f meets
the letters of the blue word e1...ea last to first, so it comes out as
Phi_e1(...(Phi_ea(f))).  The last blue letter ea is rewritten once by
each letter of a red word f1...fb moved through it, f1 first, so the
last letter of the tail is Psi_fb(...(Psi_f1(ea))).  On the head side,
take the pairs (x, y) of distinct red letters, and remove every pair
that no Phi_e takes to a remaining pair of distinct letters, until
nothing changes.  If a pair (x, y) is left, then for every a there are
letters ea, ..., e1, chosen in that order, that keep the images of x
and y a remaining pair; so row e1...ea has two heads, and condition 1
fails at every (a, b).  On the tail side, the same pruning on pairs of
distinct blue letters under the Psi_f gives, for every b, a red word
rho = f1...fb with Psi_fb(...(Psi_f1(x))) != Psi_fb(...(Psi_f1(y))).
Blue words ending in x and in y then give products with rho whose
tails differ, and condition 2, which every period has (the tail of
mu*nu is gamma^-1(nu)), fails at every (a, b).  Either way no k has a
period.  A round of the pruning takes O(N^3) steps, N the letter
count of its side, and removes at least one pair.  The first round
keeps exactly the pairs whose lists of images differ, so it is one
list comparison per pair.

Lemma (superadditivity): read the moves as a machine T whose states
are the blue letters: in state e it reads a red letter f, writes f'
and goes to state e', by ``_fwd[e*N2 + f] = (f', e')``.  Moving a red
word through the blue word e1...ea runs T^a, the serial composition
in which ea reads first, with e1...ea as its start state.  Let
delay(M) be the least t at which some output of the machine M depends
on its input, over all start states: from every start state, the
outputs at times 0 to delay(M) - 1 depend on the state alone.  Then
condition 1 at (a, b) says delay(T^a) >= b, and condition 2 is
condition 1 of the dual machine, whose states are the red letters and
which reads a blue letter e by (f, e) -> (e', f'): it says that the
dual's delay on red words of length b is at least a.  The lemma is
delay(T^(a+a')) >= delay(T^a) + delay(T^a'), and so on the dual side.

Proof: write d for the delay of a machine.  Every state it reaches
starts a copy of the machine, so, from any start state, the output at
time u depends only on the state at time u - d + 1, that is, on the
start state and the inputs up to time u - d.  T^(a+a') is T^a'
followed by T^a.  The outer output at time u reads the inner outputs
up to time u - delay(T^a), and those read the inputs up to time
u - delay(T^a) - delay(T^a').  So the first delay(T^a) + delay(T^a')
outputs depend on the start state alone.  By induction
delay(T^(m*a)) >= m * delay(T^a), so condition 1 (or 2) at
k * (a0, b0) holds at every multiple of k.

A pass returns None on unequal counts, reads the moves of each blue
word in code order off its prefix's by the recurrence, stops at the
first word whose moves put out two letters, and builds Z along red
letter 0 in b - 1 steps.  A candidate pass then makes the candidate
lemma's check once per word and letter, and a verifying pass the
period lemma's, which contains it: all moves of w put out Z[w][0], and
a head Z[w][1:] f starts with Z[w][1:], so every row has one head once
the check holds.  With N1 >= 2 the words of lengths 1 to a number at
most 2 * N1^a, so each pass takes O(N1^a * (N2 + b)) steps and holds
O(N1^a * N2) integers, all freed when it returns.  The moves come from
a chain of generators, one per word length, each holding the moves of
one prefix; so a pass that stops at its first word takes O(a * N2)
steps.  ``decide_periodicity`` asks for the certificate once and, when
it holds, runs no pass.

``verify_period`` checks that a caller's pairing is a bijection on the
path codes and compares it with the verifying pass's.  Path objects are
built only for the pairing a caller gets back.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional

from .graphs import (
    DEFAULT_PATH_CAP,
    BadRangeError,
    Degree,
    GraphError,
    Path,
    TwoGraph,
    _check_bound,
    _check_count,
    _word_texts,
)


class DegenerateCountsError(GraphError):
    """Fewer than two edges of some color; the decision needs both >= 2."""


def minimal_exponents(n_blue: int, n_red: int) -> Optional[tuple]:
    """Least positive (a, b) with n_blue**a == n_red**b, if any.

    Every solution is a multiple of the minimal one.  Returns None when
    the counts are not rationally related (e.g. 2 and 3).  A count that
    is not an int (a bool is not one) raises GraphError.
    """
    _check_count("n1", n_blue)
    _check_count("n2", n_red)
    if n_blue < 2 or n_red < 2:
        raise DegenerateCountsError(
            f"need at least two edges of each color, got {(n_blue, n_red)}"
        )
    # Euclid on the exponents: dividing the larger count by the smaller
    # ends at their largest common root, or meets a remainder when the
    # counts are not powers of one number
    x, y = n_blue, n_red
    while x != y:
        x, y = max(x, y), min(x, y)
        if x % y:
            return None
        x //= y
    # x is the largest common root: n_blue = x^b and n_red = x^a, with a
    # and b coprime
    return tuple(
        next(k for k in range(1, n.bit_length() + 1) if x**k == n)
        for n in (n_red, n_blue)
    )


def _moves(fwd: tuple, n_blue: int, n_red: int, d: int):
    """The moves of every blue word of length d >= 1, lazily, in code
    order.

    Yields, for each word w, the sequence over the red letters f of the
    pairs (g_f(w), c_f(w)): the letter put out and the code of the word
    left behind.  A one-letter word's moves are its row of the table,
    and those of the word p e are read off those of p by the recurrence
    of the module docstring, so each level is one generator over the
    level below and the first word costs O(d * N2).
    """
    rows = [fwd[e * n_red : (e + 1) * n_red] for e in range(n_blue)]
    if d == 1:
        yield from rows
        return
    for prefix in _moves(fwd, n_blue, n_red, d - 1):
        for row in rows:
            yield [(prefix[f][0], prefix[f][1] * n_blue + e) for f, e in row]


def _heads(graph: TwoGraph, a: int, b: int) -> tuple:
    """The heads Z and the moves' words at (a, b), or (None, ()).

    ``kids[w]`` lists the words the moves of w leave, in the order of
    the letters moved in, and ``heads[w]`` is Z[w] as an integer of b
    digits, built along red letter 0.  Returns (None, ()) if N1^a !=
    N2^b, or at the first blue word whose moves put out two letters.
    """
    fwd, n_blue, n_red = graph._fwd, graph.n_blue, graph.n_red
    if n_blue**a != n_red**b:
        return None, ()
    letters, kids = [], []
    for moves in _moves(fwd, n_blue, n_red, a):
        outs, blues = zip(*moves)
        f = outs[0]
        if outs.count(f) != n_red:
            return None, ()
        letters.append(f)
        kids.append(blues)
    heads = letters
    for d in range(1, b):
        place = n_red**d
        heads = [f * place + heads[blues[0]] for f, blues in zip(letters, kids)]
    return heads, kids


def _candidate_codes(graph: TwoGraph, a: int, b: int) -> Optional[list]:
    """The red code of each blue code's head at (a, b) if every row has
    one head (condition 1), else None.

    Runs the candidate lemma: each child of w must have a head whose
    first b - 1 digits are the last b - 1 of w's.  By the corollary the
    heads are then distinct.
    """
    heads, kids = _heads(graph, a, b)
    n_red, low = graph.n_red, graph.n_red ** (b - 1)
    if heads is None or any(
        heads[kid] // n_red != head % low for head, blues in zip(heads, kids) for kid in blues
    ):
        return None
    return heads


def _pairing_codes(graph: TwoGraph, a: int, b: int) -> Optional[list]:
    """The red code paired with each blue code at (a, b), or None.

    Runs the period lemma: the word the red letter f leaves behind in w
    must have the head Z[w][1:] f.  Returns None if N1^a != N2^b, at the
    first blue word whose moves put out two letters, or if the check
    fails anywhere.  Otherwise the result, the heads Z, is a verified
    period.
    """
    heads, kids = _heads(graph, a, b)
    if heads is None:
        return None
    n_red, low = graph.n_red, graph.n_red ** (b - 1)
    # the word f leaves in w needs the head Z[w][1:] f, the f-th code from
    # head % low * N2 on; a loop, as any() over a generator is twice as slow
    for head, blues in zip(heads, kids):
        want = head % low * n_red
        for kid in blues:
            if heads[kid] != want:
                return None
            want += 1
    return heads


def _aperiodic(graph: TwoGraph) -> bool:
    """True if the pair certificate rules out a period at every k.

    On the head side ``phi[f]`` lists Phi_e(f) over the blue letters e,
    and on the tail side ``psi[e]`` lists Psi_f(e) over the red letters
    f, both read from ``_fwd[e*N2 + f] = (f', e')``.  Each side
    starts from the pairs of letters that some letter maps apart, which
    is the first round of the pruning, and removes every pair that no
    letter takes to a remaining pair, until nothing changes; a pair
    left over fails condition 1 (heads) or condition 2 (tails) at every
    k.
    """
    fwd, n_blue, n_red = graph._fwd, graph.n_blue, graph.n_red
    phi = [[fwd[e * n_red + f][0] for e in range(n_blue)] for f in range(n_red)]
    psi = [[fwd[e * n_red + f][1] for f in range(n_red)] for e in range(n_blue)]
    for images in (phi, psi):
        letters = range(len(images))
        pairs = {(x, y) for x in letters for y in letters if images[x] != images[y]}
        while True:
            kept = {(x, y) for x, y in pairs if not pairs.isdisjoint(zip(images[x], images[y]))}
            if kept == pairs:
                break
            pairs = kept
        if pairs:
            return True
    return False


def _check_pair(graph: TwoGraph, a: int, b: int) -> int:
    """The number of blue paths of degree (a, 0), which must equal the red
    paths of degree (0, b) and be within ``DEFAULT_PATH_CAP``; the
    exponents are checked first."""
    # (0, 0) would pair the empty paths vacuously; negative ones have no paths
    if not all(type(x) is int and x >= 1 for x in (a, b)):
        raise BadRangeError(
            f"exponents must be integers of at least 1, got (a, b) = {(a, b)}"
        )
    size = graph.n_blue**a
    if size != graph.n_red**b:
        raise GraphError(f"path counts differ at (a, b) = {(a, b)}")
    graph.check_path_cap(Degree(a, 0), DEFAULT_PATH_CAP)
    return size


def _pairing_paths(graph: TwoGraph, a: int, b: int, codes: list) -> dict:
    return {
        Path._of(graph, (a, 0, mu, 0)): Path._of(graph, (0, b, 0, nu))
        for mu, nu in enumerate(codes)
    }


def candidate_pairing(graph: TwoGraph, a: int, b: int) -> Optional[dict]:
    """The canonical candidate bijection blue^(a,0) -> red^(0,b), or None.

    For each blue path mu the red prefix of mu*beta is extracted; the
    candidate exists only if that prefix is independent of the choice of
    the red path beta, and the resulting map is then a bijection (the
    corollary of the module docstring).  The pass stops at the first
    blue word whose moves put out two letters; otherwise it makes the
    candidate lemma's check once per blue word and red letter.  Each
    word's moves are read off its prefix's by the recurrence of the
    module docstring, so the pass takes O(N1^a * (N2 + b)) steps.
    """
    _check_pair(graph, a, b)
    codes = _candidate_codes(graph, a, b)
    return None if codes is None else _pairing_paths(graph, a, b, codes)


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
    path codes (anything but a Mapping pairs nothing); SizeLimitError if
    they hold more than ``DEFAULT_PATH_CAP`` paths.
    """
    size = _check_pair(graph, a, b)
    if not isinstance(pairing, Mapping):
        pairing = {}  # pairs no path, so it fails the test below
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
    failed; ``checked`` lists the pairs examined.  On a graph with the
    pair certificate it lists the same pairs, and no pair at any multiple
    has a period.  ``no_candidate_pairs``
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
    searched.  A graph with the pair certificate of the module docstring
    runs no pass: each k is still checked against the cap and then fails,
    so the verdict is the one the passes would give.  ``kmax`` below 1
    is rejected: an empty search would read as ``aperiodic``.  So is
    ``cap`` below 1, on every input, and a ``kmax`` or ``cap`` that is
    not an int (a bool is not one).
    ``_counted``, if given, stands for N1 in the blue path count N1^a
    that the cap bounds.
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
    aperiodic = _aperiodic(graph)
    checked = []
    for k in range(1, kmax + 1):
        a, b = k * a0, k * b0
        # caps the blue paths, counted with _counted blue edges if given;
        # N1^a == N2^b caps the red too
        count = (_counted or graph.n_blue) ** a
        if count > cap:
            return PeriodicityVerdict(
                kind=UNKNOWN,
                checked=tuple(checked),
                kmax=kmax,
                detail=f"path cap hit at (a, b) = {(a, b)}: "
                f"{count} paths of degree {(a, 0)} exceed cap {cap}",
            )
        codes = None if aperiodic else _pairing_codes(graph, a, b)
        if codes is not None:
            pairing = _pairing_paths(graph, a, b, codes)
            return PeriodicityVerdict(
                kind=PERIODIC, witness=PeriodWitness(a, b, pairing), kmax=kmax
            )
        checked.append((a, b))
    return PeriodicityVerdict(kind=APERIODIC, checked=tuple(checked), kmax=kmax)
