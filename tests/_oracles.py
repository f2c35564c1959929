"""Independent brute-force oracles; used by tests only.

Nothing here calls back into the decision paths it checks: the
periodicity oracle compares raw path segments, and the reorder oracle
performs admissible swaps in random order.  The prefix and tails
oracles, the checks of the periodicity lemmas and the witness that a
row or a column splits factor every product they need through that
reorder oracle, never through the move routine of the periodicity
pass.  The finite-group transfer oracles list every element and add
Fractions, and the kernel oracle counts the listed elements a power
map sends to zero.  The word-algebra oracles find common extensions by trying every
pair of paths at the join degree, and add Fractions; the level
expansion composes each pair of paths by random admissible swaps.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from twograph import Degree, Path


def easier_periodic_holds(graph, a, b, degree) -> bool:
    """Raw segment comparison over every path of the given degree.

    Checks lam((a,0), d-(0,b)) == lam((0,b), d-(a,0)) for all lam; the
    finite-path formulation of periodicity at (a, b).
    """
    degree = Degree(*degree)
    if not Degree(a, b).leq(degree):
        raise ValueError("degree must dominate (a, b)")
    for lam in graph.enumerate_paths(degree):
        left = lam.segment(Degree(a, 0), degree - Degree(0, b))
        right = lam.segment(Degree(0, b), degree - Degree(a, 0))
        if left != right:
            return False
    return True


def randomized_reorder(graph, path, pattern, rng) -> list:
    """Reorder by randomly chosen admissible adjacent swaps.

    Each step picks uniformly among the adjacent transpositions that
    strictly move the color word toward the target pattern, so repeated
    runs exercise different swap orders.
    """
    colors = [0] * len(path.blues) + [1] * len(path.reds)
    ids = list(path.blues + path.reds)
    target = list(pattern)

    def red_positions(seq):
        return [i for i, c in enumerate(seq) if c == 1]

    goal = red_positions(target)

    def distance(seq):
        return sum(abs(p - q) for p, q in zip(red_positions(seq), goal))

    while colors != target:
        dist = distance(colors)
        moves = []
        for i in range(len(colors) - 1):
            if colors[i] == colors[i + 1]:
                continue
            swapped = colors[:]
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if distance(swapped) < dist:
                moves.append(i)
        i = rng.choice(moves)
        if colors[i] == 0:
            ff, ee = graph.commute_blue_red(ids[i], ids[i + 1])
            colors[i], ids[i] = 1, ff
            colors[i + 1], ids[i + 1] = 0, ee
        else:
            ee, ff = graph.commute_red_blue(ids[i], ids[i + 1])
            colors[i], ids[i] = 0, ee
            colors[i + 1], ids[i + 1] = 1, ff
    return list(zip(colors, ids))


# -- the moves of a periodicity pass, by reordering ----------------------------


def red_first(graph, blues, reds, rng) -> tuple:
    """The red head and the blue tail of the path ``blues`` then ``reds``,
    as letter tuples, from ``randomized_reorder``."""
    pattern = [1] * len(reds) + [0] * len(blues)
    word = randomized_reorder(graph, Path(graph, blues, reds), pattern, rng)
    return tuple(x for _, x in word[: len(reds)]), tuple(x for _, x in word[len(reds) :])


def _words(n: int, length: int) -> list:
    return list(product(range(n), repeat=length))


def moved_prefixes(graph, a: int, j: int, rng) -> dict:
    """``{(mu, p): (q, w)}`` over every blue word mu of length a and red
    word p of length j: moving p through mu puts out q and leaves w."""
    return {
        (mu, p): red_first(graph, mu, p, rng)
        for mu in _words(graph.n_blue, a)
        for p in _words(graph.n_red, j)
    }


def one_step_holds(graph, a: int, b: int, rng) -> bool:
    """The one-step check of the periodicity lemma: with words[nu] the
    blue tail of blue word 0 followed by the red word nu of length b,
    moving any red letter f through words[nu] puts out nu's first letter
    and leaves words[nu[1:] f].  False unless N1^a == N2^b, which the
    lemma assumes."""
    if graph.n_blue**a != graph.n_red**b:
        return False
    zero = (0,) * a
    words = {nu: red_first(graph, zero, nu, rng)[1] for nu in _words(graph.n_red, b)}
    return all(
        red_first(graph, w, (f,), rng) == (nu[:1], words[nu[1:] + (f,)])
        for nu, w in words.items()
        for f in range(graph.n_red)
    )


def candidate_heads(graph, a: int, b: int, rng):
    """The heads Z of the candidate lemma, if its check holds, else None.

    Z[w] is the red head of w followed by b red letters 0.  The check:
    moving any red letter f through w puts out Z[w][0] and leaves a
    word c whose Z[c] starts with Z[w][1:].  Returns ``{w: Z[w]}`` over
    the blue words w of length a as letter tuples, or None when the
    check fails or N1^a != N2^b, which the lemma assumes."""
    if graph.n_blue**a != graph.n_red**b:
        return None
    heads = {w: red_first(graph, w, (0,) * b, rng)[0] for w in _words(graph.n_blue, a)}
    for w, head in heads.items():
        for f in range(graph.n_red):
            g, c = red_first(graph, w, (f,), rng)
            if g != head[:1] or heads[c][: b - 1] != head[1:]:
                return None
    return heads


def period_heads(graph, a: int, b: int, rng):
    """The heads Z of the period lemma, if its criterion holds, else None.

    The criterion: every row has one head, Z[w] for the blue word w, and
    moving any red letter f through w leaves a word c with Z[c] equal
    to Z[w][1:] followed by f.  Returns ``{w: Z[w]}`` over the blue
    words w of length a as letter tuples, or None when the criterion
    fails or N1^a != N2^b, which the lemma assumes."""
    if graph.n_blue**a != graph.n_red**b:
        return None
    heads = {}
    for w in _words(graph.n_blue, a):
        row = {red_first(graph, w, nu, rng)[0] for nu in _words(graph.n_red, b)}
        if len(row) != 1:
            return None
        heads[w] = row.pop()
    for w, head in heads.items():
        for f in range(graph.n_red):
            if heads[red_first(graph, w, (f,), rng)[1]] != head[1:] + (f,):
                return None
    return heads


def row_or_column_splits(graph, a: int, b: int, rng) -> bool:
    """Whether some blue word of length a has two heads over the red
    words of length b (a row with two heads), or some red word of
    length b two tails over the blue words (a column with two tails).
    Either rules out a period at (a, b)."""
    blues, reds = _words(graph.n_blue, a), _words(graph.n_red, b)
    products = {(mu, nu): red_first(graph, mu, nu, rng) for mu in blues for nu in reds}
    return any(len({products[mu, nu][0] for nu in reds}) > 1 for mu in blues) or any(
        len({products[mu, nu][1] for mu in blues}) > 1 for nu in reds
    )


def tails_classes(graph, a: int, d: int, rng) -> int:
    """How many distinct tails vectors the blue words of length a have
    with d red letters still to come: the vector of w lists the blue
    tail of w*s for every red word s of length d, in order."""
    suffixes = _words(graph.n_red, d)
    return len(
        {
            tuple(red_first(graph, w, s, rng)[1] for s in suffixes)
            for w in _words(graph.n_blue, a)
        }
    )


# -- finite-group transfers by listing -------------------------------------------


def _listed_group(factors):
    """Elements of Z_d1 x ... x Z_dk in lexicographic order, and their positions."""
    elements = [()]
    for d in factors:
        elements = [x + (y,) for x in elements for y in range(d)]
    return elements, {x: i for i, x in enumerate(elements)}


def kernel_by_listing(factors, n: int) -> int:
    """How many listed elements x have n copies of x adding up to zero."""
    elements, _ = _listed_group(factors)
    return sum(all(n * c % d == 0 for c, d in zip(x, factors)) for x in elements)


def transfer_by_listing(factors, a: int, table) -> list:
    """Mean of ``table`` over the a-th power preimages of each element,
    summed as Fractions over the listed elements."""
    elements, position = _listed_group(factors)
    sums = [Fraction(0)] * len(elements)
    counts = [0] * len(elements)
    for x, value in zip(elements, table):
        image = position[tuple(a * c % d for c, d in zip(x, factors))]
        sums[image] += Fraction(value)
        counts[image] += 1
    # every image point has as many preimages as the kernel has elements
    kernel = counts[0]
    return [s / kernel for s in sums]


def pullback_by_listing(factors, a: int, table) -> list:
    """``table`` evaluated at the a-th power of each listed element."""
    elements, position = _listed_group(factors)
    return [
        Fraction(table[position[tuple(a * c % d for c, d in zip(x, factors))]])
        for x in elements
    ]


# -- the word algebra on Paths and Fractions -------------------------------------


def _concat(graph, p, q):
    """The path of the colored word of p followed by that of q."""
    return graph.path(p.word() + q.word())


def word_product(graph, x: dict, y: dict) -> dict:
    """The word product of ``{(Path, Path): coefficient}`` dicts, zeros dropped.

    s_mu s_nu^* . s_alpha s_beta^* is the sum of s_{mu z} s_{beta w}^*
    over every pair (z, w) with nu z == alpha w at the join of d(nu)
    and d(alpha), found by trying all such pairs.
    """
    out = {}
    for (mu, nu), c in x.items():
        for (alpha, beta), d in y.items():
            top = nu.degree.join(alpha.degree)
            for z in graph.enumerate_paths(top - nu.degree):
                nu_z = _concat(graph, nu, z)
                for w in graph.enumerate_paths(top - alpha.degree):
                    if _concat(graph, alpha, w) == nu_z:
                        key = (_concat(graph, mu, z), _concat(graph, beta, w))
                        out[key] = out.get(key, 0) + Fraction(c) * Fraction(d)
    return {key: c for key, c in out.items() if c}


def word_transfer(graph, degree, x: dict) -> dict:
    """The exact average of s_lam^* x s_lam over every path lam of ``degree``."""
    empty = graph.empty_path()
    lams = graph.enumerate_paths(degree)
    out = {}
    for lam in lams:
        left = word_product(graph, {(empty, lam): 1}, x)
        for key, c in word_product(graph, left, {(lam, empty): 1}).items():
            out[key] = out.get(key, 0) + c / len(lams)
    return {key: c for key, c in out.items() if c}


def concat_by_reordering(graph, p, q, rng):
    """The path of p followed by q, brought to blue-first form by swapping
    a randomly chosen adjacent (red, blue) pair until none is left."""
    letters = [(0, e) for e in p.blues] + [(1, f) for f in p.reds]
    letters += [(0, e) for e in q.blues] + [(1, f) for f in q.reds]
    while True:
        swaps = [
            i
            for i in range(len(letters) - 1)
            if letters[i][0] == 1 and letters[i + 1][0] == 0
        ]
        if not swaps:
            break
        i = rng.choice(swaps)
        e, f = graph.commute_red_blue(letters[i][1], letters[i + 1][1])
        letters[i], letters[i + 1] = (0, e), (1, f)
    return Path(graph, [x for c, x in letters if c == 0], [x for c, x in letters if c == 1])


def level_expansion(graph, x: dict, degree, rng) -> dict:
    """The summation relation applied once to every term of ``x``: each
    s_mu s_nu^* becomes the sum of s_{mu lam} s_{nu lam}^* over the paths
    lam of ``degree``, composed by :func:`concat_by_reordering`."""
    out = {}
    for (mu, nu), c in x.items():
        for lam in graph.enumerate_paths(degree):
            key = (
                concat_by_reordering(graph, mu, lam, rng),
                concat_by_reordering(graph, nu, lam, rng),
            )
            out[key] = out.get(key, 0) + c
    return out
