"""Independent brute-force oracles; used by tests only.

Nothing here calls back into the decision paths it checks: the
periodicity oracle compares raw path segments, the reorder oracle
performs admissible swaps in random order, and the character-transfer
oracle sums actual roots of unity in exact cyclotomic-integer
arithmetic.  The finite-group transfer oracles list every element
and add Fractions.  The word-algebra oracles find common extensions
by trying every pair of paths at the join degree, and add Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from twograph import Degree


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


# -- exact root-of-unity sums --------------------------------------------------


def _poly_mod(num: list, den: list) -> list:
    """Remainder of integer polynomial division; divisor must be monic.

    Coefficients ascending.  Exact integer arithmetic throughout.
    """
    assert den[-1] == 1
    num = list(num)
    dn = len(den) - 1
    while len(num) - 1 >= dn:
        coeff = num[-1]
        if coeff:
            shift_by = len(num) - 1 - dn
            for i, c in enumerate(den):
                num[shift_by + i] -= coeff * c
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def _poly_div_exact(num: list, den: list) -> list:
    """Exact quotient (remainder must vanish); divisor monic, ascending."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    while len(num) - 1 >= dn:
        coeff = num[-1]
        out[len(num) - 1 - dn] = coeff
        if coeff:
            shift_by = len(num) - 1 - dn
            for i, c in enumerate(den):
                num[shift_by + i] -= coeff * c
        num.pop()
    assert all(c == 0 for c in num), "division was not exact"
    return out


_CYCLOTOMIC_CACHE: dict = {}


def cyclotomic(n: int) -> list:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial."""
    cached = _CYCLOTOMIC_CACHE.get(n)
    if cached is not None:
        return cached
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic(d))
    _CYCLOTOMIC_CACHE[n] = poly
    return poly


def root_sum_is_zero(exponent_coeffs: dict, m: int) -> bool:
    """Whether sum of c_t * zeta_m^t vanishes, decided in Z[zeta_m]."""
    poly = [0] * m
    for t, c in exponent_coeffs.items():
        poly[t % m] += c
    while poly and poly[-1] == 0:
        poly.pop()
    if not poly:
        return True
    return not _poly_mod(poly, cyclotomic(m))


def character_transfer_on_subgroup(a: int, x: int, claimed, K: int = 12) -> bool:
    """Pointwise transfer of the exponent-x character on a cyclic subgroup.

    Realizes the circle's order-K cyclic subgroup together with its
    a-th roots inside the order a*K subgroup, sums the character over
    the preimages of each point, and compares with the claimed result
    (a character exponent, or None for the zero function).  All
    comparisons happen in exact cyclotomic-integer arithmetic.
    """
    m = a * K
    for u in range(K):
        # preimages of zeta_K^u are zeta_m^(u + j*K); the transfer value
        # is (1/a) * sum over j of the character, so compare a * claim
        sums: dict = {}
        for j in range(a):
            t = (x * (u + j * K)) % m
            sums[t] = sums.get(t, 0) + 1
        if claimed is None:
            if not root_sum_is_zero(sums, m):
                return False
        else:
            t = (a * u * claimed) % m
            sums[t] = sums.get(t, 0) - a
            if not root_sum_is_zero(sums, m):
                return False
    return True


def _listed_group(factors):
    """Elements of Z_d1 x ... x Z_dk in lexicographic order, and their positions."""
    elements = [()]
    for d in factors:
        elements = [x + (y,) for x in elements for y in range(d)]
    return elements, {x: i for i, x in enumerate(elements)}


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
