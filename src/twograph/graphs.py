"""Single-vertex rank-2 graphs as bicolored words with a commutation rule.

A graph is specified by a number of blue edges N1, a number of red edges
N2, and a bijection pairing every blue-red word of length two with the
red-blue word that denotes the same path.  Repeated application of that
rule gives every path a unique representative word for each admissible
color pattern; the blue-first word is the normal form, so path equality
is plain word equality.

Paths are coded as integers, and this module owns the one code.  A path
of degree (m, n) with blue-first word e_1..e_m f_1..f_n is the tuple
``(m, n, blue, red)``, where ``blue`` is the sum of e_i * N1^(m-i) and
``red`` the sum of f_j * N2^(n-j): first letter most significant.  So
code i of a degree is ``enumerate_paths(degree)[i]``, and sorting codes
sorts their paths.  Every path refactorization runs on one move
routine, :func:`_move`: it walks one letter leftward through a coded
word of the other color, one adjacent swap at a time, with the table
``_fwd`` (blue-red to red-blue) or ``_inv`` (red-blue to blue-red).
Composition, splitting (and so reordering) and minimal common
extensions call it.  The periodicity pass, which needs the moves of
every blue word of one length, reads each word's moves off its
prefix's instead (``periodicity._moves``).  The memo tables for
compositions, extensions and path enumerations live here, keyed by
codes.

:class:`Path` is the immutable public view of a code, with its letters,
its degree and the checked constructor.  Paths are built only where
words enter or leave the package; the hot loops of periodicity and the
word algebra work on codes.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Sequence

BLUE = 0
RED = 1

_COLOR_OF_CHAR = {"b": BLUE, "B": BLUE, "r": RED, "R": RED}

#: Enumerations larger than this raise SizeLimitError instead of running.
DEFAULT_PATH_CAP = 10**6


class GraphError(Exception):
    """Base class for errors raised by this package."""


class GroupError(Exception):
    """Base class for group-side errors.

    Defined here, not in ``groups.py``, so the CLI can catch it without
    loading the group systems; ``groups`` re-exports this same class.
    """


class NotBijectiveError(GraphError):
    """The commutation table is not a bijection.

    ``witness`` is the offending blue-red input pair (missing from the
    table, or colliding with another pair on the same image).
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class IdOutOfRangeError(GraphError):
    """An edge id lies outside ``0..N-1`` for its color."""


class PatternMismatchError(GraphError):
    """A color pattern does not match the degree of the path."""


class BadRangeError(GraphError):
    """A degree is negative, or segment endpoints violate ``0 <= p <= q <= degree``."""


class SpecMismatchError(GraphError):
    """Two operands belong to different graphs."""


class SizeLimitError(GraphError):
    """An enumeration would exceed the configured path cap."""


class Degree(NamedTuple):
    """Bidegree (blue length, red length) of a path.

    Tuples compare lexicographically (useful for deterministic sorting);
    the componentwise partial order is exposed as :meth:`leq` with
    :meth:`join` and :meth:`meet` as lattice operations.
    """

    n1: int
    n2: int

    def __add__(self, other: "Degree") -> "Degree":
        return Degree(self.n1 + other.n1, self.n2 + other.n2)

    def __sub__(self, other: "Degree") -> "Degree":
        return Degree(self.n1 - other.n1, self.n2 - other.n2)

    def leq(self, other: "Degree") -> bool:
        return self.n1 <= other.n1 and self.n2 <= other.n2

    def join(self, other: "Degree") -> "Degree":
        return Degree(max(self.n1, other.n1), max(self.n2, other.n2))

    def meet(self, other: "Degree") -> "Degree":
        return Degree(min(self.n1, other.n1), min(self.n2, other.n2))

    def is_valid(self) -> bool:
        return self.n1 >= 0 and self.n2 >= 0


def _as_degree(value) -> Degree:
    """``value`` as a Degree: a pair of ints (a bool is not one).

    The rule holds for a ``Degree`` too, whose fields are not checked
    when it is built.
    """
    try:
        n1, n2 = value
    except (TypeError, ValueError):
        n1 = n2 = None
    if type(n1) is not int or type(n2) is not int:
        raise BadRangeError(f"a degree must be a pair of integers, got {value!r}")
    return value if type(value) is Degree else Degree(n1, n2)


class TwoGraph:
    """A single-vertex 2-graph: edge counts plus the commutation bijection.

    ``theta`` maps each blue-red pair ``(e, f)`` to the red-blue pair
    ``(f2, e2)`` naming the same degree-(1,1) path: a Mapping of such
    pairs, or rows ``[e, f, f2, e2]``.  The constructor owns every table
    rule, however the graph is built (JSON, rows, a Mapping, ``double``).
    Row by row, in table order, each row must be four ints (a bool is not
    one; a Mapping entry ``(e, f): (f2, e2)`` is read as the row
    ``[e, f, f2, e2]``, and one that is not a pair of pairs is named as
    its ``(key, value)`` item) with ids in range, and the table must be
    a bijection.  The first bad row raises a :class:`GraphError` that
    names it; a repeated input pair or image, or a missing pair, raises
    :class:`NotBijectiveError`.
    """

    __slots__ = (
        "n_blue",
        "n_red",
        "_fwd",
        "_inv",
        "_key",
        "_hash",
        "_ext_cache",
        "_paths_cache",
        "_compose_cache",
    )

    def __init__(self, n_blue: int, n_red: int, theta) -> None:
        _check_count("n1", n_blue)
        _check_count("n2", n_red)
        if n_blue < 1 or n_red < 1:
            raise GraphError("edge counts must be at least 1")
        self.n_blue = n_blue
        self.n_red = n_red

        entries = isinstance(theta, Mapping)
        if not (entries or isinstance(theta, Iterable)):
            raise GraphError(f"theta must be rows or a mapping, got {theta!r}")
        # dicts, not n1*n2 slots: a short table on huge counts must fail
        # on its first missing pair, not on the allocation
        fwd: dict = {}
        inv: dict = {}
        for i, row in enumerate(theta.items() if entries else theta):
            try:
                if entries:
                    (e, f), (ff, ee) = row
                    row = [e, f, ff, ee]
                else:
                    e, f, ff, ee = row
            except (TypeError, ValueError):
                e = f = ff = ee = None
            if not (type(e) is type(f) is type(ff) is type(ee) is int):
                raise GraphError(
                    f"theta row {i} must be 4 integers [e, f, f2, e2], got {row!r}"
                )
            if not (0 <= e < n_blue and 0 <= ee < n_blue):
                raise IdOutOfRangeError(f"blue id out of range in row {(e, f, ff, ee)}")
            if not (0 <= f < n_red and 0 <= ff < n_red):
                raise IdOutOfRangeError(f"red id out of range in row {(e, f, ff, ee)}")
            # one lookup per table: a slot already taken keeps its first pair
            image = ff, ee
            if fwd.setdefault(e * n_red + f, image) is not image:
                raise NotBijectiveError(
                    f"pair (b{e}, r{f}) listed twice", witness=(e, f)
                )
            pair = e, f
            if inv.setdefault(ff * n_blue + ee, pair) is not pair:
                raise NotBijectiveError(
                    f"pairs map to the same image (r{ff}, b{ee}); "
                    f"second preimage (b{e}, r{f})",
                    witness=(e, f),
                )
        size = self.n_blue * self.n_red
        if len(fwd) < size:
            # the first missing input pair lies among the first len(fwd)+1
            idx = next(i for i in range(len(fwd) + 1) if i not in fwd)
            e, f = divmod(idx, self.n_red)
            raise NotBijectiveError(
                f"pair (b{e}, r{f}) has no image", witness=(e, f)
            )
        self._fwd = tuple(map(fwd.__getitem__, range(size)))
        self._inv = tuple(map(inv.__getitem__, range(size)))
        self._key = (self.n_blue, self.n_red, self._fwd)
        self._hash = hash(self._key)
        # per-graph memo tables for the hot loops
        self._ext_cache: dict = {}
        self._paths_cache: dict = {}
        self._compose_cache: dict = {}

    # -- basic structure ---------------------------------------------------

    def theta_rows(self) -> list:
        """Rows ``[e, f, f2, e2]`` sorted by input pair: for each blue e,
        the row of ``_fwd`` that holds the images of (e, f), f = 0, 1, ..."""
        n, fwd = self.n_red, self._fwd
        return [
            [e, f, ff, ee]
            for e in range(self.n_blue)
            for f, (ff, ee) in enumerate(fwd[e * n:(e + 1) * n])
        ]

    def commute_blue_red(self, e: int, f: int) -> tuple:
        """Rewrite the word (blue e)(red f) as (red f2)(blue e2)."""
        _check_id(BLUE, e, self.n_blue)
        _check_id(RED, f, self.n_red)
        return self._fwd[e * self.n_red + f]

    def commute_red_blue(self, f: int, e: int) -> tuple:
        """Rewrite the word (red f)(blue e) as (blue e2)(red f2)."""
        _check_id(RED, f, self.n_red)
        _check_id(BLUE, e, self.n_blue)
        return self._inv[f * self.n_blue + e]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, TwoGraph) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"TwoGraph(n_blue={self.n_blue}, n_red={self.n_red})"

    # -- paths -------------------------------------------------------------

    def empty_path(self) -> "Path":
        return Path(self, (), ())

    def blue_path(self, *ids: int) -> "Path":
        return Path(self, tuple(ids), ())

    def red_path(self, *ids: int) -> "Path":
        return Path(self, (), tuple(ids))

    def path(self, word) -> "Path":
        """Build the path of an arbitrary colored word.

        ``word`` is either a string of letters like ``"b0 r1"`` (spaces,
        commas or dots as separators) or an iterable of ``(color, id)``
        pairs.  The word is normalized to blue-first form.
        """
        code = EMPTY
        for color, x in _parse_word(word, (self.n_blue, self.n_red)):
            code = _compose(self, code, (1, 0, x, 0) if color == BLUE else (0, 1, 0, x))
        return Path._of(self, code)

    def path_count(self, degree) -> int:
        """The number of paths of ``degree``, a pair of ints that are not
        negative (BadRangeError otherwise)."""
        m, n = degree = _as_degree(degree)
        if m < 0 or n < 0:
            raise BadRangeError(f"negative degree {degree}")
        return self.n_blue**m * self.n_red**n

    def check_path_cap(self, degree, cap: int) -> None:
        """Raise SizeLimitError if the paths of ``degree`` outnumber ``cap``.

        A cap that is not an integer, or is below 1, is an input error
        (BadRangeError), not a cap hit: it would turn every bounded
        search into ``unknown``.
        """
        _check_bound("path cap", cap)
        count = self.path_count(degree)
        if count > cap:
            raise SizeLimitError(
                f"{count} paths of degree {tuple(degree)} exceed cap {cap}"
            )

    def _paths(self, degree) -> tuple:
        """The codes of all paths of ``degree`` (a pair), in order, at most
        ``DEFAULT_PATH_CAP`` of them: a larger degree raises SizeLimitError.
        A miss checks the degree through :meth:`check_path_cap`."""
        cached = self._paths_cache.get(degree)
        if cached is not None:
            return cached
        self.check_path_cap(degree, DEFAULT_PATH_CAP)
        m, n = degree
        reds = range(self.n_red**n)
        codes = tuple(
            (m, n, blue, red) for blue in range(self.n_blue**m) for red in reds
        )
        self._paths_cache[degree] = codes
        return codes

    def enumerate_paths(self, degree) -> list:
        """All paths of the given degree in lexicographic word order (see :meth:`_paths`)."""
        return [Path._of(self, code) for code in self._paths(_as_degree(degree))]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"n1": self.n_blue, "n2": self.n_red, "theta": self.theta_rows()}

    @classmethod
    def from_json(cls, obj: Mapping) -> "TwoGraph":
        """Build a graph from its JSON spec, naming the field of any malformed value.

        Only the JSON shape is checked here (an object with the three
        keys, the counts first, ``theta`` a list); the rows meet the
        constructor's rules.
        """
        if not isinstance(obj, Mapping):
            raise GraphError(f"graph JSON must be an object, got {type(obj).__name__}")
        try:
            n1, n2, rows = obj["n1"], obj["n2"], obj["theta"]
        except KeyError as exc:
            raise GraphError(f"missing key {exc} in graph JSON") from exc
        # the counts before the table, in the constructor's order
        _check_count("n1", n1)
        _check_count("n2", n2)
        if not isinstance(rows, list):
            raise GraphError(f"theta must be a list of rows, got {type(rows).__name__}")
        return cls(n1, n2, rows)


def _parse_word(word, sizes: tuple) -> list:
    """The ``(color, id)`` letters of a word, each id checked against
    ``sizes`` (the blue and red edge counts)."""
    if isinstance(word, str):
        letters = []
        for token in word.replace(",", " ").replace(".", " ").split():
            color, digits = _COLOR_OF_CHAR.get(token[0]), token[1:]
            if color is None or not _is_decimal(digits):
                raise PatternMismatchError(f"bad letter {token!r}")
            try:
                letters.append((color, int(digits)))
            except ValueError as exc:  # past the interpreter's int-to-str digit limit
                name = "red" if color else "blue"
                raise PatternMismatchError(
                    f"{name} letter {len(letters)} has an id too long to read: {exc}"
                ) from None
    else:
        word = list(word)
        colors = _parse_pattern(c for c, _ in word)  # rejects a color that is not 0 or 1
        letters = [(c, x) for c, (_, x) in zip(colors, word)]
    for color, x in letters:
        _check_id(color, x, sizes[color])
    return letters


def _is_decimal(text: str, signed: bool = False) -> bool:
    """Whether ``text`` is ASCII digits, after one leading ``-`` when
    ``signed``: the package's one rule for an integer written as text.
    ``int()`` would also read "+1", "1_0", " 7", "١" or "１"."""
    if signed and text[:1] == "-":
        text = text[1:]
    return text.isascii() and text.isdigit()


def _check_id(color: int, x, n: int) -> None:
    """Reject an edge id whose type is not ``int``, or that is outside ``0..n-1``."""
    name = "red" if color else "blue"
    if type(x) is not int:
        raise IdOutOfRangeError(f"{name} id {x!r} is not an integer")
    if not 0 <= x < n:
        raise IdOutOfRangeError(f"{name} id {x} out of range")


def _check_count(name: str, value) -> None:
    """Reject an edge count that is not an int (a bool is not one)."""
    if type(value) is not int:
        raise GraphError(f"{name} must be an integer, got {value!r}")


def _check_bound(name: str, value) -> None:
    """Reject a bound whose type is not ``int``, or that is below 1."""
    if type(value) is not int:
        raise BadRangeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise BadRangeError(f"{name} must be at least 1, got {value}")


def _parse_pattern(pattern) -> list:
    """The colors of a pattern: letters ``b``/``B`` and ``r``/``R`` (spaces,
    commas and dots skipped) in a str, or else items that are each
    ``BLUE`` or ``RED`` of type ``int`` (a bool or a float is not one)."""
    if isinstance(pattern, str):
        out = []
        for ch in pattern:
            if ch in " ,.":
                continue
            color = _COLOR_OF_CHAR.get(ch)
            if color is None:
                raise PatternMismatchError(f"bad pattern letter {ch!r}")
            out.append(color)
        return out
    out = list(pattern)
    for i, color in enumerate(out):
        if type(color) is not int or color not in (BLUE, RED):
            raise PatternMismatchError(f"bad color {color!r} at position {i}")
    return out


# -- path codes ----------------------------------------------------------------

#: The code of the empty path.
EMPTY = (0, 0, 0, 0)


def _code(ids, base: int) -> int:
    code = 0
    for x in ids:
        code = code * base + x
    return code


def _letters(code: int, base: int, length: int) -> tuple:
    out = [0] * length
    for i in range(length - 1, -1, -1):
        code, out[i] = divmod(code, base)
    return tuple(out)


def _word_texts(letter: str, base: int, length: int, codes) -> dict:
    """The text ``Path.pretty`` writes for each one-color word in ``codes``,
    keyed by code: ``length`` letters, each one of ``base``.

    Words are written one level at a time from their prefixes, so words
    that share a prefix build its text once.
    """
    if length == 1:
        return {code: letter + str(code) for code in codes}
    heads = _word_texts(letter, base, length - 1, {code // base for code in codes})
    tails = [f" {letter}{i}" for i in range(base)]
    return {code: heads[code // base] + tails[code % base] for code in codes}


def _move(
    table: tuple, n_word: int, n_letter: int, length: int, word: int, letter: int
) -> tuple:
    """Move one letter leftward through a coded word of the other color.

    ``word`` codes ``length`` letters with ``n_word`` choices each, and
    ``letter`` (one of ``n_letter``) stands on its right.  It passes the
    word's letters last to first; ``table[x * n_letter + y]`` rewrites
    each adjacent pair (x, y) as (y', x').  The table is ``_fwd`` for a
    blue word, (b_e)(r_f) = (r_f')(b_e'), and ``_inv`` for a red one,
    (r_f)(b_e) = (b_e')(r_f').  Returns the letter that comes out on the
    left and the code of the word left behind.
    """
    out, place = 0, 1
    for _ in range(length):
        word, x = divmod(word, n_word)
        letter, x = table[x * n_letter + letter]
        out += x * place
        place *= n_word
    return letter, out


def _compose(graph: TwoGraph, p: tuple, q: tuple) -> tuple:
    """The code of ``p*q``: the blue letters of q move left through the red of p."""
    key = (p, q)
    cached = graph._compose_cache.get(key)
    if cached is not None:
        return cached
    n_blue, n_red = graph.n_blue, graph.n_red
    m1, n1, blue1, red1 = p
    m2, n2, blue2, red2 = q
    for e in _letters(blue2, n_blue, m2):
        e, red1 = _move(graph._inv, n_red, n_blue, n1, red1, e)
        blue1 = blue1 * n_blue + e
    result = (m1 + m2, n1 + n2, blue1, red1 * n_red**n2 + red2)
    graph._compose_cache[key] = result
    return result


def _split(graph: TwoGraph, p: tuple, c1: int, c2: int) -> tuple:
    """The codes (head, tail) of ``p`` cut at degree (c1, c2) <= d(p).

    The first c2 red letters move left through the last m-c1 blue ones.
    """
    n_blue, n_red = graph.n_blue, graph.n_red
    m, n, blue, red = p
    head_blue, tail_blue = divmod(blue, n_blue ** (m - c1))
    head_red, tail_red = divmod(red, n_red ** (n - c2))
    moved = 0
    for f in _letters(head_red, n_red, c2):
        f, tail_blue = _move(graph._fwd, n_blue, n_red, m - c1, tail_blue, f)
        moved = moved * n_red + f
    return (c1, c2, head_blue, moved), (m - c1, n - c2, tail_blue, tail_red)


def _extensions(graph: TwoGraph, nu: tuple, alpha: tuple) -> tuple:
    """Minimal common extensions: code pairs (z, x) with nu*z == alpha*x.

    Both extensions reach degree join(d(nu), d(alpha)).  Results are
    cached on the graph; the side with the smaller extension count is
    enumerated, nu's on a tie.  The counts are taken inline: the degrees
    are built here and are never negative.
    """
    key = (nu, alpha)
    cached = graph._ext_cache.get(key)
    if cached is not None:
        return cached
    m1, n1, m2, n2 = nu[0], nu[1], alpha[0], alpha[1]
    top1, top2 = max(m1, m2), max(n1, n2)
    d_nu, d_al = (top1 - m1, top2 - n1), (top1 - m2, top2 - n2)
    n_blue, n_red = graph.n_blue, graph.n_red
    out = []
    if n_blue ** d_nu[0] * n_red ** d_nu[1] <= n_blue ** d_al[0] * n_red ** d_al[1]:
        for tail in graph._paths(d_nu):
            head, rest = _split(graph, _compose(graph, nu, tail), m2, n2)
            if head == alpha:
                out.append((tail, rest))
    else:
        for tail in graph._paths(d_al):
            head, rest = _split(graph, _compose(graph, alpha, tail), m1, n1)
            if head == nu:
                out.append((rest, tail))
    result = tuple(out)
    graph._ext_cache[key] = result
    return result


# -- the public view -------------------------------------------------------------


class Path:
    """The immutable public view of a path code.

    Two paths are equal exactly when their codes (and graphs) agree,
    that is when their blue-first words agree.  Paths sort by degree,
    then by word.
    """

    __slots__ = ("graph", "code")

    def __init__(self, graph: TwoGraph, blues: Sequence[int], reds: Sequence[int]):
        blues, reds = tuple(blues), tuple(reds)
        for e in blues:
            _check_id(BLUE, e, graph.n_blue)
        for f in reds:
            _check_id(RED, f, graph.n_red)
        self.graph = graph
        self.code = (
            len(blues), len(reds), _code(blues, graph.n_blue), _code(reds, graph.n_red)
        )

    @classmethod
    def _of(cls, graph: TwoGraph, code: tuple) -> "Path":
        """The view of a code already known to be valid on ``graph``."""
        path = cls.__new__(cls)
        path.graph = graph
        path.code = code
        return path

    @property
    def blues(self) -> tuple:
        return _letters(self.code[2], self.graph.n_blue, self.code[0])

    @property
    def reds(self) -> tuple:
        return _letters(self.code[3], self.graph.n_red, self.code[1])

    @property
    def degree(self) -> Degree:
        return Degree(self.code[0], self.code[1])

    def word(self) -> list:
        """The normal-form word as ``(color, id)`` pairs."""
        return [(BLUE, e) for e in self.blues] + [(RED, f) for f in self.reds]

    def pretty(self) -> str:
        letters = [f"b{e}" for e in self.blues] + [f"r{f}" for f in self.reds]
        return " ".join(letters) or "e"

    def __repr__(self) -> str:
        return f"Path({self.pretty()!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Path)
            and self.code == other.code
            and (self.graph is other.graph or self.graph == other.graph)
        )

    def __hash__(self) -> int:
        return hash(self.code)

    def __lt__(self, other: "Path") -> bool:
        return self.code < other.code

    # -- refactorization ---------------------------------------------------

    def reorder(self, pattern) -> list:
        """The unique representative word matching a color pattern.

        The pattern must contain exactly as many blue and red letters as
        the degree of the path; the result is a list of ``(color, id)``
        pairs.  Each run of one color is split off the front in turn,
        which is sound because a path has one representative per pattern.
        """
        pattern = _parse_pattern(pattern)
        m, n = self.code[0], self.code[1]
        if pattern.count(BLUE) != m or pattern.count(RED) != n:
            raise PatternMismatchError(f"pattern does not match degree {(m, n)}")
        letters = []
        rest = self
        for color, run in itertools.groupby(pattern):
            k = len(list(run))
            head, rest = rest.split((k, 0) if color == BLUE else (0, k))
            letters += head.word()
        return letters

    def split(self, at) -> tuple:
        """Split into (prefix of degree ``at``, remaining suffix)."""
        at = _as_degree(at)
        d = self.degree
        if not (at.is_valid() and at.leq(d)):
            raise BadRangeError(f"cannot split degree {tuple(d)} at {tuple(at)}")
        head, tail = _split(self.graph, self.code, at.n1, at.n2)
        return Path._of(self.graph, head), Path._of(self.graph, tail)

    def segment(self, p, q) -> "Path":
        """The subpath from degree ``p`` to degree ``q``.

        ``segment(0, d)`` is the path itself; the defining property is
        ``path == segment(0,p) * segment(p,q) * segment(q,d)``.
        """
        p = _as_degree(p)
        q = _as_degree(q)
        if not (p.is_valid() and p.leq(q) and q.leq(self.degree)):
            raise BadRangeError(
                f"need 0 <= {tuple(p)} <= {tuple(q)} <= {tuple(self.degree)}"
            )
        _, tail = self.split(p)
        mid, _ = tail.split(q - p)
        return mid

    def compose(self, other: "Path") -> "Path":
        """Concatenation, renormalized to blue-first form."""
        if not (self.graph is other.graph or self.graph == other.graph):
            raise SpecMismatchError("paths live on different graphs")
        return Path._of(self.graph, _compose(self.graph, self.code, other.code))

    __mul__ = compose


# -- stock graphs ------------------------------------------------------------


def flip_graph(n_blue: int, n_red: int) -> TwoGraph:
    """The commuting rule (b_e)(r_f) = (r_f)(b_e)."""
    return TwoGraph(
        n_blue,
        n_red,
        {
            (e, f): (f, e)
            for e in range(n_blue)
            for f in range(n_red)
        },
    )


def twin_graph(n: int) -> TwoGraph:
    """The index-carrying rule (b_i)(r_j) = (r_i)(b_j); needs equal counts."""
    return TwoGraph(n, n, {(e, f): (e, f) for e in range(n) for f in range(n)})


def random_two_graph(n_blue: int, n_red: int, rng) -> TwoGraph:
    """A uniformly random commutation bijection from ``rng.shuffle``."""
    domain = [(e, f) for e in range(n_blue) for f in range(n_red)]
    images = [(f, e) for f in range(n_red) for e in range(n_blue)]
    rng.shuffle(images)
    return TwoGraph(n_blue, n_red, dict(zip(domain, images)))
